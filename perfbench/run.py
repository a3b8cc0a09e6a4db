"""kdetector benchmark.

    python3 perfbench/run.py --workload triage --seed 1 --seconds 4 --trace 0

Runs one benchmark session (see ``session.py``) from the root of a source
checkout, checks the program's outputs, and prints two JSON lines: an
``info`` line with the sha256 of the generated inputs and the environment,
then the result ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1`` the
session runs once untraced and once traced, and the metrics are the
per-layer ones plus the tracing overhead; the spans are written to
``perfbench/.cache/traces/``. ``--tiny`` shrinks every input for the smoke
test. Exits 2 without a result when the kdetector sources are missing.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kdetector" / "__init__.py").is_file():
        print(f"error: no kdetector sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kdetector
    import numpy

    import corpora
    import probe
    import session
    import spans

    if Path(kdetector.__file__).resolve().parent != SRC / "kdetector":
        print(f"error: imported kdetector from {kdetector.__file__}", file=sys.stderr)
        return 2
    if args.workload not in session.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = session.WORKLOADS[args.workload]
    if args.tiny:
        workload = dataclasses.replace(workload, **session.TINY)

    stream = corpora.stream_inputs(CACHE / "corpora", args.seed, workload.history, workload.incoming)
    tune = corpora.tune_inputs(CACHE / "corpora", args.seed, workload.tune_groups)
    inputs = hashlib.sha256(
        repr((stream.sha256, tune.sha256, dataclasses.astuple(workload), session.TRIAGE_PARAMS)).encode()
    ).hexdigest()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_sha256": inputs,
        "stream_sha256": stream.sha256,
        "tune_sha256": tune.sha256,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }
    print(json.dumps({"info": info}, sort_keys=True), flush=True)

    CACHE.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=CACHE))
    tally = session.Tally()
    units = spans.LAYER_UNITS if args.trace else session.E2E_UNITS
    metrics: dict[str, float] = {}
    try:
        plain = session.Session(workload, stream, tune, work / "plain", args.seconds, tally)
        (work / "plain").mkdir()
        metrics, headline = plain.run()
        if args.trace:
            traced_probe = probe.SpeedProbe()
            recorder = spans.SpanRecorder(traced_probe.clock)
            (work / "traced").mkdir()
            traced = dataclasses.replace(
                plain, work=work / "traced", probe=traced_probe, pause_tracing=recorder.paused
            )
            with spans.installed(recorder):
                _, traced_headline = traced.run()
            metrics = spans.layer_metrics(
                recorder, traced_probe.overall(), traced_headline / headline if headline else 0.0
            )
            recorder.write(CACHE / "traces" / f"{args.workload}-seed{args.seed}.npz")
        print(json.dumps({"speed": {"factor": plain.probe.overall(), "probes": len(plain.probe.took)}}))
    except Exception:  # a run that kdetector broke still reports, as failed
        traceback.print_exc()
        tally.check(False, "the session raised")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = {name: metrics.get(name, math.nan) for name in units}
    finite = all(math.isfinite(value) for value in values.values())
    result = {
        "correct": tally.failed == 0 and finite,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": units[name]}
            for name, value in values.items()
        },
    }
    print(json.dumps(result))
    return 0


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kdetector").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
