"""Smoke test for the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload at ``--tiny`` sizes, untraced and traced, and checks
the output contract: the info line records the input digests and the
environment, the last line holds exactly ``correct``, ``attempted``,
``failed`` and ``metrics``, no operation failed, and every metric named in
BENCHMARK.json is present with its unit and a finite value. It makes no
wall-clock assertions. It also checks that a copy of the benchmark without
the kdetector sources exits non-zero without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
INFO_KEYS = {
    "workload", "seed", "inputs_sha256", "stream_sha256", "tune_sha256",
    "python", "numpy", "nproc", "git_commit", "source_sha256",
}


def run(cwd: Path, workload: str, trace: int, tiny: bool = True) -> subprocess.CompletedProcess:
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace),
    ]
    return subprocess.run(argv + (["--tiny"] if tiny else []), cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    done = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr[-500:]}"]
    lines = done.stdout.strip().splitlines()
    info = json.loads(lines[0])["info"]
    result = json.loads(lines[-1])
    problems = []
    if set(info) != INFO_KEYS or len(info["inputs_sha256"]) != 64:
        problems.append(f"{where}: info line is {info}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys are {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metric names or units differ: {set(got.items()) ^ set(wanted.items())}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{where}: {name} = {entry['value']!r}")
    return problems


def check_without_sources() -> list[str]:
    bare = BENCH / ".cache" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = run(bare, "triage", 0, tiny=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"metrics"' in done.stdout:
        return [f"without sources: exit {done.returncode}, stdout {done.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
