"""One benchmark session: every phase of the kdetector workflow, in order.

1. set-up: ``kdetector mine`` and ``kdetector stopwords`` for both corpora,
   then the first open of the history store;
2. ingest: ``Detector.ingest`` of the history into an empty store, then a
   reopen that reads every sequence back;
3. triage: one long-lived ``Detector`` triages incoming dumps with
   ``bind=True`` against the history, under the default 30-day window;
4. detect-cli: one in-process ``kdetector detect --bind`` per incoming dump,
   on a copy of the same history;
5. tune: ``kdetector train`` then ``kdetector evaluate`` on the hard corpus.

Every phase runs in every workload, so every end-to-end metric is reported
on every workload. The workload decides which phase gets the full-size
input and keeps running until ``--seconds`` have passed; the other phases
run a fixed, smaller amount of work. All loops are closed with one caller.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import kdetector
import kdetector.cli as kcli
import kdetector.detector as kdet
import kdetector.knowledge_miner as kminer
import kdetector.stopwords as kstop

from corpora import StreamInputs, TuneInputs
from probe import SpeedProbe

# Triage parameters, fixed so that triage quality does not depend on the
# tuning corpus. With them about 96% of incoming dumps get the right verdict.
TRIAGE_PARAMS = kdetector.ModelParams(0.1, 1.0, 0.5)
STOPWORD_CUTOFF = 2  # the scaffold frames, as in the README walkthrough
SETUP_REPEATS = 3
REOPEN_REPEATS = 3
DUPLICATE, NEW = "duplicate", "new"


@dataclass(frozen=True)
class Workload:
    history: int  # records ingested before the stream starts
    incoming: int  # incoming dumps available to triage and detect-cli
    tune_groups: int  # crash groups in the hard corpus, four dumps each
    main: str  # the phase that runs until --seconds have passed
    triage_min: int = 60  # triage_accuracy is taken over these first dumps
    cli_min: int = 20
    tune_min: int = 5  # train-and-evaluate passes; train_s is their median


# Why each workload exists is recorded in BENCHMARK.json. The incoming pools
# hold over ten times what the main phase gets through in a 4-second run today.
WORKLOADS = {
    "triage": Workload(history=5000, incoming=3000, tune_groups=50, main="triage"),
    "detect-cli": Workload(history=5000, incoming=1000, tune_groups=50, main="detect-cli"),
    "ingest": Workload(history=6000, incoming=200, tune_groups=50, main="ingest"),
    "tune": Workload(history=4000, incoming=200, tune_groups=500, main="tune", tune_min=1),
}

TINY = dict(history=60, incoming=40, tune_groups=20, triage_min=10, cli_min=4, tune_min=1)

# name -> unit, in the order of BENCHMARK.json's end_to_end list
E2E_UNITS = {
    "setup_s": "s",
    "triage_p50_ms": "ms",
    "triage_p95_ms": "ms",
    "detect_cli_p50_ms": "ms",
    "detect_cli_p95_ms": "ms",
    "ingest_per_s": "1/s",
    "reopen_s": "s",
    "store_bytes_per_record": "B",
    "train_s": "s",
    "evaluate_s": "s",
    "heldout_auc": "ratio",
    "heldout_f1": "ratio",
    "triage_accuracy": "ratio",
}


class Tally:
    """Operations attempted and failed; a failed check counts as one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


@contextlib.contextmanager
def _operation(tally: Tally, what: str):
    """Count an exception from the program as one failed operation."""
    try:
        yield
    except Exception as exc:  # a broken operation must not end the run
        tally.check(False, f"{what}: {type(exc).__name__}: {exc}")


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``kdetector <argv>`` in-process; returns the exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kcli.main(argv)
    return code, out.getvalue()


@dataclass
class Session:
    workload: Workload
    stream: StreamInputs
    tune: TuneInputs
    work: Path
    seconds: float
    tally: Tally
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    # the traced run passes its recorder's pause, to leave checks untraced
    pause_tracing: Callable[[], contextlib.AbstractContextManager] = contextlib.nullcontext

    def deadline(self, phase: str) -> float:
        """Main phase: now + seconds. Others: already passed (one pass)."""
        return self.probe.clock() + (self.seconds if phase == self.workload.main else 0.0)

    def run(self) -> tuple[dict[str, float], float]:
        """Every phase in order; returns the metrics and the main phase's
        headline time, which the traced run compares against. Every time
        is scaled to reference speed (see probe.py)."""
        # let the file system finish earlier runs' deletes before timing
        os.sync()
        with self.probe.running():
            return self._run()

    def _run(self) -> tuple[dict[str, float], float]:
        m: dict[str, float] = {}
        scaled = self.probe.scaled
        knowledge = [self._timed_op(self._setup_knowledge) for _ in range(SETUP_REPEATS)]
        cmap, stop_list = knowledge[-1][1]
        history, ingested, ingests = self._ingest(cmap, stop_list)
        m["store_bytes_per_record"] = _tree_bytes(history) / max(len(ingested), 1)
        opens = [self._timed_op(lambda: kdet.FailureStore(history))[0] for _ in range(SETUP_REPEATS)]
        reopens = self._reopen(history, ingested)
        cli_store = self.work / "cli_store"
        shutil.copytree(history, cli_store)
        triage_verdicts, triages, triage_bugs = self._triage(history, cmap, stop_list)
        cli_verdicts, detects = self._detect_cli(cli_store)
        trains, evaluates, evaluated = self._tune()

        m["setup_s"] = statistics.median(scaled([t for t, _ in knowledge])) + statistics.median(scaled(opens))
        latencies = scaled(ingests)
        m["ingest_per_s"] = len(latencies) / (sum(latencies) or float("nan"))
        m["reopen_s"] = statistics.median(scaled(reopens))
        latencies = scaled(triages)
        m["triage_p50_ms"] = _pct(latencies, 50) * 1e3
        m["triage_p95_ms"] = _pct(latencies, 95) * 1e3
        latencies = scaled(detects)
        m["detect_cli_p50_ms"] = _pct(latencies, 50) * 1e3
        m["detect_cli_p95_ms"] = _pct(latencies, 95) * 1e3
        m["train_s"] = statistics.median(scaled(trains))
        m["evaluate_s"] = statistics.median(scaled(evaluates))

        common = min(len(triage_verdicts), len(cli_verdicts))
        self.tally.check(
            triage_verdicts[:common] == cli_verdicts[:common],
            "triage and detect-cli verdict sequences differ",
        )
        m["triage_accuracy"] = self._accuracy(triage_verdicts, triage_bugs)
        m["heldout_auc"] = m["heldout_f1"] = float("nan")
        with self.pause_tracing(), _operation(self.tally, "tuning checks"):
            m.update(self._check_tuning(evaluated))

        headline = {
            "triage": m["triage_p50_ms"] / 1e3,
            "detect-cli": m["detect_cli_p50_ms"] / 1e3,
            "ingest": 1.0 / m["ingest_per_s"],
            "tune": m["train_s"] + m["evaluate_s"],
        }[self.workload.main]
        return m, headline

    def _timed_op(self, func):
        """Runs func; returns its (start, elapsed) clock timing and result."""
        start = self.probe.clock()
        result = func()
        return (start, self.probe.clock() - start), result

    # --- set-up ------------------------------------------------------------

    def _setup_knowledge(self):
        """Mine both source trees and derive both stop lists."""
        self._cli_ok(["mine", str(self.stream.src), "--out", str(self.work / "map.tsv")])
        self._cli_ok([
            "stopwords", str(self.stream.stopword_dumps), "--out", str(self.work / "stop.tsv"),
            "--cutoff", str(STOPWORD_CUTOFF),
        ])
        cmap = kminer.load_component_map((self.work / "map.tsv").read_text())
        stop_list = kstop.parse_stop_words((self.work / "stop.tsv").read_text())
        self._cli_ok(["mine", str(self.tune.src), "--out", str(self.work / "hard_map.tsv")])
        self._cli_ok([
            "stopwords", str(self.tune.dumps), "--out", str(self.work / "hard_stop.tsv"),
            "--cutoff", str(STOPWORD_CUTOFF),
        ])
        return cmap, stop_list

    def _cli_ok(self, argv: list[str]) -> str:
        with _operation(self.tally, f"kdetector {argv[0]}"):
            code, out = run_cli(argv)
            self.tally.check(code == 0, f"kdetector {argv[0]} exited {code}")
            return out
        return ""

    # --- ingest ------------------------------------------------------------

    def _ingest(self, cmap, stop_list):
        """Ingest passes into fresh stores; returns the last pass's store."""
        timings = []
        deadline = self.deadline("ingest")
        passes = 0
        while True:
            store_dir = self.work / f"history{passes}"
            detector = kdet.Detector(kdet.FailureStore(store_dir), cmap, stop_list, TRIAGE_PARAMS)
            ingested = {}
            for dump_id in self.stream.history:
                with _operation(self.tally, f"ingest {dump_id}"):
                    timing, (_, sequence) = self._timed_op(lambda: detector.ingest(
                        self.stream.texts[dump_id], dump_path=f"dumps/{dump_id}.dump"
                    ))
                    timings.append(timing)
                    ingested[dump_id] = sequence
                    self.tally.attempted += 1
            passes += 1
            if self.probe.clock() >= deadline:
                return store_dir, ingested, timings
            shutil.rmtree(store_dir)

    def _reopen(self, store_dir: Path, ingested):
        """Open the store and read every sequence back, REOPEN_REPEATS times."""
        timings = []
        for _ in range(REOPEN_REPEATS):
            def reopen():
                store = kdet.FailureStore(store_dir)
                return {record.dump_id: store.sequence_for(record.dump_id) for record in store.records}

            timing, read = self._timed_op(reopen)
            timings.append(timing)
        for dump_id, sequence in ingested.items():
            self.tally.check(read.get(dump_id) == sequence, f"sequence of {dump_id} read back differs")
        self.tally.check(read.keys() == ingested.keys(), "reopened store holds other records")
        return timings

    # --- triage and detect-cli ----------------------------------------------

    def _triage(self, store_dir: Path, cmap, stop_list):
        detector = kdet.Detector(kdet.FailureStore(store_dir), cmap, stop_list, TRIAGE_PARAMS)
        verdicts, timings = [], []
        deadline = self.deadline("triage")
        for k, dump_id in enumerate(self.stream.incoming):
            if k >= self.workload.triage_min and self.probe.clock() >= deadline:
                break
            verdict = None
            with _operation(self.tally, f"triage {dump_id}"):
                timing, result = self._timed_op(lambda: detector.triage(
                    self.stream.texts[dump_id], dump_path=str(self.stream.dump_path(dump_id)), bind=True
                ))
                timings.append(timing)
                verdict = self._check_report(kdet.render_report(result), dump_id)
            verdicts.append(verdict)
        bugs = {record.bug_id: record.dump_id for record in detector.store.records}
        return verdicts, timings, bugs

    def _detect_cli(self, store_dir: Path):
        verdicts, timings = [], []
        deadline = self.deadline("detect-cli")
        argv = [
            "--map", str(self.work / "map.tsv"), "--stoplist", str(self.work / "stop.tsv"),
            "--store", str(store_dir), "--params", str(self._triage_params_file()), "--bind",
        ]
        for k, dump_id in enumerate(self.stream.incoming):
            if k >= self.workload.cli_min and self.probe.clock() >= deadline:
                break
            verdict = None
            with _operation(self.tally, f"detect {dump_id}"):
                timing, (code, out) = self._timed_op(
                    lambda: run_cli(["detect", str(self.stream.dump_path(dump_id)), *argv])
                )
                timings.append(timing)
                verdict = self._check_report(out if code == 0 else f"exit code {code}", dump_id)
            verdicts.append(verdict)
        return verdicts, timings

    def _triage_params_file(self) -> Path:
        path = self.work / "triage_params.txt"
        if not path.exists():
            p = TRIAGE_PARAMS
            path.write_text(f"#version 1\nm={p.m!r} n={p.n!r} threshold={p.threshold!r}\n")
        return path

    def _check_report(self, text: str, dump_id: str):
        """A detect report must parse and carry a score within [0, 1]."""
        try:
            report = json.loads(text)
            verdict, bug_id, score = report["verdict"], report["bug_id"], report["score"]
            ok = (
                report["dump_id"] == dump_id
                and verdict in (DUPLICATE, NEW)
                and isinstance(bug_id, int)
                and isinstance(score, (int, float))
                and 0.0 <= score <= 1.0
            )
        except (ValueError, KeyError, TypeError):
            ok = False
        if not self.tally.check(ok, f"detect report for {dump_id}: {text.strip()!r}"):
            return None
        return verdict, bug_id, score

    def _accuracy(self, verdicts, bugs: dict[int, str]) -> float:
        """Share of the first triage_min dumps bound to a bug of their own
        group, or filed NEW when no same-group dump is in the window."""
        count = self.workload.triage_min
        right = 0
        for dump_id, verdict in zip(self.stream.incoming[:count], verdicts):
            if verdict is None:
                continue
            kind, bug_id, _ = verdict
            if kind == DUPLICATE:
                right += self.stream.group.get(bugs.get(bug_id)) == self.stream.group[dump_id]
            else:
                right += not self.stream.recent_kin[dump_id]
        return right / count

    # --- tune ----------------------------------------------------------------

    def _tune(self):
        """train then evaluate on the hard corpus, in passes."""
        options = [
            "--dumps", str(self.tune.dumps), "--map", str(self.work / "hard_map.tsv"),
            "--stoplist", str(self.work / "hard_stop.tsv"),
        ]
        trains, evaluates = [], []
        deadline = self.deadline("tune")
        while True:
            trains.append(self._timed_op(lambda: self._cli_ok([
                "train", str(self.tune.pairs_train), *options,
                "--params-out", str(self.work / "params.txt"), "--grid-out", str(self.work / "grid.tsv"),
            ]))[0])
            timing, evaluated = self._timed_op(lambda: self._cli_ok([
                "evaluate", str(self.tune.pairs_test), *options, "--params", str(self.work / "params.txt"),
            ]))
            evaluates.append(timing)
            if len(trains) >= self.workload.tune_min and self.probe.clock() >= deadline:
                return trains, evaluates, evaluated

    def _check_tuning(self, evaluated: str) -> dict[str, float]:
        """The tuned point attains the grid maximum, and the printed model
        AUC matches a brute-force count; returns the held-out quality."""
        params = _read_params(self.work / "params.txt")
        grid = {}
        for line in (self.work / "grid.tsv").read_text().splitlines():
            if line and not line.startswith("#"):
                m, n, auc = line.split("\t")
                grid[(m, n)] = float(auc)
        expected = {(f"{i / 10:.1f}", f"{j / 10:.1f}") for i in range(21) for j in range(21)}
        tuned = grid.get((f"{params.m:.1f}", f"{params.n:.1f}"))
        self.tally.check(grid.keys() == expected, "grid report does not cover the 21x21 grid")
        self.tally.check(
            tuned is not None and tuned == max(grid.values()),
            f"tuned point m={params.m} n={params.n} does not attain the grid maximum",
        )

        scores, labels = self._heldout_scores(params)
        positives, negatives = scores[labels], scores[~labels]
        # brute force over every positive x negative pair, ties count one half
        wins = (positives[:, None] > negatives[None, :]).sum()
        ties = (positives[:, None] == negatives[None, :]).sum()
        auc = (wins + 0.5 * ties) / (len(positives) * len(negatives))
        printed = dict(line.split("\t") for line in evaluated.splitlines() if "\t" in line)
        self.tally.check(
            "kdetector" in printed and abs(float(printed["kdetector"]) - auc) <= 5e-7 + 1e-12,
            f"evaluate printed AUC {printed.get('kdetector')} but brute force gives {auc:.9f}",
        )
        predicted = scores >= params.threshold
        tp = int((predicted & labels).sum())
        fp = int((predicted & ~labels).sum())
        fn = int((~predicted & labels).sum())
        return {"heldout_auc": float(auc), "heldout_f1": 2 * tp / (2 * tp + fp + fn)}

    def _heldout_scores(self, params):
        """Model scores of the test pairs through the library API, so the
        AUC check shares no code with the trainer's scoring loop."""
        cmap = kminer.load_component_map((self.work / "hard_map.tsv").read_text())
        stop_list = kstop.parse_stop_words((self.work / "hard_stop.tsv").read_text())
        sequences = {}

        def sequence(dump_id):
            if dump_id not in sequences:
                dump = kdetector.parse_dump((self.tune.dumps / f"{dump_id}.dump").read_text(), dump_id)
                frames = kdetector.filter_stop_words(dump.backtrace_frames, stop_list)
                sequences[dump_id] = kdetector.to_component_sequence(frames, cmap, dump_id=dump_id)
            return sequences[dump_id]

        scores, labels = [], []
        for line in self.tune.pairs_test.read_text().splitlines():
            if line.strip():
                a, b, label = line.split("\t")
                scores.append(kdetector.similarity(sequence(a), sequence(b), params).value)
                labels.append(label == DUPLICATE)
        return np.array(scores), np.array(labels, dtype=bool)


def _read_params(path: Path):
    fields = {}
    for line in path.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            fields.update(token.split("=", 1) for token in line.split())
    return kdetector.ModelParams(float(fields["m"]), float(fields["n"]), float(fields["threshold"]))


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
