"""In-memory span recorder for the traced run.

Spans are taken from the benchmark's side: each public layer function is
replaced, for the length of the run, by a wrapper that records a span
(name, start, end, parent) around the call. Modules import names directly
(``from .similarity import match_features``), so a function is wrapped under
every module name its callers look it up by. A few wrappers also count what
the call returned, such as skipped frame lines or ``UNKNOWN:`` occurrences.

Spans are kept in flat arrays and written out when the run ends; self time
is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array
from pathlib import Path

import numpy as np

UNKNOWN_PREFIX = "UNKNOWN:"


class SpanRecorder:
    def __init__(self, clock=time.perf_counter) -> None:
        self._clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self._open: list[int] = []
        self._paused = False

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def current(self) -> str | None:
        return self.names[self.name_id[self._open[-1]]] if self._open else None

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self._paused, saved = True, self._paused
        try:
            yield
        finally:
            self._paused = saved

    def call(self, name: str, func, args, kwargs, observe=None):
        """Run func inside a span; then let observe count what it returned."""
        if self._paused:
            return func(*args, **kwargs)
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(self._clock())
        try:
            result = func(*args, **kwargs)
        finally:
            self.end[idx] = self._clock()
            self._open.pop()
        if observe is not None:
            observe(self, args, result)
        return result

    def arrays(self):
        """Name ids, parent indices, inclusive and self durations (seconds)."""
        names = np.frombuffer(self.name_id, dtype=np.int32) if len(self.name_id) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        duration = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        return names, parent, duration, duration - child

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
        )


def _observe_parse(rec: SpanRecorder, args, result) -> None:
    rec.count("skipped_lines", result.report.skipped_lines)


def _observe_filter(rec: SpanRecorder, args, result) -> None:
    rec.count("frames_in", len(args[0]))
    rec.count("frames_removed", len(args[0]) - len(result))


def _observe_sequence(rec: SpanRecorder, args, result) -> None:
    rec.count("occurrences", len(result.occurrences))
    rec.count(
        "unknown_occurrences",
        sum(1 for occ in result.occurrences if occ.component.startswith(UNKNOWN_PREFIX)),
    )


def _observe_lcs(rec: SpanRecorder, args, result) -> None:
    # lcs_match re-enters itself to mirror a pair; count the cells once
    if rec.current() != "similarity.lcs_match":
        rec.count("lcs_cells", len(args[0].occurrences) * len(args[1].occurrences))


def _observe_detect(rec: SpanRecorder, args, result) -> None:
    rec.count("detect_candidates", result.candidates_considered)


# (span name, defining module, attribute, modules that look it up, observer).
# "" stands for the defining module itself. A dotted attribute is a method,
# patched once on its class.
TARGETS = [
    ("dump_parser.parse_dump", "dump_parser", "parse_dump", ("detector", "cli"), _observe_parse),
    ("knowledge_miner.mine_tree", "knowledge_miner", "mine_tree", ("cli",), None),
    ("knowledge_miner.load_component_map", "knowledge_miner", "load_component_map", ("cli", ""), None),
    ("stopwords.derive_stop_words", "stopwords", "derive_stop_words", ("cli",), None),
    ("stopwords.parse_stop_words", "stopwords", "parse_stop_words", ("cli", ""), None),
    ("stopwords.filter_stop_words", "stopwords", "filter_stop_words", ("detector", "cli"), _observe_filter),
    ("sequencer.to_component_sequence", "sequencer", "to_component_sequence", ("detector", "cli"), _observe_sequence),
    ("sequencer.component_distance", "sequencer", "component_distance", ("similarity",), None),
    ("sequencer.sequence_from_text", "sequencer", "sequence_from_text", ("detector",), None),
    ("sequencer.sequence_to_text", "sequencer", "sequence_to_text", ("detector",), None),
    ("similarity.lcs_match", "similarity", "lcs_match", ("",), _observe_lcs),
    ("similarity.match_features", "similarity", "match_features", ("detector", "trainer"), None),
    ("similarity.score_features", "similarity", "score_features", ("detector", "trainer"), None),
    ("similarity.baseline_edit_distance", "similarity", "baseline_edit_distance", ("cli",), None),
    ("trainer.tune_parameters", "trainer", "tune_parameters", ("cli",), None),
    ("trainer.pair_features", "trainer", "pair_features", ("",), None),
    ("trainer.compute_auc", "trainer", "compute_auc", ("", "cli"), None),
    ("trainer.best_f1_threshold", "trainer", "best_f1_threshold", ("",), None),
    ("trainer.score_pairs", "trainer", "score_pairs", ("", "cli"), None),
    ("detector.detect", "detector", "Detector.detect", (), _observe_detect),
    ("detector.FailureStore.open", "detector", "FailureStore.__init__", (), None),
    ("detector.FailureStore.append", "detector", "FailureStore.append", (), None),
    ("detector.FailureStore.has_dump", "detector", "FailureStore.has_dump", (), None),
    ("detector.FailureStore.next_bug_id", "detector", "FailureStore.next_bug_id", (), None),
    ("detector.FailureStore.canonical_bug", "detector", "FailureStore.canonical_bug", (), None),
    ("detector.FailureStore.sequence_for", "detector", "FailureStore.sequence_for", (), None),
]


def _wrap(rec: SpanRecorder, name: str, func, observe):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        return rec.call(name, func, args, kwargs, observe)

    return traced


def _wrap_cli_main(rec: SpanRecorder, func):
    @functools.wraps(func)
    def traced(argv=None):
        command = argv[0] if argv else "none"
        return rec.call(f"cli.main.{command}", func, (argv,), {})

    return traced


@contextlib.contextmanager
def installed(rec: SpanRecorder):
    """Wrap every target for the length of the block, then restore them."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for name, home, attr, users, observe in TARGETS:
            module = importlib.import_module(f"kdetector.{home}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                patch(cls, method, _wrap(rec, name, getattr(cls, method), observe))
                continue
            wrapped = _wrap(rec, name, getattr(module, attr), observe)
            for user in users:
                owner = importlib.import_module(f"kdetector.{user}") if user else module
                patch(owner, attr, wrapped)
        cli = importlib.import_module("kdetector.cli")
        patch(cli, "main", _wrap_cli_main(rec, cli.main))
        yield rec
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


CLI_COMMANDS = ("mine", "stopwords", "train", "evaluate", "detect")

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
LAYER_UNITS = {
    "dump_parser.parse_dump.calls": "count",
    "dump_parser.parse_dump.self_ms_p50": "ms",
    "dump_parser.skipped_lines": "count",
    "knowledge_miner.mine_tree.s": "s",
    "knowledge_miner.load_component_map.ms": "ms",
    "stopwords.derive_stop_words.s": "s",
    "stopwords.parse_stop_words.ms": "ms",
    "stopwords.removed_share": "ratio",
    "sequencer.to_component_sequence.self_s": "s",
    "sequencer.component_distance.calls": "count",
    "sequencer.component_distance.self_s": "s",
    "sequencer.sequence_from_text.self_s": "s",
    "sequencer.sequence_to_text.self_s": "s",
    "sequencer.unknown_share": "ratio",
    "similarity.lcs_match.self_s": "s",
    "similarity.lcs_cells": "count",
    "similarity.match_features.calls": "count",
    "similarity.score_features.calls": "count",
    "similarity.score_features.self_s": "s",
    "similarity.baseline_edit_distance.self_s": "s",
    "trainer.tune_parameters.s": "s",
    "trainer.pair_features.s": "s",
    "trainer.compute_auc.calls": "count",
    "trainer.compute_auc.self_s": "s",
    "trainer.best_f1_threshold.s": "s",
    "trainer.score_pairs.s": "s",
    "detector.detect.ms_p50": "ms",
    "detector.candidates_per_detect": "count",
    "detector.scored_share": "ratio",
    "detector.FailureStore.canonical_bug.self_ms": "ms",
    "detector.FailureStore.open.ms": "ms",
    "detector.FailureStore.sequence_for.calls": "count",
    "detector.FailureStore.sequence_for.self_s": "s",
    "detector.FailureStore.append.ms_p99": "ms",
    "detector.FailureStore.has_dump.self_s": "s",
    "detector.FailureStore.next_bug_id.self_s": "s",
    **{f"cli.main.{command}.self_ms": "ms" for command in CLI_COMMANDS},
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(rec: SpanRecorder, speed_factor: float, overhead_ratio: float) -> dict[str, float]:
    """Per-layer values: ``.calls`` counts calls, ``.s`` and ``.self_s`` sum
    inclusive and self seconds over the run, ``.ms`` and ``.self_ms`` are
    per-call medians, and ``_p50``/``_p99`` name other per-call percentiles.
    Times are scaled to reference speed by ``speed_factor`` (see probe.py)."""
    names, parent, duration, self_time = rec.arrays()
    duration, self_time = duration * speed_factor, self_time * speed_factor
    ids = {name: i for i, name in enumerate(rec.names)}

    def mask(name):
        return names == ids[name] if name in ids else np.zeros(len(names), bool)

    def calls(name):
        return int(mask(name).sum())

    def total(name, values=duration):
        return float(values[mask(name)].sum())

    def per_call_ms(name, q, values=duration):
        picked = values[mask(name)]
        return float(np.percentile(picked, q) * 1e3) if len(picked) else 0.0

    def share(num, den):
        return share_of(rec.counters.get(num, 0), rec.counters.get(den, 0))

    detect_calls = calls("detector.detect")
    scored_in_detect = 0
    if "similarity.match_features" in ids and "detector.detect" in ids:
        in_match = mask("similarity.match_features") & (parent >= 0)
        scored_in_detect = int((names[parent[in_match]] == ids["detector.detect"]).sum())

    return {
        "dump_parser.parse_dump.calls": calls("dump_parser.parse_dump"),
        "dump_parser.parse_dump.self_ms_p50": per_call_ms("dump_parser.parse_dump", 50, self_time),
        "dump_parser.skipped_lines": rec.counters.get("skipped_lines", 0),
        "knowledge_miner.mine_tree.s": total("knowledge_miner.mine_tree"),
        "knowledge_miner.load_component_map.ms": per_call_ms("knowledge_miner.load_component_map", 50),
        "stopwords.derive_stop_words.s": total("stopwords.derive_stop_words"),
        "stopwords.parse_stop_words.ms": per_call_ms("stopwords.parse_stop_words", 50),
        "stopwords.removed_share": share("frames_removed", "frames_in"),
        "sequencer.to_component_sequence.self_s": total("sequencer.to_component_sequence", self_time),
        "sequencer.component_distance.calls": calls("sequencer.component_distance"),
        "sequencer.component_distance.self_s": total("sequencer.component_distance", self_time),
        "sequencer.sequence_from_text.self_s": total("sequencer.sequence_from_text", self_time),
        "sequencer.sequence_to_text.self_s": total("sequencer.sequence_to_text", self_time),
        "sequencer.unknown_share": share("unknown_occurrences", "occurrences"),
        "similarity.lcs_match.self_s": total("similarity.lcs_match", self_time),
        "similarity.lcs_cells": rec.counters.get("lcs_cells", 0),
        "similarity.match_features.calls": calls("similarity.match_features"),
        "similarity.score_features.calls": calls("similarity.score_features"),
        "similarity.score_features.self_s": total("similarity.score_features", self_time),
        "similarity.baseline_edit_distance.self_s": total("similarity.baseline_edit_distance", self_time),
        "trainer.tune_parameters.s": total("trainer.tune_parameters"),
        "trainer.pair_features.s": total("trainer.pair_features"),
        "trainer.compute_auc.calls": calls("trainer.compute_auc"),
        "trainer.compute_auc.self_s": total("trainer.compute_auc", self_time),
        "trainer.best_f1_threshold.s": total("trainer.best_f1_threshold"),
        "trainer.score_pairs.s": total("trainer.score_pairs"),
        "detector.detect.ms_p50": per_call_ms("detector.detect", 50),
        "detector.candidates_per_detect": share_of(rec.counters.get("detect_candidates", 0), detect_calls),
        "detector.scored_share": share_of(scored_in_detect, rec.counters.get("detect_candidates", 0)),
        "detector.FailureStore.canonical_bug.self_ms": per_call_ms(
            "detector.FailureStore.canonical_bug", 50, self_time
        ),
        "detector.FailureStore.open.ms": per_call_ms("detector.FailureStore.open", 50),
        "detector.FailureStore.sequence_for.calls": calls("detector.FailureStore.sequence_for"),
        "detector.FailureStore.sequence_for.self_s": total("detector.FailureStore.sequence_for", self_time),
        "detector.FailureStore.append.ms_p99": per_call_ms("detector.FailureStore.append", 99),
        "detector.FailureStore.has_dump.self_s": total("detector.FailureStore.has_dump", self_time),
        "detector.FailureStore.next_bug_id.self_s": total("detector.FailureStore.next_bug_id", self_time),
        **{
            f"cli.main.{command}.self_ms": per_call_ms(f"cli.main.{command}", 50, self_time)
            for command in CLI_COMMANDS
        },
        "trace.overhead_ratio": overhead_ratio,
    }


def share_of(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
