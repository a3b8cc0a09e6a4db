"""The names the benchmark harness under ``perfbench/`` looks up in the
package still resolve, so a broken traced run fails here in a second and
not at the end of a benchmark run. The harness is read, never changed."""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

import kdetector
import kdetector.cli
import kdetector.detector
import kdetector.synth

from conftest import make_dump_text, make_sequence

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_run_installs_every_span_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    saved = (kdetector.cli.main, kdetector.detector.sequence_from_text)
    # installed() looks up every (module, name) pair in spans.TARGETS and
    # raises AttributeError on the first one that no longer resolves
    with spans.installed(spans.SpanRecorder()):
        assert kdetector.cli.main is not saved[0]
        assert kdetector.detector.sequence_from_text is not saved[1]
    assert (kdetector.cli.main, kdetector.detector.sequence_from_text) == saved
    sys.modules.pop("spans")


def test_traced_parse_records_skipped_lines(monkeypatch):
    """The traced run counts skipped frame lines from what parse_dump
    returns (``result.report.skipped_lines``), under the name the detector
    looks it up by."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    recorder = spans.SpanRecorder()
    text = make_dump_text(["app::A::f1", "app::B::g1"]).replace(
        "backtrace:\n", "backtrace:\n SFrame: 0x1\n"
    )
    with spans.installed(recorder):
        kdetector.detector.parse_dump(text)
    assert recorder.counters.get("skipped_lines") == 1
    sys.modules.pop("spans")


def test_traced_train_records_the_sequencing_spans(monkeypatch, tmp_path):
    """``train`` sequences its dumps through ``detector.sequence_dump``; the
    traced run must still see the stop-word filter and the sequencer there,
    or ``stopwords.removed_share`` and ``sequencer.unknown_share`` read 0."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "spans", raising=False)
    spans = importlib.import_module("spans")
    corpus = tmp_path / "corpus"
    for argv in (
        ["synth", "--out", corpus, "--groups", "8", "--per-group", "3", "--noise", "0.2", "--seed", "3"],
        ["mine", corpus / "src", "--out", tmp_path / "map.tsv"],
        ["stopwords", corpus / "dumps", "--out", tmp_path / "stop.tsv", "--cutoff", "2"],
    ):
        assert kdetector.cli.main([str(a) for a in argv]) == 0
    recorder = spans.SpanRecorder()
    with spans.installed(recorder):
        assert kdetector.cli.main([
            "train", str(corpus / "pairs_train.tsv"), "--dumps", str(corpus / "dumps"),
            "--map", str(tmp_path / "map.tsv"), "--stoplist", str(tmp_path / "stop.tsv"),
            "--params-out", str(tmp_path / "params.txt"), "--grid-out", str(tmp_path / "grid.tsv"),
        ]) == 0
    assert {"stopwords.filter_stop_words", "sequencer.to_component_sequence"} <= set(recorder.names)
    assert recorder.counters["frames_removed"] > 0 and recorder.counters["occurrences"] > 0
    sys.modules.pop("spans")


def test_names_the_session_and_corpora_use():
    # session.py scores pairs with kdetector.similarity(...).value
    assert inspect.isfunction(kdetector.similarity)
    seq = make_sequence([("A", ["f"]), ("B", ["g"])])
    assert kdetector.similarity(seq, seq, kdetector.ModelParams(1.0, 1.0)).value == 1.0
    # corpora.py patches these two out of synth and hashes trainer.py
    assert callable(kdetector.synth.sample_pairs)
    assert callable(kdetector.synth.split_pairs_by_group)
    assert Path(kdetector.synth.__file__).with_name("trainer.py").is_file()
