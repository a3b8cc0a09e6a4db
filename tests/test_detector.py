from __future__ import annotations

import datetime
import json

import pytest

from kdetector.detector import (
    DUPLICATE,
    NEW,
    Detector,
    FailureRecord,
    FailureStore,
    RecencyWindow,
    render_report,
)
from kdetector.errors import DuplicateDumpId, EmptyStack
from kdetector.similarity import ModelParams
from kdetector.stopwords import StopWordList

from conftest import make_component_map, make_dump_text, make_sequence

EPOCH = datetime.datetime(2026, 1, 1, tzinfo=datetime.timezone.utc)
PARAMS = ModelParams(1.0, 1.0, 0.5)


def record(bug_id, dump_id, dupe_of=None, hours=0, top="CompA"):
    return FailureRecord(
        bug_id=bug_id,
        dump_id=dump_id,
        resolution="",
        creation_time=EPOCH + datetime.timedelta(hours=hours),
        dupe_of=dupe_of,
        top_component=top,
    )


def seq(dump_id, *components):
    return make_sequence([(c, [f"{c.lower()}::fn"]) for c in components], dump_id)


@pytest.fixture
def detector(tmp_path):
    cmap = make_component_map(
        {
            "rt::enter": "Runtime",
            "app::A::f1": "CompA",
            "app::A::f2": "CompA",
            "app::B::g1": "CompB",
            "app::C::h1": "CompC",
        }
    )
    stop_list = StopWordList([("rt::enter", 1.0)], cutoff_length=1)
    store = FailureStore(tmp_path / "store")
    return Detector(store, cmap, stop_list, PARAMS)


class TestFailureStore:
    def test_append_and_reload(self, tmp_path):
        store = FailureStore(tmp_path / "store")
        store.append(record(1, "d1"), seq("d1", "CompA", "CompB"))
        reopened = FailureStore(tmp_path / "store")
        assert [r.bug_id for r in reopened.records] == [1]
        assert reopened.sequence_for("d1") == seq("d1", "CompA", "CompB")

    def test_duplicate_dump_id_rejected(self, tmp_path):
        store = FailureStore(tmp_path / "store")
        store.append(record(1, "d1"), seq("d1", "CompA"))
        with pytest.raises(DuplicateDumpId):
            store.append(record(2, "d1"), seq("d1", "CompA"))

    def test_bug_ids_allocate_monotonically(self, tmp_path):
        store = FailureStore(tmp_path / "store")
        assert store.next_bug_id() == 1
        store.append(record(41, "d1"), seq("d1", "CompA"))
        assert store.next_bug_id() == 42

    def test_canonical_bug_is_group_minimum(self, tmp_path):
        store = FailureStore(tmp_path / "store")
        store.append(record(3, "d3"), seq("d3", "CompA"))
        store.append(record(5, "d5", dupe_of=3), seq("d5", "CompA"))
        store.append(record(9, "d9", dupe_of=5), seq("d9", "CompA"))
        store.append(record(7, "d7"), seq("d7", "CompB"))
        assert store.canonical_bug(9) == 3
        assert store.canonical_bug(5) == 3
        assert store.canonical_bug(7) == 7


class TestIngest:
    def test_pipeline_composition(self, detector):
        text = make_dump_text(
            ["rt::enter", "app::A::f1", "app::A::f2", "app::B::g1"],
            dump_id="dump-a",
            time="2026-02-03T04:00:00+00:00",
        )
        rec, sequence = detector.ingest(text, dump_path="dumps/a.dump")
        assert rec.top_component == "CompA"
        assert rec.creation_time == datetime.datetime(
            2026, 2, 3, 4, tzinfo=datetime.timezone.utc
        )
        assert sequence.names == ("CompA", "CompB")
        assert detector.store.has_dump("dump-a")

    def test_reingest_same_dump_id_rejected(self, detector):
        text = make_dump_text(["app::A::f1"], dump_id="dump-a")
        detector.ingest(text)
        with pytest.raises(DuplicateDumpId):
            detector.ingest(text)

    def test_all_stop_words_surfaces_empty_stack(self, detector):
        text = make_dump_text(["rt::enter"], dump_id="dump-a")
        with pytest.raises(EmptyStack):
            detector.ingest(text)


class TestDetect:
    def test_empty_store_yields_new(self, detector):
        result = detector.detect(seq("probe", "CompA"))
        assert result.verdict == NEW
        assert result.bug_id is None
        assert result.candidates_considered == 0

    def test_identical_dump_is_duplicate_with_score_one(self, detector):
        detector.store.append(record(1, "d1"), seq("d1", "CompA", "CompB"))
        result = detector.detect(seq("probe", "CompA", "CompB"), now=EPOCH)
        assert result.verdict == DUPLICATE
        assert result.score == 1.0
        assert result.bug_id == 1

    def test_below_threshold_yields_new(self, detector):
        detector.store.append(record(1, "d1"), seq("d1", "CompA", "CompB", "CompC"))
        result = detector.detect(seq("probe", "CompX", "CompY", "CompC"), now=EPOCH)
        assert result.verdict == NEW
        assert result.score is not None and result.score < PARAMS.threshold

    def test_duplicate_binds_canonical_bug(self, detector):
        detector.store.append(record(4, "d4"), seq("d4", "CompA", "CompB"))
        detector.store.append(record(6, "d6", dupe_of=4), seq("d6", "CompA", "CompB"))
        result = detector.detect(seq("probe", "CompA", "CompB"), now=EPOCH)
        assert result.verdict == DUPLICATE
        assert result.bug_id == 4  # not 6, even if 6 ties on score

    def test_score_tie_prefers_most_recent_then_smallest_bug(self, detector):
        detector.store.append(record(1, "d1", hours=0), seq("d1", "CompA"))
        detector.store.append(record(2, "d2", hours=5), seq("d2", "CompA"))
        result = detector.detect(seq("probe", "CompA"), now=EPOCH + datetime.timedelta(hours=6))
        assert result.bug_id == 2
        detector.store.append(record(9, "d9", hours=5), seq("d9", "CompA"))
        result = detector.detect(seq("probe", "CompA"), now=EPOCH + datetime.timedelta(hours=6))
        assert result.bug_id == 2  # same creation_time, smaller bug id wins

    def test_window_by_days_excludes_old_records(self, detector):
        detector.store.append(record(1, "d1", hours=0), seq("d1", "CompA"))
        detector.store.append(record(2, "d2", hours=24 * 20), seq("d2", "CompB"))
        now = EPOCH + datetime.timedelta(days=40)
        result = detector.detect(
            seq("probe", "CompA"), window=RecencyWindow(days=30), now=now
        )
        # the CompA record fell out of the window; only CompB was scored
        assert result.candidates_considered == 1
        assert result.verdict == NEW

    def test_window_by_last_k(self, detector):
        for i in range(5):
            detector.store.append(
                record(i + 1, f"d{i}", hours=i), seq(f"d{i}", "CompA")
            )
        result = detector.detect(
            seq("probe", "CompA"), window=RecencyWindow(last_k=2), now=EPOCH
        )
        assert result.candidates_considered == 2

    def test_unbounded_window(self, detector):
        detector.store.append(record(1, "d1"), seq("d1", "CompA"))
        result = detector.detect(
            seq("probe", "CompA"),
            window=RecencyWindow(days=None),
            now=EPOCH + datetime.timedelta(days=3650),
        )
        assert result.verdict == DUPLICATE

    def test_exact_match_clears_threshold_of_one(self, tmp_path):
        cmap = make_component_map({"app::A::f1": "CompA"})
        store = FailureStore(tmp_path / "strict-store")
        strict = Detector(store, cmap, StopWordList([], 0), ModelParams(1.0, 1.0, 1.0))
        store.append(record(1, "d1"), seq("d1", "CompA", "CompB"))
        result = strict.detect(seq("probe", "CompA", "CompB"), now=EPOCH)
        assert result.verdict == DUPLICATE
        assert result.score == 1.0


class TestBindOrFile:
    def test_duplicate_binds_dupe_of(self, detector):
        detector.store.append(record(4, "d4"), seq("d4", "CompA", "CompB"))
        probe = seq("probe", "CompA", "CompB")
        result = detector.triage_sequence(probe, EPOCH)
        rec = detector.store.records[-1]
        assert result.bug_id == rec.dupe_of == 4
        assert rec.resolution == "DUPLICATE"
        assert rec.bug_id == 5

    def test_new_files_fresh_bug_and_updates_result(self, detector):
        result = detector.triage(make_dump_text(["app::A::f1"], dump_id="probe"))
        [rec] = detector.store.records
        assert result.verdict == NEW
        assert rec.dupe_of is None
        assert rec.resolution == ""
        assert result.bug_id == rec.bug_id == 1

    def test_second_identical_new_becomes_duplicate_of_first(self, detector):
        text_one = make_dump_text(["app::A::f1", "app::B::g1"], dump_id="da")
        text_two = make_dump_text(["app::A::f1", "app::B::g1"], dump_id="db")
        first = detector.triage(text_one)
        second = detector.triage(text_two)
        assert first.verdict == NEW
        assert second.verdict == DUPLICATE
        assert second.bug_id == first.bug_id


class TestTriage:
    def test_deterministic_for_same_inputs(self, tmp_path):
        def run(root):
            cmap = make_component_map({"app::A::f1": "CompA", "app::B::g1": "CompB"})
            store = FailureStore(root)
            det = Detector(store, cmap, StopWordList([], 0), PARAMS)
            reports = []
            for dump_id in ("da", "db", "dc"):
                text = make_dump_text(["app::A::f1", "app::B::g1"], dump_id=dump_id)
                reports.append(render_report(det.triage(text)))
            return reports

        assert run(tmp_path / "one") == run(tmp_path / "two")


def test_render_report_is_sorted_json(detector):
    detector.store.append(record(1, "d1"), seq("d1", "CompA"))
    result = detector.detect(seq("probe", "CompA"), now=EPOCH)
    data = json.loads(render_report(result))
    assert data == {
        "bug_id": 1,
        "candidates_considered": 1,
        "dump_id": "probe",
        "m": 1.0,
        "n": 1.0,
        "score": 1.0,
        "threshold": 0.5,
        "verdict": "duplicate",
    }
