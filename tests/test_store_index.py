"""The failure store's in-memory index against the record scans it replaced
(``oracles.py``), plus the store's input checks: unsafe dump ids,
malformed ``bugs.ndjson`` lines, and a record decoder that accepts and
rejects exactly the lines ``json.loads`` does."""

from __future__ import annotations

import datetime
import json
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from kdetector.cli import main
from kdetector.detector import (
    FailureRecord,
    FailureStore,
    RecencyWindow,
    record_from_json,
    record_to_json,
)
from kdetector.errors import DuplicateDumpId, MalformedRecord, UnsafeDumpId
from kdetector.trainer import build_groups

from conftest import make_dump_text, make_sequence

EPOCH = datetime.datetime(2026, 1, 1, tzinfo=datetime.timezone.utc)
PLUS_TWO = datetime.timezone(datetime.timedelta(hours=2))
DUMP_IDS = [f"d{i}" for i in range(12)]
BUG_IDS = st.integers(-1, 6)
# few bug ids, hours and two offsets, so (creation_time, bug_id) keys tie often,
# also across offsets
APPEND = st.tuples(
    st.just("append"),
    st.sampled_from(DUMP_IDS),
    BUG_IDS,
    st.none() | BUG_IDS,
    st.integers(0, 4),
    st.sampled_from([datetime.timezone.utc, PLUS_TWO]),
    st.booleans(),  # query the index after this step
)
STEPS = st.lists(st.one_of(APPEND, st.just(("reopen",))), max_size=30)
WINDOWS = [
    RecencyWindow(days=None),
    RecencyWindow(days=0.1),
    RecencyWindow(days=0.125),
    RecencyWindow(days=1.0),
    RecencyWindow(last_k=0),
    RecencyWindow(last_k=1),
    RecencyWindow(last_k=3),
    RecencyWindow(last_k=100),
]
NOWS = [EPOCH + datetime.timedelta(hours=h) for h in (0, 3, 6, 40)]


GOOD = json.loads(record_to_json(FailureRecord(1, "d1", "", EPOCH, None, "CompA")))


def _line(**changes) -> str:
    return json.dumps({**GOOD, **changes})


def _assert_matches_scans(store: FailureStore, records: list[FailureRecord]) -> None:
    for dump_id in DUMP_IDS:
        assert store.has_dump(dump_id) == oracles.has_dump(records, dump_id)
    assert store.next_bug_id() == oracles.next_bug_id(records)
    for bug_id in {record.bug_id for record in records}:
        assert store.canonical_bug(bug_id) == oracles.canonical_bug(records, bug_id)
    for window in WINDOWS:
        for now in NOWS:
            live = store.window(window, now)
            frozen = oracles.window_records(records, window.days, window.last_k, now)
            assert [r.dump_id for r in live] == [r.dump_id for r in frozen]


@settings(max_examples=150, deadline=None)
@given(STEPS)
# a key tie after the time order is built: the later append goes last
@example([("append", "d0", 1, None, 0, datetime.timezone.utc, True),
          ("append", "d1", 1, None, 0, datetime.timezone.utc, True)])
def test_index_matches_record_scans(steps):
    with tempfile.TemporaryDirectory() as tmp:
        store = FailureStore(tmp)
        records: list[FailureRecord] = []
        for step in steps:
            if step[0] == "reopen":
                store = FailureStore(tmp)
                continue
            _, dump_id, bug_id, dupe_of, hours, zone, query = step
            record = FailureRecord(
                bug_id=bug_id,
                dump_id=dump_id,
                resolution="",
                creation_time=(EPOCH + datetime.timedelta(hours=hours)).astimezone(zone),
                dupe_of=None if dupe_of == bug_id else dupe_of,
                top_component="CompA",
            )
            if oracles.has_dump(records, dump_id):
                with pytest.raises(DuplicateDumpId):
                    store.append(record, make_sequence([("CompA", ["a::f"])], dump_id))
            else:
                store.append(record, make_sequence([("CompA", ["a::f"])], dump_id))
                records.append(record)
            if query:
                _assert_matches_scans(store, records)
        _assert_matches_scans(store, records)
        assert len(FailureStore(tmp)) == len(records)


def test_dangling_edge_joins_when_its_target_arrives(tmp_path):
    store = FailureStore(tmp_path)
    seq = make_sequence([("CompA", ["a::f"])])

    def add(bug_id, dupe_of=None):
        record = FailureRecord(bug_id, f"d{bug_id}", "", EPOCH, dupe_of, "CompA")
        store.append(record, seq)

    add(5, dupe_of=3)
    assert store.canonical_bug(5) == 5  # bug 3 is not stored yet
    add(7, dupe_of=5)
    assert store.canonical_bug(7) == 5
    add(3)
    assert [store.canonical_bug(b) for b in (3, 5, 7)] == [3, 3, 3]
    with pytest.raises(ValueError):
        store.canonical_bug(4)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(BUG_IDS, st.none() | BUG_IDS), max_size=12), st.integers(0, 12))
@example([(5, 3), (7, 5), (3, None)], 1)  # dupe_of names a bug stored later
@example([(5, 9), (6, 5)], 1)  # dupe_of names a bug never stored
def test_store_groups_agree_with_build_groups(edges, reopen_at):
    """The store and training link dupe_of through the same union-find: every
    bug's canonical bug is the smallest bug id of its build_groups group."""
    records = [
        FailureRecord(bug_id, f"d{i}", "", EPOCH, None if dupe_of == bug_id else dupe_of, "CompA")
        for i, (bug_id, dupe_of) in enumerate(edges)
    ]
    with tempfile.TemporaryDirectory() as tmp:
        store = FailureStore(tmp)
        for i, record in enumerate(records):
            if i == reopen_at:
                store = FailureStore(tmp)
            store.append(record, make_sequence([("CompA", ["a::f"])], record.dump_id))
        groups, _ = build_groups(records)
        for group in groups:
            assert {store.canonical_bug(bug_id) for bug_id in group} == {min(group)}


@pytest.mark.parametrize("dump_id", ["", ".", "..", "../x", "a/b", "a\\b", "a\0b"])
def test_unsafe_dump_id_is_rejected_before_any_write(tmp_path, dump_id):
    store = FailureStore(tmp_path / "store")
    record = FailureRecord(1, dump_id, "", EPOCH, None, "CompA")
    with pytest.raises(UnsafeDumpId):
        store.append(record, make_sequence([("CompA", ["a::f"])], dump_id))
    assert (tmp_path / "store" / "bugs.ndjson").read_text() == ""
    assert list((tmp_path / "store" / "sequences").iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["store"]


def test_stored_unsafe_dump_id_is_never_read(tmp_path):
    (tmp_path / "secret.tsv").write_text("CompA\ta::f\n")
    (tmp_path / "store").mkdir()
    (tmp_path / "store" / "bugs.ndjson").write_text(_line(dump_id="../../secret") + "\n")
    store = FailureStore(tmp_path / "store")
    with pytest.raises(UnsafeDumpId):
        store.sequence_for("../../secret")


@pytest.mark.parametrize("command", ["ingest", "detect"])
def test_cli_writes_nothing_outside_the_store(tmp_path, capsys, command):
    work = tmp_path / "a" / "b"
    work.mkdir(parents=True)
    (work / "map.tsv").write_text("#version 1 mined=x\napp::A::f1\tCompA\n")
    (work / "stop.tsv").write_text("#cutoff: 0\n")
    (work / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    dump = work / "escape.dump"
    dump.write_text(make_dump_text(["app::A::f1"], dump_id="../../escaped"))
    before = sorted(tmp_path.rglob("*"))
    argv = [command, dump, "--map", work / "map.tsv", "--stoplist", work / "stop.tsv",
            "--store", work / "store"]
    if command == "detect":
        argv += ["--params", work / "params.txt", "--bind"]
    code = main([str(a) for a in argv])
    assert code == 2
    assert "not a plain file name" in capsys.readouterr().err
    after = sorted(tmp_path.rglob("*"))
    store = work / "store"
    assert [p for p in after if p not in before] == [store, store / "bugs.ndjson", store / "sequences"]
    assert (store / "bugs.ndjson").read_text() == ""


@pytest.mark.parametrize(
    "line",
    [
        _line(bug_id=None),
        _line(bug_id=True),
        _line(bug_id="2"),
        _line(bug_id=2.0),
        _line(dupe_of="1"),
        _line(dupe_of=False),
        _line(bug_id=2, dupe_of=2),
        _line(dump_id=7),
        _line(creation_time="yesterday"),
        _line(creation_time=None),
        _line(creation_time="2026-01-01T00:00:00"),
        "[1, 2]",
        '{"bug_id": 2',
    ],
)
def test_malformed_record_names_file_and_line(tmp_path, capsys, line):
    (tmp_path / "bugs.ndjson").write_text(_line(dump_id="d0") + "\n" + line + "\n")
    with pytest.raises(MalformedRecord, match=r"bugs\.ndjson:2: "):
        FailureStore(tmp_path)
    dump = tmp_path / "probe.dump"
    dump.write_text(make_dump_text(["app::A::f1"], dump_id="probe"))
    (tmp_path / "map.tsv").write_text("#version 1 mined=x\napp::A::f1\tCompA\n")
    (tmp_path / "stop.tsv").write_text("#cutoff: 0\n")
    code = main([str(a) for a in ["ingest", dump, "--map", tmp_path / "map.tsv",
                                  "--stoplist", tmp_path / "stop.tsv", "--store", tmp_path]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bugs.ndjson:2" in err


def test_config_without_value_is_usage_error(capsys):
    assert main(["detect", "x.dump", "--config"]) == 1
    assert "usage error: argument --config" in capsys.readouterr().err


def _decoded(line: str):
    """What record_from_json makes of a line: a record or the error it raised."""
    try:
        return record_from_json(line)
    except json.JSONDecodeError as exc:
        return ("JSONDecodeError", exc.msg, exc.pos)
    except MalformedRecord as exc:
        return ("MalformedRecord", str(exc))


RECORD_LINES = st.builds(
    lambda bug_id, dump_id, hours, dupe_of: record_to_json(FailureRecord(
        bug_id, dump_id, "", EPOCH + datetime.timedelta(hours=hours), dupe_of, "CompA"
    )),
    st.integers(1, 10**6),
    st.text(max_size=6),
    st.integers(0, 10**5),
    st.none() | st.integers(-3, 0),
) | st.sampled_from(["[1, 2]", "null", "7", '"x"', _line(bug_id=None), _line(dupe_of="1")])
# JSON whitespace stays accepted; vertical tab, form feed and NBSP do not
PADDING = st.text(alphabet=" \t\r\n\x0b\x0c\xa0", max_size=3)
TRAILING = st.sampled_from(["", "x", "{}", "1", "null", ",", "]", "}", '"', "\x00"])


@settings(max_examples=300)
@given(RECORD_LINES, PADDING, PADDING, TRAILING, PADDING)
@example(_line(), " \t\r", "\r\t ", "", "")
@example(_line(), "\x0c", "", "", "")
@example(_line(), "", "\xa0", "", "")
@example(_line(), "", " ", "x", " ")
def test_record_decoding_accepts_and_rejects_as_json_loads(body, lead, gap, trailing, tail):
    line = lead + body + gap + trailing + tail
    try:
        json.loads(line)
    except json.JSONDecodeError as exc:
        assert _decoded(line) == ("JSONDecodeError", exc.msg, exc.pos)
    else:  # the padding is JSON whitespace, so the line means what its body does
        assert _decoded(line) == _decoded(body)
    for end in range(len(line)):
        truncated = line[:end]
        try:
            json.loads(truncated)
        except json.JSONDecodeError as exc:
            assert _decoded(truncated) == ("JSONDecodeError", exc.msg, exc.pos)
        else:
            assert _decoded(truncated) == _decoded(truncated.strip(" \t\r\n"))


@pytest.mark.parametrize("line", [_line(dump_id="d1") + " x", "\xa0" + _line(dump_id="d1")])
def test_undecodable_record_names_file_and_line(tmp_path, line):
    (tmp_path / "bugs.ndjson").write_text(_line(dump_id="d0") + "\n" + line + "\n")
    with pytest.raises(MalformedRecord, match=r"bugs\.ndjson:2: (Extra data|Expecting value)"):
        FailureStore(tmp_path)
