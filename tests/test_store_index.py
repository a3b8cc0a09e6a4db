"""The failure store's in-memory index against the record scans it replaced
(``oracles.py``), plus the store's files and input checks: hostile dump ids
that never become paths, sequences the log cannot hold, torn writes,
malformed ``bugs.ndjson`` lines, and a record decoder that accepts and
rejects exactly the lines ``json.loads`` does."""

from __future__ import annotations

import datetime
import errno
import io
import json
import multiprocessing
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from kdetector.cli import main
from kdetector.detector import (
    Detector,
    FailureRecord,
    FailureStore,
    RecencyWindow,
    record_from_json,
    record_to_json,
)
from kdetector import detector
from kdetector.errors import (
    DuplicateBugId,
    DuplicateDumpId,
    MalformedRecord,
    MissingSequence,
    StoreWriteError,
    UnstorableSequence,
)
from kdetector.similarity import ModelParams
from kdetector.stopwords import StopWordList
from kdetector.trainer import build_groups

from conftest import make_component_map, make_dump_text, make_sequence

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


def _breaks_dupe_of_rule(records: list[FailureRecord], record: FailureRecord) -> bool:
    """Whether the store rejects the record's dupe_of: one that is set must
    name a stored bug with a smaller bug id."""
    return record.dupe_of is not None and not (
        record.dupe_of < record.bug_id and any(r.bug_id == record.dupe_of for r in records)
    )


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
# a repeated bug id is rejected like a repeated dump id
@example([("append", "d0", 1, None, 0, datetime.timezone.utc, True),
          ("append", "d1", 1, None, 0, datetime.timezone.utc, True)])
# a time tie: the smaller bug id, appended later, goes first
@example([("append", "d0", 2, None, 0, datetime.timezone.utc, True),
          ("append", "d1", 1, None, 0, PLUS_TWO, True)])
# a dupe_of naming a later bug, a larger stored one or one never stored is
# rejected; one naming a smaller stored bug joins its group
@example([("append", "d0", 3, 4, 0, datetime.timezone.utc, True),
          ("append", "d1", 4, None, 1, datetime.timezone.utc, True),
          ("append", "d2", 2, 4, 2, datetime.timezone.utc, True),
          ("append", "d3", 5, 1, 3, datetime.timezone.utc, True),
          ("append", "d4", 6, 4, 4, datetime.timezone.utc, True)])
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
            elif any(r.bug_id == bug_id for r in records):
                with pytest.raises(DuplicateBugId):
                    store.append(record, make_sequence([("CompA", ["a::f"])], dump_id))
            elif _breaks_dupe_of_rule(records, record):
                with pytest.raises(MalformedRecord, match=f"dupe_of {record.dupe_of} names"):
                    store.append(record, make_sequence([("CompA", ["a::f"])], dump_id))
            else:
                store.append(record, make_sequence([("CompA", ["a::f"])], dump_id))
                records.append(record)
            if query:
                _assert_matches_scans(store, records)
        _assert_matches_scans(store, records)
        assert len(FailureStore(tmp)) == len(records)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(BUG_IDS, st.none() | BUG_IDS), max_size=12), st.integers(0, 12))
@example([(5, 3), (7, 5), (3, None)], 1)  # dupe_of names a bug stored later
@example([(5, 9), (6, 5)], 1)  # dupe_of names a bug never stored
def test_store_groups_agree_with_build_groups(edges, reopen_at):
    """The store groups along dupe_of as training does: every bug's
    canonical bug is the smallest bug id of its build_groups group. A
    repeated bug id and a dupe_of naming no stored bug with a smaller id are
    rejected, and the groups are those of the accepted records."""
    records = [
        FailureRecord(bug_id, f"d{i}", "", EPOCH, None if dupe_of == bug_id else dupe_of, "CompA")
        for i, (bug_id, dupe_of) in enumerate(edges)
    ]
    accepted: list[FailureRecord] = []
    with tempfile.TemporaryDirectory() as tmp:
        store = FailureStore(tmp)
        for i, record in enumerate(records):
            if i == reopen_at:
                store = FailureStore(tmp)
            sequence = make_sequence([("CompA", ["a::f"])], record.dump_id)
            if any(r.bug_id == record.bug_id for r in accepted):
                with pytest.raises(DuplicateBugId):
                    store.append(record, sequence)
            elif _breaks_dupe_of_rule(accepted, record):
                with pytest.raises(MalformedRecord):
                    store.append(record, sequence)
            else:
                store.append(record, sequence)
                accepted.append(record)
        groups, _ = build_groups(accepted)
        for group in groups:
            assert {store.canonical_bug(bug_id) for bug_id in group} == {min(group)}


@pytest.mark.parametrize(
    "dump_id", ["", ".", "..", "../x", "a/b", "a\\b", "a\0b", "../../escaped", "a\nb\tc"]
)
def test_hostile_dump_id_is_stored_and_read_back(tmp_path, dump_id):
    """A dump id is a JSON string in bugs.ndjson and never names a file."""
    store = FailureStore(tmp_path / "store")
    sequence = make_sequence([("CompA", ["a::f"]), ("CompB", ["b::g"])], dump_id)
    store.append(FailureRecord(1, dump_id, "", EPOCH, None, "CompA"), sequence)
    reopened = FailureStore(tmp_path / "store")
    assert reopened.has_dump(dump_id)
    assert reopened.sequence_for(dump_id) == sequence
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "store", "store/bugs.ndjson", "store/sequences.log"
    ]


@pytest.mark.parametrize(
    "argv", [["detect"], ["detect", "--bind"], ["ingest"]], ids=["detect", "detect-bind", "ingest"]
)
def test_a_v1_store_is_a_data_error_that_changes_nothing(tmp_path, capsys, argv):
    """A v1 store (sequences/<dump_id>.tsv and no sequences.log) is no longer
    read: each command names the layout and the last commit that migrates
    it, and no file changes, also when the directory holds only sequences/.
    A v1 store read sequences/../../secret.tsv for this stored dump id."""
    (tmp_path / "secret.tsv").write_text("0\tCompA\ta::f\n")
    store, bare = tmp_path / "store", tmp_path / "bare"
    for root in (store, bare):
        (root / "sequences").mkdir(parents=True)
        (root / "sequences" / "d1.tsv").write_text("0\tCompA\ta::f\n")
    lines = [_line(bug_id=1, dump_id="d1"), _line(bug_id=2, dump_id="../../secret")]
    (store / "bugs.ndjson").write_text("\n".join(lines) + "\n")
    (tmp_path / "map.tsv").write_text("#version 1 mined=x\napp::A::f1\tCompA\n")
    (tmp_path / "stop.tsv").write_text("#cutoff: 0\n")
    (tmp_path / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    (tmp_path / "probe.dump").write_text(make_dump_text(["app::A::f1"], dump_id="probe"))
    def files():
        return {path: path.is_file() and path.read_bytes() for path in tmp_path.rglob("*")}

    before = files()
    for root in (store, bare):
        command = [argv[0], tmp_path / "probe.dump", "--map", tmp_path / "map.tsv",
                   "--stoplist", tmp_path / "stop.tsv", "--store", root, *argv[1:]]
        if argv[0] == "detect":
            command += ["--params", tmp_path / "params.txt"]
        assert main([str(a) for a in command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {root} is a v1 store (sequences/ and no sequences.log)")
        assert "943fed2, the last commit that migrates it" in captured.err
    with pytest.raises(MissingSequence, match="is a v1 store"):
        FailureStore(bare)
    assert files() == before


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
    assert main([str(a) for a in argv]) == 0
    assert "../../escaped" in capsys.readouterr().out
    after = sorted(tmp_path.rglob("*"))
    store = work / "store"
    assert [p for p in after if p not in before] == [
        store, store / "bugs.ndjson", store / "sequences.log"
    ]
    reopened = FailureStore(store)
    assert reopened.sequence_for("../../escaped") == make_sequence(
        [("CompA", ["app::A::f1"])], "../../escaped"
    )


@pytest.mark.parametrize(
    "occurrences",
    [
        [],
        [("CompA", [])],
        [("Comp\tA", ["f"])],
        [("Comp\nA", ["f"])],
        [("CompA", ["f", "g\th"])],
        [("CompA", ["f"]), ("CompB", ["g\n"])],
    ],
)
def test_unstorable_sequence_is_rejected_before_any_write(tmp_path, occurrences):
    store = FailureStore(tmp_path / "store")
    with pytest.raises(UnstorableSequence):
        store.append(FailureRecord(1, "d1", "", EPOCH, None, "CompA"),
                     make_sequence(occurrences, "d1"))
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == ["bugs.ndjson"]
    assert (tmp_path / "store" / "bugs.ndjson").read_bytes() == b""
    assert len(FailureStore(tmp_path / "store")) == 0


@pytest.mark.parametrize(
    "repeat, error",
    [
        ((1, "b", None), DuplicateBugId),
        ((3, "a", None), DuplicateDumpId),
        ((1, "a", None), DuplicateDumpId),
        ((3, "d", 4), MalformedRecord),  # dupe_of names a bug not stored yet
        ((5, "d", 3), MalformedRecord),  # dupe_of names a smaller bug never stored
        ((0, "d", 2), MalformedRecord),  # dupe_of names a stored bug with a larger id
    ],
)
def test_append_rejects_a_repeated_id_before_any_write(tmp_path, repeat, error):
    """A repeated id, or a dupe_of naming no stored bug with a smaller id, is
    rejected before either file changes."""
    store = FailureStore(tmp_path)
    for bug_id, dump_id in [(1, "a"), (2, "c")]:
        store.append(FailureRecord(bug_id, dump_id, "", EPOCH, None, "CompA"),
                     make_sequence([("CompA", [f"{dump_id}::f"])], dump_id))
    files = {name: (tmp_path / name).read_bytes() for name in ("bugs.ndjson", "sequences.log")}
    bug_id, dump_id, dupe_of = repeat
    with pytest.raises(error):
        store.append(FailureRecord(bug_id, dump_id, "", EPOCH, dupe_of, "CompA"),
                     make_sequence([("CompA", ["new::f"])], dump_id))
    assert {name: (tmp_path / name).read_bytes() for name in files} == files
    assert [r.dump_id for r in FailureStore(tmp_path).records] == ["a", "c"]


@pytest.mark.parametrize(
    "third, repeated",
    [
        (_line(bug_id=1, dump_id="d3"), "bug id 1"),
        (_line(bug_id=3, dump_id="d1"), "dump id 'd1'"),
        (_line(bug_id=3, dump_id="d3", dupe_of=4), "dupe_of 4 names no stored bug id below 3"),
        (_line(bug_id=5, dump_id="d3", dupe_of=3), "dupe_of 3 names no stored bug id below 5"),
        (_line(bug_id=0, dump_id="d3", dupe_of=2), "dupe_of 2 names no stored bug id below 0"),
    ],
)
@pytest.mark.parametrize("newline", ["\n", ""])
def test_open_rejects_a_repeated_id_naming_its_line(tmp_path, third, repeated, newline):
    """A repeat on disk (from a writer without the lock, or an edit) is a
    data error at open, also on a last line without its \n; so is a dupe_of
    naming a later bug, a smaller one never stored or a larger one."""
    lines = [_line(), _line(bug_id=2, dump_id="d2"), third]
    (tmp_path / "bugs.ndjson").write_text("\n".join(lines) + newline)
    message = repeated if repeated.startswith("dupe_of") else f"{repeated} is already stored"
    with pytest.raises(MalformedRecord, match=rf"bugs\.ndjson:3: {message}$"):
        FailureStore(tmp_path)


def test_missing_sequence_is_a_data_error(tmp_path, capsys):
    store = FailureStore(tmp_path)
    store.append(FailureRecord(1, "d1", "", EPOCH, None, "CompA"),
                 make_sequence([("CompA", ["a::f"])], "d1"))
    (tmp_path / "sequences.log").unlink()
    with pytest.raises(MissingSequence):
        FailureStore(tmp_path).sequence_for("d1")
    with pytest.raises(MissingSequence):
        FailureStore(tmp_path).sequence_for("never-stored")
    dump = tmp_path / "probe.dump"
    dump.write_text(make_dump_text(["app::A::f1"], dump_id="probe", time=EPOCH.isoformat()))
    (tmp_path / "map.tsv").write_text("#version 1 mined=x\napp::A::f1\tCompA\n")
    (tmp_path / "stop.tsv").write_text("#cutoff: 0\n")
    (tmp_path / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    code = main([str(a) for a in ["detect", dump, "--map", tmp_path / "map.tsv",
                                  "--stoplist", tmp_path / "stop.tsv", "--store", tmp_path,
                                  "--params", tmp_path / "params.txt"]])
    assert code == 2
    assert "holds no sequence for dump id 'd1'" in capsys.readouterr().err


def test_cold_detect_parses_only_the_windows_blocks(tmp_path, monkeypatch):
    store = FailureStore(tmp_path)
    for i in range(40):
        created = EPOCH + datetime.timedelta(hours=i)
        record = FailureRecord(i + 1, f"d{i}", "", created, None, "CompA")
        store.append(record, make_sequence([("CompA", [f"a::f{i % 3}"])], f"d{i}"))
    parsed = []
    real = detector.sequence_from_text

    def counting(text, dump_id=""):
        parsed.append(dump_id)
        return real(text, dump_id)

    monkeypatch.setattr(detector, "sequence_from_text", counting)
    probe = make_sequence([("CompA", ["a::f0"])], "probe")
    for window, now, first in [(RecencyWindow(last_k=5), None, 35),
                               (RecencyWindow(days=0.5), EPOCH + datetime.timedelta(hours=39), 27)]:
        parsed.clear()
        cold = Detector(FailureStore(tmp_path), make_component_map({}), StopWordList([], 0),
                        ModelParams(1.0, 1.0, 0.5))
        result = cold.detect(probe, window=window, now=now)
        assert result.candidates_considered == 40 - first
        assert sorted(parsed) == sorted(f"d{i}" for i in range(first, 40))


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
        _line(bug_id=2, dupe_of=3),
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


def test_record_lines_split_at_newline_only(tmp_path):
    """A record line ends at \n alone: \x0c, \x85 or U+2028 neither end it
    nor shift the line number of a later bad record."""
    path = tmp_path / "bugs.ndjson"
    path.write_text(_line(dump_id="d0") + "\x0c\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match=r"bugs\.ndjson:1: Extra data"):
        FailureStore(tmp_path)
    odd = "a\x0bb\x0cc\x1cd\x1de\x1ef\x85g h i"
    raw = json.dumps({**GOOD, "dump_id": odd}, ensure_ascii=False)
    path.write_text(raw + "\n\n" + _line(bug_id=2, dump_id="d1") + "\n", encoding="utf-8")
    assert [r.dump_id for r in FailureStore(tmp_path).records] == [odd, "d1"]
    path.write_text(raw + "\n" + _line(bug_id="x") + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecord, match=r"bugs\.ndjson:2: bug_id"):
        FailureStore(tmp_path)


# names that frame oddly: a header-like component, digits, the ''#'' that a
# header might have used, and a comma inside a template
LAST_APPEND = [
    make_sequence([("1", ["ns::Foo<int,char>::bar", "f"]), ("#3", ["~X"])]),
    make_sequence([("CompA", ["a::f"])]),
    make_sequence([("CompB", ["b::g<1,2>", "b::h"]), ("3", ["x"]), ("UNKNOWN:z", ["z"])]),
]


def test_a_crash_at_every_byte_of_an_append_loses_at_most_that_record(tmp_path):
    """append writes the block, then the record line. Cut the log inside the
    last block with that line not yet written, or cut the record line with
    the log whole: the store opens with the earlier records (and the last
    one when only its \n is missing), and the next append round-trips."""
    full = tmp_path / "full"
    store = FailureStore(full)
    records = [FailureRecord(i + 1, f"d{i}", "", EPOCH, None, "CompA") for i in range(3)]
    sizes = []
    for record, sequence in zip(records, LAST_APPEND):
        sizes.append(((full / "sequences.log").stat().st_size if sizes else 0,
                      (full / "bugs.ndjson").stat().st_size))
        store.append(record, sequence)
    log, bugs = ((full / name).read_bytes() for name in ("sequences.log", "bugs.ndjson"))
    log_before, bugs_before = sizes[-1]
    cuts = [(k, bugs_before) for k in range(log_before, len(log))]
    cuts += [(len(log), k) for k in range(bugs_before, len(bugs) + 1)]
    new = make_sequence([("CompC", ["c::new"]), ("1", ["c::q"])])
    for case, (log_cut, bugs_cut) in enumerate(cuts):
        root = tmp_path / f"cut{case}"
        root.mkdir()
        (root / "sequences.log").write_bytes(log[:log_cut])
        (root / "bugs.ndjson").write_bytes(bugs[:bugs_cut])
        kept = 3 if bugs_cut >= len(bugs) - 1 else 2
        store = FailureStore(root)
        assert [r.dump_id for r in store.records] == [r.dump_id for r in records[:kept]]
        for record, sequence in zip(records[:kept], LAST_APPEND):
            assert store.sequence_for(record.dump_id).occurrences == sequence.occurrences
        added = FailureRecord(store.next_bug_id(), "added", "", EPOCH, None, "CompC")
        store.append(added, new)
        reopened = FailureStore(root)
        assert reopened.records == records[:kept] + [added]
        for record, sequence in zip(records[:kept] + [added], LAST_APPEND[:kept] + [new]):
            assert reopened.sequence_for(record.dump_id).occurrences == sequence.occurrences
        assert (root / "bugs.ndjson").read_bytes().endswith(b"}\n")


def test_last_line_of_json_that_is_no_record_is_still_an_error(tmp_path):
    (tmp_path / "bugs.ndjson").write_text(_line(dump_id="d0") + "\n" + _line(bug_id="x"))
    with pytest.raises(MalformedRecord, match=r"bugs\.ndjson:2: bug_id"):
        FailureStore(tmp_path)


@pytest.mark.parametrize("last_newline", [True, False])
def test_half_written_record_line_is_cut_off_by_the_next_append(
    tmp_path, monkeypatch, last_newline
):
    """A write that fails part-way through the record line leaves bytes
    behind; the next append cuts them off, so the store still opens."""
    sequences = {d: make_sequence([("CompA", [f"{d}::f"])], d) for d in ("d1", "d2", "d3")}
    FailureStore(tmp_path).append(FailureRecord(1, "d1", "", EPOCH, None, "CompA"), sequences["d1"])
    if not last_newline:
        bugs = tmp_path / "bugs.ndjson"
        bugs.write_bytes(bugs.read_bytes().rstrip(b"\n"))
    store = FailureStore(tmp_path)

    class HalfWrite(io.FileIO):
        def write(self, data):
            super().write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def failing_open(path, mode="r", *args, **kwargs):
        if str(path).endswith("bugs.ndjson"):
            return HalfWrite(path, mode)
        return io.open(path, mode, *args, **kwargs)

    size = (tmp_path / "bugs.ndjson").stat().st_size
    monkeypatch.setattr(detector, "open", failing_open, raising=False)
    with pytest.raises(StoreWriteError):
        store.append(FailureRecord(2, "d2", "", EPOCH, None, "CompA"), sequences["d2"])
    monkeypatch.undo()
    assert (tmp_path / "bugs.ndjson").stat().st_size > size
    store.append(FailureRecord(store.next_bug_id(), "d3", "", EPOCH, None, "CompA"), sequences["d3"])
    reopened = FailureStore(tmp_path)
    assert [(r.bug_id, r.dump_id) for r in reopened.records] == [(1, "d1"), (2, "d3")]
    for dump_id in ("d1", "d3"):
        assert reopened.sequence_for(dump_id) == sequences[dump_id]


def _cli_inputs(root) -> list[str]:
    """Map, stop-word and params files for store commands; their options."""
    (root / "map.tsv").write_text("#version 1 mined=x\napp::A::f1\tCompA\napp::B::g1\tCompB\n")
    (root / "stop.tsv").write_text("#cutoff: 0\n")
    (root / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    return ["--map", str(root / "map.tsv"), "--stoplist", str(root / "stop.tsv"),
            "--params", str(root / "params.txt")]


def test_detect_on_a_store_with_a_repeated_dump_id_is_a_data_error(tmp_path, capsys):
    (tmp_path / "store").mkdir()
    (tmp_path / "store" / "bugs.ndjson").write_text(_line() + "\n" + _line(bug_id=2) + "\n")
    dump = tmp_path / "probe.dump"
    dump.write_text(make_dump_text(["app::A::f1"], dump_id="probe"))
    code = main(["detect", str(dump), "--store", str(tmp_path / "store"), *_cli_inputs(tmp_path)])
    assert code == 2
    assert "bugs.ndjson:2: dump id 'd1' is already stored" in capsys.readouterr().err


def _bind_each(start, argvs: list[list[str]]) -> None:
    """Once both writers are up, run each ``detect --bind``; the process
    exits non-zero if any fails."""
    start.wait(timeout=60)
    sys.exit(max(main(argv) for argv in argvs))


def test_concurrent_binds_mint_distinct_bug_ids(tmp_path):
    """Two processes binding into one store take turns through the writer
    lock, so every record gets its own bug id and the store reopens."""
    options = ["--store", str(tmp_path / "store"), *_cli_inputs(tmp_path), "--bind"]
    stacks = [["app::A::f1"], ["app::B::g1"], ["app::A::f1", "app::B::g1"]]
    context = multiprocessing.get_context("spawn")
    start = context.Barrier(2)
    workers = []
    for w in range(2):
        argvs = []
        for i in range(15):
            dump = tmp_path / f"w{w}-{i}.dump"
            dump.write_text(make_dump_text(stacks[i % 3], dump_id=f"w{w}-{i}"))
            argvs.append(["detect", str(dump), *options])
        workers.append(context.Process(target=_bind_each, args=(start, argvs)))
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
        if worker.is_alive():
            worker.kill()
    assert [worker.exitcode for worker in workers] == [0, 0]
    lines = (tmp_path / "store" / "bugs.ndjson").read_text().splitlines()
    bug_ids = [json.loads(line)["bug_id"] for line in lines]
    assert sorted(bug_ids) == list(range(1, 31))
    assert len(FailureStore(tmp_path / "store")) == 30
