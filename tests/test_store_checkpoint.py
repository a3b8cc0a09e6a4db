"""The failure store's record checkpoint: an open from a verified
checkpoint gives exactly what a full open of ``bugs.ndjson`` gives, and any
checkpoint that does not verify (stale, truncated, garbled, or a store
edited inside its range) falls back to the full open.

The reference is always a full open of a copy of the store without its
checkpoint file.
"""

from __future__ import annotations

import contextlib
import datetime
import functools
import hashlib
import io
import json
import shutil
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdetector import detector
from kdetector.cli import main
from kdetector.detector import Detector, FailureRecord, FailureStore, RecencyWindow
from kdetector.sequencer import sequence_to_text
from kdetector.errors import DuplicateBugId, DuplicateDumpId, KDetectorError, MalformedRecord
from kdetector.similarity import ModelParams
from kdetector.stopwords import StopWordList

from conftest import make_component_map, make_dump_text, make_sequence
from test_store_index import APPEND, DUMP_IDS, EPOCH, NOWS, PLUS_TWO, WINDOWS, _cli_inputs

CHECKPOINT = "bugs.checkpoint"
UTC = datetime.timezone.utc
# appends and reopens as in the index test, plus checkpoint writes
STEPS = st.lists(st.one_of(APPEND, st.just(("reopen",)), st.just(("checkpoint",))), max_size=30)
# what follows the last record line: nothing, a torn write, or a record
# line without its \n
TAILS = ["", '{"bug_id": 9', json.dumps(
    {"bug_id": 50, "creation_time": (EPOCH + datetime.timedelta(hours=5)).isoformat(),
     "dump_id": "tail", "dump_path": "", "dupe_of": 3, "resolution": "", "top_component": "CompA"},
    sort_keys=True,
)]


def _sequence(dump_id: str):
    return make_sequence([("CompA", [f"{dump_id}::f"]), ("CompB", ["b::g"])], dump_id)


def _record(step) -> FailureRecord:
    _, dump_id, bug_id, dupe_of, hours, zone, _ = step
    return FailureRecord(
        bug_id=bug_id,
        dump_id=dump_id,
        resolution="",
        creation_time=(EPOCH + datetime.timedelta(hours=hours)).astimezone(zone),
        dupe_of=None if dupe_of == bug_id else dupe_of,
        top_component="CompA",
    )


def _append(store: FailureStore, step) -> None:
    """Append the step's record; a repeated id, or a dupe_of naming no
    stored bug with a smaller id, is rejected and skipped."""
    record = _record(step)
    with contextlib.suppress(DuplicateDumpId, DuplicateBugId, MalformedRecord):
        store.append(record, _sequence(record.dump_id))


def _write_checkpoint(store: FailureStore) -> bool:
    with mock.patch.object(detector, "CHECKPOINT_EVERY", 1):
        return store.write_checkpoint()


def _observed(store: FailureStore) -> dict:
    """Everything the store answers, windows before ``records`` so that the
    windows build their own records."""
    seen = {
        "len": len(store),
        "has_dump": [store.has_dump(d) for d in [*DUMP_IDS, "tail", "nope"]],
        "next_bug_id": store.next_bug_id(),
        "windows": [store.window(w, now) for w in WINDOWS for now in NOWS],
    }
    records = store.records
    seen["canonical_bug"] = {r.bug_id: store.canonical_bug(r.bug_id) for r in records}
    seen["sequences"] = {r.dump_id: store.sequence_for(r.dump_id) for r in records}
    seen["records"] = records
    return seen


def _without_checkpoint(root: Path) -> Path:
    """A copy of the store without its checkpoint, which opens in full."""
    copy = root.with_name(root.name + "-full")
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(root, copy, ignore=shutil.ignore_patterns(CHECKPOINT, "*.tmp"))
    return copy


def _open_counting_decodes(root: Path) -> tuple[FailureStore, int]:
    """Open the store; also return how many record lines open decoded."""
    calls = []
    real = detector.record_from_json

    def counting(line):
        calls.append(line)
        return real(line)

    with mock.patch.object(detector, "record_from_json", counting):
        store = FailureStore(root)
    return store, len(calls)


def _outcome(root: Path):
    """What the store at root answers, or the error it raises, with the
    store's path left out of the message."""
    try:
        return _observed(FailureStore(root))
    except KDetectorError as exc:
        return type(exc), str(exc).replace(str(root), "<store>")


def _assert_opens_like_a_full_open(root: Path) -> None:
    assert _outcome(root) == _outcome(_without_checkpoint(root))


@settings(max_examples=120, deadline=None)
@given(STEPS, st.sampled_from(TAILS), APPEND)
@example(  # dupe_of edges across the covered range, and one rejected for a larger id
    [("append", "d0", 1, None, 2, UTC, False), ("append", "d1", 3, 1, 1, PLUS_TWO, False),
     ("checkpoint",), ("append", "d2", 5, 3, 0, UTC, False),
     ("append", "d3", 2, 5, 0, UTC, False)],
    TAILS[2],
    ("append", "d4", 6, 5, 4, UTC, False),
)
@example(  # the tail line's dupe_of names a bug that is not stored
    [("append", "d0", 1, None, 2, UTC, False), ("checkpoint",)],
    TAILS[2],
    ("append", "d4", 6, 1, 4, UTC, False),
)
@example(  # out-of-order and tied times inside the covered range, a torn tail
    [("append", "d0", 2, None, 3, UTC, False), ("append", "d1", 1, None, 3, PLUS_TWO, False),
     ("append", "d2", 4, 1, 0, UTC, False), ("checkpoint",), ("reopen",),
     ("append", "d3", 0, None, 1, UTC, False), ("checkpoint",)],
    TAILS[1],
    ("append", "d4", 5, 2, 3, UTC, False),
)
def test_checkpoint_open_equals_full_open(steps, tail, extra):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        store = FailureStore(root)
        for step in steps:
            if step[0] == "reopen":
                store = FailureStore(root)
            elif step[0] == "checkpoint":
                _write_checkpoint(store)
            else:
                _append(store, step)
        uncovered = len(store) - store._covered
        with open(root / "bugs.ndjson", "a") as fh:
            fh.write(tail)
        if tail == TAILS[2]:  # a record line lacks only its \n: its block is whole
            with open(root / "sequences.log", "a") as fh:
                fh.write(f"\n50\n{sequence_to_text(_sequence('tail'))}")
        reference = _outcome(_without_checkpoint(root))
        if not isinstance(reference, dict):  # the tail line names no stored dupe_of
            assert _outcome(root) == reference
            return
        if (root / CHECKPOINT).exists():
            # the checkpoint was used: open decodes only the lines past it
            opened, decoded = _open_counting_decodes(root)
            assert decoded == uncovered + (tail == TAILS[2])
            assert _observed(opened) == _observed(FailureStore(_without_checkpoint(root)))
        else:
            _assert_opens_like_a_full_open(root)
        # one more append to both, then reopen both
        checked, full = FailureStore(root), FailureStore(_without_checkpoint(root))
        _append(checked, extra)
        _append(full, extra)
        assert (root / "bugs.ndjson").read_bytes() == (full.root / "bugs.ndjson").read_bytes()
        assert _observed(FailureStore(root)) == _observed(FailureStore(full.root))
        _write_checkpoint(checked)
        assert _observed(FailureStore(root)) == _observed(FailureStore(full.root))


def _build(root: Path, count: int = 12) -> FailureStore:
    """A store of count records (bug ids 10, 11, ...) with crash times out
    of order and some bound along dupe_of, with a checkpoint covering all
    of them."""
    store = FailureStore(root)
    for i in range(count):
        created = EPOCH + datetime.timedelta(hours=(7 * i) % count)
        dupe_of = 8 + i if i % 3 == 2 else None
        store.append(FailureRecord(10 + i, f"d{i}", "", created, dupe_of, "CompA"),
                     _sequence(f"d{i}"))
    assert _write_checkpoint(store)
    return store


def test_blank_lines_inside_the_covered_range(tmp_path):
    """A hand-edited store with blank lines is covered too, and a bad line
    past the checkpoint is named by its line in the file."""
    root = tmp_path / "store"
    _build(root, 4)
    path = root / "bugs.ndjson"
    lines = path.read_text().split("\n")
    path.write_text("\n".join(lines[:2] + ["", " \t"] + lines[2:]))
    assert _write_checkpoint(FailureStore(root))
    opened, decoded = _open_counting_decodes(root)
    assert decoded == 0
    assert _observed(opened) == _observed(FailureStore(_without_checkpoint(root)))
    with open(path, "a") as fh:
        fh.write('{"bug_id": "x"}\n')
    with pytest.raises(MalformedRecord, match=r"bugs\.ndjson:7: bug_id 'x'"):
        FailureStore(root)


def _detect(root: Path, store: Path, *extra: str) -> tuple[int, str, str]:
    dump = root / "probe.dump"
    dump.write_text(make_dump_text(["app::A::f1"], dump_id="probe",
                                   time=(EPOCH + datetime.timedelta(hours=20)).isoformat()))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["detect", str(dump), "--store", str(store), *_cli_inputs(root), *extra])
    return code, out.getvalue(), err.getvalue()


def _assert_cli_like_a_full_open(tmp_path: Path, root: Path) -> None:
    """detect reports, exits and errs as on the store without its checkpoint."""
    full = _without_checkpoint(root)
    code, out, err = _detect(tmp_path, root, "--window-days", "1")
    assert code in (0, 2) and "Traceback" not in err
    assert (code, out, err.replace(str(root), str(full))) == _detect(tmp_path, full, "--window-days", "1")


@pytest.mark.parametrize(
    "cut", ["the last newline", "inside the last line", "at a line boundary", "everything"]
)
def test_a_file_truncated_below_the_covered_length_opens_in_full(tmp_path, cut):
    root = tmp_path / "store"
    _build(root)
    path = root / "bugs.ndjson"
    data = path.read_bytes()
    size = {
        "the last newline": len(data) - 1,  # the last record is kept
        "inside the last line": len(data) - 40,  # a torn tail
        "at a line boundary": data.index(b"\n", len(data) // 2) + 1,
        "everything": 0,
    }[cut]
    path.write_bytes(data[:size])
    _assert_opens_like_a_full_open(root)
    _assert_cli_like_a_full_open(tmp_path, root)


@pytest.mark.parametrize(
    "old, new",
    [
        ('"bug_id": 13', '"bug_id": 93'),  # another bug id, same length
        ('"dump_id": "d3"', '"dump_id": "e3"'),
        ('"dupe_of": 10', '"dupe_of": 19'),
        ('"dump_id": "d4"', '"dump_id": 4444'),  # no longer a valid record
        ('"bug_id": 14', '"bug_id": 13'),  # a repeated bug id
    ],
)
def test_a_same_length_edit_inside_the_covered_range_opens_in_full(tmp_path, old, new):
    root = tmp_path / "store"
    _build(root)
    path = root / "bugs.ndjson"
    text = path.read_text()
    assert text.count(old) == 1 and len(old) == len(new)
    path.write_text(text.replace(old, new))
    _assert_opens_like_a_full_open(root)
    _assert_cli_like_a_full_open(tmp_path, root)


def test_an_invalid_line_inside_the_covered_range_is_named(tmp_path):
    root = tmp_path / "store"
    _build(root)
    path = root / "bugs.ndjson"
    lines = path.read_text().split("\n")
    lines[4] = lines[4].replace('"dupe_of": null', '"dupe_of": true')
    path.write_text("\n".join(lines))
    with pytest.raises(MalformedRecord, match=r"bugs\.ndjson:5: dupe_of True"):
        FailureStore(root)
    code, out, err = _detect(tmp_path, root)
    assert (code, out) == (2, "") and "bugs.ndjson:5: dupe_of True" in err


@functools.lru_cache(maxsize=1)
def _built_store() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        _build(root)
        return {path.name: path.read_bytes() for path in root.iterdir()}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_garbled_checkpoint_opens_in_full(data):
    files = _built_store()
    checkpoint = bytearray(files[CHECKPOINT])
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(checkpoint) - 1))
        how = data.draw(st.sampled_from(["replace", "delete", "insert", "truncate"]))
        byte = data.draw(st.integers(0, 255))
        if how == "replace":
            checkpoint[at] = byte
        elif how == "delete":
            del checkpoint[at]
        elif how == "insert":
            checkpoint.insert(at, byte)
        else:
            del checkpoint[at:]
        if not checkpoint:
            break
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        root.mkdir()
        for name, content in files.items():
            (root / name).write_bytes(content)
        (root / CHECKPOINT).write_bytes(bytes(checkpoint))
        _assert_opens_like_a_full_open(root)


def _resealed(payload: dict) -> bytes:
    """Checkpoint bytes whose own hash holds for this payload."""
    raw = json.dumps(payload).encode()
    return hashlib.sha256(raw).hexdigest().encode() + b"\n" + raw


@pytest.mark.parametrize(
    "change",
    [
        {"format": 1},
        {"length": 10},  # not at the end of a line
        {"length": True},
        {"bug_id": ["10", *range(11, 22)]},
        {"bug_id": [True, *range(11, 22)]},
        {"creation_time": [0.5] * 12},
        {"dump_id": [f"d{i}" for i in range(11)]},  # a column too short
        {"creation_time": [0] * 11},
        {"dump_id": ["d0"] * 12},  # a repeated dump id
        {"canonical_bug": [None] * 12},
        {"canonical_bug": [11, 10, *range(12, 22)]},  # a cycle
        {"canonical_bug": [5, *range(11, 22)]},  # a bug id that is not stored
        {"canonical_bug": [11, 11, *range(12, 22)]},  # larger than its own bug id
        {"sha256": None},
        {"bug_id": None},
    ],
)
def test_a_resealed_checkpoint_with_bad_columns_opens_in_full(tmp_path, change):
    """A checkpoint whose own hash holds but whose columns are not well
    formed (another format, say, or a canonical bug that is not a stored
    root no larger than its own bug id) is not used."""
    root = tmp_path / "store"
    _build(root)
    payload = json.loads((root / CHECKPOINT).read_bytes().partition(b"\n")[2])
    (root / CHECKPOINT).write_bytes(_resealed(payload))
    assert _open_counting_decodes(root)[1] == 0  # resealed unchanged, it is used
    (root / CHECKPOINT).write_bytes(_resealed({**payload, **change}))
    assert _open_counting_decodes(root)[1] == 12
    _assert_opens_like_a_full_open(root)


def test_a_format_1_checkpoint_opens_in_full_and_the_next_writer_replaces_it(tmp_path, monkeypatch):
    """A checkpoint of the format that still carried waiting dupe_of edges
    is ignored, and the next CLI writer writes one of the current format."""
    root = tmp_path / "store"
    _build(root)
    payload = json.loads((root / CHECKPOINT).read_bytes().partition(b"\n")[2])
    assert payload["format"] == 2 and "waiting" not in payload
    (root / CHECKPOINT).write_bytes(_resealed({**payload, "format": 1, "waiting": []}))
    assert _open_counting_decodes(root)[1] == 12
    _assert_opens_like_a_full_open(root)
    monkeypatch.setattr(detector, "CHECKPOINT_EVERY", 13)
    assert _detect(tmp_path, root, "--bind")[0] == 0
    assert json.loads((root / CHECKPOINT).read_bytes().partition(b"\n")[2])["format"] == 2
    assert _open_counting_decodes(root)[1] == 0


def test_writers_keep_it_and_readers_never_write_it(tmp_path, monkeypatch):
    """ingest and detect --bind write a checkpoint once CHECKPOINT_EVERY
    records are uncovered; a read-only detect and a Detector never do."""
    monkeypatch.setattr(detector, "CHECKPOINT_EVERY", 3)
    store = tmp_path / "store"
    options = ["--store", str(store), *_cli_inputs(tmp_path)]
    for i in range(5):
        dump = tmp_path / f"d{i}.dump"
        dump.write_text(make_dump_text(["app::A::f1"] if i % 2 else ["app::B::g1"], dump_id=f"d{i}"))
        command = ["ingest", str(dump), *options[:6]] if i < 2 else ["detect", str(dump), *options, "--bind"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(command) == 0
        assert (store / CHECKPOINT).exists() == (i >= 2)
    covered = (store / CHECKPOINT).read_bytes()
    files = {path.name: path.read_bytes() for path in store.iterdir()}
    assert _detect(tmp_path, store)[0] == 0
    assert {path.name: path.read_bytes() for path in store.iterdir()} == files
    detector_ = Detector(FailureStore(store), make_component_map({"app::A::f1": "CompA"}),
                         StopWordList([], 0), ModelParams(1.0, 1.0, 0.5))
    for i in range(5, 9):
        detector_.triage(make_dump_text(["app::A::f1"], dump_id=f"d{i}"), bind=True)
    assert (store / CHECKPOINT).read_bytes() == covered
    assert sorted(path.name for path in store.iterdir()) == [CHECKPOINT, "bugs.ndjson", "sequences.log"]


def test_a_checkpoint_that_cannot_be_written_is_only_a_warning(tmp_path, monkeypatch):
    """The record is stored before the checkpoint is written, so a failed
    write still exits 0 and reports the verdict."""
    monkeypatch.setattr(detector, "CHECKPOINT_EVERY", 1)
    store = tmp_path / "store"
    (store / CHECKPOINT).mkdir(parents=True)  # os.replace cannot replace a directory
    code, out, err = _detect(tmp_path, store, "--bind")
    assert code == 0 and json.loads(out)["verdict"] == "new"
    assert err.startswith("warning: no checkpoint written: cannot write the checkpoint of")
    assert FailureStore(store).has_dump("probe")
    assert not (store / f"{CHECKPOINT}.tmp").exists()


def test_days_window_from_a_checkpoint_keeps_ties_and_offsets(tmp_path):
    """Creation times in two offsets that name one instant tie, and the
    smaller bug id goes first, from columns as from records."""
    root = tmp_path / "store"
    store = FailureStore(root)
    same = [EPOCH, EPOCH.astimezone(PLUS_TWO), EPOCH + datetime.timedelta(microseconds=1)]
    for bug_id, created in zip([3, 2, 1], same):
        store.append(FailureRecord(bug_id, f"d{bug_id}", "", created, None, "CompA"),
                     _sequence(f"d{bug_id}"))
    _write_checkpoint(store)
    opened, decoded = _open_counting_decodes(root)
    assert decoded == 0
    window = RecencyWindow(days=1.0)
    now = EPOCH + datetime.timedelta(days=1)
    assert [r.bug_id for r in opened.window(window, now)] == [2, 3, 1]
    assert [r.bug_id for r in opened.window(window, now + datetime.timedelta(microseconds=1))] == [1]
