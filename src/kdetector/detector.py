"""Online triage: score an incoming dump against recent history.

Detection scores the incoming sequence against every stored sequence inside
the recency window; a best score at or above the threshold binds the
candidate group's canonical bug id, anything else files a new bug.

The failure store is a directory: ``bugs.ndjson`` (one JSON record per
line), ``sequences.log`` (one block per record) and, once it has grown,
``bugs.checkpoint``, which spares an open from decoding the lines it
covers. README.md describes the files ("File formats") and the in-memory
index ("Failure store index"). This module owns the format: the record
type and its JSON codec, which training reuses, and the store. A store
holds each bug id and each dump id once, and a record's ``dupe_of``, when
set, names a bug already stored with a smaller bug id. ``append`` rejects
any other record before it writes a byte, and open rejects one as a
``MalformedRecord`` naming its line. So a bug's canonical bug, the
smallest bug id of its group, is its own id or its ``dupe_of``'s
canonical bug: one dict entry, set once, so bindings stay stable as
groups grow.

Processes that write one store take turns through ``writer_lock``; a
``FailureStore`` takes no lock itself, so a long-lived one must be the
store's only writer while it lives.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import datetime
import fcntl
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from .dump_parser import CrashDump, parse_dump
from .errors import (
    DuplicateBugId,
    DuplicateDumpId,
    MalformedHeader,
    MalformedRecord,
    MissingSequence,
    MissingStore,
    StoreWriteError,
)
from .knowledge_miner import ComponentMap
from .sequencer import (
    ComponentSequence,
    sequence_from_text,
    sequence_to_text,
    to_component_sequence,
)
from .similarity import ModelParams, match_features, score_features
from .stopwords import StopWordList, filter_stop_words

DUPLICATE = "duplicate"
NEW = "new"

_RECORDS_FILE = "bugs.ndjson"
_SEQUENCE_LOG = "sequences.log"
_V1_SEQUENCE_DIR = "sequences"  # v1: one sequence file per dump and no log
_CHECKPOINT_FILE = "bugs.checkpoint"
_CHECKPOINT_FORMAT = 2
_CHECKPOINT_COLUMNS = {"bug_id": int, "dump_id": str, "creation_time": int, "canonical_bug": int}
# a writer replaces the checkpoint once this many records are not covered by it
CHECKPOINT_EVERY = 256
_EPOCH = datetime.datetime(1970, 1, 1, tzinfo=datetime.timezone.utc)
_MICROSECOND = datetime.timedelta(microseconds=1)


def _utc_micros(time: datetime.datetime) -> int:
    """An aware time as integer UTC microseconds, which order as the times do."""
    return (time - _EPOCH) // _MICROSECOND


@dataclass(slots=True)
class FailureRecord:
    """One historical crash failure as tracked in the bug store."""

    bug_id: int
    dump_id: str
    resolution: str
    creation_time: datetime.datetime
    dupe_of: int | None
    top_component: str
    dump_path: str = ""

    def __post_init__(self) -> None:
        if self.dupe_of == self.bug_id:
            raise ValueError(f"bug {self.bug_id} cannot be a duplicate of itself")


def record_to_json(record: FailureRecord) -> str:
    return json.dumps(
        {
            "bug_id": record.bug_id,
            "dump_id": record.dump_id,
            "resolution": record.resolution,
            "creation_time": record.creation_time.isoformat(),
            "dupe_of": record.dupe_of,
            "top_component": record.top_component,
            "dump_path": record.dump_path,
        },
        sort_keys=True,
    )


_scan_json = json.JSONDecoder().scan_once  # the C scanner behind json.loads
_JSON_SPACE = " \t\n\r"


def record_from_json(line: str) -> FailureRecord:
    """Parse one record line.

    Raises ``MalformedRecord`` when a field has the wrong type: ``bug_id``
    must be an int (not a bool), ``dupe_of`` an int or null, ``dump_id`` a
    string and ``creation_time`` an ISO time with a UTC offset. Text that is
    not JSON raises ``json.JSONDecodeError`` as ``json.loads`` would: only
    JSON whitespace may surround the value.
    """
    start = len(line) - len(line.lstrip(_JSON_SPACE))
    try:
        data, end = _scan_json(line, start)
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", line, err.value) from None
    if end != len(line):
        rest = line[end:].lstrip(_JSON_SPACE)
        if rest:
            raise json.JSONDecodeError("Extra data", line, len(line) - len(rest))
    if not isinstance(data, dict):
        raise MalformedRecord("record is not a JSON object")
    bug_id, dupe_of = data.get("bug_id"), data.get("dupe_of")
    if type(bug_id) is not int:
        raise MalformedRecord(f"bug_id {bug_id!r} is not an integer")
    if dupe_of is not None and type(dupe_of) is not int:
        raise MalformedRecord(f"dupe_of {dupe_of!r} is neither an integer nor null")
    dump_id = data.get("dump_id")
    if not isinstance(dump_id, str):
        raise MalformedRecord(f"dump_id {dump_id!r} is not a string")
    stamp = data.get("creation_time")
    try:
        creation_time = datetime.datetime.fromisoformat(stamp)
    except (TypeError, ValueError):
        raise MalformedRecord(f"creation_time {stamp!r} is not an ISO time") from None
    if creation_time.tzinfo is None:
        raise MalformedRecord(f"creation_time {stamp!r} has no UTC offset")
    return FailureRecord(
        bug_id=bug_id,
        dump_id=dump_id,
        resolution=data.get("resolution", ""),
        creation_time=creation_time,
        dupe_of=dupe_of,
        top_component=data.get("top_component", ""),
        dump_path=data.get("dump_path", ""),
    )


@dataclass(frozen=True)
class RecencyWindow:
    """Candidate bound: by age in days, or by the last K records."""

    days: float | None = 30.0
    last_k: int | None = None


@dataclass(frozen=True)
class DetectionResult:
    dump_id: str
    verdict: str  # DUPLICATE or NEW
    bug_id: int | None
    score: float | None
    candidates_considered: int
    params: ModelParams


def _check_layout(root: Path) -> None:
    """Raise ``MissingSequence`` if root holds a v1 store; called before
    anything in it is created."""
    if (root / _V1_SEQUENCE_DIR).is_dir() and not (root / _SEQUENCE_LOG).exists():
        raise MissingSequence(
            f"{root} is a v1 store ({_V1_SEQUENCE_DIR}/ and no {_SEQUENCE_LOG}); open it "
            "for writing with kdetector 943fed2, the last commit that migrates it"
        )


class FailureStore:
    """Append-only record + sequence store backed by a directory.

    The index lives in memory, one row per record in append order. Open and
    ``append`` add each record to it through ``_index``, after
    ``_check_new`` has rejected a repeated id or a ``dupe_of`` that names no
    stored bug with a smaller id. An open from a verified checkpoint fills
    the rows it covers from the checkpoint's columns and builds their
    records only when asked. A ``read_only`` open writes nothing: a missing
    store is a ``MissingStore``. A v1 store is a ``MissingSequence``, and no
    open writes to it.
    """

    def __init__(self, root: Path | str, read_only: bool = False):
        self.root = Path(root)
        _check_layout(self.root)
        self._records_path = str(self.root / _RECORDS_FILE)
        self._log_path = str(self.root / _SEQUENCE_LOG)
        self._checkpoint_path = str(self.root / _CHECKPOINT_FILE)
        try:
            with open(self._records_path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            if read_only:
                raise MissingStore(f"no failure store at {self.root}: no {_RECORDS_FILE}") from None
            data = b""
            try:
                self.root.mkdir(parents=True, exist_ok=True)
                open(self._records_path, "ab").close()
            except OSError as exc:
                raise StoreWriteError(f"cannot initialize store at {self.root}") from exc
        self._rows: dict[str, int] = {}  # dump id -> row, in append order
        self._records: list[FailureRecord | None] = []  # per row; None until first asked for
        self._lines: list[str] = []  # the record lines of the checkpoint's rows
        self._max_bug_id: int | None = None
        # (creation time as UTC microseconds, bug id, row), by time and bug
        # id once sorted
        self._ordered: list[tuple] = []
        self._unsorted = False  # a record may have arrived out of order since the last sort
        self._canonical: dict[int, int] = {}  # bug id -> canonical bug, in append order
        start, line_count = self._open_checkpoint(data)  # the lines before start are indexed
        self._covered = len(self._records)  # rows the checkpoint read at open covers
        cut = data.rfind(b"\n") + 1  # where the last line without a \n starts
        lines = data[start:cut].decode("utf-8").split("\n")
        for number, line in enumerate(lines, start=line_count + 1):
            if line.strip():
                self._open_line(number, line)
        # a last line without its \n is a record that gets its \n before the
        # next append, or a torn write: text that is not JSON, skipped now
        # and cut off by the next append
        self._size = cut  # bytes of bugs.ndjson up to the last complete line
        self._cut_at: int | None = None
        self._end_line = False
        if cut < len(data):
            try:
                tail = data[cut:].decode("utf-8")
                json.loads(tail)
            except ValueError:  # bytes that are not UTF-8 or text that is not JSON
                self._cut_at = cut
            else:
                self._open_line(line_count + len(lines), tail)
                self._end_line = True
        self._sequences: dict[str, ComponentSequence] = {}
        self._log: str | None = None  # the sequence log's text, read on first use

    def _open_checkpoint(self, data: bytes) -> tuple[int, int]:
        """Fill the index from the checkpoint when it verifies against
        ``data``; returns the byte length and line count it covers, (0, 0)
        when there is none or it does not verify."""
        try:
            with open(self._checkpoint_path, "rb") as fh:
                columns = _checkpoint_columns(fh.read(), data)
        except OSError:
            return 0, 0
        if columns is None:
            return 0, 0
        length, bug_ids, dump_ids, times, canonical_bugs = columns
        lines = data[:length].decode("utf-8").split("\n")
        line_count = len(lines) - 1  # the text after the last \n is empty
        del lines[line_count]
        if len(lines) != len(bug_ids):
            lines = [line for line in lines if line.strip()]
        rows = dict(zip(dump_ids, range(len(dump_ids))))
        canonical = dict(zip(bug_ids, canonical_bugs))
        # one line per row, and no dump id or bug id twice
        if not len(lines) == len(rows) == len(canonical) == len(bug_ids):
            return 0, 0
        # each canonical bug is a stored root no larger than its own bug id
        if any(canonical.get(root) != root or root > bug_id for bug_id, root in canonical.items()):
            return 0, 0
        self._rows, self._lines, self._canonical = rows, lines, canonical
        self._records = [None] * len(bug_ids)
        self._max_bug_id = max(bug_ids, default=None)
        self._ordered = list(zip(times, bug_ids, range(len(bug_ids))))
        self._unsorted = True
        return length, line_count

    def _open_line(self, number: int, line: str) -> None:
        """Decode and index one record line; a bad or repeated record is a
        ``MalformedRecord`` naming the file and line."""
        try:
            self._index(record_from_json(line))
        except (MalformedRecord, DuplicateDumpId, DuplicateBugId, ValueError) as exc:
            raise MalformedRecord(f"{self._records_path}:{number}: {exc}") from exc

    def _check_new(self, record: FailureRecord) -> None:
        bug_id, dupe_of = record.bug_id, record.dupe_of
        if record.dump_id in self._rows:
            raise DuplicateDumpId(f"dump id {record.dump_id!r} is already stored")
        if bug_id in self._canonical:
            raise DuplicateBugId(f"bug id {bug_id} is already stored")
        if dupe_of is not None and not (dupe_of < bug_id and dupe_of in self._canonical):
            raise MalformedRecord(f"dupe_of {dupe_of} names no stored bug id below {bug_id}")

    def _index(self, record: FailureRecord) -> None:
        """Add a record with a new dump id and bug id to the index."""
        self._check_new(record)
        row = len(self._records)
        self._rows[record.dump_id] = row
        self._records.append(record)
        if self._max_bug_id is None or record.bug_id > self._max_bug_id:
            self._max_bug_id = record.bug_id
        stamp = _utc_micros(record.creation_time)
        # comparing times alone is cheaper; a tie marks a sort it may not need
        if self._ordered and stamp <= self._ordered[-1][0]:
            self._unsorted = True
        self._ordered.append((stamp, record.bug_id, row))
        dupe_of = record.dupe_of
        self._canonical[record.bug_id] = record.bug_id if dupe_of is None else self._canonical[dupe_of]

    def _record(self, row: int) -> FailureRecord:
        record = self._records[row]
        if record is None:  # a checkpoint row: its line was checked when it was written
            record = self._records[row] = record_from_json(self._lines[row])
        return record

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[FailureRecord]:
        """Every record in append order."""
        return [self._record(row) for row in range(len(self._records))]

    def has_dump(self, dump_id: str) -> bool:
        return dump_id in self._rows

    def sequence_for(self, dump_id: str) -> ComponentSequence:
        sequence = self._sequences.get(dump_id)
        if sequence is None:
            sequence = self._sequences[dump_id] = self._read_sequence(dump_id)
        return sequence

    def _read_sequence(self, dump_id: str) -> ComponentSequence:
        """Parse the dump's block, scanning the log back from its end only
        until that block is indexed."""
        row = self._rows.get(dump_id)
        if row is None:
            raise MissingSequence(f"no record in the store has dump id {dump_id!r}")
        if self._log is None:
            try:
                with open(self._log_path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                data = b""
            self._log = data.decode("utf-8", "replace")  # only a torn tail holds bad bytes
            self._scan = len(self._log)  # text before this offset is not indexed yet
            self._blocks: dict[str, tuple[int, int]] = {}  # header -> latest non-empty body span
        header = str(self._record(row).bug_id)
        while header not in self._blocks and self._index_block():
            pass
        if header not in self._blocks:
            raise MissingSequence(f"{self._log_path} holds no sequence for dump id {dump_id!r}")
        start, end = self._blocks[header]
        return sequence_from_text(self._log[start:end], dump_id)

    def _index_block(self) -> bool:
        """Index the block just before the scan point and move the point to
        its start; False once the whole log is indexed.

        A line without a tab is a header; the lines with a tab after it, up
        to the next header, are its body. A block with an empty body (the
        remains of a torn write) is not indexed.
        """
        text, end = self._log, self._scan
        body_end, has_body = end, False
        while end >= 0:
            start = text.rfind("\n", 0, end) + 1
            if text.find("\t", start, end) >= 0:
                has_body = True
            elif start < end:  # a header
                if has_body:
                    self._blocks.setdefault(text[start:end], (end + 1, body_end))
                self._scan = start - 1
                return True
            end = start - 1
        self._scan = -1
        return False

    def next_bug_id(self) -> int:
        return (self._max_bug_id or 0) + 1

    def canonical_bug(self, bug_id: int) -> int:
        """Smallest bug id of the bug's group along dupe_of edges."""
        try:
            return self._canonical[bug_id]
        except KeyError:
            raise ValueError(f"bug {bug_id} is not in the store") from None

    def window(
        self, window: RecencyWindow, now: datetime.datetime | None = None
    ) -> list[FailureRecord]:
        """Records inside the window, ordered by (creation_time, bug_id)."""
        if self._unsorted:
            self._ordered.sort()
            self._unsorted = False
        if window.last_k is not None:
            chosen = self._ordered[-window.last_k :] if window.last_k > 0 else []
        else:
            chosen = self._ordered[self._window_start(window.days, now) :]
        return [self._record(row) for _, _, row in chosen]

    def _window_start(self, days: float | None, now: datetime.datetime | None) -> int:
        """Index in the time order of the first record at most days old."""
        if days is None:
            return 0
        now = now or datetime.datetime.now(datetime.timezone.utc)
        try:
            horizon = now - datetime.timedelta(days=days)
        except OverflowError:  # the horizon falls before datetime.min
            return 0
        # (horizon,) sorts before every entry whose time is horizon
        return bisect.bisect_left(self._ordered, (_utc_micros(horizon),))

    def append(self, record: FailureRecord, sequence: ComponentSequence) -> None:
        """Write the sequence's block to the log, then the record's line; a
        repeated id or a bad ``dupe_of`` is rejected before anything is
        written."""
        self._check_new(record)
        block = f"\n{record.bug_id}\n{sequence_to_text(sequence)}".encode()
        line = (("\n" if self._end_line else "") + record_to_json(record) + "\n").encode()
        records_end = None
        try:
            with open(self._log_path, "ab") as fh:
                fh.write(block)
            with open(self._records_path, "ab") as fh:
                if self._cut_at is not None:
                    fh.truncate(self._cut_at)
                records_end = fh.seek(0, os.SEEK_END)
                fh.write(line)
        except OSError as exc:
            if records_end is not None:  # the next append cuts a half-written line off
                self._cut_at = records_end
            raise StoreWriteError(f"cannot append {record.dump_id!r}") from exc
        self._cut_at, self._end_line = None, False
        self._size = records_end + len(line)
        self._sequences[record.dump_id] = sequence
        self._index(record)

    def write_checkpoint(self) -> bool:
        """Write a checkpoint covering every record when at least
        ``CHECKPOINT_EVERY`` rows are not covered by the one read at open;
        True if one was written.

        Only a writer holding ``writer_lock`` calls this, after its append:
        the covered bytes are read back from ``bugs.ndjson``, so no other
        process may write to it meanwhile.
        """
        if len(self) - self._covered < CHECKPOINT_EVERY or self._cut_at is not None or self._end_line:
            return False
        with open(self._records_path, "rb") as fh:
            data = fh.read(self._size)
        times = [0] * len(self)
        for stamp, _, row in self._ordered:
            times[row] = stamp
        # the dump-id and canonical dicts are in append order, one entry per row
        payload = json.dumps(
            {
                "format": _CHECKPOINT_FORMAT,
                "length": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
                "bug_id": list(self._canonical),
                "dump_id": list(self._rows),
                "creation_time": times,
                "canonical_bug": list(self._canonical.values()),
            },
            separators=(",", ":"),
        ).encode()
        digest = hashlib.sha256(payload).hexdigest().encode()
        # a temporary file moved over the old one; a failed write leaves no
        # temporary file behind
        staged = f"{self._checkpoint_path}.tmp"
        try:
            with open(staged, "wb") as fh:
                fh.write(digest + b"\n" + payload)
            os.replace(staged, self._checkpoint_path)
        except OSError as exc:
            with contextlib.suppress(OSError):
                os.remove(staged)
            raise StoreWriteError(f"cannot write the checkpoint of {self.root}") from exc
        self._covered = len(self)
        return True


def _checkpoint_columns(raw: bytes, data: bytes):
    """The columns of checkpoint bytes ``raw`` when they are intact and
    well formed and cover a prefix of ``data``, the bytes of
    ``bugs.ndjson``; None otherwise.

    A checkpoint is the hex sha256 of its payload, a ``\n``, then the
    payload: a JSON object giving its format, the byte length it covers
    (ending at a ``\n``), the sha256 of those bytes and one column per
    covered record line (bug id, dump id, creation time as UTC
    microseconds, canonical bug).
    """
    digest, _, payload = raw.partition(b"\n")
    if hashlib.sha256(payload).hexdigest().encode() != digest:
        return None
    try:
        checkpoint = json.loads(payload)
        length = checkpoint["length"]
        columns = [checkpoint[name] for name in _CHECKPOINT_COLUMNS]
        expected = checkpoint["sha256"]
        if checkpoint["format"] != _CHECKPOINT_FORMAT or type(length) is not int:
            return None
    except (ValueError, KeyError, TypeError):
        return None
    if not 0 < length <= len(data) or data[length - 1] != ord("\n"):
        return None
    if hashlib.sha256(memoryview(data)[:length]).hexdigest() != expected:
        return None
    for column, kind in zip(columns, _CHECKPOINT_COLUMNS.values()):
        if type(column) is not list or len(column) != len(columns[0]) or set(map(type, column)) - {kind}:
            return None
    return (length, *columns)


@contextlib.contextmanager
def writer_lock(root: Path | str):
    """Hold an exclusive POSIX ``fcntl.flock`` on the store's ``bugs.ndjson``
    (made, with its directory, if missing) until the block ends; a v1
    store is rejected first."""
    root = Path(root)
    _check_layout(root)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / _RECORDS_FILE, "ab") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        yield


def sequence_dump(
    text: str, cmap: ComponentMap, stop_list: StopWordList, dump_id: str | None = None
) -> tuple[CrashDump, ComponentSequence]:
    """Run parse -> clean -> stop-filter -> sequence on dump text."""
    dump = parse_dump(text, dump_id)
    frames = filter_stop_words(dump.backtrace_frames, stop_list)
    return dump, to_component_sequence(frames, cmap, dump_id=dump.dump_id)


class Detector:
    """Wires the pipeline (parse, filter, sequence, score) over a store."""

    def __init__(
        self,
        store: FailureStore,
        cmap: ComponentMap,
        stop_list: StopWordList,
        params: ModelParams,
    ):
        self.store = store
        self.cmap = cmap
        self.stop_list = stop_list
        self.params = params

    def ingest(
        self, text: str, dump_path: str = "", dump_id: str | None = None
    ) -> tuple[FailureRecord, ComponentSequence]:
        """Add a historical dump to the store under a fresh bug id.

        The record's creation time is the crash time from the dump header,
        keeping replays of the same corpus byte-identical.
        """
        dump, sequence = sequence_dump(text, self.cmap, self.stop_list, dump_id)
        return self.file_bug(sequence, dump_time(dump), dump_path), sequence

    def detect(
        self,
        sequence: ComponentSequence,
        window: RecencyWindow = RecencyWindow(),
        now: datetime.datetime | None = None,
    ) -> DetectionResult:
        """Score the sequence against stored history; read-only.

        Score ties go to the most recent creation time, then the smallest
        bug id. An empty window yields a NEW verdict with no bug id bound.
        """
        candidates = self.store.window(window, now)
        best: FailureRecord | None = None
        best_score: float | None = None
        for record in candidates:
            stored = self.store.sequence_for(record.dump_id)
            score = score_features(match_features(sequence, stored), self.params)
            if best is None or _better(score, record, best_score, best):
                best, best_score = record, score
        duplicate = best is not None and best_score >= self.params.threshold
        return DetectionResult(
            dump_id=sequence.dump_id,
            verdict=DUPLICATE if duplicate else NEW,
            bug_id=self.store.canonical_bug(best.bug_id) if duplicate else None,
            score=best_score,
            candidates_considered=len(candidates),
            params=self.params,
        )

    def file_bug(
        self,
        sequence: ComponentSequence,
        creation_time: datetime.datetime,
        dump_path: str = "",
        dupe_of: int | None = None,
    ) -> FailureRecord:
        """Append the sequence's record under the next bug id; one with a
        dupe_of is resolved as DUPLICATE, one without is a new bug."""
        record = FailureRecord(
            bug_id=self.store.next_bug_id(),
            dump_id=sequence.dump_id,
            resolution="" if dupe_of is None else "DUPLICATE",
            creation_time=creation_time,
            dupe_of=dupe_of,
            top_component=sequence.occurrences[0].component,
            dump_path=dump_path,
        )
        self.store.append(record, sequence)
        return record

    def triage(
        self,
        text: str,
        dump_path: str = "",
        window: RecencyWindow = RecencyWindow(),
        bind: bool = True,
    ) -> DetectionResult:
        """Full workflow for one incoming dump: sequence it, then
        ``triage_sequence`` at its own crash time, so triage runs are
        reproducible from their inputs."""
        dump, sequence = sequence_dump(text, self.cmap, self.stop_list)
        return self.triage_sequence(sequence, dump_time(dump), dump_path, window, bind)

    def triage_sequence(
        self,
        sequence: ComponentSequence,
        crash_time: datetime.datetime,
        dump_path: str = "",
        window: RecencyWindow = RecencyWindow(),
        bind: bool = True,
    ) -> DetectionResult:
        """Detect with the crash time anchoring the window; when binding,
        file the record at that time, bound to the duplicate's canonical
        bug or as a new bug whose id the result then holds."""
        result = self.detect(sequence, window=window, now=crash_time)
        if bind:
            record = self.file_bug(sequence, crash_time, dump_path, dupe_of=result.bug_id)
            if result.verdict == NEW:
                result = dataclasses.replace(result, bug_id=record.bug_id)
        return result


def _better(
    score: float,
    record: FailureRecord,
    best_score: float | None,
    best: FailureRecord,
) -> bool:
    if score != best_score:
        return score > best_score
    if record.creation_time != best.creation_time:
        return record.creation_time > best.creation_time
    return record.bug_id < best.bug_id


def dump_time(dump: CrashDump) -> datetime.datetime:
    """The crash time in the dump's [HEADER], as UTC when it names no offset."""
    text = dump.header["time"]
    try:
        stamp = datetime.datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise MalformedHeader(f"[HEADER] time {text!r} is not an ISO 8601 time") from None
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=datetime.timezone.utc)
    return stamp


def render_report(result: DetectionResult) -> str:
    """One-line JSON detection report for stdout and logs."""
    return json.dumps(
        {
            "dump_id": result.dump_id,
            "verdict": result.verdict,
            "bug_id": result.bug_id,
            "score": result.score,
            "candidates_considered": result.candidates_considered,
            "m": result.params.m,
            "n": result.params.n,
            "threshold": result.params.threshold,
        },
        sort_keys=True,
    )
