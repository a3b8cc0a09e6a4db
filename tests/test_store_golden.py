"""Golden failure-store artifacts: what ``ingest`` and ``detect --bind`` write.

A 12-group seeded corpus is mined and stop-filtered, dumps 1 and 2 of
groups 0-10 are ingested, and twelve dumps are then triaged with
``detect --bind`` in an order whose crash times run backwards and forwards.
A group's unmutated dump 0 binds first; its dump 3 then scores best against
that bound record, so the report names the group's canonical (smallest)
bug, not the record's own (d004_3, d000_3 and d002_3). Group 11 is never
ingested, so its first dump files a new bug and its second binds to it.
``--last-k`` and ``--window-days`` runs cover both window kinds.

The comparison is by bytes: ``bugs.ndjson``, ``sequences.log`` and the
report lines. Commands run from the work directory with relative paths, so
``dump_path`` holds no temporary directory.

Regenerate the files (only when a store output change is intended) with

    PYTHONPATH=src python tests/test_store_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from kdetector import detector
from kdetector.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "store"
SYNTH = ["--groups", "12", "--per-group", "4", "--noise", "0.3", "--seed", "7"]
INGESTED = [f"d{g:03d}_{k}" for g in range(11) for k in (1, 2)]
# (dump id, extra window options), in triage order
DETECTED = [
    ("d004_0", []),
    ("d000_0", []),
    ("d004_3", []),
    ("d011_0", []),
    ("d000_3", []),
    ("d011_1", []),
    ("d007_0", ["--last-k", "6"]),
    ("d007_3", []),
    ("d002_0", ["--window-days", "0.5"]),
    ("d002_3", []),
    ("d009_0", ["--last-k", "0"]),
    ("d009_3", []),
]
PARAMS = "#version 1\nm=0.1 n=1.0 threshold=0.5\n"


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    assert code == 0, argv
    return out.getvalue()


def _prepare(work: Path) -> list[str]:
    """Write the corpus, map, stop list and params; return the pipeline options."""
    _cli("synth", "--out", "corpus", *SYNTH)
    _cli("mine", "corpus/src", "--out", "componentmap.tsv")
    _cli("stopwords", "corpus/dumps", "--out", "stopwords.tsv", "--cutoff", "2")
    Path("params.txt").write_text(PARAMS)
    return ["--map", "componentmap.tsv", "--stoplist", "stopwords.tsv", "--store", "store"]


def _detect_all(pipeline: list[str]) -> str:
    return "".join(
        _cli("detect", f"corpus/dumps/{dump_id}.dump", *pipeline,
             "--params", "params.txt", "--bind", *window)
        for dump_id, window in DETECTED
    )


@contextlib.contextmanager
def _inside(work: Path):
    previous = os.getcwd()
    os.chdir(work)
    try:
        yield
    finally:
        os.chdir(previous)


def regenerate(work: Path) -> dict[str, bytes]:
    """Build the store in work/store; return its files and the reports."""
    with _inside(work):
        pipeline = _prepare(work)
        for dump_id in INGESTED:
            _cli("ingest", f"corpus/dumps/{dump_id}.dump", *pipeline)
        reports = _detect_all(pipeline)
    store = work / "store"
    artifacts = {"detect.stdout": reports.encode()}
    for path in sorted(store.rglob("*")):
        if path.is_file():
            artifacts[path.relative_to(store).as_posix()] = path.read_bytes()
    return artifacts


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory) -> dict[str, bytes]:
    return regenerate(tmp_path_factory.mktemp("store-golden"))


def _golden() -> dict[str, bytes]:
    return {
        path.relative_to(GOLDEN).as_posix(): path.read_bytes()
        for path in sorted(GOLDEN.rglob("*"))
        if path.is_file()
    }


def test_same_files(regenerated):
    assert sorted(regenerated) == sorted(_golden())


@pytest.mark.parametrize("name", ["detect.stdout", "bugs.ndjson"])
def test_artifact_is_byte_identical(regenerated, name):
    assert regenerated[name] == (GOLDEN / name).read_bytes()


def test_sequences_are_byte_identical(regenerated):
    assert regenerated["sequences.log"] == (GOLDEN / "sequences.log").read_bytes()


def test_replay_through_the_checkpoint_is_byte_identical(tmp_path, monkeypatch):
    """With a checkpoint written after every append, every command after the
    first opens from one, and the store and reports keep their bytes."""
    monkeypatch.setattr(detector, "CHECKPOINT_EVERY", 1)
    verified = []
    real = detector._checkpoint_columns

    def counting(raw, data):
        columns = real(raw, data)
        verified.append(columns is not None)
        return columns

    monkeypatch.setattr(detector, "_checkpoint_columns", counting)
    artifacts = regenerate(tmp_path)
    assert verified == [True] * (len(INGESTED) + len(DETECTED) - 1)
    assert sorted(artifacts) == sorted([*_golden(), "bugs.checkpoint"])
    for name in ("detect.stdout", "bugs.ndjson", "sequences.log"):
        assert artifacts[name] == (GOLDEN / name).read_bytes(), name


def test_reports_cover_binds_and_new_bugs():
    lines = (GOLDEN / "detect.stdout").read_text().splitlines()
    assert len(lines) == len(DETECTED)
    assert '"verdict": "new"' in lines[3]  # d011_0: its group was never ingested
    assert sum('"verdict": "duplicate"' in line for line in lines) >= 8


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_store_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = regenerate(Path(tmp))
    for name, data in artifacts.items():
        (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
        (GOLDEN / name).write_bytes(data)
