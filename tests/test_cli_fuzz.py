"""Exit-code contract of ``kdetector detect`` on malformed dumps: a valid
dump mutated by bytes or by lines either triages (0) or is a data error
(2); no exception escapes ``main`` and the read-only run writes nothing."""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kdetector.cli import main

LINE_POOL = [
    "[HEADER]", "[CRASH_STACK]", "[BUILD]", "exception:", "backtrace:", "",
    "pid: 1", "time: 2026-02-30T00:00:00", "time: 0001-01-01T00:00:00+00:00",
    "time: 9999-12-31T23:59:59-23:59", "dump_id: ../x", " SFrame: 0x1",
    "0: void a::b() + 0x1 at f.c:1", "9" * 40 + ": void a::b() + 0x1 at f.c:1",
    "1: 0xdeadbeef <no symbol>", "2: int ns::Box::size(void) const + 0x10 at b.cpp:3",
]


def cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    """A store of six ingested dumps, with the map, stop list and params."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus"
    assert cli("synth", "--out", corpus, "--groups", "3", "--per-group", "2", "--seed", "5") == 0
    assert cli("mine", corpus / "src", "--out", root / "map.tsv") == 0
    assert cli("stopwords", corpus / "dumps", "--out", root / "stop.tsv", "--cutoff", "2") == 0
    (root / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    pipeline = ["--map", root / "map.tsv", "--stoplist", root / "stop.tsv", "--store", root / "store"]
    dumps = sorted((corpus / "dumps").glob("*.dump"))
    for dump in dumps[1:]:
        assert cli("ingest", dump, *pipeline) == 0
    return root, dumps[0], [*pipeline, "--params", root / "params.txt"]


@st.composite
def byte_mutations(draw, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 8))):
        at = draw(st.integers(0, len(out)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op != "insert" and at < len(out):
            del out[at]
        if op != "delete":
            out[at:at] = draw(st.binary(min_size=1, max_size=3))
    return bytes(out)


@st.composite
def line_mutations(draw, data: bytes) -> bytes:
    lines = data.decode().split("\n")
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "insert"]))
        if op == "delete" and len(lines) > 1:
            del lines[at]
        elif op == "duplicate":
            lines.insert(at, lines[at])
        elif op == "swap":
            other = draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        elif op == "replace":
            lines[at] = draw(st.sampled_from(LINE_POOL))
        elif op == "insert":
            lines.insert(at, draw(st.sampled_from(LINE_POOL)))
    return "\n".join(lines).encode()


@pytest.mark.parametrize("mutate", [byte_mutations, line_mutations])
def test_detect_on_a_mutated_dump_exits_zero_or_two(small_store, tmp_path_factory, mutate):
    root, valid, options = small_store
    before = sorted((p.name, p.read_bytes()) for p in (root / "store").iterdir())
    probe = tmp_path_factory.mktemp("probe") / "probe.dump"

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutate(valid.read_bytes()))
    def check(data):
        probe.write_bytes(data)
        assert cli("detect", probe, *options) in (0, 2)

    check()
    assert sorted((p.name, p.read_bytes()) for p in (root / "store").iterdir()) == before
