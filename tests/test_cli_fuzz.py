"""Exit-code contract of the CLI on malformed inputs. A valid dump mutated
by bytes or by lines either triages (0) or is a data error (2). A valid
component map, stop list, params file, labeled-pairs file, ``--config``
file, or a store's ``bugs.ndjson`` or ``sequences.log``, mutated the same
way exits 0, 1 or 2 with no traceback. No exception escapes ``main``, and
a read-only ``detect`` writes nothing to the store."""

from __future__ import annotations

import contextlib
import io
import json
import shutil

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


# lines that the line mutations of each other input format insert or
# substitute: malformed fields, odd numbers and characters
MAP_POOL = [
    "#version 1 mined=x", "app::A::f1\tCompA", "\tCompA", "app::f\t", "app::f\tAlpha\tBeta",
    "no_tab", "#", "\ufeffapp::f\tCompA", "app::f\t\x00", "app::f\té",
]
STOP_POOL = [
    "#cutoff: 2", "#cutoff: -1", "#cutoff: 1e400", "#cutoff: " + "9" * 5000, "#cutoff:",
    "rt::f\t0.5", "rt::f\tnan", "rt::f\t1e400", "rt::f\t-inf", "rt::f", "\t", "é\t1",
]
PARAMS_POOL = [
    "#version 1", "m=1.0 n=1.0 threshold=0.5", "m=nan n=1 threshold=0.5", "m=1e400 n=1",
    "m=1 n=1 threshold=null", "m=1", "n=-1 m=0", "m=1=2 n=1", "threshold=2", "x",
]
PAIRS_POOL = [
    "d000_0\td000_1\tduplicate", "d000_0\td001_0\tnon-duplicate", "a\ta\tduplicate",
    "d000_0\td001_0\tmaybe", "d000_0\td001_0", "../x\td000_0\tduplicate",
    "d000_0\tmissing\tnon-duplicate", "\t\t", "#", "d000_0\x00\td001_0\tduplicate",
]
CONFIG_POOL = [
    "{", "}", '"window_days": 1e400,', '"window_days": NaN,', '"last_k": -1,', '"last_k": true,',
    '"map": null,', '"store": 7,', '"params": "",', "null", "[]", '"store": "\\u0000",',
]
RECORD_POOL = [
    '{"bug_id": 1}', "{}", "null", "[]", "", " ", '{"bug_id": 1, "dump_id": "x"',
    '{"bug_id": 9, "dump_id": "d9", "resolution": "", "creation_time": "2026-01-01T00:00:00+00:00",'
    ' "dupe_of": 1001, "top_component": "A", "dump_path": ""}',
    '{"bug_id": 1e400, "dump_id": "d9", "creation_time": "2026-01-01T00:00:00Z", "dupe_of": null}',
    '{"bug_id": true, "dump_id": 5, "creation_time": "9999-12-31T23:59:59-23:59"}',
]
LOG_POOL = ["1001", "1002", "", "Comp\tapp::f", "\t", "Comp\t", "Comp\ta\tb", "x y", "99999", "-1"]
# bytes that a byte mutation of those formats may insert
TOKENS = ["\t", "\n", "\x00", "\ufeff", "é", "1e400", "nan", "null", "-1", "=", "#"]


def run(*argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process kdetector run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def cli(*argv) -> int:
    return run(*argv)[0]


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
def byte_mutations(draw, data: bytes, pool=()) -> bytes:
    """Insert, delete or replace bytes; an insert is random bytes or, when
    a pool is given, the UTF-8 of one of its tokens or lines."""
    inserts = st.binary(min_size=1, max_size=3)
    if pool:
        inserts |= st.sampled_from([token.encode() for token in [*TOKENS, *pool]])
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 8))):
        at = draw(st.integers(0, len(out)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op != "insert" and at < len(out):
            del out[at]
        if op != "delete":
            out[at:at] = draw(inserts)
    return bytes(out)


@st.composite
def line_mutations(draw, data: bytes, pool=LINE_POOL) -> bytes:
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
            lines[at] = draw(st.sampled_from(pool))
        elif op == "insert":
            lines.insert(at, draw(st.sampled_from(pool)))
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


def _store_files(root) -> list:
    return sorted((p.name, p.read_bytes()) for p in (root / "store").iterdir())


def _assert_contract(mutate, valid: bytes, pool, argv, target, store_root=None) -> None:
    """Run argv on each mutation of valid written to target: exit 0, 1 or 2,
    no traceback, and with store_root, a store left byte-identical (with
    the mutated file, when the target is in it)."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutate(valid, pool))
    def check(data):
        target.write_bytes(data)
        before = store_root and _store_files(store_root)
        code, err = run(*argv)
        assert code in (0, 1, 2) and "Traceback" not in err, (code, err)
        if store_root:
            assert _store_files(store_root) == before

    target.write_bytes(valid)
    assert run(*argv)[0] == 0  # the unmutated input is valid
    check()


def _with(options: list, flag: str, value) -> list:
    """options with the value after flag replaced."""
    options = list(options)
    options[options.index(flag) + 1] = value
    return options


MUTATIONS = pytest.mark.parametrize("mutate", [byte_mutations, line_mutations])


@MUTATIONS
def test_detect_with_a_mutated_component_map_exits_zero_one_or_two(small_store, tmp_path, mutate):
    root, dump, options = small_store
    target = tmp_path / "map.tsv"
    argv = ["detect", dump, *_with(options, "--map", target)]
    _assert_contract(mutate, (root / "map.tsv").read_bytes(), MAP_POOL, argv, target, root)


@MUTATIONS
def test_detect_with_a_mutated_stop_list_exits_zero_one_or_two(small_store, tmp_path, mutate):
    root, dump, options = small_store
    target = tmp_path / "stop.tsv"
    argv = ["detect", dump, *_with(options, "--stoplist", target)]
    _assert_contract(mutate, (root / "stop.tsv").read_bytes(), STOP_POOL, argv, target, root)


@MUTATIONS
def test_detect_with_mutated_params_exits_zero_one_or_two(small_store, tmp_path, mutate):
    root, dump, options = small_store
    target = tmp_path / "params.txt"
    argv = ["detect", dump, *_with(options, "--params", target)]
    _assert_contract(mutate, (root / "params.txt").read_bytes(), PARAMS_POOL, argv, target, root)


@MUTATIONS
def test_evaluate_with_mutated_labeled_pairs_exits_zero_one_or_two(small_store, tmp_path, mutate):
    root = small_store[0]
    valid = "d000_0\td000_1\tduplicate\nd001_0\td001_1\tduplicate\n" \
            "d000_0\td001_0\tnon-duplicate\nd001_1\td002_0\tnon-duplicate\n"
    target = tmp_path / "pairs.tsv"
    argv = ["evaluate", target, "--dumps", root / "corpus" / "dumps", "--map", root / "map.tsv",
            "--stoplist", root / "stop.tsv", "--params", root / "params.txt"]
    _assert_contract(mutate, valid.encode(), PAIRS_POOL, argv, target)


@MUTATIONS
def test_detect_with_a_mutated_config_exits_zero_one_or_two(small_store, tmp_path, mutate):
    """--config is a top-level option, given before the subcommand."""
    root, dump, _ = small_store
    config = {"map": str(root / "map.tsv"), "stoplist": str(root / "stop.tsv"),
              "store": str(root / "store"), "params": str(root / "params.txt"),
              "window_days": 30, "last_k": None}
    target = tmp_path / "config.json"
    valid = json.dumps(config, indent=1)
    _assert_contract(mutate, valid.encode(), CONFIG_POOL, ["--config", target, "detect", dump],
                     target, root)


@pytest.mark.parametrize("name,pool", [("bugs.ndjson", RECORD_POOL), ("sequences.log", LOG_POOL)])
@MUTATIONS
def test_detect_on_a_mutated_store_exits_zero_one_or_two(small_store, tmp_path, mutate, name, pool):
    """A read-only detect on a copy of the store with one file mutated."""
    root, dump, options = small_store
    shutil.copytree(root / "store", tmp_path / "store")
    target = tmp_path / "store" / name
    argv = ["detect", dump, *_with(options, "--store", tmp_path / "store")]
    _assert_contract(mutate, target.read_bytes(), pool, argv, target, tmp_path)
