from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kdetector.cli import main
from kdetector.detector import FailureStore


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def workspace(tmp_path, capsys):
    """A synthesized corpus with mined map and derived stop list."""
    out = tmp_path / "corpus"
    code, _, _ = run(
        capsys, "synth", "--out", out, "--groups", "8", "--per-group", "3",
        "--noise", "0.2", "--seed", "3",
    )
    assert code == 0
    code, _, _ = run(
        capsys, "mine", out / "src", "--out", tmp_path / "map.tsv"
    )
    assert code == 0
    code, _, _ = run(
        capsys, "stopwords", out / "dumps", "--out", tmp_path / "stop.tsv",
        "--cutoff", "2",
    )
    assert code == 0
    return tmp_path


def pipeline_args(workspace):
    return [
        "--dumps", workspace / "corpus" / "dumps",
        "--map", workspace / "map.tsv",
        "--stoplist", workspace / "stop.tsv",
    ]


def test_synth_is_byte_identical_per_seed(tmp_path, capsys):
    for name in ("one", "two"):
        code, _, _ = run(
            capsys, "synth", "--out", tmp_path / name, "--groups", "4",
            "--per-group", "3", "--noise", "0.1", "--seed", "7",
        )
        assert code == 0
    files_one = sorted((tmp_path / "one").rglob("*"))
    files_two = sorted((tmp_path / "two").rglob("*"))
    assert [p.relative_to(tmp_path / "one") for p in files_one if p.is_file()] == [
        p.relative_to(tmp_path / "two") for p in files_two if p.is_file()
    ]
    for p in files_one:
        if p.is_file():
            twin = tmp_path / "two" / p.relative_to(tmp_path / "one")
            assert p.read_bytes() == twin.read_bytes()


def test_mine_reports_summary(workspace, capsys):
    code, out, _ = run(
        capsys, "mine", workspace / "corpus" / "src", "--out", workspace / "m2.tsv"
    )
    assert code == 0
    assert out.startswith("functions=")
    assert (workspace / "m2.tsv").read_text() == (workspace / "map.tsv").read_text()


def test_stopwords_output(workspace):
    text = (workspace / "stop.tsv").read_text()
    assert text.splitlines()[0] == "#cutoff: 2"
    names = [line.split("\t")[0] for line in text.splitlines()[1:3]]
    assert names == ["rt::Frame::enter0", "rt::Frame::enter1"]


def test_train_then_evaluate(workspace, capsys):
    corpus = workspace / "corpus"
    code, out, _ = run(
        capsys, "train", corpus / "pairs_train.tsv", *pipeline_args(workspace),
        "--params-out", workspace / "params.txt",
        "--grid-out", workspace / "grid.tsv",
    )
    assert code == 0
    assert out.startswith("m=")
    grid_lines = (workspace / "grid.tsv").read_text().strip().splitlines()
    assert len(grid_lines) == 442  # 21x21 grid plus the summary line

    code, out, _ = run(
        capsys, "evaluate", corpus / "pairs_test.tsv", *pipeline_args(workspace),
        "--params", workspace / "params.txt",
    )
    assert code == 0
    rows = dict(line.split("\t") for line in out.strip().splitlines())
    assert set(rows) == {"kdetector", "edit-distance", "prefix-match"}
    assert float(rows["kdetector"]) >= float(rows["prefix-match"])
    assert float(rows["kdetector"]) >= float(rows["edit-distance"])


def test_ingest_then_detect_binds_duplicate(workspace, capsys):
    corpus = workspace / "corpus"
    (workspace / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    store = workspace / "store"
    dump = corpus / "dumps" / "d000_0.dump"
    code, out, _ = run(
        capsys, "ingest", dump, *pipeline_args(workspace), "--store", store
    )
    assert code == 0
    assert json.loads(out)["ingested"] == "d000_0"

    # same stack under a fresh dump id must come back as a duplicate
    probe = workspace / "probe.dump"
    probe.write_text(dump.read_text().replace("dump_id: d000_0", "dump_id: probe-1"))
    code, out, _ = run(
        capsys, "detect", probe, *pipeline_args(workspace),
        "--store", store, "--params", workspace / "params.txt",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "duplicate"
    assert report["score"] == 1.0
    assert report["bug_id"] == 1


def test_detect_bind_files_new_bug(workspace, capsys):
    corpus = workspace / "corpus"
    (workspace / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    store = workspace / "store2"
    dump = corpus / "dumps" / "d001_0.dump"
    code, out, _ = run(
        capsys, "detect", dump, *pipeline_args(workspace),
        "--store", store, "--params", workspace / "params.txt", "--bind",
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "new"
    assert report["bug_id"] == 1
    code, out, _ = run(
        capsys, "detect", dump.with_name("d001_1.dump"), *pipeline_args(workspace),
        "--store", store, "--params", workspace / "params.txt", "--bind",
    )
    assert code == 0
    follow_up = json.loads(out)
    assert follow_up["verdict"] == "duplicate"
    assert follow_up["bug_id"] == 1


def test_read_only_detect_on_a_missing_store_is_a_data_error(workspace, capsys):
    """A mistyped --store must not triage against nothing: a read-only
    detect names the path, exits 2 and creates nothing."""
    (workspace / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    store = workspace / "no" / "such" / "store"
    before = sorted(workspace.rglob("*"))
    code, out, err = run(
        capsys, "detect", workspace / "corpus" / "dumps" / "d000_0.dump",
        *pipeline_args(workspace), "--store", store, "--params", workspace / "params.txt",
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and str(store) in err
    assert sorted(workspace.rglob("*")) == before


def test_usage_error_exits_one(capsys):
    assert run(capsys, "no-such-command")[0] == 1
    assert run(capsys)[0] == 1


def test_data_error_exits_two(tmp_path, capsys):
    code, _, err = run(
        capsys, "stopwords", tmp_path, "--out", tmp_path / "stop.tsv"
    )
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "mine", tmp_path / "missing")
    assert code == 2


def test_config_file_supplies_defaults(workspace, capsys, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "dumps": str(workspace / "corpus" / "dumps"),
                "map": str(workspace / "map2.tsv"),
            }
        )
    )
    code, _, _ = run(
        capsys, "--config", config, "mine", workspace / "corpus" / "src"
    )
    assert code == 0
    assert (workspace / "map2.tsv").is_file()


def test_malformed_dump_reports_data_error(workspace, capsys, tmp_path):
    bad = tmp_path / "bad.dump"
    bad.write_text("[HEADER]\npid: 1\ntime: now\n[BUILD]\n")
    (workspace / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    code, _, err = run(
        capsys, "detect", bad, *pipeline_args(workspace),
        "--store", workspace / "store3", "--params", workspace / "params.txt",
    )
    assert code == 2
    assert "error:" in err


def test_import_cli_does_not_load_numpy():
    # numpy is imported only inside the trainer's array code
    probe = "import sys, kdetector.cli; print('numpy' in sys.modules)"
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "option,value", [("--last-k", "-1"), ("--window-days", "-3"), ("--window-days", "nan")]
)
def test_negative_detect_window_is_usage_error(workspace, capsys, option, value):
    (workspace / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    dump = workspace / "corpus" / "dumps" / "d000_0.dump"
    store = workspace / "store-neg"
    common = [*pipeline_args(workspace), "--store", store, "--params", workspace / "params.txt"]
    code, out, err = run(capsys, "detect", dump, *common, option, value, "--bind")
    assert code == 1
    assert option in err and out == ""
    assert not store.exists()
    # zero stays valid: an empty window (a read-only detect needs a store)
    FailureStore(store)
    code, out, _ = run(capsys, "detect", dump, *common, option, "0")
    assert code == 0
    assert json.loads(out)["candidates_considered"] == 0


@pytest.mark.parametrize(
    "option", ["--groups", "--per-group", "--components", "--top-pool", "--functions-per-component"]
)
def test_empty_synth_corpus_is_usage_error(tmp_path, capsys, option):
    code, _, err = run(capsys, "synth", "--out", tmp_path / "corpus", option, "0")
    assert code == 1
    assert option in err
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("days", ["inf", "1e10", "1e6"])
def test_days_window_reaching_before_datetime_min_holds_every_record(workspace, capsys, days):
    (workspace / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    dumps = workspace / "corpus" / "dumps"
    common = [*pipeline_args(workspace), "--store", workspace / "store-far"]
    for name in ("d000_0", "d001_0"):
        assert run(capsys, "ingest", dumps / f"{name}.dump", *common)[0] == 0
    code, out, _ = run(
        capsys, "detect", dumps / "d002_0.dump", *common,
        "--params", workspace / "params.txt", "--window-days", days,
    )
    assert code == 0
    assert json.loads(out)["candidates_considered"] == 2


def test_synth_spec_with_too_few_distinct_stacks_is_data_error(tmp_path, capsys):
    code, _, err = run(
        capsys, "synth", "--out", tmp_path / "corpus", "--components", "1",
        "--functions-per-component", "1", "--groups", "3",
    )
    assert code == 2
    assert "repeated a base stack" in err
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize(
    "config,argv",
    [
        ([1], ["synth", "--out", "corpus"]),
        ({"per_group": 2.5}, ["synth", "--out", "corpus"]),
        ({"groups": [2]}, ["synth", "--out", "corpus"]),
        ({"last_k": 2.5}, ["detect", "corpus/dumps/d000_0.dump"]),
        ({"groups": None}, ["synth", "--out", "corpus"]),  # null unsets only a window bound
        ({"map": None}, ["detect", "corpus/dumps/d000_0.dump"]),
        # a path option takes a string the file system can take
        ({"store": 7}, ["ingest", "corpus/dumps/d000_0.dump"]),
        ({"map": ["a"]}, ["ingest", "corpus/dumps/d000_0.dump"]),
        ({"store": "a\u0000b"}, ["ingest", "corpus/dumps/d000_0.dump"]),
        ({"store": "\ud800"}, ["ingest", "corpus/dumps/d000_0.dump"]),
    ],
)
def test_bad_config_is_usage_error(workspace, capsys, monkeypatch, config, argv):
    monkeypatch.chdir(workspace)
    (workspace / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    (workspace / "config.json").write_text(json.dumps(config))
    common = pipeline_args(workspace) if argv[0] in ("detect", "ingest") else []
    if argv[0] == "detect":
        common += ["--params", "params.txt"]
    code, out, err = run(capsys, "--config", "config.json", *argv, *common)
    assert code == 1
    assert err.startswith("usage error: ") and out == ""
    assert not (workspace / "store").exists()
    assert sorted(p.name for p in workspace.iterdir()) == [
        "config.json", "corpus", "map.tsv", "params.txt", "stop.tsv"]


@pytest.mark.parametrize("bad", ["a\0b", "\ud800"])
@pytest.mark.parametrize("flag", ["--store", "--map", "--config"])
def test_a_path_no_file_system_can_take_is_usage_error(workspace, capsys, flag, bad):
    """A NUL or a lone surrogate in any argument fails before a file is
    opened or made."""
    argv = ["ingest", workspace / "corpus" / "dumps" / "d000_0.dump", *pipeline_args(workspace),
            "--store", workspace / "store"]
    argv = [flag, bad, *argv] if flag == "--config" else [*argv, flag, bad]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert not (workspace / "store").exists()


def test_negative_stopwords_cutoff_is_usage_error(workspace, capsys):
    code, out, err = run(
        capsys, "stopwords", workspace / "corpus" / "dumps", "--out", workspace / "stop2.tsv",
        "--cutoff", "-1",
    )
    assert (code, out) == (1, "")
    assert err == "usage error: argument --cutoff: must be at least 0, got -1\n"
    assert not (workspace / "stop2.tsv").exists()


def test_mine_of_a_manifest_that_is_not_utf8_is_a_data_error_naming_it(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    manifest = tmp_path / "src" / "CMakeLists.txt"
    manifest.write_bytes(b'SET_COMPONENT("\xff")\n')
    code, out, err = run(capsys, "mine", tmp_path / "src", "--out", tmp_path / "map.tsv")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {manifest}: 'utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "map.tsv").exists()


def test_inputs_are_utf8_whatever_the_locale(workspace):
    """Under the C locale with UTF-8 mode off, a dump with a non-ASCII
    header ingests and a manifest declaring a non-ASCII component mines."""
    dump = workspace / "accent.dump"
    text = (workspace / "corpus" / "dumps" / "d000_0.dump").read_text(encoding="utf-8")
    dump.write_text(text.replace("[HEADER]\n", "[HEADER]\nproduct: caf\u00e9\n", 1),
                    encoding="utf-8")
    tree = workspace / "accent-src"
    tree.mkdir()
    (tree / "CMakeLists.txt").write_text('SET_COMPONENT("\u00dcn\u00ef")\n', encoding="utf-8")
    (tree / "a.cpp").write_text("fn app::A::f1\n", encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {key: value for key, value in os.environ.items()
           if key not in ("PYTHONUTF8", "PYTHONIOENCODING", "LANG", "LC_CTYPE")}
    env.update(LC_ALL="C", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    for argv in (["ingest", dump, *pipeline_args(workspace), "--store", workspace / "store"],
                 ["mine", tree, "--out", workspace / "accent-map.tsv"]):
        done = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "kdetector.cli", *map(str, argv)],
            env=env, capture_output=True, text=True, encoding="utf-8",
        )
        assert done.returncode == 0, done.stderr
    assert "app::A::f1\t\u00dcn\u00ef\n" in (workspace / "accent-map.tsv").read_text(encoding="utf-8")


def test_numeric_config_values_still_apply(workspace, capsys, monkeypatch):
    monkeypatch.chdir(workspace)
    (workspace / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    dumps = workspace / "corpus" / "dumps"
    for name in ("d000_0", "d001_0"):
        assert run(capsys, "ingest", dumps / f"{name}.dump", *pipeline_args(workspace))[0] == 0
    (workspace / "config.json").write_text(json.dumps({"last_k": 1, "window_days": None}))
    code, out, _ = run(
        capsys, "--config", "config.json", "detect", dumps / "d002_0.dump",
        *pipeline_args(workspace), "--params", "params.txt",
    )
    assert code == 0
    assert json.loads(out)["candidates_considered"] == 1


@pytest.mark.parametrize("bad_line", ["app::no_tab", "\tCompA", "app::f\t", "app::f\tAlpha\tBeta"])
def test_malformed_map_line_is_data_error(workspace, capsys, bad_line):
    """The map is read before the writer lock, so a bad line leaves no store."""
    cmap = workspace / "bad_map.tsv"
    lines = (workspace / "map.tsv").read_text().splitlines()
    cmap.write_text("\n".join([*lines[:2], bad_line, *lines[2:]]) + "\n")
    code, _, err = run(
        capsys, "ingest", workspace / "corpus" / "dumps" / "d000_0.dump",
        *pipeline_args(workspace), "--map", cmap, "--store", workspace / "store-map",
    )
    assert code == 2
    assert f"{cmap}:3:" in err
    assert not (workspace / "store-map").exists()


def test_mine_rejects_a_component_name_the_map_cannot_hold(tmp_path, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "CMakeLists.txt").write_text('SET_COMPONENT("Alpha\tBeta")\n')
    (tmp_path / "src" / "a.cpp").write_text("fn app::A::f1\n")
    code, out, err = run(capsys, "mine", tmp_path / "src", "--out", tmp_path / "map.tsv")
    assert (code, out) == (2, "")
    assert err.startswith("error: CMakeLists.txt:1: component name 'Alpha\\tBeta' holds a tab")
    assert not (tmp_path / "map.tsv").exists()


def test_config_that_is_not_valid_json_is_usage_error(workspace, capsys, monkeypatch):
    monkeypatch.chdir(workspace)
    (workspace / "config.json").write_text('{"groups": 2')
    code, out, err = run(capsys, "--config", "config.json", "synth", "--out", "corpus2")
    assert code == 1
    assert err.startswith("usage error: argument --config: config.json is not valid JSON")
    assert out == ""
    assert not (workspace / "corpus2").exists()


def writer_argv(workspace, command, dump, store):
    """An ingest or detect --bind command line over the workspace."""
    argv = [command, dump, *pipeline_args(workspace), "--store", store]
    if command == "detect":
        (workspace / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
        argv += ["--params", workspace / "params.txt", "--bind"]
    return argv


@pytest.mark.parametrize("missing", ["--map", "--stoplist"])
@pytest.mark.parametrize("command", ["ingest", "detect"])
def test_a_failed_writer_leaves_no_store_behind(workspace, capsys, command, missing):
    """ingest and detect --bind read the map and the stop list before the
    writer lock makes the store, so a missing one creates nothing."""
    store = workspace / "new-store"
    argv = writer_argv(workspace, command, workspace / "corpus" / "dumps" / "d000_0.dump", store)
    argv[argv.index(missing) + 1] = workspace / "no-such.tsv"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "no-such.tsv" in err
    assert not store.exists()


BAD_DUMPS = {
    "not-utf8": b"[HEADER]\npid: 1\xff\n",
    "no-header": b"[CRASH_STACK]\nbacktrace:\n0: void a::b() + 0x1 at f.c:1\n",
    "bad-time": b"[HEADER]\npid: 1\ntime: soon\n[CRASH_STACK]\n0: void a::b() + 0x1 at f.c:1\n",
    "no-usable-frame": b"[HEADER]\npid: 1\ntime: 2026-01-01T00:00:00Z\n[CRASH_STACK]\n0: <no symbol>\n",
    # both frames are the workspace's active stop words
    "only-stop-words": b"[HEADER]\npid: 1\ntime: 2026-01-01T00:00:00Z\n[CRASH_STACK]\n"
    b"0: void rt::Frame::enter0() + 0x1 at f.c:1\n1: void rt::Frame::enter1() + 0x1 at f.c:2\n",
    "huge-index": b"[HEADER]\npid: 1\ntime: 2026-01-01T00:00:00Z\n[CRASH_STACK]\n"
    + b"9" * 5000 + b": void a::b() + 0x1 at f.c:1\n",
}


@pytest.mark.parametrize("kind", sorted(BAD_DUMPS))
@pytest.mark.parametrize("command", ["ingest", "detect"])
def test_a_bad_dump_to_a_writer_is_a_data_error_naming_the_file(workspace, capsys, command, kind):
    bad = workspace / "bad.dump"
    bad.write_bytes(BAD_DUMPS[kind])
    code, out, err = run(capsys, *writer_argv(workspace, command, bad, workspace / "store"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: ")
    # the dump is sequenced before the writer lock makes the store
    assert not (workspace / "store").exists()


# train and evaluate do not read the crash time
@pytest.mark.parametrize("kind", ["not-utf8", "no-header"])
@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_a_bad_pair_dump_is_a_data_error_naming_the_file(workspace, capsys, command, kind):
    corpus = workspace / "corpus"
    bad = corpus / "dumps" / "d000_0.dump"
    bad.write_bytes(BAD_DUMPS[kind])
    (workspace / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    params = "--params-out" if command == "train" else "--params"
    code, out, err = run(
        capsys, command, corpus / "pairs_train.tsv", *pipeline_args(workspace),
        params, workspace / "params.txt",
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: ")


def test_stopwords_skips_a_dump_that_is_not_utf8(workspace, capsys):
    dumps = workspace / "corpus" / "dumps"
    (dumps / "zz_bad.dump").write_bytes(b"[HEADER]\n\xff\n")
    code, out, err = run(capsys, "stopwords", dumps, "--out", workspace / "stop2.tsv", "--cutoff", "2")
    assert code == 0
    assert out.startswith("entries=")
    assert err.startswith(f"warning: skipping {dumps / 'zz_bad.dump'}: 'utf-8' codec can't decode")
    assert (workspace / "stop2.tsv").read_text() == (workspace / "stop.tsv").read_text()


def test_stopwords_skips_a_dump_whose_frame_index_is_too_long(workspace, capsys):
    dumps = workspace / "corpus" / "dumps"
    (dumps / "zz_huge.dump").write_bytes(BAD_DUMPS["huge-index"])
    code, out, err = run(
        capsys, "stopwords", dumps, "--out", workspace / "stop2.tsv", "--cutoff", "2"
    )
    assert code == 0
    assert out.startswith("entries=")
    assert err.startswith(f"warning: skipping {dumps / 'zz_huge.dump'}: Exceeds the limit")
    assert (workspace / "stop2.tsv").read_text() == (workspace / "stop.tsv").read_text()


def _replace_line(text: str, number: int, line: str) -> str:
    lines = text.splitlines()
    lines[number - 1] = line
    return "\n".join(lines) + "\n"


# (file, how to spoil the workspace's copy, the line named)
BAD_LINES = {
    "params-without-m": ("params", lambda _: "#version 1\nn=1.0 threshold=0.5\n", 2),
    "params-n-not-a-number": ("params", lambda _: "#version 1\nm=1.0 n=x threshold=0.5\n", 2),
    "params-threshold-out-of-range": ("params", lambda _: "#version 1\nm=1 n=1 threshold=2\n", 2),
    "stoplist-cutoff-not-a-number": ("stoplist", lambda t: _replace_line(t, 1, "#cutoff: x"), 1),
    "stoplist-score-not-a-number": ("stoplist", lambda t: _replace_line(t, 3, "rt::f\tnope"), 3),
    "pairs-with-two-fields": ("pairs", lambda t: _replace_line(t, 2, "d000_0\td000_1"), 2),
}


@pytest.mark.parametrize("case", sorted(BAD_LINES))
def test_a_bad_line_in_a_params_stoplist_or_pairs_file_names_it(workspace, capsys, case):
    kind, spoil, number = BAD_LINES[case]
    (workspace / "params.txt").write_text("#version 1\nm=1.0 n=1.0 threshold=0.5\n")
    files = {
        "params": workspace / "params.txt",
        "stoplist": workspace / "stop.tsv",
        "pairs": workspace / "corpus" / "pairs_test.tsv",
    }
    bad = workspace / f"bad-{kind}"
    bad.write_text(spoil(files[kind].read_text()))
    files[kind] = bad
    code, out, err = run(
        capsys, "evaluate", files["pairs"], *pipeline_args(workspace),
        "--stoplist", files["stoplist"], "--params", files["params"],
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}:{number}: ")
