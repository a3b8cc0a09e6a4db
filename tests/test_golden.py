"""Golden train/evaluate artifacts on a small non-saturating corpus.

The corpus uses the benchmark's hard settings (noise 0.8, four components
of six functions, two shared top components) at 60 groups, so the tuned
point is an interior one (m=0.2 n=1.8), not the first grid point. Any
change to scoring, AUC, the grid argmax or the threshold shows up as a
byte difference. ``componentmap.tsv`` is compared too: ``synth`` gives the
source files a seed-derived mtime, so the map's header stamp is fixed.

Regenerate the files (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from kdetector.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SYNTH = [
    "--groups", "60", "--per-group", "4", "--noise", "0.8", "--components", "4",
    "--functions-per-component", "6", "--top-pool", "2", "--seed", "1",
]
ARTIFACTS = ("componentmap.tsv", "grid.tsv", "params.txt", "train.stdout", "evaluate.stdout")


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    assert code == 0, argv
    return out.getvalue()


def regenerate(work: Path) -> dict[str, bytes]:
    """Run synth, mine, stopwords, train and evaluate; return the artifacts."""
    corpus = work / "corpus"
    _cli("synth", "--out", corpus, *SYNTH)
    _cli("mine", corpus / "src", "--out", work / "componentmap.tsv")
    _cli("stopwords", corpus / "dumps", "--out", work / "stopwords.tsv", "--cutoff", "2")
    pipeline = [
        "--dumps", corpus / "dumps", "--map", work / "componentmap.tsv",
        "--stoplist", work / "stopwords.tsv",
    ]
    (work / "train.stdout").write_text(_cli(
        "train", corpus / "pairs_train.tsv", *pipeline,
        "--params-out", work / "params.txt", "--grid-out", work / "grid.tsv",
    ))
    (work / "evaluate.stdout").write_text(_cli(
        "evaluate", corpus / "pairs_test.tsv", *pipeline, "--params", work / "params.txt",
    ))
    return {name: (work / name).read_bytes() for name in ARTIFACTS}


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory) -> dict[str, bytes]:
    return regenerate(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", ARTIFACTS)
def test_artifact_is_byte_identical(regenerated, name):
    assert regenerated[name] == (GOLDEN / name).read_bytes()


def test_tuned_point_is_interior():
    params = (GOLDEN / "params.txt").read_text()
    assert "m=0.0 n=0.0" not in params


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in regenerate(Path(tmp)).items():
            (GOLDEN / name).write_bytes(data)
