from __future__ import annotations

import pytest

from kdetector.dump_parser import parse_dump
from kdetector.knowledge_miner import mine_tree
from kdetector.sequencer import to_component_sequence
from kdetector.stopwords import derive_stop_words, filter_stop_words
from kdetector.synth import CorpusSpec, generate_corpus, write_corpus
from kdetector.trainer import DUPLICATE, NON_DUPLICATE

SPEC = CorpusSpec(groups=6, per_group=3, noise=0.2, seed=13)


def test_same_seed_is_identical():
    first = generate_corpus(SPEC)
    second = generate_corpus(SPEC)
    assert first.src_files == second.src_files
    assert first.dump_texts == second.dump_texts
    assert first.records == second.records
    assert first.pairs == second.pairs
    assert first.pairs_train == second.pairs_train


def test_different_seed_differs():
    other = CorpusSpec(groups=6, per_group=3, noise=0.2, seed=14)
    assert generate_corpus(SPEC).dump_texts != generate_corpus(other).dump_texts


def test_group_topology():
    corpus = generate_corpus(SPEC)
    assert len(corpus.records) == 18
    by_group = {}
    for rec in corpus.records:
        by_group.setdefault(corpus.truth[rec.dump_id], []).append(rec)
    for members in by_group.values():
        assert members[0].dupe_of is None
        for later in members[1:]:
            assert later.dupe_of == members[0].bug_id
            assert later.resolution == "DUPLICATE"


def test_every_dump_parses_and_matches_its_record():
    corpus = generate_corpus(SPEC)
    for rec in corpus.records:
        dump = parse_dump(corpus.dump_texts[rec.dump_id])
        assert dump.dump_id == rec.dump_id
        assert dump.backtrace_frames
        assert dump.header["time"] == rec.creation_time.isoformat()


def test_scaffold_tops_backtraces_and_avoids_exceptions():
    corpus = generate_corpus(SPEC)
    for text in corpus.dump_texts.values():
        dump = parse_dump(text)
        names = [f.function_name for f in dump.backtrace_frames]
        assert names[0] == "rt::Frame::enter0"
        assert names[1] == "rt::Frame::enter1"
        exception_names = {f.function_name for f in dump.exception_frames}
        assert not any(n.startswith("rt::") for n in exception_names)


def test_top_component_matches_pipeline():
    corpus = generate_corpus(SPEC)
    import pathlib
    import tempfile

    root = pathlib.Path(tempfile.mkdtemp())
    write_corpus(corpus, root)
    cmap, _ = mine_tree(root / "src")
    dumps = [parse_dump(t) for t in corpus.dump_texts.values()]
    stop_list = derive_stop_words(dumps, cutoff=2)
    for rec in corpus.records:
        dump = parse_dump(corpus.dump_texts[rec.dump_id])
        frames = filter_stop_words(dump.backtrace_frames, stop_list)
        seq = to_component_sequence(frames, cmap, dump_id=rec.dump_id)
        assert seq.occurrences[0].component == rec.top_component


def test_pairs_are_balanced_and_split_is_disjoint():
    corpus = generate_corpus(SPEC)
    positives = [p for p in corpus.pairs if p.label == DUPLICATE]
    negatives = [p for p in corpus.pairs if p.label == NON_DUPLICATE]
    assert len(positives) == 6 * 3  # C(3,2) per group
    assert len(negatives) == len(positives)
    split = set()
    for pair in corpus.pairs_train + corpus.pairs_test:
        split.add((pair.dump_id_a, pair.dump_id_b, pair.label))
    assert len(split) == len(corpus.pairs_train) + len(corpus.pairs_test)


def test_write_corpus_layout(tmp_path):
    corpus = generate_corpus(SPEC)
    write_corpus(corpus, tmp_path)
    assert (tmp_path / "src" / "CMakeLists.txt").is_file()
    assert (tmp_path / "dumps" / "d000_0.dump").is_file()
    assert (tmp_path / "bugs.ndjson").is_file()
    assert len(list((tmp_path / "dumps").glob("*.dump"))) == 18
    assert (tmp_path / "pairs_train.tsv").read_text().strip()


@pytest.mark.parametrize(
    "field", ["groups", "per_group", "components", "functions_per_component", "top_pool"]
)
def test_spec_with_an_empty_count_is_rejected(field):
    # generate_corpus used to loop forever on functions_per_component=0
    with pytest.raises(ValueError, match=field):
        CorpusSpec(**{field: 0})
