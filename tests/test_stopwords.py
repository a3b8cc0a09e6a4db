from __future__ import annotations

import random

import pytest

from kdetector.dump_parser import parse_dump
from kdetector.errors import EmptyCorpus
from kdetector.similarity import ModelParams
from kdetector.stopwords import (
    StopWordList,
    derive_stop_words,
    filter_stop_words,
    format_stop_words,
    parse_stop_words,
)
from kdetector.trainer import DUPLICATE, NON_DUPLICATE, LabeledPair, precision_curve

from conftest import make_component_map, make_dump_text


def corpus_from(stacks: dict[str, tuple[list[str], list[str]]]):
    """dump_id -> (backtrace names, exception names)."""
    return [
        parse_dump(make_dump_text(backtrace, exception=exception, dump_id=dump_id))
        for dump_id, (backtrace, exception) in stacks.items()
    ]


class TestDerive:
    def test_everywhere_in_backtrace_never_in_exception_scores_one(self):
        corpus = corpus_from(
            {
                "d1": (["rt::enter", "a::f"], ["a::f"]),
                "d2": (["rt::enter", "b::g"], ["b::g"]),
            }
        )
        stop_list = derive_stop_words(corpus)
        assert stop_list.entries[0] == ("rt::enter", 1.0)

    def test_exception_only_scores_zero(self):
        corpus = corpus_from({"d1": (["a::f"], ["x::only"])})
        scores = dict(derive_stop_words(corpus).entries)
        assert scores["x::only"] == 0.0

    def test_scaffolding_at_both_ends_tops_the_list(self):
        # frames 0 and 9 of every backtrace are scaffolding
        corpus = corpus_from(
            {
                f"d{i}": (
                    ["rt::enter"] + [f"g{i}::f{j}" for j in range(8)] + ["rt::main"],
                    [f"g{i}::f0"],
                )
                for i in range(4)
            }
        )
        stop_list = derive_stop_words(corpus)
        assert {name for name, _ in stop_list.entries[:2]} == {
            "rt::enter",
            "rt::main",
        }

    def test_empty_corpus_errors(self):
        with pytest.raises(EmptyCorpus):
            derive_stop_words([])

    def test_permutation_invariant(self):
        corpus = corpus_from(
            {
                "d1": (["rt::enter", "a::f"], ["a::f"]),
                "d2": (["rt::enter", "b::g"], []),
                "d3": (["b::g", "a::f"], ["b::g"]),
            }
        )
        shuffled = list(corpus)
        random.Random(3).shuffle(shuffled)
        assert derive_stop_words(corpus).entries == derive_stop_words(shuffled).entries


class TestFilter:
    def frames(self):
        corpus = corpus_from({"d1": (["f0", "f1", "f2"], [])})
        return corpus[0].backtrace_frames

    def test_cutoff_zero_is_identity(self):
        frames = self.frames()
        stop_list = StopWordList([("f0", 1.0), ("f1", 0.5)], cutoff_length=0)
        assert filter_stop_words(frames, stop_list) == frames

    def test_all_frames_removed(self):
        frames = self.frames()
        stop_list = StopWordList(
            [("f0", 1.0), ("f1", 0.9), ("f2", 0.8)], cutoff_length=3
        )
        assert filter_stop_words(frames, stop_list) == []

    def test_survivors_keep_order_and_indices(self):
        frames = self.frames()
        stop_list = StopWordList([("f1", 1.0)], cutoff_length=1)
        kept = filter_stop_words(frames, stop_list)
        assert [f.function_name for f in kept] == ["f0", "f2"]
        assert [f.index for f in kept] == [0, 2]

    def test_monotone_removal(self):
        frames = self.frames()
        entries = [("f1", 1.0), ("f0", 0.9), ("f2", 0.8)]
        survivors = [
            {f.function_name for f in filter_stop_words(frames, StopWordList(entries, L))}
            for L in range(4)
        ]
        for bigger, smaller in zip(survivors, survivors[1:]):
            assert smaller <= bigger


class TestPrecisionCurve:
    def build(self):
        cmap = make_component_map(
            {
                "rt::enter": "Runtime",
                "a::f1": "CompA",
                "a::f2": "CompA2",
                "b::g1": "CompB",
                "b::g2": "CompB2",
            }
        )
        stacks = {
            "a1": ["rt::enter", "a::f1", "a::f2"],
            "a2": ["rt::enter", "a::f1", "a::f2"],
            "b1": ["rt::enter", "b::g1", "b::g2"],
            "b2": ["rt::enter", "b::g1", "b::g2"],
        }
        corpus = corpus_from({d: (names, []) for d, names in stacks.items()})
        frames = {dump.dump_id: dump.backtrace_frames for dump in corpus}
        pairs = [
            LabeledPair("a1", "a2", DUPLICATE),
            LabeledPair("b1", "b2", DUPLICATE),
            LabeledPair("a1", "b1", NON_DUPLICATE),
            LabeledPair("a2", "b2", NON_DUPLICATE),
        ]
        stop_list = derive_stop_words(corpus)
        return pairs, frames, cmap, stop_list

    def test_shared_scaffold_hurts_until_filtered(self):
        pairs, frames, cmap, stop_list = self.build()
        params = ModelParams(1.0, 1.0, 0.5)
        assert stop_list.entries[0][0] == "rt::enter"
        curve = precision_curve(pairs, frames, cmap, stop_list, params, lengths=[0, 1])
        # direct evaluation: the shared scaffold frame pushes every pair over
        # the threshold at L=0 (2 TP, 2 FP); filtering it leaves only the
        # true duplicates predicted
        assert curve[0] == (0, 0.5)
        assert curve[1] == (1, 1.0)
        assert curve[1][1] >= curve[0][1]

    def test_length_zero_equals_unfiltered(self):
        pairs, frames, cmap, stop_list = self.build()
        params = ModelParams(1.0, 1.0, 0.5)
        unfiltered = StopWordList(stop_list.entries, 0)
        baseline = precision_curve(pairs, frames, cmap, unfiltered, params, lengths=[0])
        curve = precision_curve(pairs, frames, cmap, stop_list, params, lengths=[0])
        assert curve == baseline


def test_file_round_trip():
    stop_list = StopWordList([("rt::enter", 1.0), ("a::f", 0.25)], cutoff_length=1)
    text = format_stop_words(stop_list)
    assert text.splitlines()[0] == "#cutoff: 1"
    loaded = parse_stop_words(text)
    assert loaded.cutoff_length == 1
    assert loaded.entries == [("rt::enter", 1.0), ("a::f", 0.25)]
