"""The live alignment, scoring, tuning and edit-distance code against
frozen scalar copies (``oracles.py``), compared with ``==``: every
alignment and float must match to the last bit, every tuned point and
threshold exactly."""

from __future__ import annotations

import datetime
import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from kdetector.detector import FailureRecord
from kdetector.errors import DegenerateSet
from kdetector.sequencer import levenshtein
from kdetector.similarity import (
    MatchedPair,
    ModelParams,
    PairFeatures,
    baseline_edit_distance,
    lcs_match,
    match_features,
    score_features,
)
from kdetector.trainer import (
    DUPLICATE,
    GRID_STEPS,
    NON_DUPLICATE,
    LabeledPair,
    _grid_scores,
    best_f1_threshold,
    compute_auc,
    format_grid_report,
    sample_pairs,
    tune_parameters,
)

from conftest import make_sequence

LABELS = st.sampled_from([DUPLICATE, NON_DUPLICATE])
# few distinct values, two of them one ulp apart, so most draws hold ties
TIE_HEAVY = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5000000000000001, 0.75, 1.0])
SCORES = st.one_of(TIE_HEAVY, st.floats(0, 1, allow_nan=False))
GRID = [(mi / 10, ni / 10) for mi in range(GRID_STEPS) for ni in range(GRID_STEPS)]


@st.composite
def pair_features(draw) -> PairFeatures:
    """Matched pairs at ascending positions, possibly none at all, and
    sometimes more than numpy's 8-way unrolled summation would regroup."""
    max_position = draw(st.integers(0, 20))
    positions = sorted(draw(st.sets(st.integers(0, max_position), max_size=14)))
    matched = []
    for pos in positions:
        denominator = draw(st.integers(1, 4))
        dist = draw(st.integers(0, denominator)) / denominator
        other = draw(st.integers(0, pos))
        pos_a, pos_b = draw(st.sampled_from([(pos, other), (other, pos)]))
        matched.append(MatchedPair("C", pos_a, pos_b, dist))
    return PairFeatures(tuple(matched), max_position)


@st.composite
def tuning_sets(draw):
    """A few small sequences and labelled pairs over them; disjoint
    alphabets make unmatched pairs, which score 0, common."""
    runs = st.tuples(
        st.sampled_from("ABCDE"), st.lists(st.sampled_from("fgh"), min_size=1, max_size=3)
    )
    sequences = {
        f"d{k}": make_sequence(draw(st.lists(runs, min_size=1, max_size=5)), dump_id=f"d{k}")
        for k in range(draw(st.integers(2, 6)))
    }
    chosen = draw(
        st.lists(st.sampled_from(list(combinations(sorted(sequences), 2))), min_size=1,
                 max_size=12, unique=True)
    )
    pairs = [LabeledPair(a, b, draw(LABELS)) for a, b in chosen]
    return pairs, sequences


def same_outcome(live, oracle, *args):
    """Both return equal values, or both raise DegenerateSet."""
    try:
        expected = oracle(*args)
    except DegenerateSet:
        with pytest.raises(DegenerateSet):
            live(*args)
        return
    assert live(*args) == expected


@given(st.lists(st.tuples(SCORES, LABELS), max_size=40))
def test_compute_auc_equals_oracle(scored):
    same_outcome(compute_auc, oracles.compute_auc, scored)


@given(st.lists(st.tuples(SCORES, LABELS), max_size=40))
def test_best_f1_threshold_equals_oracle(scored):
    same_outcome(best_f1_threshold, oracles.best_f1_threshold, scored)


@given(pair_features(), st.sampled_from(GRID))
def test_score_features_equals_oracle(features, point):
    params = ModelParams(*point)
    assert score_features(features, params) == oracles.score_features(features, params)


@settings(max_examples=40, deadline=None)
@given(st.lists(pair_features(), max_size=8))
def test_grid_scores_equal_oracle_at_every_point(features):
    rows = _grid_scores(features)
    for k, (m, n) in enumerate(GRID):
        expected = [oracles.score_features(f, ModelParams(m, n)) for f in features]
        assert rows[k].tolist() == expected


def test_grid_scores_identical_stack_is_exactly_one():
    seq = make_sequence([("A", ["f", "g"]), ("B", ["h"]), ("A", ["f"]), ("C", ["k"])])
    assert (_grid_scores([match_features(seq, seq)]) == 1.0).all()


@settings(max_examples=40, deadline=None)
@given(tuning_sets())
def test_tune_parameters_equals_oracle(data):
    pairs, sequences = data
    same_outcome(tune_parameters, oracles.tune_parameters, pairs, sequences)


def test_tune_parameters_report_equals_oracle_on_tie_heavy_set():
    # every pair matches its top component only: the AUC surface is flat
    sequences = {
        f"d{k}": make_sequence([("A", ["f"]), (f"X{k}", ["g"])], dump_id=f"d{k}")
        for k in range(6)
    }
    pairs = [
        LabeledPair(a, b, DUPLICATE if k % 2 else NON_DUPLICATE)
        for k, (a, b) in enumerate(combinations(sorted(sequences), 2))
    ]
    live, frozen = tune_parameters(pairs, sequences), oracles.tune_parameters(pairs, sequences)
    assert live == frozen
    assert format_grid_report(live) == format_grid_report(frozen)


TEXT = st.text(max_size=80)  # any code point, so non-ASCII too
LONG_TEXT = st.text(alphabet="abé\n:", min_size=65, max_size=200)


@given(st.one_of(TEXT, LONG_TEXT), st.one_of(TEXT, LONG_TEXT))
def test_char_levenshtein_equals_oracle(a, b):
    assert levenshtein(a, b) == oracles.levenshtein(a, b)


@given(st.one_of(TEXT, LONG_TEXT))
def test_char_levenshtein_empty_and_equal(a):
    assert levenshtein(a, "") == oracles.levenshtein(a, "") == len(a)
    assert levenshtein("", a) == oracles.levenshtein("", a) == len(a)
    assert levenshtein(a, a) == oracles.levenshtein(a, a) == 0


TOKENS = st.lists(st.sampled_from(["f", "g", "ns::h", "über::k"]), max_size=70).map(tuple)


@given(TOKENS, TOKENS)
def test_token_levenshtein_equals_oracle(a, b):
    assert levenshtein(a, b) == oracles.token_levenshtein(a, b)


# a small alphabet makes the middles overlap the shared ends, so a strip
# that ran past the shorter string, or counted one character twice, shows
ENDS = st.one_of(TEXT, st.text(alphabet="ab\n", max_size=12))


@given(ENDS, ENDS, ENDS, ENDS)
def test_baseline_edit_distance_equals_oracle_on_shared_ends(prefix, mid_a, mid_b, suffix):
    a, b = prefix + mid_a + suffix, prefix + mid_b + suffix
    longest = max(len(a), len(b))
    expected = 1.0 - oracles.levenshtein(a, b) / longest if longest else 1.0
    assert baseline_edit_distance(a, b) == expected
    assert baseline_edit_distance(b, a) == expected


def test_grid_scores_keep_matched_order_on_long_alignments():
    # sixteen or more terms: a blocked or pairwise reduction would regroup them
    features = [
        PairFeatures(
            tuple(MatchedPair("C", i, i, (i * k % 5) / 4) for i in range(size)), size + k
        )
        for k in range(1, 6)
        for size in (9, 16, 23)
    ]
    rows = _grid_scores(features)
    for k, (m, n) in enumerate(GRID):
        assert rows[k].tolist() == [oracles.score_features(f, ModelParams(m, n)) for f in features]


# few component names and function runs, so alignments tie in length and
# cost and the canonical orientation (``key_b < key_a``) decides the mirror
OCCURRENCES = st.lists(
    st.tuples(st.sampled_from("ABC"), st.lists(st.sampled_from("fg"), min_size=1, max_size=2)),
    max_size=9,
)


@settings(max_examples=400)
@given(OCCURRENCES, OCCURRENCES)
def test_lcs_match_equals_oracle(a, b):
    seq_a, seq_b = make_sequence(a), make_sequence(b)
    assert lcs_match(seq_a, seq_b) == oracles.lcs_match(seq_a, seq_b)
    assert lcs_match(seq_b, seq_a) == oracles.lcs_match(seq_b, seq_a)


def test_lcs_match_equals_oracle_on_every_short_two_letter_pair():
    words = [w for size in range(1, 6) for w in product("AB", repeat=size)]
    sequences = [make_sequence([(name, ["f"]) for name in word]) for word in words]
    for seq_a, seq_b in product(sequences, repeat=2):
        assert lcs_match(seq_a, seq_b) == oracles.lcs_match(seq_a, seq_b)


# 20-40 occurrences a side over the same few names: long alignments full
# of ties, where a packed (length, cost) value needs its full span
LONG_OCCURRENCES = st.lists(
    st.tuples(st.sampled_from("ABC"), st.lists(st.sampled_from("fg"), min_size=1, max_size=2)),
    min_size=20,
    max_size=40,
)


@settings(max_examples=100, deadline=None)
@given(LONG_OCCURRENCES, LONG_OCCURRENCES)
def test_lcs_match_equals_oracle_on_long_sequences(a, b):
    seq_a, seq_b = make_sequence(a), make_sequence(b)
    assert lcs_match(seq_a, seq_b) == oracles.lcs_match(seq_a, seq_b)
    assert lcs_match(seq_b, seq_a) == oracles.lcs_match(seq_b, seq_a)


EPOCH = datetime.datetime(2026, 1, 1, tzinfo=datetime.timezone.utc)


@st.composite
def grouped_records(draw):
    """Records with distinct bug ids in any order, and a partition of them
    into groups; top components are drawn apart from the groups, so a group
    often spans several."""
    bug_ids = draw(st.lists(st.integers(1, 60), min_size=1, max_size=14, unique=True))
    records = [
        FailureRecord(bug, f"dump-{bug}", "", EPOCH, None, draw(st.sampled_from("XYZ")))
        for bug in bug_ids
    ]
    groups: dict[int, set[int]] = {}
    for bug in bug_ids:
        groups.setdefault(draw(st.integers(0, 4)), set()).add(bug)
    return draw(st.permutations(list(groups.values()))), records


def _grouped(tops_by_group: list[list[str]]):
    records, groups, bug = [], [], 1
    for tops in tops_by_group:
        groups.append(set(range(bug, bug + len(tops))))
        for top in tops:
            records.append(FailureRecord(bug, f"dump-{bug}", "", EPOCH, None, top))
            bug += 1
    return groups, records


@settings(max_examples=300)
@given(grouped_records(), st.booleans(), st.integers(0, 2**32 - 1))
@example(_grouped([["X", "X", "X", "X"], ["X"]]), True, 0)  # fewer candidates than positives
@example(_grouped([["X", "X", "X"], ["X"]]), True, 0)  # as many candidates as positives
@example(_grouped([["X", "Y"], ["Y", "X"], ["X", "Y"]]), True, 3)  # groups span two tops
@example(_grouped([["X", "X"], ["Y"], ["Z"]]), False, 5)
def test_sample_pairs_equals_oracle(data, require_same_top, seed):
    groups, records = data
    live_rng, frozen_rng = random.Random(seed), random.Random(seed)
    live = sample_pairs(groups, records, live_rng, require_same_top)
    assert live == oracles.sample_pairs(groups, records, frozen_rng, require_same_top)
    assert live_rng.getstate() == frozen_rng.getstate()
