"""Similarity scoring over component-sequence pairs.

Two sequences are aligned by the longest common subsequence of their
component names. Each matched pair contributes
``exp(-m * pos) * exp(-n * dist)`` where ``pos`` is the larger of its two
positions and ``dist`` the normalized edit distance of the matched runs'
function names; the sum is normalized by ``sum(exp(-m * i))`` over every
possible position ``i`` in ``0..max``, with ``max`` one less than the
longer sequence's length, so the score lives in [0, 1] and equals 1 for an
identical pair.

Matching is independent of ``(m, n)``, so callers that sweep coefficients
should compute :func:`match_features` once per pair and re-score with
:func:`score_features`; :func:`similarity` is the one-shot form. The two
baseline comparators used for benchmarking (character-level edit distance
and top-of-stack prefix match) live here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import EmptyStack
from .sequencer import ComponentSequence, component_distance, levenshtein


@dataclass(frozen=True)
class ModelParams:
    """Model coefficients and the duplicate-decision cutoff."""

    m: float
    n: float
    threshold: float = 0.5

    def __post_init__(self) -> None:
        if self.m < 0 or self.n < 0:
            raise ValueError("coefficients m and n must be >= 0")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be within [0, 1]")


@dataclass(frozen=True)
class MatchedPair:
    """One aligned component occurrence across the two sequences."""

    component: str
    pos_a: int
    pos_b: int
    dist: float

    @property
    def pos(self) -> int:
        return max(self.pos_a, self.pos_b)


@dataclass(frozen=True)
class PairFeatures:
    """Everything scoring needs that does not depend on (m, n)."""

    matched: tuple[MatchedPair, ...]
    max_position: int


@dataclass(frozen=True)
class SimilarityScore:
    value: float
    matched: tuple[MatchedPair, ...]
    max_position: int


def lcs_match(seq_a: ComponentSequence, seq_b: ComponentSequence) -> list[MatchedPair]:
    """Align the two sequences on a longest common component subsequence.

    Among maximum-length alignments the one minimizing the summed position
    pairs is chosen, breaking remaining ties toward matching earlier, so
    the alignment leans toward the top of the stack and is deterministic.
    Disjoint sequences yield an empty list.

    The pair is matched in a canonical orientation and mirrored back:
    residual ties after the cost rule would otherwise resolve differently
    for (a, b) and (b, a), and scoring must be symmetric.
    """
    key_a = tuple((occ.component, occ.functions) for occ in seq_a.occurrences)
    key_b = tuple((occ.component, occ.functions) for occ in seq_b.occurrences)
    if key_b < key_a:
        return [
            MatchedPair(pair.component, pair.pos_b, pair.pos_a, pair.dist)
            for pair in lcs_match(seq_b, seq_a)
        ]
    names_a = [occ.component for occ in seq_a.occurrences]
    names_b = [occ.component for occ in seq_b.occurrences]
    la, lb = len(names_a), len(names_b)
    # suffix DP over (length, cost): maximize length, then minimize cost,
    # cost being the sum of pos_a + pos_b over matched pairs.
    #
    # When names_a[i] == names_b[j], matching (i, j) always wins. Take any
    # alignment of the suffixes that skips a[i] or b[j]. With no match it
    # is shorter than the match move. Otherwise its first match (i', j')
    # has i' >= i, j' >= j and i' + j' > i + j; replacing that match by
    # (i, j) keeps the alignment valid and its length, and lowers its cost
    # strictly. So no skip move is as long and as cheap as the match.
    length = [[0] * (lb + 1) for _ in range(la + 1)]
    cost = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la - 1, -1, -1):
        len_i, len_down = length[i], length[i + 1]
        cost_i, cost_down = cost[i], cost[i + 1]
        for j in range(lb - 1, -1, -1):
            if names_a[i] == names_b[j]:
                len_i[j] = len_down[j + 1] + 1
                cost_i[j] = cost_down[j + 1] + i + j
            elif len_i[j + 1] > len_down[j] or (
                len_i[j + 1] == len_down[j] and cost_i[j + 1] < cost_down[j]
            ):  # skipping b[j] is longer or cheaper than skipping a[i]
                len_i[j], cost_i[j] = len_i[j + 1], cost_i[j + 1]
            else:
                len_i[j], cost_i[j] = len_down[j], cost_down[j]
    matched: list[MatchedPair] = []
    i = j = 0
    while i < la and j < lb:
        if names_a[i] == names_b[j]:
            dist = component_distance(seq_a.occurrences[i], seq_b.occurrences[j])
            matched.append(MatchedPair(names_a[i], i, j, dist))
            i += 1
            j += 1
        elif length[i][j] == length[i + 1][j] and cost[i][j] == cost[i + 1][j]:
            i += 1  # skipping a[i] keeps the best value; it wins a tie of skips
        else:
            j += 1
    return matched


def match_features(seq_a: ComponentSequence, seq_b: ComponentSequence) -> PairFeatures:
    """Matched pairs plus the normalization bound for one sequence pair."""
    if not seq_a.occurrences or not seq_b.occurrences:
        raise EmptyStack("similarity needs two non-empty sequences")
    matched = tuple(lcs_match(seq_a, seq_b))
    return PairFeatures(matched, max(len(seq_a), len(seq_b)) - 1)


@lru_cache(maxsize=65536)
def position_weight_total(m: float, max_position: int) -> float:
    """The score's normalizer: ``exp(-m * i)`` summed over ``i`` in
    ``0..max_position``, in ascending order."""
    total = 0.0
    for i in range(max_position + 1):
        total += math.exp(-m * i)
    return total


def score_features(features: PairFeatures, params: ModelParams) -> float:
    """Evaluate the weighted-match score for precomputed features.

    The numerator accumulates matched pairs in the same ascending-position
    order the denominator uses, so an identical pair scores exactly 1.0.
    """
    numerator = 0.0
    for pair in features.matched:
        numerator += math.exp(-(params.m * pair.pos + params.n * pair.dist))
    return numerator / position_weight_total(params.m, features.max_position)


def similarity(
    seq_a: ComponentSequence, seq_b: ComponentSequence, params: ModelParams
) -> SimilarityScore:
    """Score one sequence pair; see the module docstring for the model."""
    features = match_features(seq_a, seq_b)
    value = score_features(features, params)
    return SimilarityScore(value, features.matched, features.max_position)


def baseline_edit_distance(stack_a: str, stack_b: str) -> float:
    """Character-level edit similarity of two newline-joined name stacks."""
    longest = max(len(stack_a), len(stack_b))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(stack_a, stack_b) / longest


def baseline_prefix_match(names_a: list[str], names_b: list[str]) -> float:
    """Shared top-of-stack run length over the longer stack's length."""
    longest = max(len(names_a), len(names_b))
    if longest == 0:
        return 1.0
    shared = 0
    for fa, fb in zip(names_a, names_b):
        if fa != fb:
            break
        shared += 1
    return shared / longest
