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

The alignment (:func:`lcs_match`) fills one table of packed
``(length, cost)`` values and walks it once. The value does not depend on
which sequence comes first; only a tie between skipping either
sequence's element does, and the pair's orientation decides it.
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

    One table of packed ``(length, cost)`` values serves both argument
    orders, because that value is symmetric in the two sequences. What is
    not symmetric is the tie between skipping ``a[i]`` and skipping
    ``b[j]`` when both keep the best value: the walk skips the element of
    the sequence whose ``occurrences`` tuple is smaller, so ``(a, b)`` and
    ``(b, a)`` give the same pairs and scoring is symmetric.
    """
    names_a, names_b = seq_a.names, seq_b.names
    la, lb = len(names_a), len(names_b)
    # suffix DP over length * span - cost: maximize length, then minimize
    # cost, the sum of pos_a + pos_b over matched pairs. At most min(la, lb)
    # pairs cost at most la + lb - 2 each, so every cost is below span and
    # the packing is exact at any length.
    #
    # When names_a[i] == names_b[j], matching (i, j) always wins. Take any
    # alignment of the suffixes that skips a[i] or b[j]. With no match it
    # is shorter than the match move. Otherwise its first match (i', j')
    # has i' >= i, j' >= j and i' + j' > i + j; replacing that match by
    # (i, j) keeps the alignment valid and its length, and lowers its cost
    # strictly. So no skip move is as long and as cheap as the match.
    span = (la + lb) * min(la, lb) + 1
    rows = [[0] * (lb + 1) for _ in range(la + 1)]
    for i in range(la - 1, -1, -1):
        row, down, name = rows[i], rows[i + 1], names_a[i]
        best = 0  # row[j + 1], the value of skipping b[j]
        for j in range(lb - 1, -1, -1):
            if name == names_b[j]:
                best = down[j + 1] + span - i - j
            elif down[j] > best:
                best = down[j]
            row[j] = best
    occ_a, occ_b = seq_a.occurrences, seq_b.occurrences
    mirrored = occ_b < occ_a
    matched: list[MatchedPair] = []
    i = j = 0
    while i < la and j < lb:
        if names_a[i] == names_b[j]:
            matched.append(MatchedPair(names_a[i], i, j, component_distance(occ_a[i], occ_b[j])))
            i += 1
            j += 1
        elif mirrored:  # a tie of skips goes to b[j]
            if rows[i][j] == rows[i][j + 1]:
                j += 1
            else:
                i += 1
        elif rows[i][j] == rows[i + 1][j]:  # a tie of skips goes to a[i]
            i += 1
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
    # a shared prefix and suffix need no edits, so only the middles go
    # through levenshtein; the distance is the same
    prefix = 0
    for char_a, char_b in zip(stack_a, stack_b):
        if char_a != char_b:
            break
        prefix += 1
    end_a, end_b = len(stack_a), len(stack_b)
    while end_a > prefix and end_b > prefix and stack_a[end_a - 1] == stack_b[end_b - 1]:
        end_a -= 1
        end_b -= 1
    distance = levenshtein(stack_a[prefix:end_a], stack_b[prefix:end_b])
    return 1.0 - distance / longest


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
