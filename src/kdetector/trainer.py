"""Training data construction and coefficient tuning.

Historical failure records are grouped by following their ``dupe_of``
links with a union-find pass; within-group dump pairs become positive
samples and cross-group pairs that share a top-of-stack component are
sampled (without replacement, up to the positive count) as hard negatives.
Coefficients are tuned by exhaustive AUC grid search over
``m, n in {0.0, 0.1, ..., 2.0}``, keeping the first grid point that
attains the maximum, and the decision threshold is the smallest value
maximizing F1 on the training scores. The evaluation measures live here
too: ROC AUC, the F1 threshold and the stop-list precision curve.

Exactness contract: the grid is scored as arrays (numpy is imported there
and in the AUC code only), yet every score equals the scalar
:func:`~kdetector.similarity.score_features` bit for bit and every AUC
equals a scalar tie-group scan. A tuning run therefore gives the same grid
report, the same argmax (first maximum, row-major with ``m`` outer) and
the same threshold as scoring the 441 points one at a time; the frozen
copies in ``tests/oracles.py`` hold the live code to that.
"""

from __future__ import annotations

import itertools
import logging
import math
import random
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .detector import FailureRecord
from .dump_parser import StackFrame
from .errors import DegenerateSet, MalformedFile, parse_lines
from .knowledge_miner import ComponentMap
from .sequencer import ComponentSequence, to_component_sequence
from .similarity import (
    ModelParams,
    PairFeatures,
    match_features,
    position_weight_total,
    score_features,
)
from .stopwords import StopWordList, filter_stop_words

logger = logging.getLogger(__name__)

DUPLICATE = "duplicate"
NON_DUPLICATE = "non-duplicate"

GRID_STEPS = 21  # 0.0 .. 2.0 in exact tenths


@dataclass(frozen=True)
class LabeledPair:
    """An unordered dump pair with a duplicate / non-duplicate label."""

    dump_id_a: str
    dump_id_b: str
    label: str

    def __post_init__(self) -> None:
        if self.dump_id_a == self.dump_id_b:
            raise ValueError("a pair needs two distinct dumps")
        if self.label not in (DUPLICATE, NON_DUPLICATE):
            raise ValueError(f"unknown label {self.label!r}")
        if self.dump_id_b < self.dump_id_a:
            a, b = self.dump_id_b, self.dump_id_a
            object.__setattr__(self, "dump_id_a", a)
            object.__setattr__(self, "dump_id_b", b)


class UnionFind:
    """Disjoint sets over orderable items, with path compression.

    ``link`` adds an item and joins it to a target; an edge whose target has
    not been linked yet waits in ``waiting`` until it is. The smaller root
    wins each union, so ``find`` returns the smallest item of the item's set.
    """

    def __init__(self) -> None:
        self.parent: dict = {}
        self.waiting: dict = {}  # target not linked yet -> items joined to it

    def link(self, item, target=None) -> None:
        """Add ``item``, join the items waiting for it, then join it to
        ``target`` now or, if ``target`` is not linked yet, once it is."""
        self.parent.setdefault(item, item)
        for child in self.waiting.pop(item, ()):
            self._union(child, item)
        if target in self.parent:
            self._union(item, target)
        elif target is not None:
            self.waiting.setdefault(target, []).append(item)

    def find(self, item):
        """Smallest item of ``item``'s set; ``KeyError`` if it was never linked."""
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def _union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def groups(self) -> list[set]:
        by_root: dict = {}
        for item in self.parent:
            by_root.setdefault(self.find(item), set()).add(item)
        return sorted(by_root.values(), key=lambda g: min(g))


def build_groups(
    records: Sequence[FailureRecord],
) -> tuple[list[set[int]], list[tuple[int, int]]]:
    """Union-find partition of bug ids along dupe_of edges.

    Returns the groups (sorted by their smallest bug id) and, in record
    order, the dangling edges whose dupe_of names a bug that is not in the
    record set; those edges are skipped, not fatal. Unlike the store, it
    takes any records: an edge may name a later or larger bug id.
    """
    uf = UnionFind()
    for record in records:
        uf.link(record.bug_id, record.dupe_of)
    dangling = [(r.bug_id, r.dupe_of) for r in records if r.dupe_of in uf.waiting]
    return uf.groups(), dangling


def sample_pairs(
    groups: list[set[int]],
    records: Sequence[FailureRecord],
    rng: random.Random | None = None,
    require_same_top: bool = True,
) -> list[LabeledPair]:
    """Positive pairs from within groups, hard negatives from across them.

    Negatives are drawn uniformly without replacement from cross-group
    pairs whose records share a top component (any cross-group pair with
    ``require_same_top=False``), until they balance the positives; when
    fewer candidates exist, all of them are returned and a warning is
    logged.
    """
    rng = rng or random.Random(0)
    by_bug = {record.bug_id: record for record in records}
    positives: list[LabeledPair] = []
    group_of: dict[int, int] = {}
    for idx, group in enumerate(groups):
        members = sorted(group)
        for bug in members:
            group_of[bug] = idx
        for a, b in itertools.combinations(members, 2):
            positives.append(
                LabeledPair(by_bug[a].dump_id, by_bug[b].dump_id, DUPLICATE)
            )
    ordered = sorted(records, key=lambda r: r.bug_id)
    candidates: list[LabeledPair] = []
    for a, b in itertools.combinations(ordered, 2):
        if group_of[a.bug_id] == group_of[b.bug_id]:
            continue
        if not require_same_top or a.top_component == b.top_component:
            candidates.append(LabeledPair(a.dump_id, b.dump_id, NON_DUPLICATE))
    if len(candidates) < len(positives):
        logger.warning(
            "insufficient negatives: %d candidates for %d positives",
            len(candidates),
            len(positives),
        )
        negatives = candidates
    else:
        negatives = rng.sample(candidates, len(positives))
    return positives + negatives


def split_pairs_by_group(
    pairs: Sequence[LabeledPair],
    records: Sequence[FailureRecord],
    groups: list[set[int]],
    ratio: float = 0.5,
    rng: random.Random | None = None,
) -> tuple[list[LabeledPair], list[LabeledPair]]:
    """Group-stratified train/test split; a group never spans both sides.

    Groups are dealt randomly to the training side until it holds roughly
    ``ratio`` of the within-group pair mass. Pairs whose two endpoints fall
    on different sides are dropped to prevent leakage.
    """
    rng = rng or random.Random(0)
    group_by_dump: dict[str, int] = {}
    by_bug = {record.bug_id: record for record in records}
    weights: list[int] = []
    for idx, group in enumerate(groups):
        for bug in group:
            group_by_dump[by_bug[bug].dump_id] = idx
        k = len(group)
        weights.append(k * (k - 1) // 2)
    order = list(range(len(groups)))
    rng.shuffle(order)
    total = sum(weights) or 1
    train_groups: set[int] = set()
    assigned = 0
    for idx in order:
        if assigned / total < ratio:
            train_groups.add(idx)
            assigned += weights[idx]
    train: list[LabeledPair] = []
    test: list[LabeledPair] = []
    for pair in pairs:
        ga = group_by_dump[pair.dump_id_a]
        gb = group_by_dump[pair.dump_id_b]
        if ga in train_groups and gb in train_groups:
            train.append(pair)
        elif ga not in train_groups and gb not in train_groups:
            test.append(pair)
    return train, test


def compute_auc(scored: Iterable[tuple[float, str]]) -> float:
    """ROC AUC by the rank statistic; tied scores contribute one half."""
    items = list(scored)
    return _rank_auc([[score for score, _ in items]], [label for _, label in items])[0]


def _rank_auc(score_rows, labels: Sequence[str]) -> list[float]:
    """AUC of each row of scores against one label list.

    Each row is sorted once; every member of a run of tied scores gets the
    run's average rank ``(start + 1 + end) / 2``. Twice the positives' rank
    sum is an integer, so the rank sum is exact in any summation order and
    the result equals a scalar tie-group scan bit for bit.
    """
    positives = sum(1 for label in labels if label == DUPLICATE)
    negatives = len(labels) - positives
    if positives == 0 or negatives == 0:
        raise DegenerateSet("AUC needs at least one positive and one negative")
    import numpy as np

    scores = np.asarray(score_rows, dtype=np.float64)
    order = np.argsort(scores, axis=1)
    ranked = np.take_along_axis(scores, order, axis=1)
    size = ranked.shape[1]
    index = np.arange(size)
    opens = np.ones(ranked.shape, dtype=bool)  # first member of a tie run
    opens[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    closes = np.ones(ranked.shape, dtype=bool)  # last member of a tie run
    closes[:, :-1] = opens[:, 1:]
    start = np.maximum.accumulate(np.where(opens, index, 0), axis=1)
    end = np.minimum.accumulate(np.where(closes, index + 1, size)[:, ::-1], axis=1)[:, ::-1]
    is_dup = np.array([label == DUPLICATE for label in labels])
    twice_rank_sums = np.where(is_dup[order], start + 1 + end, 0).sum(axis=1)
    return [
        (int(twice) / 2 - positives * (positives + 1) / 2) / (positives * negatives)
        for twice in twice_rank_sums
    ]


def pair_features(
    pairs: Sequence[LabeledPair], sequences: Mapping[str, ComponentSequence]
) -> list[tuple[PairFeatures, str]]:
    """Precompute the (m, n)-independent match features for every pair."""
    out = []
    for pair in pairs:
        features = match_features(sequences[pair.dump_id_a], sequences[pair.dump_id_b])
        out.append((features, pair.label))
    return out


def score_pairs(
    pairs: Sequence[LabeledPair],
    sequences: Mapping[str, ComponentSequence],
    params: ModelParams,
) -> list[tuple[float, str]]:
    return [
        (score_features(features, params), label)
        for features, label in pair_features(pairs, sequences)
    ]


@dataclass
class TuningResult:
    params: ModelParams
    best_auc: float
    grid: list[tuple[float, float, float]] = field(repr=False)


def tune_parameters(
    pairs: Sequence[LabeledPair], sequences: Mapping[str, ComponentSequence]
) -> TuningResult:
    """Exhaustive AUC grid search over the 21x21 coefficient grid.

    Scans row-major with m outer; only a strictly better AUC displaces the
    incumbent, so the first grid point attaining the maximum wins. Grid
    values are built as i/10 to keep them exact. The returned params carry
    the F1-optimal threshold at the tuned coefficients.

    All 441 points are scored at once as arrays (:func:`_grid_scores`), but
    every score is bit-identical to :func:`score_features` at that point, so
    the grid report, the argmax and the threshold are exactly those of a
    point-by-point scan.
    """
    featured = pair_features(pairs, sequences)
    labels = [label for _, label in featured]
    scores = _grid_scores([features for features, _ in featured])
    grid: list[tuple[float, float, float]] = []
    best_auc = -1.0
    best = 0
    for k, auc in enumerate(_rank_auc(scores, labels)):
        grid.append((k // GRID_STEPS / 10, k % GRID_STEPS / 10, auc))
        if auc > best_auc:
            best_auc, best = auc, k
    best_m, best_n, _ = grid[best]
    threshold = best_f1_threshold(list(zip(scores[best].tolist(), labels)))
    return TuningResult(ModelParams(best_m, best_n, threshold), best_auc, grid)


def _grid_scores(features: Sequence[PairFeatures]):
    """Scores of every pair at every grid point, one row per point.

    Each distinct ``(pos, dist)`` key is interned to a column of a weight
    table filled with ``math.exp`` (numpy's vectorized exp may round
    differently), column 0 being ``+0.0`` padding. Numerators add the
    gathered weights one matched pair at a time, in matched order, exactly
    as :func:`score_features` does; padding leaves a sum unchanged. The
    denominators come from the same cached position-weight totals.
    """
    import numpy as np

    keys: dict[tuple[int, float], int] = {}
    width = max((len(f.matched) for f in features), default=0)
    columns = np.zeros((len(features), width), dtype=np.intp)
    for row, f in enumerate(features):
        columns[row, : len(f.matched)] = [
            keys.setdefault((pair.pos, pair.dist), len(keys) + 1) for pair in f.matched
        ]
    steps = [i / 10 for i in range(GRID_STEPS)]
    weights = np.zeros((GRID_STEPS * GRID_STEPS, len(keys) + 1))
    for (pos, dist), col in keys.items():
        weights[:, col] = [math.exp(-(m * pos + n * dist)) for m in steps for n in steps]
    numerators = np.zeros((GRID_STEPS * GRID_STEPS, len(features)))
    for col in range(width):
        numerators += weights[:, columns[:, col]]
    totals = np.array(
        [[position_weight_total(m, f.max_position) for f in features] for m in steps]
    ).reshape(GRID_STEPS, 1, len(features))
    return (numerators.reshape(GRID_STEPS, GRID_STEPS, -1) / totals).reshape(
        GRID_STEPS * GRID_STEPS, -1
    )


def best_f1_threshold(scored: Sequence[tuple[float, str]]) -> float:
    """Smallest threshold maximizing F1 for ``predict duplicate iff
    score >= threshold``; perfectly separated scores therefore yield the
    midpoint of the separating gap.

    Candidates are the distinct scores and the midpoints between neighbours.
    One sort, then one sweep that drops the pairs below each candidate in
    turn, gives every candidate's counts.
    """
    positives = sum(1 for _, label in scored if label == DUPLICATE)
    if positives == 0 or positives == len(scored):
        raise DegenerateSet("threshold selection needs both classes")
    distinct = sorted({score for score, _ in scored})
    candidates = sorted(
        set(distinct).union(
            (a + b) / 2 for a, b in zip(distinct, distinct[1:])
        )
    )
    ranked = sorted(scored, key=lambda it: it[0])
    tp = positives
    fp = sum(1 for _, label in scored if label == NON_DUPLICATE)
    below = 0  # ranked[:below] score under the current candidate
    best_t = candidates[0]
    best_f1 = -1.0
    for t in candidates:
        while below < len(ranked) and ranked[below][0] < t:
            label = ranked[below][1]
            tp -= label == DUPLICATE
            fp -= label == NON_DUPLICATE
            below += 1
        fn = positives - tp
        f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        if f1 > best_f1:
            best_f1 = f1
            best_t = t
    return best_t


def precision_curve(
    pairs: Sequence[LabeledPair],
    frames_by_dump: Mapping[str, Sequence[StackFrame]],
    cmap: ComponentMap,
    stop_list: StopWordList,
    params: ModelParams,
    lengths: Sequence[int] | None = None,
) -> list[tuple[int, float]]:
    """Precision of the duplicate verdict at each stop-list prefix length.

    For every cutoff L the referenced stacks are re-filtered, re-sequenced
    and re-scored; a pair counts as predicted duplicate when its score
    meets params.threshold. A stack that filters to nothing scores 0
    against everything. Precision with no positive predictions is 0.
    """
    if lengths is None:
        lengths = range(len(stop_list.entries) + 1)
    dump_ids = {p.dump_id_a for p in pairs} | {p.dump_id_b for p in pairs}
    curve: list[tuple[int, float]] = []
    for cutoff in lengths:
        trimmed = StopWordList(stop_list.entries, cutoff)
        sequences: dict[str, ComponentSequence | None] = {}
        for dump_id in dump_ids:
            kept = filter_stop_words(frames_by_dump[dump_id], trimmed)
            sequences[dump_id] = (
                to_component_sequence(kept, cmap, dump_id=dump_id) if kept else None
            )
        tp = fp = 0
        for pair in pairs:
            seq_a = sequences[pair.dump_id_a]
            seq_b = sequences[pair.dump_id_b]
            if seq_a is None or seq_b is None:
                score = 0.0
            else:
                score = score_features(match_features(seq_a, seq_b), params)
            if score >= params.threshold:
                if pair.label == DUPLICATE:
                    tp += 1
                else:
                    fp += 1
        precision = tp / (tp + fp) if tp + fp else 0.0
        curve.append((cutoff, precision))
    return curve


# --- file formats -----------------------------------------------------------

def format_pairs(pairs: Sequence[LabeledPair]) -> str:
    lines = [f"{p.dump_id_a}\t{p.dump_id_b}\t{p.label}" for p in pairs]
    return "\n".join(lines) + "\n"


def parse_pairs(text: str, path: str = "pairs") -> list[LabeledPair]:
    """Read a pairs file back; a bad line raises ``MalformedFile`` naming
    ``path`` and the line."""
    return [pair for _, pair in parse_lines(text, path, _pair)]


def _pair(line: str) -> LabeledPair | None:
    if not line.strip() or line.startswith("#"):
        return None
    fields = line.split("\t")
    if len(fields) != 3:
        raise ValueError(f"{line!r} is not dump_id_a<TAB>dump_id_b<TAB>label")
    return LabeledPair(*fields)


def format_params(params: ModelParams) -> str:
    return f"#version 1\nm={params.m!r} n={params.n!r} threshold={params.threshold!r}\n"


def parse_params(text: str, path: str = "params") -> ModelParams:
    """Read a params file back; a value that is not a number, out of range
    or missing raises ``MalformedFile`` naming ``path`` and the last line
    read that holds fields."""
    parsed = parse_lines(text, path, _param_fields)
    where = f"{path}:{parsed[-1][0]}" if parsed else path
    fields = {key: value for _, line_fields in parsed for key, value in line_fields.items()}
    try:
        return ModelParams(fields["m"], fields["n"], fields.get("threshold", 0.5))
    except KeyError as exc:
        raise MalformedFile(f"{where}: no {exc.args[0]}= value") from None
    except ValueError as exc:
        raise MalformedFile(f"{where}: {exc}") from None


def _param_fields(line: str) -> dict[str, float] | None:
    if not line.strip() or line.startswith("#"):
        return None
    return {key: float(value) for key, _, value in (token.partition("=") for token in line.split())}


def format_grid_report(result: TuningResult) -> str:
    lines = [f"{m:.1f}\t{n:.1f}\t{auc:.6f}" for m, n, auc in result.grid]
    lines.append(
        f"# best m={result.params.m:.1f} n={result.params.n:.1f} "
        f"auc={result.best_auc:.6f}"
    )
    return "\n".join(lines) + "\n"
