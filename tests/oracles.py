"""Frozen scalar reference implementations.

Verbatim copies of the scalar scoring, AUC, F1-threshold, grid-search and
edit-distance code that the array-based tuner and the bit-parallel edit
distance replaced, of the failure store's record scans that its in-memory
index replaced (there as methods over ``self._records``, here as functions
over a record list), of ``lcs_match`` with its move table,
before the match move became unconditional, and of
``trainer.sample_pairs``, which lists every candidate negative before
drawing, and of the dump parser (``clean_frame``, ``_split_sections``,
``_parse_header``, ``_extract_frames`` and ``parse_dump`` with their
patterns) from before canonical frame lines took one regex match.
``test_oracles.py``, ``test_store_index.py``, ``test_store_golden.py`` and
``test_parser_oracle.py`` check the live versions against them for exact
equality. Do not edit these to follow the live code: they define the
outputs the live code must keep.
"""

from __future__ import annotations

import datetime
import hashlib
import itertools
import logging
import math
import random
import re
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from kdetector.detector import FailureRecord
from kdetector.dump_parser import CRASH_STACK, HEADER, CrashDump, ParseReport, StackFrame
from kdetector.errors import DegenerateSet, EmptyStack, MalformedHeader, MissingSection
from kdetector.sequencer import ComponentSequence, component_distance
from kdetector.similarity import MatchedPair, ModelParams, PairFeatures
from kdetector.trainer import (
    DUPLICATE,
    GRID_STEPS,
    NON_DUPLICATE,
    LabeledPair,
    TuningResult,
    pair_features,
)


@lru_cache(maxsize=65536)
def _position_weight_total(m: float, max_position: int) -> float:
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
    return numerator / _position_weight_total(params.m, features.max_position)


def compute_auc(scored: Iterable[tuple[float, str]]) -> float:
    """ROC AUC by the rank statistic; tied scores contribute one half."""
    items = list(scored)
    positives = sum(1 for _, label in items if label == DUPLICATE)
    negatives = len(items) - positives
    if positives == 0 or negatives == 0:
        raise DegenerateSet("AUC needs at least one positive and one negative")
    items.sort(key=lambda it: it[0])
    rank_sum = 0.0
    i = 0
    while i < len(items):
        j = i
        while j < len(items) and items[j][0] == items[i][0]:
            j += 1
        avg_rank = (i + 1 + j) / 2  # average of ranks i+1 .. j
        rank_sum += avg_rank * sum(
            1 for k in range(i, j) if items[k][1] == DUPLICATE
        )
        i = j
    u_stat = rank_sum - positives * (positives + 1) / 2
    return u_stat / (positives * negatives)


def tune_parameters(
    pairs: Sequence[LabeledPair], sequences: Mapping[str, ComponentSequence]
) -> TuningResult:
    """Exhaustive AUC grid search over the 21x21 coefficient grid.

    Scans row-major with m outer; only a strictly better AUC displaces the
    incumbent, so the first grid point attaining the maximum wins. Grid
    values are built as i/10 to keep them exact. The returned params carry
    the F1-optimal threshold at the tuned coefficients.
    """
    featured = pair_features(pairs, sequences)
    grid: list[tuple[float, float, float]] = []
    best_auc = -1.0
    best_m = best_n = 0.0
    for mi in range(GRID_STEPS):
        m = mi / 10
        for ni in range(GRID_STEPS):
            n = ni / 10
            params = ModelParams(m, n)
            auc = compute_auc(
                (score_features(features, params), label)
                for features, label in featured
            )
            grid.append((m, n, auc))
            if auc > best_auc:
                best_auc = auc
                best_m, best_n = m, n
    scored = [
        (score_features(features, ModelParams(best_m, best_n)), label)
        for features, label in featured
    ]
    threshold = best_f1_threshold(scored)
    return TuningResult(ModelParams(best_m, best_n, threshold), best_auc, grid)


def best_f1_threshold(scored: Sequence[tuple[float, str]]) -> float:
    """Smallest threshold maximizing F1 for ``predict duplicate iff
    score >= threshold``; perfectly separated scores therefore yield the
    midpoint of the separating gap."""
    positives = sum(1 for _, label in scored if label == DUPLICATE)
    if positives == 0 or positives == len(scored):
        raise DegenerateSet("threshold selection needs both classes")
    distinct = sorted({score for score, _ in scored})
    candidates = sorted(
        set(distinct).union(
            (a + b) / 2 for a, b in zip(distinct, distinct[1:])
        )
    )
    best_t = candidates[0]
    best_f1 = -1.0
    for t in candidates:
        tp = sum(1 for s, label in scored if s >= t and label == DUPLICATE)
        fp = sum(1 for s, label in scored if s >= t and label == NON_DUPLICATE)
        fn = positives - tp
        f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
        if f1 > best_f1:
            best_f1 = f1
            best_t = t
    return best_t


def levenshtein(a: str, b: str) -> int:
    """Character-level edit distance (insert, delete, substitute)."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    b_codes = np.fromiter(map(ord, b), count=len(b), dtype=np.int64)
    offsets = np.arange(len(b) + 1, dtype=np.int64)
    prev = offsets.copy()
    cur = np.empty(len(b) + 1, dtype=np.int64)
    for i, ch in enumerate(a, start=1):
        cur[0] = i
        np.minimum(prev[:-1] + (b_codes != ord(ch)), prev[1:] + 1, out=cur[1:])
        # sweep in insertions: cur[j] = min over k<=j of cur[k] + (j - k)
        np.minimum.accumulate(cur - offsets, out=cur)
        cur += offsets
        prev, cur = cur, prev
    return int(prev[-1])


def token_levenshtein(a: tuple[str, ...], b: tuple[str, ...]) -> int:
    """Edit distance where each function name counts as one token."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, tok in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j in range(1, len(b) + 1):
            cost = 0 if tok == b[j - 1] else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[-1]


class UnionFind:
    """Disjoint sets over arbitrary hashable items, with path compression."""

    def __init__(self) -> None:
        self.parent: dict = {}

    def add(self, item) -> None:
        self.parent.setdefault(item, item)

    def find(self, item):
        self.add(item)
        root = item
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def has_dump(records: Sequence[FailureRecord], dump_id: str) -> bool:
    return any(record.dump_id == dump_id for record in records)


def next_bug_id(records: Sequence[FailureRecord]) -> int:
    return max((record.bug_id for record in records), default=0) + 1


def canonical_bug(records: Sequence[FailureRecord], bug_id: int) -> int:
    """Smallest bug id in the union-find group along dupe_of edges."""
    uf = UnionFind()
    known = {record.bug_id for record in records}
    for record in records:
        uf.add(record.bug_id)
        if record.dupe_of is not None and record.dupe_of in known:
            uf.union(record.bug_id, record.dupe_of)
    root = uf.find(bug_id)
    return min(b for b in known if uf.find(b) == root)


def window_records(
    records: Sequence[FailureRecord],
    days: float | None,
    last_k: int | None,
    now: datetime.datetime | None,
) -> list[FailureRecord]:
    """``Detector._window_records`` with the window's two fields spelled out."""
    ordered = sorted(records, key=lambda r: (r.creation_time, r.bug_id))
    if last_k is not None:
        return ordered[-last_k:] if last_k > 0 else []
    if days is None:
        return ordered
    now = now or datetime.datetime.now(datetime.timezone.utc)
    horizon = now - datetime.timedelta(days=days)
    return [record for record in ordered if record.creation_time >= horizon]


_MATCH, _SKIP_A, _SKIP_B = 0, 1, 2


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
    # cost being the sum of pos_a + pos_b over matched pairs
    length = [[0] * (lb + 1) for _ in range(la + 1)]
    cost = [[0] * (lb + 1) for _ in range(la + 1)]
    move = [[_SKIP_A] * (lb + 1) for _ in range(la + 1)]
    for i in range(la - 1, -1, -1):
        for j in range(lb - 1, -1, -1):
            best_len, best_cost, best_move = length[i + 1][j], cost[i + 1][j], _SKIP_A
            if length[i][j + 1] > best_len or (
                length[i][j + 1] == best_len and cost[i][j + 1] < best_cost
            ):
                best_len, best_cost, best_move = length[i][j + 1], cost[i][j + 1], _SKIP_B
            if names_a[i] == names_b[j]:
                m_len = length[i + 1][j + 1] + 1
                m_cost = cost[i + 1][j + 1] + i + j
                if m_len > best_len or (m_len == best_len and m_cost <= best_cost):
                    best_len, best_cost, best_move = m_len, m_cost, _MATCH
            length[i][j], cost[i][j], move[i][j] = best_len, best_cost, best_move
    matched: list[MatchedPair] = []
    i = j = 0
    while i < la and j < lb:
        if move[i][j] == _MATCH:
            dist = component_distance(seq_a.occurrences[i], seq_b.occurrences[j])
            matched.append(MatchedPair(names_a[i], i, j, dist))
            i += 1
            j += 1
        elif move[i][j] == _SKIP_A:
            i += 1
        else:
            j += 1
    return matched


logger = logging.getLogger(__name__)


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


# dump parsing, before canonical frame lines took one fullmatch

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.-]+)\]\s*$")
_INDEX_RE = re.compile(r"^\s*(\d+):\s*(.*)$")
_ADDRESS_RE = re.compile(r"^(?:0x[0-9a-fA-F]+\s*)+")
_AT_SUFFIX_RE = re.compile(r"\s+at\s+\S+:\d+\s*$")
_OFFSET_SUFFIX_RE = re.compile(r"\s*\+\s*0x[0-9a-fA-F]+\s*$")
_AUX_RE = re.compile(r"^\s*(SFrame|Params|Regs)\b")
# identifier path, each segment optionally templated (no spaces inside <>)
_NAME_RE = re.compile(
    r"^~?[A-Za-z_][A-Za-z0-9_]*(?:<[^<>\s]*>)?"
    r"(?:::~?[A-Za-z_][A-Za-z0-9_]*(?:<[^<>\s]*>)?)*$"
)


def clean_frame(raw_line: str) -> str | None:
    """Return the bare qualified function name for a frame line, or None.

    None means the line carries no usable symbol: auxiliary detail
    (``SFrame``/``Params``/``Regs``), an address-only or ``<no symbol>``
    frame, or text that does not reduce to a qualified name.
    """
    if _AUX_RE.match(raw_line):
        return None
    m = _INDEX_RE.match(raw_line)
    text = m.group(2) if m else raw_line.strip()
    text = _ADDRESS_RE.sub("", text).strip()
    # suffixes may appear in either order; strip both, twice
    for _ in range(2):
        text = _AT_SUFFIX_RE.sub("", text)
        text = _OFFSET_SUFFIX_RE.sub("", text)
    paren = text.find("(")
    if paren >= 0:
        text = text[:paren]
    text = text.strip()
    if not text:
        return None
    # whatever precedes the final whitespace run is the return type
    name = text.split()[-1]
    if not _NAME_RE.match(name):
        return None
    return name


def _split_sections(text: str) -> dict[str, str]:
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line in text.splitlines():
        m = _SECTION_RE.match(line)
        if m:
            name = f"[{m.group(1)}]"
            current = sections.setdefault(name, [])
        elif current is not None:
            current.append(line)
    return {name: "\n".join(lines) for name, lines in sections.items()}


def _parse_header(block: str) -> dict[str, str]:
    header: dict[str, str] = {}
    for line in block.splitlines():
        if ":" not in line:
            continue
        key, value = line.split(":", 1)
        key = key.strip()
        if key:
            header[key] = value.strip()
    return header


def _extract_frames(block: str) -> tuple[list[StackFrame], list[StackFrame], ParseReport]:
    exception: list[StackFrame] = []
    backtrace: list[StackFrame] = []
    has_markers = any(
        line.strip() in ("exception:", "backtrace:") for line in block.splitlines()
    )
    # with no markers at all, the whole section is the backtrace
    target: list[StackFrame] | None = backtrace if not has_markers else None
    candidates = 0
    skipped = 0
    for line in block.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        if stripped == "exception:":
            target = exception
            continue
        if stripped == "backtrace:":
            target = backtrace
            continue
        candidates += 1
        name = clean_frame(line)
        if name is None or target is None:
            skipped += 1
            continue
        m = _INDEX_RE.match(line)
        index = int(m.group(1)) if m else len(target)
        target.append(StackFrame(index=index, raw_text=line, function_name=name))
    return exception, backtrace, ParseReport(candidates, skipped)


def parse_dump(text: str, dump_id: str | None = None) -> CrashDump:
    """Parse a complete dump file into a CrashDump.

    Raises MalformedHeader if the [HEADER] block or its required ``pid``/
    ``time`` keys are missing, MissingSection if there is no [CRASH_STACK],
    and EmptyStack if the backtrace yields zero valid frames.
    """
    sections = _split_sections(text)
    if HEADER not in sections:
        raise MalformedHeader("dump has no [HEADER] block")
    header = _parse_header(sections[HEADER])
    for key in ("pid", "time"):
        if key not in header:
            raise MalformedHeader(f"[HEADER] is missing required key {key!r}")
    if CRASH_STACK not in sections:
        raise MissingSection("dump has no [CRASH_STACK] section")
    exception, backtrace, report = _extract_frames(sections[CRASH_STACK])
    if not backtrace:
        raise EmptyStack("[CRASH_STACK] backtrace yielded no valid frames")
    if dump_id is None:
        dump_id = header.get("dump_id") or hashlib.sha1(text.encode()).hexdigest()[:12]
    return CrashDump(
        dump_id=dump_id,
        header=header,
        sections=sections,
        exception_frames=exception,
        backtrace_frames=backtrace,
        report=report,
    )
