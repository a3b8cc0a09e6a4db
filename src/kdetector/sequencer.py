"""Convert cleaned call stacks into component sequences.

Consecutive frames that map to the same component collapse into one
occurrence; the occurrence keeps the contributing function names in frame
order. Functions absent from the component map go to an ``UNKNOWN:<name>``
pseudo-component, which can only ever match an occurrence of the same
function name. Runs are compared by :func:`levenshtein`, the one edit
distance in the package, which also serves the character-level baseline;
:func:`component_distance` memoizes the normalized distance per pair of
function tuples, because one detect meets the same run pairs again and
again. Occurrences are named tuples, cheap to build when a stored
sequence loads. :func:`sequence_to_text` and :func:`sequence_from_text`
are the tab-separated text form of a block in the store's sequence log;
names hold no whitespace, so every name round-trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Hashable, NamedTuple, Sequence

from .dump_parser import StackFrame
from .errors import ComponentMismatch, EmptyStack, UnstorableSequence
from .knowledge_miner import ComponentMap

UNKNOWN_PREFIX = "UNKNOWN:"


class ComponentOccurrence(NamedTuple):
    """A run of consecutive frames belonging to one component; its position
    is its index in the sequence. Occurrences compare as
    ``(component, functions)`` tuples."""

    component: str
    functions: tuple[str, ...]


@dataclass(frozen=True)
class ComponentSequence:
    """Ordered component occurrences; position 0 is the top of the stack.

    ``names`` is built on first use and kept in the instance dict, so a
    stored sequence compared with many queries builds it once, and loading
    one that is never compared does not build it.
    :func:`~kdetector.similarity.lcs_match` orients a pair by comparing the
    two ``occurrences`` tuples.
    """

    dump_id: str
    occurrences: tuple[ComponentOccurrence, ...]

    def __len__(self) -> int:
        return len(self.occurrences)

    @cached_property
    def names(self) -> tuple[str, ...]:
        """The component name of each occurrence, in order."""
        return tuple(occ.component for occ in self.occurrences)


def to_component_sequence(
    frames: list[StackFrame], cmap: ComponentMap, dump_id: str = ""
) -> ComponentSequence:
    """Map frames to components and collapse consecutive repeats."""
    if not frames:
        raise EmptyStack("cannot build a component sequence from zero frames")
    occurrences: list[ComponentOccurrence] = []
    run: list[str] = []
    run_component: str | None = None
    for frame in frames:
        component = cmap.component_for(frame.function_name)
        if component is None:
            component = UNKNOWN_PREFIX + frame.function_name
        if component == run_component:
            run.append(frame.function_name)
            continue
        if run_component is not None:
            occurrences.append(ComponentOccurrence(run_component, tuple(run)))
        run_component = component
        run = [frame.function_name]
    occurrences.append(ComponentOccurrence(run_component, tuple(run)))
    return ComponentSequence(dump_id, tuple(occurrences))


def levenshtein(a: Sequence[Hashable], b: Sequence[Hashable]) -> int:
    """Edit distance (insert, delete, substitute) between two sequences of
    hashable symbols: characters of a string or function-name tokens.

    Bit-parallel: Myers (JACM 1999) in Hyyro's edit-distance form (2001).
    Bit ``i`` of ``vp`` / ``vn`` says the DP column steps up / down between
    rows ``i`` and ``i + 1``; Python ints serve as bit vectors of any width,
    so one pass over the longer sequence costs a few big-int operations per
    symbol, whatever the lengths.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict = {}  # symbol -> bitmask of its positions in b
    for i, symbol in enumerate(b):
        peq[symbol] = peq.get(symbol, 0) | (1 << i)
    mask = (1 << len(b)) - 1  # bounds vp's width; higher bits never reach `last`
    last = 1 << (len(b) - 1)
    vp, vn, dist = mask, 0, len(b)
    for symbol in a:
        eq = peq.get(symbol, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        hp = vn | ~(xh | vp)
        hn = vp & xh
        if hp & last:
            dist += 1
        elif hn & last:
            dist -= 1
        hp = (hp << 1) | 1  # row 0 of the DP rises by one per column
        hn <<= 1
        vp = (hn | ~(xv | hp)) & mask
        vn = hp & xv
    return dist


def component_distance(a: ComponentOccurrence, b: ComponentOccurrence) -> float:
    """Normalized token-level edit distance of two same-component runs."""
    if a.component != b.component:
        raise ComponentMismatch(f"{a.component!r} vs {b.component!r}")
    if a.functions == b.functions:
        return 0.0
    return _run_distance(a.functions, b.functions)


@lru_cache(maxsize=65536)
def _run_distance(a: tuple[str, ...], b: tuple[str, ...]) -> float:
    """:func:`levenshtein` of two function runs over the longer run's length;
    the same run pairs recur across the candidates of one detect."""
    return levenshtein(a, b) / max(len(a), len(b))


def sequence_to_text(sequence: ComponentSequence) -> str:
    """One ``component<TAB>fn1<TAB>fn2…`` line per occurrence, each ending
    in ``\n``: the body of a block in the store's sequence log.

    Every line holds a tab, which tells it from the log's block headers.
    Names that ``clean_frame`` accepts hold no whitespace, so they
    round-trip; a sequence that would not (no occurrences, an occurrence
    with no functions, a tab or newline in a name) raises
    ``UnstorableSequence``.
    """
    lines = []
    for occ in sequence.occurrences:
        line = "\t".join((occ.component, *occ.functions))
        if not occ.functions or line.count("\t") != len(occ.functions) or "\n" in line:
            raise UnstorableSequence(f"occurrence {occ!r} cannot be stored")
        lines.append(line)
    if not lines:
        raise UnstorableSequence("a sequence without occurrences cannot be stored")
    return "\n".join(lines) + "\n"


def sequence_from_text(text: str, dump_id: str = "") -> ComponentSequence:
    """Inverse of :func:`sequence_to_text`; lines split at ``\n`` only and
    blank lines are skipped."""
    occurrences = []
    for line in text.split("\n"):
        if line:
            component, *functions = line.split("\t")
            if not functions:
                raise ValueError(f"occurrence line {line!r} has no tab")
            occurrences.append(ComponentOccurrence(component, tuple(functions)))
    if not occurrences:
        raise EmptyStack("serialized sequence has no occurrences")
    return ComponentSequence(dump_id, tuple(occurrences))
