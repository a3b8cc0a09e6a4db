"""Stop-word derivation and filtering for crash stacks.

A stop word is a function name that shows up in most backtraces yet
(almost) never in the exception part of a stack: scaffolding the runtime
pushes around every crash rather than anything near the root cause. Each
name is scored ``(backtrace document frequency) * (1 - exception document
frequency)`` over a corpus of parsed dumps, and the first ``cutoff_length``
entries of the ranked list are filtered out before sequencing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dump_parser import CrashDump, StackFrame
from .errors import EmptyCorpus, parse_lines


@dataclass
class StopWordList:
    """Ranked (name, score) entries; only the first cutoff_length apply."""

    entries: list[tuple[str, float]]
    cutoff_length: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.cutoff_length <= len(self.entries):
            raise ValueError("cutoff_length must be within 0..len(entries)")

    def active(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.entries[: self.cutoff_length])


def derive_stop_words(corpus: Sequence[CrashDump], cutoff: int = 0) -> StopWordList:
    """Rank every function name seen in the corpus by dispensability.

    Scores use dump-level document frequency: a name present in every
    backtrace and no exception scores 1.0. Ties are broken by name so the
    ranking is total.
    """
    if not corpus:
        raise EmptyCorpus("cannot derive stop words from an empty corpus")
    backtrace_df: dict[str, int] = {}
    exception_df: dict[str, int] = {}
    for dump in corpus:
        for name in {f.function_name for f in dump.backtrace_frames}:
            backtrace_df[name] = backtrace_df.get(name, 0) + 1
        for name in {f.function_name for f in dump.exception_frames}:
            exception_df[name] = exception_df.get(name, 0) + 1
    total = len(corpus)
    names = set(backtrace_df) | set(exception_df)
    entries = [
        (
            name,
            (backtrace_df.get(name, 0) / total)
            * (1.0 - exception_df.get(name, 0) / total),
        )
        for name in names
    ]
    entries.sort(key=lambda entry: (-entry[1], entry[0]))
    return StopWordList(entries, min(cutoff, len(entries)))


def filter_stop_words(
    frames: Sequence[StackFrame], stop_list: StopWordList
) -> list[StackFrame]:
    """Drop stop-word frames; survivors keep order and original indices."""
    active = stop_list.active()
    return [frame for frame in frames if frame.function_name not in active]


def format_stop_words(stop_list: StopWordList) -> str:
    lines = [f"#cutoff: {stop_list.cutoff_length}"]
    lines.extend(f"{name}\t{score:.6f}" for name, score in stop_list.entries)
    return "\n".join(lines) + "\n"


def parse_stop_words(text: str, path: str = "stop list") -> StopWordList:
    """Read a stop list back; a cutoff or score that is not a number, or a
    negative cutoff, raises ``MalformedFile`` naming ``path`` and the line."""
    cutoff = 0
    entries: list[tuple[str, float]] = []

    def read(line: str) -> None:
        nonlocal cutoff
        if line.startswith("#cutoff:"):
            cutoff = int(line.split(":", 1)[1].strip())
            if cutoff < 0:
                raise ValueError(f"cutoff {cutoff} is negative")
        elif line.strip() and not line.startswith("#"):
            name, _, score = line.partition("\t")
            entries.append((name, float(score)))

    parse_lines(text, path, read)
    return StopWordList(entries, min(cutoff, len(entries)))
