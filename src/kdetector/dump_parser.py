r"""Crash-dump text parsing and stack-frame cleaning.

Dump files are UTF-8 text made of bracketed sections. A ``[HEADER]`` block
of ``key: value`` lines (``pid`` and ``time`` are required) comes first,
followed by sections such as ``[BUILD]``, ``[CRASH_STACK]``, ``[CPUINFO]``
and ``[MEMMAP]``. Inside ``[CRASH_STACK]`` an optional ``exception:``
sub-block precedes a ``backtrace:`` sub-block; frame lines look like::

    0: void ns::Foo::bar(int, char*) + 0x42 at file.cpp:10

Cleaning keeps only the fully qualified function name. Frames without a
symbol and auxiliary detail lines (``SFrame``, ``Params``, ``Regs``) are
dropped, not errored; drops are tallied in the parse report.

Most frame lines have one canonical shape, with single spaces::

    I: [RET ...]NAME(ARGS) + 0xOFF at FILE:LINE

``I`` and ``LINE`` are ASCII digits, ``OFF`` hex digits, ``FILE`` any run of
non-whitespace, ``ARGS`` anything but ``(`` and ``)``, each return-type
token ``RET`` a run of non-whitespace without ``(`` or ``)``, and ``NAME``
follows ``_NAME_RE``'s grammar with ``(`` and ``)`` also left out of
template arguments. ``_extract_frames`` tries one match of that shape
(``_CANONICAL_RE``, whose lookahead reaches the end of the line) on each
stack line and takes the index and the name from its groups; any other
line goes through ``clean_frame``'s general rules. A match gives what the
general rules give. The argument, step by step, for a line out of
``splitlines()`` (so no ``\n`` in it; ``\s`` in these patterns,
``str.strip`` and ``str.split`` agree on whitespace):

1. Aux check: the line starts with a digit, so ``_AUX_RE`` does not match.
2. Index: ``_INDEX_RE`` takes ``I`` as its group 1, as the canonical match
   does, and the rest after the one space as the text (``.*`` runs to the
   end of a line without ``\n``).
3. Address strip: ``_ADDRESS_RE`` can remove only ``0x``-led chunks and
   whitespace from the front, so at most some ``RET`` tokens; ``NAME``
   starts with ``~``, ``_`` or a letter, never ``0``, so it stops before
   ``NAME`` and leaves no whitespace at the front. The text ends in a
   ``LINE`` digit, so ``strip`` changes nothing.
4. Suffix strips, first round: a ``_AT_SUFFIX_RE`` match ends at the end,
   which is a digit, so its ``\S+:\d+`` is the last whitespace-free token
   (``FILE:LINE``) and its ``at`` the token before; the space before
   ``at`` follows a hex digit, so the sub removes `` at FILE:LINE``. A
   ``_OFFSET_SUFFIX_RE`` match then needs ``0x`` and hex digits up to the
   end: that ``x`` is the last one, in ``0xOFF``, the ``+`` the last
   non-whitespace before it and the space before ``+`` follows ``)``, so
   the sub removes `` + 0xOFF`` and leaves ``[RET ...]NAME(ARGS)``.
5. Second round: both suffix patterns need a hex digit or whitespace at
   the end, and the text ends in ``)``, so neither matches.
6. Cut at the first ``(``: neither ``RET`` nor ``NAME`` holds one, so the
   cut leaves what was left of ``[RET ...]NAME``, ending in ``NAME``.
7. Last token and ``_NAME_RE``: ``NAME`` holds no whitespace and follows a
   space or starts the text, so it is the last token of ``split()``; its
   grammar is a part of ``_NAME_RE``'s, so it matches and is returned.

A line with other spacing, a ``const`` after the arguments, the suffixes
in the other order or a ``(`` inside a template takes the general rules,
at the cost of one failed match.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field

from .errors import EmptyStack, MalformedHeader, MissingSection

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.-]+)\]\s*$")
_INDEX_RE = re.compile(r"^\s*(\d+):\s*(.*)$")
_ADDRESS_RE = re.compile(r"^(?:0x[0-9a-fA-F]+\s*)+")
_AT_SUFFIX_RE = re.compile(r"\s+at\s+\S+:\d+\s*$")
_OFFSET_SUFFIX_RE = re.compile(r"\s*\+\s*0x[0-9a-fA-F]+\s*$")
_AUX_RE = re.compile(r"^\s*(SFrame|Params|Regs)\b")


def _qualified_name(template_char: str) -> str:
    """Identifier path, each segment optionally templated by template_char."""
    segment = rf"~?[A-Za-z_][A-Za-z0-9_]*(?:<{template_char}*>)?"
    return rf"{segment}(?:::{segment})*"


# no spaces inside <>
_NAME_RE = re.compile("^" + _qualified_name(r"[^<>\s]") + "$")
# see the module docstring; the lookahead checks the tail first, so most
# lines of another shape fail without backtracking through the name
_CANONICAL_RE = re.compile(
    r"([0-9]+): (?=[^()]*\([^()]*\) \+ 0x[0-9a-fA-F]+ at \S+:[0-9]+\Z)"
    r"(?:[^\s()]+ )*(" + _qualified_name(r"[^<>\s()]") + r")\("
)

CRASH_STACK = "[CRASH_STACK]"
HEADER = "[HEADER]"


@dataclass(frozen=True)
class StackFrame:
    """One cleaned frame; ``index`` 0 is the top of the stack."""

    index: int
    raw_text: str
    function_name: str


@dataclass(frozen=True)
class ParseReport:
    """Accounting of frame-candidate lines inside [CRASH_STACK]."""

    candidate_lines: int = 0
    skipped_lines: int = 0


@dataclass
class CrashDump:
    """Parsed dump: header fields, raw sections, and cleaned stack frames."""

    dump_id: str
    header: dict[str, str]
    sections: dict[str, str]
    exception_frames: list[StackFrame] = field(default_factory=list)
    backtrace_frames: list[StackFrame] = field(default_factory=list)
    report: ParseReport = field(default_factory=ParseReport)


def clean_frame(raw_line: str) -> str | None:
    """Return the bare qualified function name for a frame line, or None.

    None means the line carries no usable symbol: auxiliary detail
    (``SFrame``/``Params``/``Regs``), an address-only or ``<no symbol>``
    frame, or text that does not reduce to a qualified name.
    """
    return _clean_general(raw_line, _INDEX_RE.match(raw_line))


def _clean_general(raw_line: str, index_match: re.Match | None) -> str | None:
    """``clean_frame`` given the line's ``_INDEX_RE`` match."""
    if _AUX_RE.match(raw_line):
        return None
    text = index_match.group(2) if index_match else raw_line.strip()
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
    lines = block.splitlines()
    has_markers = any(line.strip() in ("exception:", "backtrace:") for line in lines)
    # with no markers at all, the whole section is the backtrace
    target: list[StackFrame] | None = backtrace if not has_markers else None
    candidates = 0
    skipped = 0
    for line in lines:
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
        # both patterns hold the index in group 1
        m = _CANONICAL_RE.match(line)
        if m:
            name = m.group(2)
        else:
            m = _INDEX_RE.match(line)
            name = _clean_general(line, m)
        if name is None or target is None:
            skipped += 1
            continue
        index = int(m.group(1)) if m else len(target)
        target.append(StackFrame(index, line, name))
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
