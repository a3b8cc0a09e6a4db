"""The live dump parser against its frozen copy in ``oracles.py``, from
before canonical frame lines took one regex match: frames, indices, raw
text, parse reports, sections, headers and errors must all be equal, on
canonical lines, on those lines mutated near the places the proof in
``dump_parser``'s docstring leans on, and on whole dumps."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from kdetector import dump_parser
from kdetector.synth import CorpusSpec, generate_corpus

from conftest import make_dump_text

# the characters the canonical shape and the general rules turn on, a tab,
# a line break splitlines() knows (\x1c) and a non-ASCII digit
MUTATIONS = st.sampled_from(
    [*"()<>:~+,*& 0xat", "\t", "\x1c", "٣", " at ", "0x", " + 0x1"]
)
SEGMENT = st.from_regex(r"~?[A-Za-z_][A-Za-z0-9_]{0,4}(<[a-z0-9,*:( )]{0,4}>)?", fullmatch=True)
NAMES = st.lists(SEGMENT, min_size=1, max_size=3).map("::".join)
RETURNS = st.lists(
    st.sampled_from(["void", "int", "unsigned", "0x1f", "0xab::g", "char*", "a<b>", "at", "+"]),
    max_size=2,
)
ARGS = st.sampled_from(["", "int", "char const*", "int, int", "x at y:1", "a + 0x1", "f<x>"])
FILES = st.sampled_from(["f.cpp", "a/b.c", "C:x.cpp", "(x", "x:1", "at"])


@st.composite
def named_lines(draw) -> tuple[str, str]:
    """A line of the canonical shape and the name in it."""
    returns = "".join(f"{token} " for token in draw(RETURNS))
    name = draw(NAMES)
    line = (
        f"{draw(st.integers(0, 40))}: {returns}{name}({draw(ARGS)})"
        f" + 0x{draw(st.integers(0, 0xFFF)):x} at {draw(FILES)}:{draw(st.integers(0, 999))}"
    )
    return line, name


@st.composite
def mutated_lines(draw) -> str:
    chars = list(draw(named_lines())[0])
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(["insert", "delete", "replace"]))
        if op != "insert" and at < len(chars):
            del chars[at]
        if op != "delete":
            chars.insert(at, draw(MUTATIONS))
    return "".join(chars)


def outcome(parse, *args):
    """What parse returns, or the type and text of what it raises."""
    try:
        return parse(*args)
    except Exception as exc:  # noqa: BLE001 - the error is part of the outcome
        return type(exc), str(exc)


def assert_same_block(line: str) -> None:
    for block in (f"backtrace:\n{line}", f"exception:\n{line}\nbacktrace:\n{line}", line):
        assert outcome(dump_parser._extract_frames, block) == outcome(oracles._extract_frames, block)


def assert_same_dump(text: str) -> None:
    assert outcome(dump_parser.parse_dump, text) == outcome(oracles.parse_dump, text)


def test_the_name_grammar_is_shared():
    assert dump_parser._NAME_RE.pattern == oracles._NAME_RE.pattern
    # the canonical name is _NAME_RE's, with ( and ) kept out of templates
    name = oracles._NAME_RE.pattern[1:-1].replace(r"[^<>\s]", r"[^<>\s()]")
    assert f"({name})\\(" in dump_parser._CANONICAL_RE.pattern


@pytest.mark.parametrize(
    "line, name, canonical",
    [
        # a "(" inside a template: the general rules cut there
        ("0: void f<a(b>(int) + 0x1 at x.cpp:1", None, False),
        # an 0x-led name is not an identifier path
        ("0: int 0xab::f() + 0x1 at f.c:1", None, False),
        ("3: void f(x) at (x:1", "f", False),
        ("1: int ns::Box::size(void) const + 0x10 at b.cpp:3", "ns::Box::size", False),
        ("0: void ns::Foo::bar(int, char*) + 0x42 at file.cpp:10", "ns::Foo::bar", True),
        ("7: 0x1f unsigned ns::f<int>() + 0x1 at a.c:1", "ns::f<int>", True),
    ],
)
def test_pinned_lines(line, name, canonical):
    assert bool(dump_parser._CANONICAL_RE.match(line)) is canonical
    assert dump_parser.clean_frame(line) == oracles.clean_frame(line) == name
    assert_same_block(line)


@given(named_lines())
def test_canonical_lines_take_the_match(named):
    line, name = named
    m = dump_parser._CANONICAL_RE.match(line)
    if any(c in name for c in "() "):
        # a template argument outside the name grammar keeps a line off the match
        assert m is None
    else:
        assert m.group(2) == oracles.clean_frame(line) == name
    assert_same_block(line)


@settings(max_examples=250)
@given(mutated_lines())
@example("1: int ns::Box::size(void) const + 0x10 at b.cpp:3")
@example("٣: void f() + 0x1 at f.c:1")
@example("0: void f() + 0x1\tat f.c:1")
@example("0: void f()  + 0x1 at f.c:1")
@example("0: void f() + 0x1 at f.c:1 + 0x2")
@example("0: void ~~f() + 0x1 at f.c:1")
@example("0: void a:b() + 0x1 at f.c:1")
@example("0: void 0f() + 0x1 at f.c:1")
@example("0: void f<a b>() + 0x1 at f.c:1")
@example("0 void f() + 0x1 at f.c:1")
def test_mutated_lines_match_the_oracle(line):
    assert dump_parser.clean_frame(line) == oracles.clean_frame(line)
    assert_same_block(line)


@settings(max_examples=60)
@given(st.lists(mutated_lines(), min_size=1, max_size=6), st.lists(mutated_lines(), max_size=3))
def test_dumps_of_mutated_lines_match_the_oracle(backtrace, exception):
    lines = ["[HEADER]", "dump_id: d", "pid: 1", "time: 2026-01-01T00:00:00Z", "[CRASH_STACK]"]
    if exception:
        lines += ["exception:", *exception]
    lines += ["backtrace:", *backtrace, "[MEMMAP]", "0x400000-0x7fffff r-xp"]
    assert_same_dump("\n".join(lines) + "\n")


def test_every_synth_dump_matches_the_oracle_and_takes_the_match():
    corpus = generate_corpus(CorpusSpec(groups=40, per_group=4, noise=0.2, seed=11))
    canonical = candidates = 0
    for text in corpus.dump_texts.values():
        assert_same_dump(text)
        for line in dump_parser._split_sections(text)[dump_parser.CRASH_STACK].splitlines():
            if line.strip() not in ("", "exception:", "backtrace:"):
                candidates += 1
                canonical += bool(dump_parser._CANONICAL_RE.match(line))
    # the detail and <no symbol> lines are the only ones off the match
    assert canonical / candidates > 0.9


@pytest.mark.parametrize(
    "text",
    [
        make_dump_text(["app::A::f1"]),
        make_dump_text(["app::A::f1"]).replace("[HEADER]", "[HEAD]"),
        make_dump_text(["app::A::f1"]).replace("pid: 4242\n", ""),
        make_dump_text(["app::A::f1"]).replace("[CRASH_STACK]", "[STACK]"),
        make_dump_text(["app::A::f1"]).replace("void app::A::f1(int)", "0x1"),
        make_dump_text(["app::A::f1"]).replace("0: void", "9" * 5000 + ": void"),
        "[HEADER]\npid: 1\ntime: t\n[CRASH_STACK]\n0: void a::b() + 0x1 at f.c:1\n",
    ],
    ids=["valid", "no-header", "no-pid", "no-stack", "no-symbol", "huge-index", "no-markers"],
)
def test_whole_dump_outcomes_match_the_oracle(text):
    assert_same_dump(text)
