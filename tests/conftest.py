"""Shared builders for dump texts, component maps, and sequences."""

from __future__ import annotations

import pytest

from kdetector.knowledge_miner import ComponentMap
from kdetector.sequencer import ComponentOccurrence, ComponentSequence


def make_dump_text(
    backtrace: list[str],
    exception: list[str] | None = None,
    dump_id: str = "dump-1",
    time: str = "2026-01-02T03:04:05+00:00",
    extra_sections: bool = True,
) -> str:
    """Render a minimal dump file around the given function names."""
    lines = [
        "[HEADER]",
        f"dump_id: {dump_id}",
        "pid: 4242",
        f"time: {time}",
    ]
    if extra_sections:
        lines += ["[BUILD]", "branch: main"]
    lines.append("[CRASH_STACK]")
    if exception is not None:
        lines.append("exception:")
        lines += [
            f"{i}: void {name}(int) + 0x{16 + i:x} at mod.cpp:{10 + i}"
            for i, name in enumerate(exception)
        ]
    lines.append("backtrace:")
    lines += [
        f"{i}: void {name}(int) + 0x{32 + i:x} at mod.cpp:{50 + i}"
        for i, name in enumerate(backtrace)
    ]
    if extra_sections:
        lines += ["[CPUINFO]", "cores: 4", "[MEMMAP]", "0x400000-0x7fffff r-xp"]
    return "\n".join(lines) + "\n"


def make_component_map(assignments: dict[str, str]) -> ComponentMap:
    return ComponentMap(dict(assignments))


def make_sequence(
    occurrences: list[tuple[str, list[str]]], dump_id: str = ""
) -> ComponentSequence:
    built = tuple(
        ComponentOccurrence(component, tuple(functions)) for component, functions in occurrences
    )
    return ComponentSequence(dump_id, built)


@pytest.fixture
def component_map() -> ComponentMap:
    return make_component_map(
        {
            "app::A::f1": "CompA",
            "app::A::f2": "CompA",
            "app::B::g1": "CompB",
            "app::B::g2": "CompB",
            "app::C::h1": "CompC",
        }
    )
