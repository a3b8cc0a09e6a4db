"""Seeded synthetic corpus generator for exercising the whole pipeline.

One run fabricates a miniature source tree (manifests plus declaration
files), a set of crash groups with mutated stack variants, the dump files
those crashes would produce, the matching failure records with dupe_of
links, and balanced labeled pairs with a group-stratified train/test
split. Every artifact is a pure function of the generation spec, so equal
seeds give byte-identical corpora.
"""

from __future__ import annotations

import datetime
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

from .detector import FailureRecord, record_to_json
from .trainer import (
    LabeledPair,
    build_groups,
    format_pairs,
    sample_pairs,
    split_pairs_by_group,
)

SCAFFOLD_COMPONENT = "Runtime"

_RETURNS = ["void", "int", "bool", "long"]
# generate_corpus gives up after this many draws in a row that repeat an
# earlier base stack: the spec most likely has fewer distinct stacks than groups
MAX_REPEAT_DRAWS = 1000


@dataclass(frozen=True)
class CorpusSpec:
    groups: int = 10
    per_group: int = 4
    noise: float = 0.1
    seed: int = 0
    components: int = 12
    functions_per_component: int = 8
    scaffold_functions: int = 2
    scaffold_tail: int = 3  # shared dispatcher frames under every stack
    top_pool: int = 4  # groups draw their top component from this many
    stack_len: tuple[int, int] = (11, 12)
    exception_depth: int = 3
    backtrace_only_every: int = 4  # every Nth dump omits the exception block

    def __post_init__(self) -> None:
        # an empty pool or group count would make generate_corpus loop forever
        for name in ("groups", "per_group", "components", "functions_per_component", "top_pool"):
            if (value := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass
class SynthCorpus:
    spec: CorpusSpec
    src_files: dict[str, str]
    dump_texts: dict[str, str]
    records: list[FailureRecord]
    truth: dict[str, int]  # dump_id -> group index
    pairs: list[LabeledPair] = field(default_factory=list)
    pairs_train: list[LabeledPair] = field(default_factory=list)
    pairs_test: list[LabeledPair] = field(default_factory=list)


def _component_name(idx: int) -> str:
    return f"Comp{idx:02d}"


def _function_pool(spec: CorpusSpec) -> tuple[list[list[str]], list[str], list[str]]:
    """Per-component function names plus the scaffold names."""
    pools = []
    for c in range(spec.components):
        # names differ only in their digits, like template-instantiation
        # farms do; distinct tokens, nearly identical character-wise
        pools.append(
            [
                f"ns{c:02d}::Task::op{j:02d}"
                for j in range(spec.functions_per_component)
            ]
        )
    scaffold = [f"rt::Frame::enter{i}" for i in range(spec.scaffold_functions)]
    tail = [f"rt::Main::dispatch{i}" for i in range(spec.scaffold_tail)]
    return pools, scaffold, tail


def _source_tree(
    spec: CorpusSpec, pools: list[list[str]], scaffold: list[str], tail: list[str]
) -> dict[str, str]:
    files: dict[str, str] = {}
    files["CMakeLists.txt"] = 'SET_COMPONENT("Core")\n'
    files["core.cpp"] = "fn core::bootstrap\nfn core::shutdown\n"
    files["runtime/CMakeLists.txt"] = f'SET_COMPONENT("{SCAFFOLD_COMPONENT}")\n'
    files["runtime/frame.cpp"] = "".join(f"fn {name}\n" for name in scaffold + tail)
    for c, pool in enumerate(pools):
        directory = f"comp{c:02d}"
        files[f"{directory}/CMakeLists.txt"] = f'SET_COMPONENT("{_component_name(c)}")\n'
        half = max(1, len(pool) // 2)
        files[f"{directory}/engine.cpp"] = "".join(f"fn {n}\n" for n in pool[:half])
        # manifest-less subdirectory exercises nearest-ancestor inheritance
        files[f"{directory}/detail/extra.cpp"] = "".join(f"fn {n}\n" for n in pool[half:])
    return files


def _base_stack(spec: CorpusSpec, pools: list[list[str]], rng: random.Random) -> list[str]:
    top = rng.randrange(min(spec.top_pool, spec.components))
    length = rng.randint(*spec.stack_len)
    stack: list[str] = []
    current = top
    while len(stack) < length:
        run = min(rng.randint(1, 2), length - len(stack))
        stack.extend(rng.sample(pools[current], min(run, len(pools[current]))))
        nxt = rng.randrange(spec.components)
        while nxt == current and spec.components > 1:
            nxt = rng.randrange(spec.components)
        current = nxt
    return stack


def _mutate(base: list[str], all_functions: list[str], noise: float, rng: random.Random) -> list[str]:
    """Mutate a stack variant; depth scales the per-frame rate.

    Duplicates share the frames nearest the crash point, so the top of the
    stack mutates rarely and the deep call context carries most of the
    noise; the ramp averages out to the requested rate.
    """
    out: list[str] = []
    depth_span = max(len(base) - 1, 1)
    for i, name in enumerate(base):
        rate = noise * (0.1 + 1.8 * i / depth_span)
        if rng.random() < rate:
            op = rng.choice(("delete", "substitute", "insert"))
            if op == "delete":
                continue
            if op == "substitute":
                out.append(rng.choice(all_functions))
                continue
            out.append(name)
            out.append(rng.choice(all_functions))
        else:
            out.append(name)
    return out or [base[0]]


def _render_frame(index: int, name: str, rng: random.Random) -> str:
    ret = rng.choice(_RETURNS)
    params = rng.choice(["()", "(int)", "(char const*)", "(int, int)"])
    offset = rng.randrange(0x10, 0xFFF)
    source = name.split("::")[0] + ".cpp"
    line = rng.randrange(10, 900)
    return f"{index}: {ret} {name}{params} + 0x{offset:x} at {source}:{line}"


def _render_dump(
    dump_id: str,
    when: datetime.datetime,
    exception: list[str],
    backtrace: list[str],
    rng: random.Random,
) -> str:
    lines = [
        "[HEADER]",
        f"dump_id: {dump_id}",
        f"pid: {rng.randrange(1000, 65000)}",
        f"time: {when.isoformat()}",
        "[BUILD]",
        "branch: main",
        f"revision: {rng.randrange(16**8):08x}",
        "[CRASH_STACK]",
    ]
    if exception:
        lines.append("exception:")
        lines.extend(_render_frame(i, name, rng) for i, name in enumerate(exception))
    lines.append("backtrace:")
    index = 0
    for pos, name in enumerate(backtrace):
        lines.append(_render_frame(index, name, rng))
        index += 1
        if pos == 0:
            lines.append(" SFrame: 0x00007ffc9e4b0000")  # detail line, dropped
        if pos == 2 and rng.random() < 0.15:
            lines.append(f"{index}: 0x{rng.randrange(16**12):012x} <no symbol>")
            index += 1
    lines += [
        "[CPUINFO]",
        "cores: 8",
        "model: synthetic",
        "[MEMMAP]",
        "0x0000000000400000-0x00000000023ff000 r-xp",
    ]
    return "\n".join(lines) + "\n"


def generate_corpus(spec: CorpusSpec) -> SynthCorpus:
    rng = random.Random(spec.seed)
    pools, scaffold, tail = _function_pool(spec)
    all_functions = [name for pool in pools for name in pool]
    component_of = {
        name: _component_name(c) for c, pool in enumerate(pools) for name in pool
    }
    src_files = _source_tree(spec, pools, scaffold, tail)

    bases: list[list[str]] = []
    seen: set[tuple[str, ...]] = set()
    repeats = 0
    while len(bases) < spec.groups:
        base = _base_stack(spec, pools, rng)
        if tuple(base) not in seen:
            seen.add(tuple(base))
            bases.append(base)
            repeats = 0
        elif (repeats := repeats + 1) == MAX_REPEAT_DRAWS:
            raise ValueError(
                f"{repeats} draws in a row repeated a base stack; too few for {spec.groups} groups"
            )

    start = datetime.datetime(2026, 1, 1, tzinfo=datetime.timezone.utc)
    dump_texts: dict[str, str] = {}
    records: list[FailureRecord] = []
    truth: dict[str, int] = {}
    dump_index = 0
    for g, base in enumerate(bases):
        first_bug: int | None = None
        for k in range(spec.per_group):
            core = base if k == 0 else _mutate(base, all_functions, spec.noise, rng)
            dump_id = f"d{g:03d}_{k}"
            when = start + datetime.timedelta(hours=2 * dump_index)
            backtrace_only = (
                spec.backtrace_only_every > 0
                and dump_index % spec.backtrace_only_every == spec.backtrace_only_every - 1
            )
            exception = [] if backtrace_only else core[: spec.exception_depth]
            dump_texts[dump_id] = _render_dump(
                dump_id, when, exception, scaffold + core + tail, rng
            )
            bug_id = 1001 + dump_index
            if first_bug is None:
                first_bug = bug_id
            records.append(
                FailureRecord(
                    bug_id=bug_id,
                    dump_id=dump_id,
                    resolution="" if k == 0 else "DUPLICATE",
                    creation_time=when,
                    dupe_of=None if k == 0 else first_bug,
                    top_component=component_of[core[0]],
                    dump_path=f"dumps/{dump_id}.dump",
                )
            )
            truth[dump_id] = g
            dump_index += 1

    corpus = SynthCorpus(spec, src_files, dump_texts, records, truth)
    groups, _ = build_groups(records)
    corpus.pairs = sample_pairs(groups, records, rng=random.Random(spec.seed + 1))
    corpus.pairs_train, corpus.pairs_test = split_pairs_by_group(
        corpus.pairs, records, groups, rng=random.Random(spec.seed + 2)
    )
    return corpus


def write_corpus(corpus: SynthCorpus, out_dir: Path | str) -> None:
    """Write the corpus files. Source files get the earliest record time as
    their mtime, so a later ``mine`` stamps a seed-derived time."""
    out = Path(out_dir)
    stamp = min((r.creation_time.timestamp() for r in corpus.records), default=0.0)
    for rel, text in corpus.src_files.items():
        path = out / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        os.utime(path, (stamp, stamp))
    (out / "dumps").mkdir(parents=True, exist_ok=True)
    for dump_id, text in corpus.dump_texts.items():
        (out / "dumps" / f"{dump_id}.dump").write_text(text)
    with (out / "bugs.ndjson").open("w") as fh:
        for record in corpus.records:
            fh.write(record_to_json(record) + "\n")
    truth_lines = [f"{dump_id}\t{group}" for dump_id, group in corpus.truth.items()]
    (out / "truth.tsv").write_text("\n".join(truth_lines) + "\n")
    (out / "pairs.tsv").write_text(format_pairs(corpus.pairs))
    (out / "pairs_train.tsv").write_text(format_pairs(corpus.pairs_train))
    (out / "pairs_test.tsv").write_text(format_pairs(corpus.pairs_test))
