"""Acceptance suite: one test per release criterion, one line printed each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
PASS lines as they print). Every tolerance is pinned here, not in helpers.
"""

from __future__ import annotations

import dataclasses
import datetime
import math
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

from kdetector.detector import Detector, FailureRecord, FailureStore, RecencyWindow, render_report
from kdetector.dump_parser import parse_dump
from kdetector.knowledge_miner import (
    dump_component_map,
    mine_tree,
    parse_component_manifests,
    snapshot_stamp,
)
from kdetector.sequencer import ComponentOccurrence, ComponentSequence, to_component_sequence
from kdetector.similarity import (
    MatchedPair,
    ModelParams,
    PairFeatures,
    baseline_edit_distance,
    baseline_prefix_match,
    lcs_match,
    match_features,
    score_features,
    similarity,
)
from kdetector.stopwords import derive_stop_words, filter_stop_words
from kdetector.synth import CorpusSpec, generate_corpus, write_corpus
from kdetector.trainer import (
    DUPLICATE,
    NON_DUPLICATE,
    build_groups,
    compute_auc,
    precision_curve,
    score_pairs,
    tune_parameters,
)


def _pass(label: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE PASS {label}{suffix}")


def _sequence(entries, dump_id=""):
    occurrences = tuple(
        ComponentOccurrence(component, tuple(functions)) for component, functions in entries
    )
    return ComponentSequence(dump_id, occurrences)


def _random_sequence(rng: random.Random, max_len: int = 20) -> ComponentSequence:
    length = rng.randint(1, max_len)
    entries = []
    for _ in range(length):
        component = f"C{rng.randrange(8)}"
        functions = [f"f{rng.randrange(5)}" for _ in range(rng.randint(1, 3))]
        entries.append((component, functions))
    return _sequence(entries)


# -- 1. worked-example reproduction -----------------------------------------

def test_criterion_1_worked_example():
    seq_a = _sequence(
        [
            ("C0", ["e0"]),
            ("C1", ["x1"]),
            ("C2", ["a", "b", "c", "d", "e"]),
            ("C3", ["x3"]),
            ("C4", ["x4"]),
            ("C5", ["p", "q", "r", "s", "t"]),
            ("C6", ["x6"]),
            ("C7", ["x7"]),
        ]
    )
    seq_b = _sequence(
        [
            ("C0", ["e0"]),
            ("C2", ["a", "b", "c", "d", "z"]),
            ("C5", ["p", "q", "y", "w", "t"]),
        ]
    )
    score = similarity(seq_a, seq_b, ModelParams(1.0, 1.0))
    assert [(p.pos, p.dist) for p in score.matched] == [(0, 0.0), (2, 0.2), (5, 0.4)]
    assert score.value == pytest.approx(0.705, abs=1e-3)
    best = min(
        _timed(lambda: similarity(seq_a, seq_b, ModelParams(1.0, 1.0)))
        for _ in range(5)
    )
    assert best < 1e-3  # under one millisecond
    _pass("1 worked-example", f"value={score.value:.6f} best_time={best * 1e6:.0f}us")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# -- 2. similarity property suite --------------------------------------------

def test_criterion_2_similarity_properties():
    rng = random.Random(2026)
    checked = strict_checked = 0
    for i in range(10_000):
        seq_a = _random_sequence(rng)
        seq_b = _random_sequence(rng)
        params = ModelParams(m=rng.choice([0.0, 0.5, 1.0, 2.0]), n=rng.choice([0.5, 1.0, 2.0]))
        forward = similarity(seq_a, seq_b, params).value
        backward = similarity(seq_b, seq_a, params).value
        assert forward == backward, f"asymmetric at iteration {i}"
        assert 0.0 <= forward <= 1.0
        assert abs(similarity(seq_a, seq_a, params).value - 1.0) <= 1e-9
        features = match_features(seq_a, seq_b)
        bumpable = [idx for idx, p in enumerate(features.matched) if p.dist <= 0.9]
        if bumpable:
            idx = rng.choice(bumpable)
            pair = features.matched[idx]
            bumped = list(features.matched)
            bumped[idx] = dataclasses.replace(pair, dist=pair.dist + 0.1)
            worse = score_features(PairFeatures(tuple(bumped), features.max_position), params)
            # the exact decrease; below double resolution the score can
            # only be asserted non-increasing
            delta = (
                math.exp(-params.m * pair.pos)
                * (math.exp(-params.n * pair.dist) - math.exp(-params.n * (pair.dist + 0.1)))
            )
            if delta > 1e-12:
                assert worse < forward, f"dist increase did not lower score at {i}"
                strict_checked += 1
            else:
                assert worse <= forward
        checked += 1
    assert checked >= 10_000 and strict_checked >= 5_000
    _pass("2 similarity-properties", f"pairs={checked} strict_monotone_checks={strict_checked}")


# -- 3. LCS oracle equivalence ------------------------------------------------

def _oracle_lcs_length(a: tuple, b: tuple) -> int:
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    for k in range(len(shorter), 0, -1):
        for combo in combinations(range(len(shorter)), k):
            picked = [shorter[i] for i in combo]
            it = iter(longer)
            if all(name in it for name in picked):
                return k
    return 0


def test_criterion_3_lcs_oracle():
    rng = random.Random(3)
    for _ in range(1_000):
        a = tuple(f"C{rng.randrange(5)}" for _ in range(rng.randint(1, 8)))
        b = tuple(f"C{rng.randrange(5)}" for _ in range(rng.randint(1, 8)))
        seq_a = _sequence([(name, [name.lower()]) for name in a])
        seq_b = _sequence([(name, [name.lower()]) for name in b])
        matched = lcs_match(seq_a, seq_b)
        assert len(matched) == _oracle_lcs_length(a, b)
        for pair in matched:
            assert a[pair.pos_a] == b[pair.pos_b] == pair.component
    _pass("3 lcs-oracle", "1000 random pairs, lengths <= 8")


# -- 4. AUC oracle -------------------------------------------------------------

def test_criterion_4_auc_oracle():
    rng = random.Random(4)
    evaluated = 0
    while evaluated < 500:
        size = rng.randint(2, 30)
        scored = [
            (rng.choice([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]),
             rng.choice([DUPLICATE, NON_DUPLICATE]))
            for _ in range(size)
        ]
        if len({label for _, label in scored}) < 2:
            continue
        wins = total = 0.0
        for sp, lp in scored:
            if lp != DUPLICATE:
                continue
            for sn, ln in scored:
                if ln != NON_DUPLICATE:
                    continue
                total += 1
                wins += 1.0 if sp > sn else 0.5 if sp == sn else 0.0
        assert compute_auc(scored) == wins / total
        evaluated += 1
    _pass("4 auc-oracle", "500 random score sets, ties = 1/2, exact match")


# -- 5. grid tuning at desk scale ----------------------------------------------

def test_criterion_5_grid_tuning(tmp_path):
    # 50 groups at noise 0.2; five dumps per group so sampling yields the
    # full 1,000 balanced pairs the tuner runs on
    spec = CorpusSpec(groups=50, per_group=5, noise=0.2, seed=7)
    corpus = generate_corpus(spec)
    assert len(corpus.pairs) == 1_000
    write_corpus(corpus, tmp_path)
    cmap, _ = mine_tree(tmp_path / "src")
    dumps = {i: parse_dump(t) for i, t in corpus.dump_texts.items()}
    stop_list = derive_stop_words(list(dumps.values()), cutoff=2)
    sequences = {
        dump_id: to_component_sequence(
            filter_stop_words(dump.backtrace_frames, stop_list), cmap, dump_id=dump_id
        )
        for dump_id, dump in dumps.items()
    }

    start = time.perf_counter()
    result = tune_parameters(corpus.pairs_train, sequences)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    assert len(result.grid) == 441

    held_out = corpus.pairs_test
    tuned_auc = compute_auc(score_pairs(held_out, sequences, result.params))
    flat_auc = compute_auc(score_pairs(held_out, sequences, ModelParams(0.0, 0.0)))
    names = {
        dump_id: [f.function_name for f in dump.backtrace_frames]
        for dump_id, dump in dumps.items()
    }
    edit_auc = compute_auc(
        (
            baseline_edit_distance(
                "\n".join(names[p.dump_id_a]), "\n".join(names[p.dump_id_b])
            ),
            p.label,
        )
        for p in held_out
    )
    prefix_auc = compute_auc(
        (baseline_prefix_match(names[p.dump_id_a], names[p.dump_id_b]), p.label)
        for p in held_out
    )
    assert tuned_auc >= flat_auc
    assert tuned_auc >= prefix_auc
    assert tuned_auc >= edit_auc
    # directional shape of the method comparison: the model first,
    # prefix match second, character edit distance last
    assert prefix_auc >= edit_auc
    _pass(
        "5 grid-tuning",
        f"grid={elapsed:.1f}s tuned={tuned_auc:.4f} flat={flat_auc:.4f} "
        f"prefix={prefix_auc:.4f} edit={edit_auc:.4f}",
    )


# -- 6. stop-word curve ----------------------------------------------------------

def test_criterion_6_stop_word_curve():
    spec = CorpusSpec(groups=20, per_group=4, noise=0.2, seed=5, scaffold_tail=0)
    corpus = generate_corpus(spec)
    import tempfile

    root = Path(tempfile.mkdtemp())
    write_corpus(corpus, root)
    cmap, _ = mine_tree(root / "src")
    dumps = [parse_dump(t) for t in corpus.dump_texts.values()]
    stop_list = derive_stop_words(dumps)
    top_two = [name for name, _ in stop_list.entries[:2]]
    assert top_two == ["rt::Frame::enter0", "rt::Frame::enter1"]
    assert stop_list.entries[0][1] == 1.0 and stop_list.entries[1][1] == 1.0

    frames = {dump.dump_id: dump.backtrace_frames for dump in dumps}
    curve = precision_curve(
        corpus.pairs, frames, cmap, stop_list, ModelParams(1.0, 1.0, 0.5),
        lengths=[0, 2],
    )
    precision_at_0 = curve[0][1]
    precision_at_2 = curve[1][1]
    assert precision_at_2 >= precision_at_0
    _pass(
        "6 stop-word-curve",
        f"ranked={top_two} precision L0={precision_at_0:.4f} L2={precision_at_2:.4f}",
    )


# -- 7. union-find vs transitive closure -------------------------------------------

def test_criterion_7_union_find_oracle():
    rng = random.Random(7)
    epoch = datetime.datetime(2026, 1, 1, tzinfo=datetime.timezone.utc)
    for case in range(200):
        n = rng.randint(2, 50)
        bug_ids = list(range(1, n + 1))
        edges = []
        records = []
        for b in bug_ids:
            style = rng.random()
            dupe_of = None
            if style < 0.3 and b > 1:
                dupe_of = b - 1  # chain link
            elif style < 0.6:
                dupe_of = rng.choice(bug_ids)  # may form cycles
                if dupe_of == b:
                    dupe_of = None
            if dupe_of is not None:
                edges.append((b, dupe_of))
            records.append(
                FailureRecord(
                    bug_id=b,
                    dump_id=f"d{case}-{b}",
                    resolution="",
                    creation_time=epoch,
                    dupe_of=dupe_of,
                    top_component="CompA",
                )
            )
        groups, dangling = build_groups(records)
        assert dangling == []
        neighbors = {b: set() for b in bug_ids}
        for a, b in edges:
            neighbors[a].add(b)
            neighbors[b].add(a)
        seen: set[int] = set()
        oracle = set()
        for start in bug_ids:
            if start in seen:
                continue
            stack, group = [start], set()
            while stack:
                node = stack.pop()
                if node not in group:
                    group.add(node)
                    stack.extend(neighbors[node])
            seen |= group
            oracle.add(frozenset(group))
        assert {frozenset(g) for g in groups} == oracle
    _pass("7 union-find", "200 random dupe_of graphs with chains and cycles")


# -- 8. end-to-end triage determinism ------------------------------------------------

def _triage_scenario(root: Path) -> tuple[list[str], dict]:
    spec = CorpusSpec(groups=8, per_group=3, noise=0.2, seed=11)
    corpus = generate_corpus(spec)
    write_corpus(corpus, root)
    cmap, _ = mine_tree(root / "src")
    dumps = {i: parse_dump(t) for i, t in corpus.dump_texts.items()}
    stop_list = derive_stop_words(list(dumps.values()), cutoff=2)
    store = FailureStore(root / "store")
    detector = Detector(store, cmap, stop_list, ModelParams(1.0, 1.0, 0.5))
    for record in corpus.records:
        frames = filter_stop_words(dumps[record.dump_id].backtrace_frames, stop_list)
        store.append(
            record, to_component_sequence(frames, cmap, dump_id=record.dump_id)
        )
    latest = max(r.creation_time for r in corpus.records)
    reports = []
    for record in corpus.records:
        result = detector.detect(
            store.sequence_for(record.dump_id),
            window=RecencyWindow(days=365),
            now=latest,
        )
        reports.append(render_report(result))
    context = {
        "records": corpus.records,
        "truth": corpus.truth,
    }
    return reports, context


def test_criterion_8_triage_determinism(tmp_path):
    import json

    reports, context = _triage_scenario(tmp_path / "one")
    rerun, _ = _triage_scenario(tmp_path / "two")
    assert reports == rerun  # byte-identical replay

    canonical_by_group: dict[int, int] = {}
    for record in context["records"]:
        group = context["truth"][record.dump_id]
        canonical_by_group.setdefault(group, record.bug_id)
    for record, report in zip(context["records"], reports):
        data = json.loads(report)
        assert data["verdict"] == "duplicate"
        assert data["score"] == 1.0
        assert data["bug_id"] == canonical_by_group[context["truth"][record.dump_id]]
    _pass("8 triage-determinism", f"redetected={len(reports)} dumps, replay identical")


# -- 9. manifest mining -----------------------------------------------------------------

LISTING_MANIFEST = """\
# All files in this directory and its sub-
# directories belong to ComponentA
SET_COMPONENT("ComponentA")
# Except for File1 and File2 which belong to
# ComponentB
SET_COMPONENT("ComponentB"
    File1
    File2
)
"""


def test_criterion_9_manifest_mining(tmp_path):
    (tmp_path / "CMakeLists.txt").write_text(LISTING_MANIFEST)
    (tmp_path / "File1").write_text("payload\n")
    (tmp_path / "File2").write_text("payload\n")
    (tmp_path / "engine.cpp").write_text("fn a::run\nfn a::stop\n")
    nested = tmp_path / "nested" / "deep"
    nested.mkdir(parents=True)
    (nested / "inner.cpp").write_text("fn a::deep::poke\n")

    file_map, report = parse_component_manifests(tmp_path)
    assert file_map["File1"] == "ComponentB"
    assert file_map["File2"] == "ComponentB"
    assert file_map["engine.cpp"] == "ComponentA"
    assert file_map["nested/deep/inner.cpp"] == "ComponentA"
    assert report.unmapped_files == []

    def snapshot() -> str:
        cmap, _ = mine_tree(tmp_path)
        return dump_component_map(cmap, snapshot_stamp(tmp_path))

    first = snapshot()
    second = snapshot()
    assert first == second  # byte-identical re-mine
    assert "a::run\tComponentA" in first
    _pass("9 manifest-mining", "listing fixture mapped, re-mine byte-identical")
