from __future__ import annotations

import datetime
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kdetector.detector import FailureRecord, record_from_json, record_to_json
from kdetector.errors import DegenerateSet
from kdetector.trainer import (
    DUPLICATE,
    NON_DUPLICATE,
    LabeledPair,
    best_f1_threshold,
    build_groups,
    compute_auc,
    format_grid_report,
    format_pairs,
    format_params,
    parse_pairs,
    parse_params,
    sample_pairs,
    score_pairs,
    split_pairs_by_group,
    tune_parameters,
)
from kdetector.similarity import ModelParams

from conftest import make_sequence

EPOCH = datetime.datetime(2026, 1, 1, tzinfo=datetime.timezone.utc)


def record(bug_id, dupe_of=None, top="CompA", dump_id=None, hours=0):
    return FailureRecord(
        bug_id=bug_id,
        dump_id=dump_id or f"dump-{bug_id}",
        resolution="",
        creation_time=EPOCH + datetime.timedelta(hours=hours),
        dupe_of=dupe_of,
        top_component=top,
    )


def closure_oracle(bug_ids, edges):
    """Transitive closure over undirected dupe_of edges, by flooding."""
    neighbors = {b: set() for b in bug_ids}
    for a, b in edges:
        if a in neighbors and b in neighbors:
            neighbors[a].add(b)
            neighbors[b].add(a)
    seen = set()
    groups = []
    for start in bug_ids:
        if start in seen:
            continue
        stack, group = [start], set()
        while stack:
            node = stack.pop()
            if node in group:
                continue
            group.add(node)
            stack.extend(neighbors[node])
        seen |= group
        groups.append(frozenset(group))
    return set(groups)


class TestBuildGroups:
    def test_shared_target_merges(self):
        records = [record(1), record(2, dupe_of=1), record(3, dupe_of=1)]
        groups, dangling = build_groups(records)
        assert groups == [{1, 2, 3}]
        assert dangling == []

    def test_no_links_all_singletons(self):
        groups, _ = build_groups([record(1), record(2), record(3)])
        assert groups == [{1}, {2}, {3}]

    def test_cycle_merges_once(self):
        groups, _ = build_groups([record(1, dupe_of=2), record(2, dupe_of=1)])
        assert groups == [{1, 2}]

    def test_dangling_reference_recorded_and_skipped(self):
        groups, dangling = build_groups([record(1), record(2, dupe_of=99)])
        assert groups == [{1}, {2}]
        assert dangling == [(2, 99)]

    def test_matches_transitive_closure_on_random_graphs(self):
        rng = random.Random(12)
        for _ in range(50):
            n = rng.randint(2, 30)
            bug_ids = list(range(1, n + 1))
            records = []
            edges = []
            for b in bug_ids:
                if rng.random() < 0.6:
                    target = rng.choice(bug_ids)
                    while target == b:
                        target = rng.choice(bug_ids)
                    records.append(record(b, dupe_of=target))
                    edges.append((b, target))
                else:
                    records.append(record(b))
            groups, _ = build_groups(records)
            assert {frozenset(g) for g in groups} == closure_oracle(bug_ids, edges)


class TestSamplePairs:
    def test_group_of_three_yields_three_positives(self):
        records = [record(1), record(2, dupe_of=1), record(3, dupe_of=1)]
        groups, _ = build_groups(records)
        pairs = sample_pairs(groups, records)
        positives = [p for p in pairs if p.label == DUPLICATE]
        assert len(positives) == 3

    def test_different_top_components_give_no_negatives(self):
        records = [record(1, top="CompA"), record(2, top="CompB")]
        groups, _ = build_groups(records)
        assert sample_pairs(groups, records) == []

    def test_negatives_cross_groups_on_same_top_component(self):
        records = [
            record(1, top="CompA"),
            record(2, dupe_of=1, top="CompA"),
            record(3, top="CompA"),
            record(4, top="CompB"),
        ]
        groups, _ = build_groups(records)
        pairs = sample_pairs(groups, records, rng=random.Random(0))
        negatives = [p for p in pairs if p.label == NON_DUPLICATE]
        assert len(negatives) == 1
        assert {negatives[0].dump_id_a, negatives[0].dump_id_b} != {"dump-1", "dump-2"}

    def test_negatives_balance_positives(self):
        records = []
        bug = 1
        for _ in range(4):
            records.append(record(bug, top="CompA"))
            records.append(record(bug + 1, dupe_of=bug, top="CompA"))
            bug += 2
        groups, _ = build_groups(records)
        pairs = sample_pairs(groups, records, rng=random.Random(1))
        positives = sum(1 for p in pairs if p.label == DUPLICATE)
        negatives = sum(1 for p in pairs if p.label == NON_DUPLICATE)
        assert positives == 4
        assert negatives == positives

    def test_loose_mode_admits_any_cross_group_pair(self):
        records = [
            record(1, top="CompA"),
            record(2, dupe_of=1, top="CompA"),
            record(3, top="CompB"),
        ]
        groups, _ = build_groups(records)
        strict = sample_pairs(groups, records, rng=random.Random(0))
        loose = sample_pairs(
            groups, records, rng=random.Random(0), require_same_top=False
        )
        assert [p for p in strict if p.label == NON_DUPLICATE] == []
        assert len([p for p in loose if p.label == NON_DUPLICATE]) == 1

    def test_sampling_is_deterministic_under_seed(self):
        records = [
            record(b, dupe_of=(b - 1 if b % 2 == 0 else None), top="CompA")
            for b in range(1, 13)
        ]
        groups, _ = build_groups(records)
        first = sample_pairs(groups, records, rng=random.Random(7))
        second = sample_pairs(groups, records, rng=random.Random(7))
        assert first == second


class TestComputeAuc:
    def test_perfect_separation(self):
        scored = [(0.9, DUPLICATE), (0.8, DUPLICATE), (0.2, NON_DUPLICATE)]
        assert compute_auc(scored) == 1.0

    def test_all_ties_is_half(self):
        scored = [(0.5, DUPLICATE), (0.5, NON_DUPLICATE), (0.5, DUPLICATE)]
        assert compute_auc(scored) == 0.5

    def test_mixed_example_three_quarters(self):
        # pairwise oracle over the 4 pos-neg pairs: 0.9>0.6, 0.9>0.1,
        # 0.4<0.6, 0.4>0.1 -> 3 wins out of 4
        scored = [
            (0.9, DUPLICATE),
            (0.4, DUPLICATE),
            (0.6, NON_DUPLICATE),
            (0.1, NON_DUPLICATE),
        ]
        assert compute_auc(scored) == 0.75

    def test_single_class_errors(self):
        with pytest.raises(DegenerateSet):
            compute_auc([(0.5, DUPLICATE)])

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1, allow_nan=False),
                st.sampled_from([DUPLICATE, NON_DUPLICATE]),
            ),
            min_size=2,
            max_size=30,
        )
    )
    def test_invariant_under_monotone_transform(self, scored):
        if len({label for _, label in scored}) < 2:
            return
        # power-of-two scaling is exact for every float, so the transform
        # is strictly monotone even where an affine map would absorb ties
        transformed = [(4.0 * s, label) for s, label in scored]
        assert compute_auc(scored) == pytest.approx(compute_auc(transformed), abs=1e-12)


def pairwise_auc_oracle(scored):
    wins = total = 0.0
    for sp, lp in scored:
        if lp != DUPLICATE:
            continue
        for sn, ln in scored:
            if ln != NON_DUPLICATE:
                continue
            total += 1
            if sp > sn:
                wins += 1
            elif sp == sn:
                wins += 0.5
    return wins / total


def test_auc_matches_pairwise_oracle_on_random_sets():
    rng = random.Random(8)
    for _ in range(100):
        size = rng.randint(2, 30)
        scored = [
            (rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]), rng.choice([DUPLICATE, NON_DUPLICATE]))
            for _ in range(size)
        ]
        labels = {label for _, label in scored}
        if len(labels) < 2:
            continue
        assert compute_auc(scored) == pytest.approx(pairwise_auc_oracle(scored), abs=1e-12)


def top_heavy_training_setup():
    """Duplicates share only their top-2 components; negatives share a
    3-component deep tail, so position weighting is what separates them."""
    sequences = {}
    pairs = []
    for i in range(6):
        top = [(f"T{i}a", ["t1"]), (f"T{i}b", ["t2"])]
        sequences[f"p{i}x"] = make_sequence(
            top + [(f"U{i}{j}", ["u"]) for j in range(4)], dump_id=f"p{i}x"
        )
        sequences[f"p{i}y"] = make_sequence(
            top + [(f"V{i}{j}", ["v"]) for j in range(4)], dump_id=f"p{i}y"
        )
        pairs.append(LabeledPair(f"p{i}x", f"p{i}y", DUPLICATE))
    tail = [("W1", ["w1"]), ("W2", ["w2"]), ("W3", ["w3"])]
    for i in range(6):
        sequences[f"n{i}x"] = make_sequence(
            [(f"X{i}{j}", ["x"]) for j in range(3)] + tail, dump_id=f"n{i}x"
        )
        sequences[f"n{i}y"] = make_sequence(
            [(f"Y{i}{j}", ["y"]) for j in range(3)] + tail, dump_id=f"n{i}y"
        )
        pairs.append(LabeledPair(f"n{i}x", f"n{i}y", NON_DUPLICATE))
    return pairs, sequences


class TestTuneParameters:
    def test_constant_auc_keeps_first_grid_point(self):
        seq = make_sequence([("A", ["a"])])
        other = make_sequence([("A", ["a"])], dump_id="other")
        sequences = {"d1": seq, "d2": other, "d3": seq, "d4": other}
        pairs = [
            LabeledPair("d1", "d2", DUPLICATE),
            LabeledPair("d3", "d4", NON_DUPLICATE),
        ]
        result = tune_parameters(pairs, sequences)
        assert (result.params.m, result.params.n) == (0.0, 0.0)

    def test_full_grid_has_441_rows(self):
        pairs, sequences = top_heavy_training_setup()
        result = tune_parameters(pairs, sequences)
        assert len(result.grid) == 441
        assert {m for m, _, _ in result.grid} == {i / 10 for i in range(21)}

    def test_position_weighting_beats_flat_grid_origin(self):
        pairs, sequences = top_heavy_training_setup()
        result = tune_parameters(pairs, sequences)
        flat_auc = compute_auc(score_pairs(pairs, sequences, ModelParams(0.0, 0.0)))
        tuned_auc = compute_auc(score_pairs(pairs, sequences, result.params))
        assert tuned_auc >= flat_auc
        assert result.params.m > 0.0

    def test_deterministic(self):
        pairs, sequences = top_heavy_training_setup()
        first = tune_parameters(pairs, sequences)
        second = tune_parameters(pairs, sequences)
        assert first.params == second.params
        assert first.grid == second.grid


class TestThreshold:
    def test_perfect_separation_returns_gap_midpoint(self):
        scored = [
            (0.9, DUPLICATE),
            (0.8, DUPLICATE),
            (0.4, NON_DUPLICATE),
            (0.2, NON_DUPLICATE),
        ]
        assert best_f1_threshold(scored) == pytest.approx((0.4 + 0.8) / 2)

    def test_extreme_scores_give_half(self):
        scored = [(1.0, DUPLICATE), (1.0, DUPLICATE), (0.0, NON_DUPLICATE)]
        assert best_f1_threshold(scored) == pytest.approx(0.5)

    def test_matches_exhaustive_sweep_oracle(self):
        rng = random.Random(21)
        for _ in range(50):
            scored = [
                (rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0]),
                 rng.choice([DUPLICATE, NON_DUPLICATE]))
                for _ in range(rng.randint(4, 20))
            ]
            labels = {label for _, label in scored}
            if len(labels) < 2:
                continue

            def f1_at(t):
                tp = sum(1 for s, l in scored if s >= t and l == DUPLICATE)
                fp = sum(1 for s, l in scored if s >= t and l == NON_DUPLICATE)
                fn = sum(1 for s, l in scored if s < t and l == DUPLICATE)
                return 2 * tp / (2 * tp + fp + fn) if tp else 0.0

            chosen = best_f1_threshold(scored)
            grid = sorted({s for s, _ in scored} | {chosen} | {0.0, 0.5, 1.0})
            assert all(f1_at(chosen) >= f1_at(t) - 1e-12 for t in grid)

    def test_degenerate_errors(self):
        with pytest.raises(DegenerateSet):
            best_f1_threshold([(0.5, DUPLICATE)])


class TestSplit:
    def test_groups_never_span_both_sides(self):
        records = []
        bug = 1
        for g in range(10):
            records.append(record(bug, top="CompA"))
            records.append(record(bug + 1, dupe_of=bug, top="CompA"))
            records.append(record(bug + 2, dupe_of=bug, top="CompA"))
            bug += 3
        groups, _ = build_groups(records)
        pairs = sample_pairs(groups, records, rng=random.Random(5))
        train, test = split_pairs_by_group(
            pairs, records, groups, rng=random.Random(6)
        )
        group_of = {}
        for idx, group in enumerate(groups):
            for b in group:
                group_of[f"dump-{b}"] = idx
        train_groups = {group_of[p.dump_id_a] for p in train} | {
            group_of[p.dump_id_b] for p in train
        }
        test_groups = {group_of[p.dump_id_a] for p in test} | {
            group_of[p.dump_id_b] for p in test
        }
        assert train_groups.isdisjoint(test_groups)
        assert train and test


class TestLabeledPair:
    def test_canonical_order(self):
        pair = LabeledPair("zz", "aa", DUPLICATE)
        assert (pair.dump_id_a, pair.dump_id_b) == ("aa", "zz")

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            LabeledPair("a", "a", DUPLICATE)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            LabeledPair("a", "b", "maybe")


class TestFileFormats:
    def test_pairs_round_trip(self):
        pairs = [
            LabeledPair("a", "b", DUPLICATE),
            LabeledPair("c", "d", NON_DUPLICATE),
        ]
        assert parse_pairs(format_pairs(pairs)) == pairs
        assert format_pairs(pairs).splitlines()[0] == "a\tb\tduplicate"

    def test_params_round_trip(self):
        params = ModelParams(0.4, 1.2, 0.6132)
        text = format_params(params)
        assert text.startswith("#version 1\n")
        assert parse_params(text) == params

    def test_grid_report_shape(self):
        pairs, sequences = top_heavy_training_setup()
        result = tune_parameters(pairs, sequences)
        report = format_grid_report(result)
        lines = report.strip().splitlines()
        assert len(lines) == 442
        assert lines[0] == f"0.0\t0.0\t{result.grid[0][2]:.6f}"
        assert lines[-1].startswith("# best m=")

    def test_record_json_round_trip(self):
        rec = record(7, dupe_of=3, top="CompB", hours=5)
        assert record_from_json(record_to_json(rec)) == rec

    def test_self_duplicate_rejected(self):
        with pytest.raises(ValueError):
            record(7, dupe_of=7)
