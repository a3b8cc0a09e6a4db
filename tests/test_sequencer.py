from __future__ import annotations

import datetime
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from kdetector import sequencer
from kdetector.detector import FailureRecord, FailureStore
from kdetector.dump_parser import StackFrame, clean_frame
from kdetector.errors import ComponentMismatch, EmptyStack
from kdetector.sequencer import (
    ComponentOccurrence,
    component_distance,
    levenshtein,
    sequence_from_text,
    sequence_to_text,
    to_component_sequence,
)
from kdetector.similarity import ModelParams, lcs_match, similarity

from conftest import make_component_map, make_sequence


def frames(*names: str) -> list[StackFrame]:
    return [
        StackFrame(index=i, raw_text=f"{i}: {name}", function_name=name)
        for i, name in enumerate(names)
    ]


def oracle_levenshtein(a, b):
    # classic full-matrix dynamic program, kept independent of the library
    rows = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        rows[i][0] = i
    for j in range(len(b) + 1):
        rows[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            rows[i][j] = min(
                rows[i - 1][j] + 1, rows[i][j - 1] + 1, rows[i - 1][j - 1] + cost
            )
    return rows[-1][-1]


class TestToComponentSequence:
    def test_consecutive_frames_collapse(self, component_map):
        seq = to_component_sequence(
            frames("app::A::f1", "app::A::f2", "app::B::g1"), component_map
        )
        assert [(o.component, list(o.functions)) for o in seq.occurrences] == [
            ("CompA", ["app::A::f1", "app::A::f2"]),
            ("CompB", ["app::B::g1"]),
        ]

    def test_unmapped_function_gets_pseudo_component(self, component_map):
        seq = to_component_sequence(frames("mystery::fn"), component_map)
        assert seq.occurrences[0].component == "UNKNOWN:mystery::fn"
        assert seq.occurrences[0].functions == ("mystery::fn",)

    def test_non_consecutive_repeats_survive(self, component_map):
        seq = to_component_sequence(
            frames("app::A::f1", "app::B::g1", "app::A::f2"), component_map
        )
        assert seq.names == ("CompA", "CompB", "CompA")

    def test_empty_frames_error(self, component_map):
        with pytest.raises(EmptyStack):
            to_component_sequence([], component_map)

    def test_functions_concatenation_preserved(self, component_map):
        names = ["app::A::f1", "app::A::f2", "app::B::g1", "app::C::h1", "app::B::g2"]
        seq = to_component_sequence(frames(*names), component_map)
        flattened = [fn for occ in seq.occurrences for fn in occ.functions]
        assert flattened == names
        assert len(seq) <= len(names)


class TestComponentDistance:
    def test_identical_lists_zero(self):
        a = ComponentOccurrence("C", ("x", "y"))
        b = ComponentOccurrence("C", ("x", "y"))
        assert component_distance(a, b) == 0.0

    def test_disjoint_singletons_one(self):
        a = ComponentOccurrence("C", ("x",))
        b = ComponentOccurrence("C", ("y",))
        assert component_distance(a, b) == 1.0

    def test_one_substitution_over_two(self):
        # token DP oracle: [x, y] -> [x, z] is one edit, longer run is 2
        a = ComponentOccurrence("C", ("x", "y"))
        b = ComponentOccurrence("C", ("x", "z"))
        assert oracle_levenshtein(("x", "y"), ("x", "z")) == 1
        assert component_distance(a, b) == 0.5

    def test_component_mismatch_errors(self):
        with pytest.raises(ComponentMismatch):
            component_distance(
                ComponentOccurrence("C1", ("x",)),
                ComponentOccurrence("C2", ("x",)),
            )


TOKENS = st.lists(st.sampled_from(["f", "g", "h", "k"]), min_size=1, max_size=6).map(tuple)


@given(TOKENS, TOKENS)
def test_token_levenshtein_matches_oracle(a, b):
    assert levenshtein(a, b) == oracle_levenshtein(a, b)


@given(TOKENS, TOKENS)
def test_distance_symmetric_and_bounded(a, b):
    occ_a = ComponentOccurrence("C", a)
    occ_b = ComponentOccurrence("C", b)
    d = component_distance(occ_a, occ_b)
    assert d == component_distance(occ_b, occ_a)
    assert 0.0 <= d <= 1.0
    assert component_distance(occ_a, occ_a) == 0.0


def test_serialization_round_trip():
    seq = make_sequence(
        [("CompA", ["f1", "f2"]), ("UNKNOWN:g", ["g"]), ("CompB", ["h"])],
        dump_id="d1",
    )
    text = sequence_to_text(seq)
    assert text == "CompA\tf1\tf2\nUNKNOWN:g\tg\nCompB\th\n"
    assert sequence_from_text(text, "d1") == seq


@given(TOKENS, TOKENS)
def test_memoized_distance_equals_token_levenshtein_oracle(a, b):
    occ_a, occ_b = ComponentOccurrence("C", a), ComponentOccurrence("C", b)
    expected = oracles.token_levenshtein(a, b) / max(len(a), len(b))
    sequencer._run_distance.cache_clear()
    assert component_distance(occ_a, occ_b) == expected  # cold
    assert component_distance(occ_a, occ_b) == expected  # memoized
    assert component_distance(occ_b, occ_a) == expected
    assert component_distance(occ_b, occ_a) == expected


def test_repeated_run_pair_is_served_from_the_memo():
    sequencer._run_distance.cache_clear()
    a, b = ComponentOccurrence("C", ("x", "y")), ComponentOccurrence("C", ("x", "z"))
    assert component_distance(a, b) == component_distance(a, b) == 0.5
    assert sequencer._run_distance.cache_info().hits == 1


def test_occurrence_is_a_tuple_with_the_old_repr():
    occ = ComponentOccurrence("C", ("x",))
    assert occ == ("C", ("x",))
    assert repr(occ) == "ComponentOccurrence(component='C', functions=('x',))"


EPOCH = datetime.datetime(2026, 1, 1, tzinfo=datetime.timezone.utc)
# few names and runs, so two sequences often share a prefix and only a later
# occurrence decides their order
STORED = st.lists(
    st.tuples(st.sampled_from("AB"), st.lists(st.sampled_from("fg"), min_size=1, max_size=2)),
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(STORED, STORED)
def test_sequence_reloaded_from_the_store_equals_and_orients_as_appended(stored, query):
    appended = make_sequence(stored, dump_id="d1")
    other = make_sequence(query, dump_id="q")
    with tempfile.TemporaryDirectory() as root:
        FailureStore(root).append(FailureRecord(1, "d1", "", EPOCH, None, "A"), appended)
        loaded = FailureStore(root).sequence_for("d1")
    assert loaded == appended
    assert all(type(occ) is ComponentOccurrence for occ in loaded.occurrences)
    key = [(occ.component, occ.functions) for occ in appended.occurrences]
    other_key = [(occ.component, occ.functions) for occ in other.occurrences]
    assert (other.occurrences < loaded.occurrences) == (other_key < key)
    assert lcs_match(other, loaded) == lcs_match(other, appended)
    assert lcs_match(loaded, other) == lcs_match(appended, other)


# qualified names as clean_frame accepts them: segments joined by "::", each
# optionally a "~" destructor and optionally templated; template arguments
# hold no "<", ">" or whitespace, so commas, "*", "&" and "::" all occur
IDENTIFIER = st.from_regex(r"~?[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True)
TEMPLATE = st.text(alphabet="intchar,*&:~_09#ü", max_size=10).map(lambda t: f"<{t}>")
SEGMENT = st.builds(lambda name, template: name + template, IDENTIFIER, st.just("") | TEMPLATE)
QUALIFIED = st.lists(SEGMENT, min_size=1, max_size=3).map("::".join)
COMPONENTS = st.sampled_from(["CompA", "1", "12", "#2", "ns::X<a,b>", "-3", "ä"])


def _frames(names: list[str]) -> list[StackFrame]:
    frames = []
    for i, name in enumerate(names):
        line = f"{i}: void {name}(int, char*) + 0x{16 + i:x} at mod.cpp:{i}"
        assert clean_frame(line) == name
        frames.append(StackFrame(index=i, raw_text=line, function_name=name))
    return frames


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.lists(QUALIFIED, min_size=1, max_size=6), min_size=1, max_size=4),
    st.dictionaries(QUALIFIED, COMPONENTS, max_size=6),
    st.data(),
)
def test_every_clean_frame_name_round_trips_through_the_store(stacks, mapped, data):
    names = sorted({name for stack in stacks for name in stack})
    # map some of the stack's own names too, so runs of several functions form
    for name in data.draw(st.lists(st.sampled_from(names), max_size=4)):
        mapped[name] = data.draw(COMPONENTS)
    cmap = make_component_map(mapped)
    sequences = [
        to_component_sequence(_frames(stack), cmap, dump_id=f"d{i}")
        for i, stack in enumerate(stacks)
    ]
    with tempfile.TemporaryDirectory() as root:
        store = FailureStore(root)
        for i, sequence in enumerate(sequences):
            store.append(FailureRecord(i + 1, sequence.dump_id, "", EPOCH, None, "A"), sequence)
        reopened = FailureStore(root)
        loaded = [reopened.sequence_for(sequence.dump_id) for sequence in sequences]
    for sequence, reloaded in zip(sequences, loaded):
        assert reloaded == sequence
        assert similarity(sequence, reloaded, ModelParams(1.0, 1.0)).value == 1.0


def test_template_name_with_a_comma_scores_one_against_its_stored_copy(tmp_path):
    # the v1 format split functions at commas: this pair scored 0.538
    name = "ns::Foo<int,char>::bar"
    cmap = make_component_map({name: "CompA", "app::B::g1": "CompB"})
    sequence = to_component_sequence(_frames([name, "app::B::g1"]), cmap, dump_id="d1")
    FailureStore(tmp_path).append(FailureRecord(1, "d1", "", EPOCH, None, "CompA"), sequence)
    stored = FailureStore(tmp_path).sequence_for("d1")
    assert stored.occurrences[0].functions == (name,)
    assert stored == sequence
    assert similarity(sequence, stored, ModelParams(1.0, 1.0)).value == 1.0
