from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdetector.errors import MalformedMap, ManifestSyntaxError
from kdetector.knowledge_miner import (
    build_function_component_map,
    dump_component_map,
    load_component_map,
    load_function_index,
    mine_tree,
    parse_component_manifests,
    parse_manifest,
    scan_declarations,
    snapshot_stamp,
)

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


def build_listing_tree(root: Path) -> None:
    (root / "CMakeLists.txt").write_text(LISTING_MANIFEST)
    (root / "File1").write_text("opaque payload\n")
    (root / "File2").write_text("opaque payload\n")
    (root / "engine.cpp").write_text("fn a::run\nfn a::stop\n")
    nested = root / "nested" / "deep"
    nested.mkdir(parents=True)
    (nested / "inner.cpp").write_text("fn a::deep::poke\n")


class TestManifestParsing:
    def test_default_plus_overrides(self):
        manifest = parse_manifest(LISTING_MANIFEST, "CMakeLists.txt")
        assert manifest.default_component == "ComponentA"
        assert manifest.file_overrides == {"File1": "ComponentB", "File2": "ComponentB"}

    def test_single_line_form(self):
        manifest = parse_manifest('SET_COMPONENT("X" a.cpp b.cpp)')
        assert manifest.default_component is None
        assert manifest.file_overrides == {"a.cpp": "X", "b.cpp": "X"}

    def test_unquoted_name_errors_with_location(self):
        with pytest.raises(ManifestSyntaxError) as err:
            parse_manifest("\nSET_COMPONENT(Oops)\n", "dir/CMakeLists.txt")
        assert err.value.path == "dir/CMakeLists.txt"
        assert err.value.line == 2

    def test_unclosed_directive_errors(self):
        with pytest.raises(ManifestSyntaxError):
            parse_manifest('SET_COMPONENT("A"')

    # a tab, and every line break str.splitlines splits on
    BREAKS = ["\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]

    @pytest.mark.parametrize("brk", BREAKS)
    def test_component_name_with_a_tab_or_line_break_errors_with_location(self, brk):
        with pytest.raises(ManifestSyntaxError, match="holds a tab or a line break") as err:
            parse_manifest(f'\nSET_COMPONENT("Alpha{brk}Beta" a.cpp)\n', "dir/CMakeLists.txt")
        assert (err.value.path, err.value.line) == ("dir/CMakeLists.txt", 2)

    @pytest.mark.parametrize("brk", BREAKS)
    def test_only_a_newline_in_a_comment_moves_a_line_number(self, brk):
        with pytest.raises(ManifestSyntaxError, match="unclosed") as err:
            parse_manifest(f'# note{brk} more\nSET_COMPONENT("A"\n', "M")
        assert str(err.value).startswith(f"M:{2 + brk.count(chr(10))}: ")

    def test_directive_inside_comment_ignored(self):
        manifest = parse_manifest('# SET_COMPONENT("Ghost")\nSET_COMPONENT("Real")\n')
        assert manifest.default_component == "Real"


class TestTreeMining:
    def test_listing_fixture_assignment(self, tmp_path):
        build_listing_tree(tmp_path)
        file_map, report = parse_component_manifests(tmp_path)
        assert file_map["File1"] == "ComponentB"
        assert file_map["File2"] == "ComponentB"
        assert file_map["engine.cpp"] == "ComponentA"
        assert file_map["nested/deep/inner.cpp"] == "ComponentA"
        assert report.unmapped_files == []

    def test_nearest_ancestor_wins_over_root(self, tmp_path):
        (tmp_path / "CMakeLists.txt").write_text('SET_COMPONENT("Root")\n')
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "CMakeLists.txt").write_text('SET_COMPONENT("Sub")\n')
        (sub / "x.cpp").write_text("fn s::x\n")
        (tmp_path / "top.cpp").write_text("fn r::t\n")
        file_map, _ = parse_component_manifests(tmp_path)
        assert file_map == {"top.cpp": "Root", "sub/x.cpp": "Sub"}

    def test_file_without_component_reported(self, tmp_path):
        (tmp_path / "orphan.cpp").write_text("fn o::o\n")
        file_map, report = parse_component_manifests(tmp_path)
        assert file_map == {}
        assert report.unmapped_files == ["orphan.cpp"]

    def test_duplicate_default_last_wins_with_warning(self, tmp_path):
        (tmp_path / "CMakeLists.txt").write_text(
            'SET_COMPONENT("First")\nSET_COMPONENT("Second")\n'
        )
        (tmp_path / "a.cpp").write_text("fn a::a\n")
        file_map, report = parse_component_manifests(tmp_path)
        assert file_map["a.cpp"] == "Second"
        assert any("last wins" in w for w in report.warnings)

    def test_override_scoped_to_own_directory(self, tmp_path):
        (tmp_path / "CMakeLists.txt").write_text(
            'SET_COMPONENT("Root" stray.cpp)\nSET_COMPONENT("Root")\n'
        )
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "stray.cpp").write_text("fn s::s\n")
        file_map, _ = parse_component_manifests(tmp_path)
        # the override names a file that only exists in a subdirectory;
        # the subdirectory file still inherits the default
        assert file_map["sub/stray.cpp"] == "Root"


class TestFunctionExtraction:
    def test_declarations_in_order(self):
        assert scan_declarations("fn ns::A::f\nfn ns::g\n")[0] == ["ns::A::f", "ns::g"]

    def test_empty_file(self):
        assert scan_declarations("")[0] == []

    def test_duplicates_removed(self):
        assert scan_declarations("fn ns::A::f\nfn ns::A::f\n")[0] == ["ns::A::f"]

    def test_unparseable_lines_counted(self):
        names, skipped = scan_declarations(
            "// comment\nfn ok::one\nint broken(\nfn bad name\n\n"
        )
        assert names == ["ok::one"]
        assert skipped == 2

    def test_index_records(self):
        by_file, skipped = load_function_index(
            "a.cpp\tns::f\na.cpp\tns::g\nb.cpp\tns::f\nbroken-line\n"
        )
        assert by_file == {"a.cpp": ["ns::f", "ns::g"], "b.cpp": ["ns::f"]}
        assert skipped == 1


class TestComposition:
    def test_single_composition(self):
        cmap, warnings = build_function_component_map(
            {"f1.cpp": "A"}, {"f1.cpp": ["x::y"]}
        )
        assert cmap.function_to_component == {"x::y": "A"}
        assert warnings == []

    def test_consistent_repeat_is_silent(self):
        cmap, warnings = build_function_component_map(
            {"a.cpp": "A", "b.cpp": "A"}, {"a.cpp": ["x::y"], "b.cpp": ["x::y"]}
        )
        assert cmap.function_to_component == {"x::y": "A"}
        assert warnings == []

    def test_conflict_takes_smallest_path_with_warning(self):
        cmap, warnings = build_function_component_map(
            {"z.cpp": "Z", "a.cpp": "A"}, {"z.cpp": ["x::y"], "a.cpp": ["x::y"]}
        )
        assert cmap.function_to_component == {"x::y": "A"}
        assert len(warnings) == 1

    def test_stats(self):
        cmap, _ = build_function_component_map(
            {"a.cpp": "A", "b.cpp": "B"},
            {"a.cpp": ["x::one", "x::two"], "b.cpp": ["y::one"]},
        )
        assert cmap.stats.functions == 3
        assert cmap.stats.components == 2


def test_mine_tree_composes_and_counts(tmp_path):
    build_listing_tree(tmp_path)
    cmap, report = mine_tree(tmp_path)
    assert cmap.function_to_component == {
        "a::run": "ComponentA",
        "a::stop": "ComponentA",
        "a::deep::poke": "ComponentA",
    }
    assert report.skipped_lines == 0


def test_mine_tree_merges_function_index(tmp_path):
    build_listing_tree(tmp_path)
    cmap, _ = mine_tree(tmp_path, index_text="engine.cpp\ta::indexed\n")
    assert cmap.function_to_component["a::indexed"] == "ComponentA"


def test_remining_unchanged_tree_is_byte_identical(tmp_path):
    build_listing_tree(tmp_path)

    def snapshot() -> str:
        cmap, _ = mine_tree(tmp_path)
        return dump_component_map(cmap, snapshot_stamp(tmp_path))

    assert snapshot() == snapshot()


def test_snapshot_round_trip(tmp_path):
    build_listing_tree(tmp_path)
    cmap, _ = mine_tree(tmp_path)
    text = dump_component_map(cmap, snapshot_stamp(tmp_path))
    assert text.startswith("#version 1 mined=")
    loaded = load_component_map(text)
    assert loaded.function_to_component == cmap.function_to_component
    assert loaded.stats.functions == cmap.stats.functions


@settings(max_examples=200, deadline=None)
@given(st.text(min_size=1, max_size=8).filter(lambda name: '"' not in name))
def test_every_accepted_component_name_round_trips_through_the_map(name):
    """A component name the manifest parser accepts is read back from the
    written map unchanged; the parser rejects exactly the names holding a
    tab or a line break."""
    try:
        manifest = parse_manifest(f'SET_COMPONENT("{name}" mod.cpp)\n', "CMakeLists.txt")
    except ManifestSyntaxError:
        assert "\t" in name or name.splitlines() != [name]
        return
    cmap, _ = build_function_component_map(manifest.file_overrides, {"mod.cpp": ["a::go"]})
    loaded = load_component_map(dump_component_map(cmap, "x"), "map.tsv")
    assert loaded.function_to_component == {"a::go": name}


def test_a_map_component_holding_a_tab_names_its_line():
    with pytest.raises(MalformedMap, match=r"^map\.tsv:3: 'app::A::f1\\tAlpha\\tBeta' is not"):
        load_component_map("#version 1 mined=x\napp::B::g\tB\napp::A::f1\tAlpha\tBeta\n", "map.tsv")


def test_sibling_visit_order_does_not_matter(tmp_path):
    # same tree built twice with different creation order
    for order in (("aa", "zz"), ("zz", "aa")):
        root = tmp_path / f"tree-{order[0]}"
        root.mkdir()
        (root / "CMakeLists.txt").write_text('SET_COMPONENT("Root")\n')
        for name in order:
            sub = root / name
            sub.mkdir()
            (sub / "mod.cpp").write_text(f"fn {name}::go\n")
    map_a, _ = parse_component_manifests(tmp_path / "tree-aa")
    map_b, _ = parse_component_manifests(tmp_path / "tree-zz")
    assert map_a == map_b
