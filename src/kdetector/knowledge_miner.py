"""Mine Component-File and File-Function mappings from a source tree.

Build manifests are ``CMakeLists.txt`` files containing ``SET_COMPONENT``
directives. ``SET_COMPONENT("Name")`` assigns every file under the
manifest's directory (and, by inheritance, its sub-directories) to Name;
``SET_COMPONENT("Name" File1 File2)`` overrides individual files in the
manifest's own directory. Function names come from a lightweight scanner
over ``fn <qualified::name>`` declaration lines, optionally merged with a
precomputed ``file-path<TAB>qualified-name`` index so an external extractor
can plug in. Composing the two mappings yields Function -> Component.
"""

from __future__ import annotations

import datetime
import re
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .errors import MalformedMap, ManifestSyntaxError

MANIFEST_NAME = "CMakeLists.txt"
SOURCE_SUFFIXES = {".c", ".cc", ".cpp", ".cxx", ".h", ".hh", ".hpp"}

_DIRECTIVE_RE = re.compile(r"SET_COMPONENT\s*\(")
_DIRECTIVE_BODY_RE = re.compile(r'\s*"([^"]+)"\s*(.*)$', re.S)
_DECL_RE = re.compile(r"^\s*fn\s+(\S+)\s*$")
_QNAME_RE = re.compile(r"^~?[A-Za-z_][A-Za-z0-9_]*(?:::~?[A-Za-z_][A-Za-z0-9_]*)*$")


@dataclass
class ComponentManifest:
    """Directives found in one directory's manifest."""

    default_component: str | None
    file_overrides: dict[str, str]


@dataclass
class MiningReport:
    unmapped_files: list[str] = field(default_factory=list)
    skipped_lines: int = 0
    warnings: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class MapStats:
    functions: int
    components: int


@dataclass
class ComponentMap:
    """Function -> Component composition over a mined tree snapshot."""

    function_to_component: dict[str, str]

    @property
    def stats(self) -> MapStats:
        """Function and component counts, derived from the map itself."""
        mapping = self.function_to_component
        return MapStats(len(mapping), len(set(mapping.values())))

    def component_for(self, function_name: str) -> str | None:
        return self.function_to_component.get(function_name)


def _strip_comments(text: str) -> str:
    # '#' starts a comment unless inside a quoted string; line structure kept
    lines = []
    for line in text.splitlines():
        kept = []
        in_quote = False
        for ch in line:
            if ch == '"':
                in_quote = not in_quote
            if ch == "#" and not in_quote:
                break
            kept.append(ch)
        lines.append("".join(kept))
    return "\n".join(lines)


def parse_manifest(text: str, path: str = "") -> ComponentManifest:
    """Parse one manifest's SET_COMPONENT directives.

    Later directives win: a second default overwrites the first and a file
    named twice keeps its last component, each with a warning recorded by
    the tree-level miner. Raises ManifestSyntaxError with file and line on
    a directive that cannot be parsed or whose component name holds a tab
    or a line break, which the component map could not read back.
    """
    manifest, _ = _parse_manifest(text, path)
    return manifest


def _parse_manifest(text: str, path: str) -> tuple[ComponentManifest, list[str]]:
    stripped = _strip_comments(text)
    default: str | None = None
    overrides: dict[str, str] = {}
    warnings: list[str] = []
    for m in _DIRECTIVE_RE.finditer(stripped):
        line_no = stripped.count("\n", 0, m.start()) + 1
        close = _find_close(stripped, m.end())
        if close < 0:
            raise ManifestSyntaxError("unclosed SET_COMPONENT directive", path, line_no)
        body = _DIRECTIVE_BODY_RE.match(stripped[m.end():close])
        if body is None:
            raise ManifestSyntaxError(
                "SET_COMPONENT needs a quoted component name", path, line_no
            )
        name, rest = body.group(1), body.group(2)
        if "\t" in name or name.splitlines() != [name]:
            raise ManifestSyntaxError(
                f"component name {name!r} holds a tab or a line break", path, line_no
            )
        if '"' in rest:
            raise ManifestSyntaxError(
                "unexpected quoted token in SET_COMPONENT file list", path, line_no
            )
        files = rest.split()
        if not files:
            if default is not None:
                warnings.append(
                    f"{path}: multiple default SET_COMPONENT directives, last wins"
                )
            default = name
        else:
            for file_name in files:
                if file_name in overrides and overrides[file_name] != name:
                    warnings.append(
                        f"{path}: file {file_name} overridden more than once, last wins"
                    )
                overrides[file_name] = name
    return ComponentManifest(default, overrides), warnings


def _find_close(text: str, start: int) -> int:
    in_quote = False
    for i in range(start, len(text)):
        ch = text[i]
        if ch == '"':
            in_quote = not in_quote
        elif ch == ")" and not in_quote:
            return i
    return -1


def parse_component_manifests(
    root: Path | str,
) -> tuple[dict[str, str], MiningReport]:
    """Walk the tree breadth-first and assign every file to a component.

    A file takes its own directory's override if any, else the default of
    the nearest ancestor directory (including its own) that declares one.
    Files with neither are collected in the report, not errored.
    """
    root = Path(root)
    file_map: dict[str, str] = {}
    report = MiningReport()
    queue: deque[tuple[Path, str | None]] = deque([(root, None)])
    while queue:
        directory, inherited = queue.popleft()
        manifest = None
        manifest_path = directory / MANIFEST_NAME
        if manifest_path.is_file():
            rel = manifest_path.relative_to(root).as_posix()
            manifest, warnings = _parse_manifest(manifest_path.read_text(), rel)
            report.warnings.extend(warnings)
        default = manifest.default_component if manifest and manifest.default_component else inherited
        overrides = manifest.file_overrides if manifest else {}
        for entry in sorted(directory.iterdir(), key=lambda p: p.name):
            if entry.is_dir():
                queue.append((entry, default))
                continue
            if not entry.is_file() or entry.name == MANIFEST_NAME:
                continue
            rel = entry.relative_to(root).as_posix()
            component = overrides.get(entry.name, default)
            if component is None:
                report.unmapped_files.append(rel)
            else:
                file_map[rel] = component
    return file_map, report


def scan_declarations(source: str) -> tuple[list[str], int]:
    """All declared qualified names in a file, deduplicated, order kept,
    and the number of lines that could not be parsed."""
    names: list[str] = []
    seen: set[str] = set()
    skipped = 0
    for line in source.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith(("//", "#")):
            continue
        m = _DECL_RE.match(line)
        if m is None or not _QNAME_RE.match(m.group(1)):
            skipped += 1
            continue
        name = m.group(1)
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names, skipped


def load_function_index(text: str) -> tuple[dict[str, list[str]], int]:
    """Parse ``file-path<TAB>qualified-name`` records into per-file lists."""
    by_file: dict[str, list[str]] = {}
    skipped = 0
    for line in text.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not _QNAME_RE.match(parts[1].strip()):
            skipped += 1
            continue
        path, name = parts[0].strip(), parts[1].strip()
        names = by_file.setdefault(path, [])
        if name not in names:
            names.append(name)
    return by_file, skipped


def build_function_component_map(
    file_to_component: dict[str, str],
    functions_by_file: dict[str, list[str]],
) -> tuple[ComponentMap, list[str]]:
    """Compose the two mappings into Function -> Component.

    A function declared in several files keeps the component of the
    lexicographically smallest file path; a conflicting assignment is
    reported as a warning, a consistent repeat is silent.
    """
    function_map: dict[str, str] = {}
    owner: dict[str, str] = {}
    warnings: list[str] = []
    for path in sorted(functions_by_file):
        component = file_to_component.get(path)
        if component is None:
            continue
        for name in functions_by_file[path]:
            if name not in function_map:
                function_map[name] = component
                owner[name] = path
            elif function_map[name] != component:
                warnings.append(
                    f"function {name} in {path} -> {component} conflicts with "
                    f"{owner[name]} -> {function_map[name]}; keeping the latter"
                )
    return ComponentMap(function_map), warnings


def mine_tree(
    root: Path | str, index_text: str | None = None
) -> tuple[ComponentMap, MiningReport]:
    """Full mining pass: manifests, declarations, optional index, compose."""
    root = Path(root)
    file_map, report = parse_component_manifests(root)
    functions_by_file: dict[str, list[str]] = {}
    for rel in file_map:
        if Path(rel).suffix not in SOURCE_SUFFIXES:
            continue
        names, skipped = scan_declarations((root / rel).read_text())
        report.skipped_lines += skipped
        if names:
            functions_by_file[rel] = names
    if index_text is not None:
        indexed, skipped = load_function_index(index_text)
        report.skipped_lines += skipped
        for path, names in indexed.items():
            merged = functions_by_file.setdefault(path, [])
            for name in names:
                if name not in merged:
                    merged.append(name)
    cmap, warnings = build_function_component_map(file_map, functions_by_file)
    report.warnings.extend(warnings)
    return cmap, report


def snapshot_stamp(root: Path | str) -> str:
    """Mining timestamp for a tree: its latest file mtime, UTC.

    Derived from tree state, not the wall clock, so re-mining an unchanged
    tree writes a byte-identical snapshot.
    """
    root = Path(root)
    latest = max(
        (p.stat().st_mtime for p in root.rglob("*") if p.is_file()),
        default=0.0,
    )
    stamp = datetime.datetime.fromtimestamp(int(latest), tz=datetime.timezone.utc)
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


def dump_component_map(cmap: ComponentMap, mined_at: str) -> str:
    lines = [f"#version 1 mined={mined_at}"]
    for name in sorted(cmap.function_to_component):
        lines.append(f"{name}\t{cmap.function_to_component[name]}")
    return "\n".join(lines) + "\n"


def load_component_map(text: str, path: str = "component map") -> ComponentMap:
    """Read a snapshot back; file-level provenance is not persisted.

    Raises ``MalformedMap`` naming ``path`` and the line when a line has no
    tab, an empty side, or a component holding a tab.
    """
    function_map: dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        name, _, component = line.partition("\t")
        if not (name and component) or "\t" in component:
            raise MalformedMap(f"{path}:{number}: {line!r} is not function<TAB>component")
        function_map[name] = component
    return ComponentMap(function_map)
