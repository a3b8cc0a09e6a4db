"""Every import inside the package points down a fixed layer table.

The layers follow the model's chain: parsing and mined knowledge, then
stop words and sequencing, scoring, the failure store and detection,
training and evaluation, the synthetic corpus, and the CLI on top. A
module may import only modules from a lower layer; the package
``__init__`` re-exports the public names and is left out.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kdetector"

LAYERS = [
    {"errors"},
    {"dump_parser", "knowledge_miner"},
    {"stopwords", "sequencer"},
    {"similarity"},
    {"detector"},
    {"trainer"},
    {"synth"},
    {"cli"},
]
LAYER_OF = {module: rank for rank, layer in enumerate(LAYERS) for module in layer}


def relative_imports(module: str) -> set[str]:
    """Sibling modules a module imports with ``from .x import ...`` or
    ``from . import x``, at any depth of its code."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYER_OF)


def test_imports_point_down():
    upward = [
        f"{module} imports {target}"
        for module in LAYER_OF
        for target in sorted(relative_imports(module))
        if LAYER_OF[target] >= LAYER_OF[module]
    ]
    assert upward == []


def test_store_and_stop_words_stay_low():
    assert "trainer" not in relative_imports("detector")
    assert relative_imports("stopwords") == {"dump_parser", "errors"}
