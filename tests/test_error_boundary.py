"""The CLI's one error boundary, and the one way input files are read.

``main`` turns a ``UsageError`` into exit 1 and a ``KDetectorError`` or
``OSError`` into exit 2; any other exception is a bug and leaves ``main``
with its traceback. Files are read and written as UTF-8 whatever the
locale, and lines split at ``\\n`` only: ``str.splitlines`` is left to the
dump parser, whose canonical-match argument rests on it, and to the
manifest check that rejects a component name holding any line break.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest
from conftest import make_dump_text

from kdetector import cli

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kdetector"


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def _names(node: ast.expr | None) -> set[str]:
    """The exception types an ``except`` clause names."""
    if node is None:
        return {"<bare except>"}
    return {ast.unparse(elt) for elt in (node.elts if isinstance(node, ast.Tuple) else [node])}


def test_main_catches_only_usage_kdetector_and_os_errors():
    """The outer handlers name three types; any inner one re-raises as a
    usage error."""
    main = next(node for node in _tree("cli").body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    outer = next(node for node in main.body if isinstance(node, ast.Try))
    assert set().union(*(_names(h.type) for h in outer.handlers)) \
        == {"UsageError", "KDetectorError", "OSError"}
    inner = [node for node in ast.walk(main)
             if isinstance(node, ast.ExceptHandler) and node not in outer.handlers]
    assert all(ast.unparse(h.body[-1]).startswith("raise UsageError(") for h in inner)


def _text_mode(call: ast.Call) -> bool:
    """Whether an ``open``, ``.open``, ``.read_text`` or ``.write_text`` call
    opens a file as text; a mode that is not a literal counts as text."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("read_text", "write_text"):
        return isinstance(func, ast.Attribute)
    if name != "open" or (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                          and func.value.id == "os"):
        return False
    at = 1 if isinstance(func, ast.Name) else 0  # open(path, mode) or path.open(mode)
    mode = call.args[at] if len(call.args) > at else None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    return not (isinstance(mode, ast.Constant) and "b" in mode.value)


def test_every_text_file_is_opened_as_utf8():
    missing = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_tree(path.stem))
        if isinstance(node, ast.Call) and _text_mode(node)
        and not any(k.arg == "encoding" and isinstance(k.value, ast.Constant)
                    and k.value.value == "utf-8" for k in node.keywords)
    ]
    assert missing == []


def _splitlines_calls(module: str) -> list[str]:
    """The top-level function (or class) holding each ``splitlines`` call
    in a module."""
    tree = _tree(module)
    return [getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and node.attr == "splitlines"]


def test_splitlines_is_left_to_the_dump_parser_and_the_component_name_check():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"dump_parser"}
    assert {module: _splitlines_calls(module) for module in modules if _splitlines_calls(module)} \
        == {"knowledge_miner": ["_parse_manifest"]}


@pytest.mark.parametrize(
    "command,target,error",
    [("mine", "mine_tree", ValueError), ("stopwords", "derive_stop_words", KeyError)],
)
def test_a_bare_value_or_key_error_leaves_main_with_its_traceback(
    tmp_path, monkeypatch, command, target, error
):
    """A programming error inside a command is not reported as a data error."""
    def fail(*_, **__):
        raise error("a bug")

    monkeypatch.setattr(cli, target, fail)
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "a.dump").write_text(make_dump_text(["app::A::f1"]), encoding="utf-8")
    with pytest.raises(error, match="a bug"):
        cli.main([command, str(tmp_path / "in"), "--out", str(tmp_path / "out.tsv")])
    assert not (tmp_path / "out.tsv").exists()
