"""Every module of the package reads each name it imports, and imports the
package's other modules at its top level only.

``__init__.py`` is left out of the first check: it imports names to
re-export them.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "skyway_delivery"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports, outside ``from __future__``, and never reads."""
    imported: list[str] = []
    read: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted(set(imported) - read)


def test_the_check_finds_an_unused_import():
    source = "import os, json.encoder\nfrom math import inf as INF, pi\nprint(pi, json)\n"
    assert unused_imports(source) == ["INF", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_a_module_reads_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def _imports_the_package(node: ast.AST) -> bool:
    if isinstance(node, ast.ImportFrom):
        return node.level > 0 or (node.module or "").partition(".")[0] == "skyway_delivery"
    return isinstance(node, ast.Import) and any(
        alias.name.partition(".")[0] == "skyway_delivery" for alias in node.names)


def deferred_sibling_imports(source: str) -> list[int]:
    """The lines where ``source`` imports a module of the package inside a
    function body or under ``if TYPE_CHECKING:``, which is how an import
    cycle between two modules is hidden."""
    lines: list[int] = []

    def visit(node: ast.AST, deferred: bool) -> None:
        if deferred and _imports_the_package(node):
            lines.append(node.lineno)
        deferred = deferred or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) or (
            isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test))
        for child in ast.iter_child_nodes(node):
            visit(child, deferred)

    visit(ast.parse(source), False)
    return lines


def test_the_check_finds_a_deferred_sibling_import():
    source = ("import typing\nfrom . import errors\n"
              "if typing.TYPE_CHECKING:\n    from .scenario import Scenario\n"
              "def f():\n    import skyway_delivery.graph\n    from json import dumps\n"
              "class C:\n    def g(self):\n        from .. import cli\n")
    assert deferred_sibling_imports(source) == [4, 6, 10]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_a_module_imports_its_siblings_at_the_top_level(module):
    assert deferred_sibling_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
