"""Every module of the package reads each name it imports.

``__init__.py`` is left out: it imports names to re-export them.
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
