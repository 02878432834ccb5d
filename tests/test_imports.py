"""Every name a module imports is used in it.

No linter runs here, so this walks the syntax tree of each package module
(the re-exports of ``__init__.py`` aside), each script and each test
module, and lists the imported names that nothing in the file reads.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([p for p in (ROOT / "src" / "epicdemo").glob("*.py") if p.name != "__init__.py"]
                 + list((ROOT / "scripts").glob("*.py")) + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os\n"
              "from typing import Any, List\nx: List = os.sep\n")
    assert unused_imports(source) == [(3, "Any")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
