"""Every name a module imports is used in it, and every function and
class of the package has a reader.

No linter runs here, so this walks the syntax tree of each package module
(the re-exports of ``__init__.py`` aside), each script and each test
module, and lists the imported names that nothing in the file reads; and
it lists the package's definitions whose name occurs nowhere in the
package, the scripts or the benchmark but in their own definition.
"""

import ast
import collections
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([p for p in (ROOT / "src" / "epicdemo").glob("*.py") if p.name != "__init__.py"]
                 + list((ROOT / "scripts").glob("*.py")) + list((ROOT / "tests").glob("*.py")))
PACKAGE = sorted((ROOT / "src" / "epicdemo").glob("*.py"))
READERS = PACKAGE + sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


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


class _NoDocstrings(ast.NodeTransformer):
    """Drops every statement that is a bare string, docstrings among them."""

    def visit_Expr(self, node):
        if isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            return None
        return node


def code_text(source: str) -> str:
    """The source without its comments and docstrings.  Other strings stay,
    and so do the expressions inside f-strings."""
    return ast.unparse(_NoDocstrings().visit(ast.parse(source)))


def unread_definitions(package: list, readers: list) -> list:
    """The functions and classes defined in the ``package`` sources,
    dunders aside, whose name occurs in the ``readers`` code (comments and
    docstrings aside) no more often than it is defined there.  A name
    exported from ``__init__.py`` occurs in its import list, and a name
    spelled in a string occurs there too, so both count as read."""
    defined = collections.Counter(
        node.name for source in package for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("__"))
    words = collections.Counter(re.findall(r"\w+", "\n".join(map(code_text, readers))))
    return sorted(name for name, count in defined.items() if words[name] <= count)


def test_finds_a_definition_without_a_reader():
    module = ("class Kept:\n    def act(self): ...\n    def __eq__(self, o): ...\n"
              "def helper(): ...\ndef orphan(): ...\n"
              "def shown(): ...\ndef named(): ...\ndef documented(): ...\n")
    reader = ("Kept().act()\nhelper()\nprint(f'{shown()}')\ngetattr(m, 'named')\n"
              'def f():\n    """Not documented() in code."""\n    # nor documented() here\n')
    assert unread_definitions([module], [module, reader]) == ["documented", "orphan"]


def test_every_package_definition_has_a_reader():
    texts = [p.read_text(encoding="utf-8") for p in READERS]
    assert unread_definitions(texts[:len(PACKAGE)], texts) == []
