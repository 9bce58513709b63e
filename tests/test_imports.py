"""Every module of the package and of the test suite reads every name it
imports.

There is no linter in the test environment, so this parses each module
with `ast` and compares the names its imports bind with the names it
loads.  `from __future__` imports and the re-exports an `__init__.py`
lists in `__all__` are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "hardsplit").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def imported_names(tree):
    "Map each name an import binds to the line that binds it."
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def exported_names(tree):
    "The strings of a module-level `__all__ = [...]`."
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    if path.name == "__init__.py":
        read |= exported_names(tree)
    return sorted(
        "%s:%d %s" % (path.name, line, name)
        for name, line in imported_names(tree).items()
        if name not in read
    )


def test_the_scan_sees_every_module():
    names = {p.name for p in MODULES}
    assert {"__init__.py", "surgery.py", "test_imports.py"} <= names


def test_the_scan_finds_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os.path\nfrom typing import Iterable, NamedTuple as NT\n"
        "x: NT = os.sep\n"
    )
    assert unused_imports(mod) == ["mod.py:3 Iterable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_every_imported_name_is_read(path):
    assert unused_imports(path) == []
