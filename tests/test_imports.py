"""Every module of the package and of the test suite reads every name it
imports, and every name the package defines is read somewhere.

There is no linter in the test environment, so this parses each module
with `ast` and compares the names its imports bind with the names it
loads.  `from __future__` imports and the re-exports an `__init__.py`
lists in `__all__` are exempt.  The second scan takes each top-level
function, class and constant and each method the package defines, and
looks for a load of that name, bare or as an attribute, in the package,
the tests, `bench/` or `scripts/`.  Dunder names are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "hardsplit").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def defined_names(tree):
    """Map each top-level function, class and constant, and each method,
    of a module to the line that defines it; dunders left out."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    out[sub.name] = sub.lineno
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                out.update((n.id, node.lineno) for n in ast.walk(t) if isinstance(n, ast.Name))
    return {k: v for k, v in out.items() if not (k.startswith("__") and k.endswith("__"))}


def loaded_names(tree):
    "The names a module loads, bare or as an attribute."
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
    return out


def unread_definitions(package, readers):
    "'module:line name' for each name defined in `package` that no reader loads."
    read = set()
    for path in readers:
        read |= loaded_names(ast.parse(path.read_text(), filename=str(path)))
    return sorted(
        "%s:%d %s" % (path.name, line, name)
        for path in package
        for name, line in defined_names(ast.parse(path.read_text(), filename=str(path))).items()
        if name not in read
    )


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


def test_the_scan_finds_an_unread_definition(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "__version__ = '1'\nLIMIT, _SPARE = 3, 4\n\n"
        "class Box:\n    def __init__(self):\n        self.n = LIMIT\n"
        "    def size(self):\n        return self.n\n    def unread(self):\n        pass\n\n"
        "def make():\n    return Box().size()\n"
    )
    user = tmp_path / "user.py"
    user.write_text("from mod import make\nmake()\n")
    assert unread_definitions([mod], [mod, user]) == ["mod.py:2 _SPARE", "mod.py:9 unread"]


def test_every_defined_name_is_read():
    readers = [p for d in ("src", "tests", "bench", "scripts") for p in (ROOT / d).rglob("*.py")]
    assert len(PACKAGE) > 10 and unread_definitions(PACKAGE, readers) == []
