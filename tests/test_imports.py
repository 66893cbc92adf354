"""No library module imports a name that it neither reads nor exports, and
no test module imports another: each slow reference lives in
``tests/oracle.py``, and a test module that imports another would hide a
second copy of one."""

import ast
from pathlib import Path

import pytest

import wavekernel

MODULES = sorted(Path(wavekernel.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports that no expression reads and
    ``__all__`` does not list; ``from __future__`` imports are exempt."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in read and name not in exported]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read_or_exported(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from .a import b, c as d\nfrom .e import f\n"
                     "__all__ = ['f']\nprint(d)\n")
    assert unused_imports(tree) == ["line 2: os", "line 3: b"]


def imported_test_modules(tree: ast.Module) -> list[str]:
    """The test modules, ``test_*`` at any depth of a dotted name, that the
    module's imports load, wherever in the module they stand."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # "from . import x" loads module x
            modules = [node.module] if node.module else [a.name for a in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {m}" for m in modules
                  if any(part.startswith("test_") for part in m.split("."))]
    return found


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_test_module_imports_another(path):
    assert imported_test_modules(ast.parse(path.read_text(), str(path))) == []


def test_an_imported_test_module_is_found():
    tree = ast.parse("import os, test_a\nfrom test_b import c\nfrom tests.test_c import d\n"
                     "from . import test_d\nfrom oracle import test_like, forecast\n"
                     "def f():\n    import test_e as e\n")
    assert imported_test_modules(tree) == ["line 1: test_a", "line 2: test_b",
                                           "line 3: tests.test_c", "line 4: test_d",
                                           "line 7: test_e"]
