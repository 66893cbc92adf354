"""No library module imports a name that it neither reads nor exports, and
no test module imports another: each slow reference lives in
``tests/oracle.py``, and a test module that imports another would hide a
second copy of one.  The benchmark's harness and tracer, read as source and
never imported, still find every library name they use."""

import ast
import importlib.util
import inspect
from pathlib import Path

import pytest

import wavekernel

MODULES = sorted(Path(wavekernel.__file__).parent.glob("*.py"))
TEST_MODULES = sorted(Path(__file__).parent.glob("*.py"))
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
# tracer.COUNTERS entries whose function the library has deleted: they count nothing
GONE = {"wavelet.forward_array", "intervals.draw_pseudo_blocks"}


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


def module_value(tree: ast.Module, name: str) -> ast.expr:
    """The expression assigned to ``name`` at the top level of the module."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)):
            return node.value
    raise AssertionError(f"{name} is not assigned at the top level")


def counter_reads(tree: ast.Module) -> dict[str, list[str]]:
    """Span name -> the names each ``COUNTERS`` lambda reads as ``a["name"]``
    from its first argument, the bound arguments of its function."""
    counters = module_value(tree, "COUNTERS")
    reads = {}
    for key, fn in zip(counters.keys, counters.values):
        arg = fn.args.args[0].arg
        reads[ast.literal_eval(key)] = sorted({
            node.slice.value for node in ast.walk(fn.body)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == arg and isinstance(node.slice, ast.Constant)})
    return reads


def test_a_counter_read_is_found():
    tree = ast.parse('COUNTERS = {"m.f": lambda a, r: a["x"] * len(r["y"]) + a["x"],\n'
                     '            "m.g": lambda b, r: int(b["plan"].B) if b["m"] else 0}\n')
    assert counter_reads(tree) == {"m.f": ["x"], "m.g": ["m", "plan"]}


@pytest.mark.parametrize("name", ["harness.py", "tracer.py"])
def test_benchmark_library_imports_resolve(name):
    tree = ast.parse((BENCHMARKS / name).read_text(), name)
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            missing += [a.name for a in node.names if a.name.split(".")[0] == "wavekernel"
                        and importlib.util.find_spec(a.name) is None]
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "wavekernel"):
            module = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names
                        if not hasattr(module, a.name)
                        and importlib.util.find_spec(f"{node.module}.{a.name}") is None]
    assert missing == []


def test_traced_layers_exist_and_export():
    tree = ast.parse((BENCHMARKS / "tracer.py").read_text(), "tracer.py")
    package = ast.literal_eval(module_value(tree, "PACKAGE"))
    for layer in ast.literal_eval(module_value(tree, "LAYERS")):
        assert isinstance(importlib.import_module(f"{package}.{layer}").__all__, list), layer


# a counter whose function was deleted or renamed, or whose argument was,
# reads 0 or raises inside every traced call; only GONE may be missing
def test_benchmark_counters_read_parameters_of_traced_functions():
    reads = counter_reads(ast.parse((BENCHMARKS / "tracer.py").read_text(), "tracer.py"))
    assert GONE <= reads.keys()
    for span, names in reads.items():
        if span in GONE:
            continue
        layer, name = span.split(".")
        module = importlib.import_module(f"wavekernel.{layer}")
        assert name in module.__all__, span
        params = inspect.signature(getattr(module, name)).parameters
        assert [n for n in names if n not in params] == [], span
