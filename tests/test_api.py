"""The package's public names and the functions the traced benchmark wraps."""

import ast
import importlib
import re
from pathlib import Path

import collimcal

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_public_names_resolve():
    for name in collimcal.__all__:
        assert hasattr(collimcal, name), name


def traced_targets():
    """The TARGETS table of the benchmark's tracer, read without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "TARGETS" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS table")


def test_traced_functions_exist():
    targets = traced_targets()
    assert targets
    for module_name, functions in targets.items():
        module = importlib.import_module(f"collimcal.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def used_names(path):
    """The names a Python file uses, as opposed to defines: reads, attributes and imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_public_names_are_used():
    # A public name earns its place by a use in the package itself, in the
    # benchmark or in the README; one that only tests reach belongs in tests/.
    used = set().union(*(used_names(path) for path in (ROOT / "src" / "collimcal").glob("*.py")
                         if path.name != "__init__.py"))
    text = "\n".join(path.read_text() for path in [ROOT / "README.md",
                                                   *(ROOT / "perfbench").glob("*.py")])
    unused = [name for name in collimcal.__all__
              if name not in used and not re.search(rf"\b{name}\b", text)]
    assert not unused
