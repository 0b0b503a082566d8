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



# Definitions that nothing in the package uses, kept on purpose: a dense
# view of a Jacobian and the intrinsic matrix, for tests; the writer of the
# camera file that the package reads; and the target's id-to-point lookup.
KEPT_ON_PURPOSE = {"refine.BlockJacobian.toarray", "core_geom.CameraIntrinsics.matrix",
                   "fileio.write_camera_file", "core_geom.PlanarTarget.xy_for"}


def definitions(node, prefix):
    """(qualified name, name) of every function, method and class under an AST node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{child.name}", child.name
            yield from definitions(child, f"{prefix}.{child.name}")
        else:
            yield from definitions(child, prefix)


def named_names(path):
    """used_names of a file, and its string literals that are one identifier
    (the benchmark's tracer names its targets by string)."""
    return used_names(path) | {
        node.value for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.isidentifier()}


def test_every_definition_is_used():
    # A function, method or class earns its place by a use elsewhere in the
    # package or in the benchmark; commands are dispatched by name.
    paths = [path for path in (ROOT / "src" / "collimcal").glob("*.py")
             if path.name != "__init__.py"]
    used = set().union(*map(used_names, paths),
                       *map(named_names, (ROOT / "perfbench").glob("*.py")))
    dead = {qualified for path in paths
            for qualified, name in definitions(ast.parse(path.read_text()), path.stem)
            if not (name.startswith("__") and name.endswith("__"))
            and not name.startswith("cmd_") and name not in used}
    assert dead == KEPT_ON_PURPOSE


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def private_imports(source):
    """Private names that a package module's source takes from another package module.

    Both `from .module import _name` and `module._name` on a module bound by
    `from . import module` count.
    """
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("collimcal")):
            for alias in node.names:
                if is_private(alias.name):
                    found.append(f"{node.module or '.'}.{alias.name}")
                if node.module in (None, "collimcal"):
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and is_private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_imports_another_modules_private_names():
    assert private_imports("from .core_geom import _dlt, project\n"
                           "from . import errors as e\n"
                           "from . import __version__\n"
                           "e._hidden()\n") == ["core_geom._dlt", "e._hidden"]
    found = {path.name: names for path in (ROOT / "src" / "collimcal").glob("*.py")
             if (names := private_imports(path.read_text()))}
    assert not found
