"""The package's public names and source, the functions the traced benchmark
wraps, and the numbers the package's types take."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import collimcal
from collimcal import (
    CameraIntrinsics,
    Distortion,
    ObservationSet,
    PlanarTarget,
    RayDatabase,
    SphericalExtrinsics,
    SyntheticConfig,
    TargetGrid,
)

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


# NumPy names that NumPy 1.24, the floor pyproject.toml declares, lacks.
# Only a newer NumPy is installed to test with, so nothing else would catch one.
NUMPY_AFTER_FLOOR = {"vecdot", "matrix_transpose", "concat", "permute_dims", "unstack",
                     "astype", "isdtype", "bitwise_count", "trapezoid", "pow",
                     "cumulative_sum", "cumulative_prod", "matvec", "vecmat"}
LINALG_AFTER_FLOOR = {"vecdot", "matrix_norm", "vector_norm", "svdvals", "outer",
                      "diagonal", "trace", "cross"}


def numpy_after_floor(source):
    """The uses in `source` of NumPy names newer than the floor.

    These are np.<name> and np.linalg.<name> of the two sets above, the
    np.unique_* family, and the copy= keyword of np.asarray.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value)
            if (owner == "np" and (node.attr in NUMPY_AFTER_FLOOR
                                   or node.attr.startswith("unique_"))
                    or owner == "np.linalg" and node.attr in LINALG_AFTER_FLOOR):
                found.append(f"{owner}.{node.attr}")
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.asarray"
              and any(keyword.arg == "copy" for keyword in node.keywords)):
            found.append("np.asarray(copy=)")
    return sorted(found)


def test_numpy_floor_scan_flags_newer_names():
    source = ("import numpy as np\n"
              "a = np.vecdot(x, x) + np.linalg.vector_norm(x) + np.trace(x)\n"
              "b = np.unique_counts(x), np.asarray(x, copy=False), x.astype(float)\n"
              "c = np.linalg.norm(x), np.cross(x, x), np.linalg.cross(x, x)\n")
    assert numpy_after_floor(source) == ["np.asarray(copy=)", "np.linalg.cross",
                                         "np.linalg.vector_norm", "np.unique_counts",
                                         "np.vecdot"]


def test_package_uses_no_numpy_newer_than_its_floor():
    assert '"numpy>=1.24"' in (ROOT / "pyproject.toml").read_text()
    found = {path.name: names for path in (ROOT / "src" / "collimcal").glob("*.py")
             if (names := numpy_after_floor(path.read_text()))}
    assert not found


def float_casts(source, functions=None):
    """The parameters that the top-level functions of `source` take through
    np.asarray(<parameter>, dtype=float), as "function.parameter".

    Scans the functions named in `functions`, or every public one.
    """
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or (
                node.name not in functions if functions else node.name.startswith("_")):
            continue
        arguments = node.args
        parameters = {a.arg for a in arguments.posonlyargs + arguments.args
                      + arguments.kwonlyargs}
        for call in ast.walk(node):
            if (isinstance(call, ast.Call) and ast.unparse(call.func) == "np.asarray"
                    and call.args and isinstance(call.args[0], ast.Name)
                    and call.args[0].id in parameters
                    and any(keyword.arg == "dtype" and ast.unparse(keyword.value) == "float"
                            for keyword in call.keywords)):
                found.append(f"{node.name}.{call.args[0].id}")
    return sorted(found)


def test_float_cast_scan_flags_a_parameter():
    source = ("def f(a, *, b, c=None):\n"
              "    x = np.asarray(a, dtype=float) + np.asarray(c) + np.asarray(d, dtype=float)\n"
              "    return np.asarray(b, dtype=float)\n"
              "def _g(a):\n"
              "    return np.asarray(a, dtype=float)\n")
    assert float_casts(source) == ["f.a", "f.b"]
    assert float_casts(source, {"_g"}) == ["_g.a"]


def test_single_image_and_projection_arguments_take_the_number_rule():
    # Every argument array of these goes through core_geom.real_array, which
    # refuses a bool or a string by name; np.asarray(dtype=float) takes a
    # bool as 0 or 1.
    package = ROOT / "src" / "collimcal"
    found = (float_casts((package / "single_calib.py").read_text())
             + float_casts((package / "core_geom.py").read_text(),
                           {"project", "undistort_normalized"})
             + float_casts((package / "refine.py").read_text(),
                           {"single_image_problem", "single_image_ba"}))
    assert not found


SQUARE = [[0.0, 0.0], [30.0, 0.0], [0.0, 30.0], [30.0, 30.0]]


def valid_fields(kind):
    """Keyword arguments that build a valid `kind`."""
    target = PlanarTarget(ids=[0, 1, 2, 3], xy=SQUARE)
    return {
        CameraIntrinsics: dict(fx=1000.0, fy=990.0, cx=500.0, cy=400.0, gamma=0.0),
        Distortion: dict(d1=0.1, d2=-0.2),
        SphericalExtrinsics: dict(x=150.0, y=105.0, r=700.0, rotations=np.eye(3)[None]),
        PlanarTarget: dict(ids=[0, 1, 2, 3], xy=SQUARE),
        ObservationSet: dict(target=target, ids=[0, 1, 2, 3], uv=SQUARE, counts=[4]),
        RayDatabase: dict(ids=[0, 1, 2, 3], rays=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                                          [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]],
                          ref_intrinsics=CameraIntrinsics(1000.0, 1000.0, 500.0, 400.0),
                          ref_distortion=Distortion()),
        TargetGrid: dict(rows=8, cols=11, spacing=30.0),
        SyntheticConfig: {},
    }[kind]


# Every number field of the package's types, with the words that name it
# in an error.
NUMBER_FIELDS = [
    *((CameraIntrinsics, name, f"intrinsics {name}") for name in ("fx", "fy", "cx", "cy",
                                                                    "gamma")),
    (Distortion, "d1", "distortion d1"), (Distortion, "d2", "distortion d2"),
    *((SphericalExtrinsics, name, f"center {name}") for name in ("x", "y", "r")),
    (PlanarTarget, "ids", "target point ids"), (PlanarTarget, "xy", "target coordinates"),
    (ObservationSet, "ids", "ids"), (ObservationSet, "uv", "pixel coordinates"),
    (ObservationSet, "counts", "counts"),
    (RayDatabase, "ids", "database point ids"), (RayDatabase, "rays", "database rays"),
    *((TargetGrid, name, f"target {name}") for name in ("rows", "cols", "spacing")),
    *((SyntheticConfig, name, name) for name in (
        "radius", "target_offset", "pixel_noise_sigma", "spherical_noise_sigma",
        "image_count", "trial_count", "rng_seed", "image_size")),
]


def planted(value, bad):
    """`value`, a number or a (nested) list of them, with its first number set to `bad`."""
    if np.ndim(value) == 0:
        return bad
    value = np.asarray(value).tolist()
    entry = value
    while isinstance(entry[0], list):
        entry = entry[0]
    entry[0] = bad
    return value


@pytest.mark.parametrize("kind", sorted({kind for kind, _, _ in NUMBER_FIELDS},
                                        key=lambda kind: kind.__name__))
def test_valid_fields_build(kind):
    kind(**valid_fields(kind))


@pytest.mark.parametrize("bad", [True, "1", None, float("nan")],
                         ids=["bool", "string", "None", "nan"])
@pytest.mark.parametrize("kind, field, label", NUMBER_FIELDS,
                         ids=[f"{kind.__name__}.{field}" for kind, field, _ in NUMBER_FIELDS])
def test_every_number_field_refuses_a_non_number_by_name(kind, field, label, bad):
    # A list field gets the bad value as its first entry, nested or not.
    fields = valid_fields(kind)
    fields[field] = planted(fields[field] if field in fields
                            else getattr(kind(), field), bad)
    with pytest.raises(ValueError, match=re.escape(label)):
        kind(**fields)
