"""The package's public names and source, the functions the traced benchmark
wraps, and the numbers the package's types and functions take."""

import ast
import functools
import importlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import collimcal
from collimcal import core_geom, errors, multi_solver, refine, single_calib
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
from collimcal.fileio import GroundTruth

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


def test_a_traced_monte_carlo_run_enters_the_closed_form(monkeypatch):
    # The traced `mc_init` and `mc_ba` runs read
    # multi_solver.solve_closed_form.self_ms, which is measured only where
    # decompose_homography, a traced target too, is called inside
    # solve_closed_form; a stacked start that went round the public function
    # ended the traced run on a metric that was not measured.  The targets
    # are wrapped as the tracer wraps them: by name, in every module that
    # binds them.
    for module_name in traced_targets():
        importlib.import_module(f"collimcal.{module_name}")
    modules = [module for name, module in sys.modules.items()
               if name == "collimcal" or name.startswith("collimcal.")]
    open_calls, entered = [], []

    def wrapped(name, function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            entered.append((name, tuple(open_calls)))
            open_calls.append(name)
            try:
                return function(*args, **kwargs)
            finally:
                open_calls.pop()
        return wrapper

    for module_name, functions in traced_targets().items():
        home = sys.modules[f"collimcal.{module_name}"]
        for name in functions:
            original = getattr(home, name)
            wrapper = wrapped(f"{module_name}.{name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, wrapper)
    synth = sys.modules["collimcal.synth"]
    config = synth.default_config(pixel_noise_sigma=0.5, trial_count=2)
    (stats,) = synth.run_monte_carlo(config, "noise", [0.5], arms=("ours",), workers=1)
    assert stats.fail_count == 0
    assert ("multi_solver.solve_closed_form", ()) in entered
    assert any(name == "core_geom.decompose_homography"
               and "multi_solver.solve_closed_form" in outer for name, outer in entered)


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



# Definitions that nothing in the package uses, kept on purpose for tests:
# a dense view of a Jacobian and the intrinsic matrix.
KEPT_ON_PURPOSE = {"refine.BlockJacobian.toarray", "core_geom.CameraIntrinsics.matrix"}


def definitions(node, prefix):
    """(qualified name, node) of every function, method and class under an AST node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{child.name}", child
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
            for qualified, node in definitions(ast.parse(path.read_text()), path.stem)
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and not node.name.startswith("cmd_") and node.name not in used}
    assert dead == KEPT_ON_PURPOSE


def defaulted_parameters(source, module):
    """(qualified name, parameter, position) of every parameter with a default
    of the functions and methods of `source`; position is the parameter's
    index among a call's positional arguments, None for a keyword-only one.

    A method's call passes no `self`, and a class is called for its
    `__init__`, so those are named by the class.
    """
    found = []
    defined = list(definitions(ast.parse(source), module))
    classes = {name for name, node in defined if isinstance(node, ast.ClassDef)}
    for name, node in defined:
        if isinstance(node, ast.ClassDef):
            continue
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        method = name.rsplit(".", 1)[0] in classes and not any(
            ast.unparse(decorator) == "staticmethod" for decorator in node.decorator_list)
        if method and node.name == "__init__":
            name = name.rsplit(".", 1)[0]
        skip = 1 if method else 0
        defaulted = positional[len(positional) - len(arguments.defaults):]
        found += [(name, a.arg, positional.index(a) - skip) for a in defaulted]
        found += [(name, a.arg, None) for a, default in zip(arguments.kwonlyargs,
                                                             arguments.kw_defaults)
                  if default is not None]
    return found


def passed_arguments(source):
    """Per called name (a function or an attribute), the calls of `source`:
    (positional count, keyword names), with None for both when a call
    unpacks *args or **kwargs, which may pass every parameter."""
    calls = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            callee = getattr(node.func, "id", None) or node.func.attr
            unpacked = (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords))
            calls.setdefault(callee, []).append(
                (None, None) if unpacked else (len(node.args), {k.arg for k in node.keywords}))
    return calls


def unpassed_options(sources, callers):
    """The defaulted parameters of the `sources` (module stem: text) that no
    call in `callers` (texts) passes, by keyword or by position."""
    calls = {}
    for source in callers:
        for callee, found in passed_arguments(source).items():
            calls.setdefault(callee, []).extend(found)
    return sorted(f"{name}({parameter}=)"
                  for module, source in sources.items()
                  for name, parameter, position in defaulted_parameters(source, module)
                  if not any(count is None or parameter in keywords
                             or position is not None and position < count
                             for count, keywords in calls.get(name.rsplit(".", 1)[1], [])))


def test_unpassed_option_scan_flags_an_option_only_tests_set():
    source = ("def f(a, b=1, *, c=None, d=2):\n    pass\n"
              "class C:\n"
              "    def __init__(self, x=0):\n        pass\n"
              "    def method(self, y=0, z=1):\n        pass\n"
              "    @staticmethod\n"
              "    def helper(w=0):\n        pass\n"
              "def g():\n"
              "    def inner(u, v=0):\n        pass\n")
    callers = ["f(1, 2, c=3)\nC()\nobj.method(5)\nC.helper(**options)\ninner(1)\n"]
    assert unpassed_options({"m": source}, callers) == [
        "m.C(x=)", "m.C.method(z=)", "m.f(d=)", "m.g.inner(v=)"]


def test_every_option_is_passed_outside_the_tests():
    # A parameter with a default earns its place by a call in the package,
    # the benchmark or the tools that passes it; one that only tests set is
    # a path that nothing runs.
    sources = {path.stem: path.read_text() for path in (ROOT / "src" / "collimcal").glob("*.py")}
    callers = [path.read_text() for directory in ("src", "perfbench", "tools")
               for path in (ROOT / directory).rglob("*.py")
               if not path.name.startswith("test_")]
    assert unpassed_options(sources, callers) == []


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


# The one outcome rule of stacked calls: `errors.attempt` stores a caught
# CalibrationError, `refine._lockstep` stores a run's, and `core_geom.stacked`
# alone reads the group size.
OUTCOME_RULE = {"handler": ("errors.attempt", "refine._lockstep"),
                "_STACK_SIZE": ("core_geom.stacked",)}


def catches_calibration_error(handler):
    """Whether an except handler names CalibrationError or one of its subclasses."""
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    kinds = [getattr(errors, ast.unparse(kind).split(".")[-1], None)
             for kind in caught if kind is not None]
    return any(isinstance(kind, type) and issubclass(kind, errors.CalibrationError)
               for kind in kinds)


def only_stores(handler):
    """Whether an except handler's body only assigns, appends or returns the caught name."""
    def stored(statement):
        value = getattr(statement, "value", None)
        if (isinstance(statement, ast.Expr) and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute) and value.func.attr == "append"):
            value = value.args[0] if len(value.args) == 1 else None
        elif not isinstance(statement, (ast.Assign, ast.Return)):
            return False
        return isinstance(value, ast.Name) and value.id == handler.name
    return handler.name is not None and all(map(stored, handler.body))


def outcome_rule_copies(source, module):
    """Copies in `source` of the outcome rule, as "<function>: <what>": an
    `except ... CalibrationError as exc` handler (or one of a subclass)
    whose body only stores exc, and a read of _STACK_SIZE, each outside the
    functions OUTCOME_RULE names (a nested function counts as the one that
    encloses it)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = (f"{owner}.{child.name}" if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else owner)
            if isinstance(child, ast.ExceptHandler) and catches_calibration_error(child) \
                    and only_stores(child):
                what = "handler"
            elif (isinstance(child, ast.Name) and child.id == "_STACK_SIZE"
                  or isinstance(child, ast.Attribute) and child.attr == "_STACK_SIZE") \
                    and isinstance(child.ctx, ast.Load):
                what = "_STACK_SIZE"
            else:
                what = None
            if what and not any(inner == kept or inner.startswith(kept + ".")
                                for kept in OUTCOME_RULE[what]):
                found.append(f"{inner}: {what}")
            visit(child, inner)

    visit(ast.parse(source), module)
    return sorted(found)


def test_outcome_rule_scan_flags_a_copy():
    source = ("def attempt(fn):\n"
              "    try:\n        return fn()\n"
              "    except CalibrationError as exc:\n        return exc\n"
              "def stacked(items):\n    return items[:_STACK_SIZE]\n"
              "def solve_all(items, out):\n"
              "    for k, item in enumerate(items):\n"
              "        try:\n            out[k] = solve(item)\n"
              "        except errors.CalibrationError as exc:\n            out[k] = exc\n"
              "        try:\n            out.append(solve(item))\n"
              "        except (ValueError, errors.DegenerateConfiguration) as exc:\n"
              "            out.append(exc)\n"
              "        except errors.CalibrationError as exc:\n"
              "            raise Failed(exc) from exc\n"
              "        except errors.CalibrationError:\n            cost = inf\n"
              "        except ValueError as exc:\n            out[k] = exc\n"
              "    return core_geom._STACK_SIZE\n"
              "_STACK_SIZE = 8\n")
    assert outcome_rule_copies(source, "errors") == [
        "errors.solve_all: _STACK_SIZE", "errors.solve_all: handler",
        "errors.solve_all: handler", "errors.stacked: _STACK_SIZE"]
    assert outcome_rule_copies(source, "core_geom") == [
        "core_geom.attempt: handler", "core_geom.solve_all: _STACK_SIZE",
        "core_geom.solve_all: handler", "core_geom.solve_all: handler"]


def test_stacked_calls_keep_one_outcome_rule():
    # Every stacked call groups through core_geom.stacked and stores an
    # error through errors.attempt, rather than a loop of its own.
    found = {path.name: copies for path in (ROOT / "src" / "collimcal").glob("*.py")
             if (copies := outcome_rule_copies(path.read_text(), path.stem))}
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


def float_casts(source, module):
    """The parameters that the functions and methods of `source`, private and
    nested ones too, take through np.asarray or np.array with dtype=float, of
    the parameter itself or of an attribute of it (<parameter>.<attribute>),
    as "module.qualified name.parameter"."""
    found = []
    for name, node in definitions(ast.parse(source), module):
        if isinstance(node, ast.ClassDef):
            continue
        arguments = node.args
        parameters = {a.arg for a in arguments.posonlyargs + arguments.args
                      + arguments.kwonlyargs}
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call)
                    and ast.unparse(call.func) in ("np.asarray", "np.array") and call.args
                    and any(keyword.arg == "dtype" and ast.unparse(keyword.value) == "float"
                            for keyword in call.keywords)):
                continue
            cast = call.args[0]
            if isinstance(cast, ast.Attribute):
                cast = cast.value
            if isinstance(cast, ast.Name) and cast.id in parameters:
                found.append(f"{name}.{cast.id}")
    return sorted(found)


def test_float_cast_scan_flags_a_parameter():
    source = ("def f(a, *, b, c=None):\n"
              "    x = np.asarray(a, dtype=float) + np.asarray(c) + np.asarray(d, dtype=float)\n"
              "    return np.asarray(b, dtype=float)\n"
              "def _g(a):\n"
              "    return np.asarray(a, dtype=float)\n"
              "class C:\n"
              "    def method(self, a, b):\n"
              "        return np.array(a, dtype=float) + np.array(b)\n"
              "def h(a, b, c):\n"
              "    x = np.asarray(a.rotations, dtype=float) + np.asarray(c.t, dtype=int)\n"
              "    return x + np.array(b.t_cp, dtype=float) + np.asarray(d.t, dtype=float)\n")
    assert float_casts(source, "m") == ["m.C.method.a", "m._g.a", "m.f.a", "m.f.b",
                                        "m.h.a", "m.h.b"]


def test_every_array_argument_takes_the_number_rule():
    # Every function and method of the package takes an array from its caller
    # through core_geom.real_array, which refuses a bool or a string by name;
    # a cast with dtype=float takes a bool as 0 or 1.
    found = [cast for path in (ROOT / "src" / "collimcal").glob("*.py")
             for cast in float_casts(path.read_text(), path.stem)]
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
        GroundTruth: dict(intrinsics=CameraIntrinsics(1000.0, 1000.0, 500.0, 400.0),
                          distortion=Distortion(), t_cp=[150.0, 105.0, -700.0],
                          rotations=[[0.1, 0.2, 0.3], [0.0, -0.1, 0.2]]),
    }[kind]


# Every number field of the package's types, with the words that name it
# in an error.
NUMBER_FIELDS = [
    *((CameraIntrinsics, name, f"intrinsics {name}") for name in ("fx", "fy", "cx", "cy",
                                                                    "gamma")),
    (Distortion, "d1", "distortion d1"), (Distortion, "d2", "distortion d2"),
    *((SphericalExtrinsics, name, f"center {name}") for name in ("x", "y", "r")),
    (SphericalExtrinsics, "rotations", "rotations"),
    (PlanarTarget, "ids", "target point ids"), (PlanarTarget, "xy", "target coordinates"),
    (ObservationSet, "ids", "ids"), (ObservationSet, "uv", "pixel coordinates"),
    (ObservationSet, "counts", "counts"),
    (RayDatabase, "ids", "database point ids"), (RayDatabase, "rays", "database rays"),
    *((TargetGrid, name, f"target {name}") for name in ("rows", "cols", "spacing")),
    *((SyntheticConfig, name, name) for name in (
        "radius", "target_offset", "pixel_noise_sigma", "spherical_noise_sigma",
        "image_count", "trial_count", "rng_seed", "image_size")),
    (GroundTruth, "t_cp", "ground truth t_cp"),
    (GroundTruth, "rotations", "ground truth rotations"),
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


@pytest.mark.parametrize("field, value, rule", [
    ("t_cp", [150.0, 105.0], r"have shape \(3,\), got \(2,\)$"),
    ("t_cp", [[150.0, 105.0, -700.0]], r"have shape \(3,\), got \(1, 3\)$"),
    ("rotations", [[0.1, 0.2], [0.0, -0.1]], r"have shape \(N, 3\), got \(2, 2\)$"),
    ("rotations", [0.1, 0.2, 0.3], r"have shape \(N, 3\), got \(3,\)$"),
    ("rotations", [[0.1], [0.2, 0.3]], "be a rectangular array"),
], ids=["t_cp-2", "t_cp-2d", "rotations-pairs", "rotations-flat", "rotations-ragged"])
def test_ground_truth_refuses_a_wrong_shape_by_name(field, value, rule):
    # The type checks its own shapes, so `simulate`, the file reader and a
    # library caller all get the same error.
    fields = valid_fields(GroundTruth)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^ground truth {field} must {rule}"):
        GroundTruth(**fields)


def test_ground_truth_without_rotations_builds():
    assert GroundTruth(**{**valid_fields(GroundTruth), "rotations": None}).rotations is None


K = CameraIntrinsics(**valid_fields(CameraIntrinsics))

# Eight pixels in general position, their unit rays through K, and a
# stack of four identities.
PIXELS = np.column_stack([500.0 + 10.0 * np.arange(8), 400.0 + 3.0 * np.arange(8) ** 2])
RAYS = np.column_stack([(PIXELS - [500.0, 400.0]) / 1000.0, np.ones(8)])
RAYS /= np.linalg.norm(RAYS, axis=1, keepdims=True)
STACK = np.repeat(np.eye(3)[None], 4, axis=0)


def with_field(kind, name):
    """A call that builds a valid `kind` with its field `name` set to the argument."""
    return lambda value: kind(**{**valid_fields(kind), name: value})


def assert_shape_taken(call, value):
    """`call` takes `value`: it may fail on something else, but not on its shape."""
    try:
        call(value)
    except Exception as exc:
        assert "must have shape" not in str(exc)


# Every array argument that the one shape and number rule checks: the name
# its error gives, a value of the right shape, and a call that takes it.
SHAPED_ARGUMENTS = {
    "ObservationSet.uv": ("pixel coordinates", SQUARE, with_field(ObservationSet, "uv")),
    "PlanarTarget.xy": ("target coordinates", SQUARE, with_field(PlanarTarget, "xy")),
    "RayDatabase.rays": ("database rays", RAYS[:4], with_field(RayDatabase, "rays")),
    "GroundTruth.t_cp": ("ground truth t_cp", [150.0, 105.0, -700.0],
                         with_field(GroundTruth, "t_cp")),
    "GroundTruth.rotations": ("ground truth rotations", [[0.1, 0.2, 0.3], [0.0, -0.1, 0.2]],
                              with_field(GroundTruth, "rotations")),
    "CameraIntrinsics.from_matrix": ("intrinsic matrix", K.matrix,
                                     CameraIntrinsics.from_matrix),
    "checked_rotations": ("rotations", STACK, core_geom.checked_rotations),
    "skew": ("v", RAYS, core_geom.skew),
    "nearest_rotation": ("M", STACK, core_geom.nearest_rotation),
    "rotation_matrix_from_axis_angle": ("v", RAYS, core_geom.rotation_matrix_from_axis_angle),
    "axis_angle_from_rotation_matrix": ("R", STACK, core_geom.axis_angle_from_rotation_matrix),
    "project-points": ("points", RAYS * 700.0, lambda points: core_geom.project(
        K, Distortion(), np.eye(3), np.zeros(3), points)),
    "project-R": ("R", np.eye(3), lambda R: core_geom.project(
        K, Distortion(), R, np.zeros(3), RAYS)),
    "project-t": ("t", np.zeros(3), lambda t: core_geom.project(
        K, Distortion(), np.eye(3), t, RAYS)),
    "project-one-point": ("points", RAYS[0], lambda point: core_geom.project(
        K, Distortion(), np.eye(3), np.zeros(3), point)),
    "back_project": ("pixels", PIXELS, lambda pixels: core_geom.back_project(
        K, Distortion(), pixels)),
    "back_project-one-pixel": ("pixels", PIXELS[0], lambda pixel: core_geom.back_project(
        K, Distortion(), pixel)),
    "undistort_normalized": ("xy_distorted", PIXELS / 1000.0, lambda xy: (
        core_geom.undistort_normalized(Distortion(0.1, 0.0), xy))),
    "estimate_homography-target": ("target_xy", PIXELS, lambda xy: (
        core_geom.estimate_homography(xy, PIXELS))),
    "estimate_homography-pixels": ("pixels_uv", PIXELS, lambda uv: (
        core_geom.estimate_homography(PIXELS, uv))),
    "decompose_homography": ("homographies", STACK, lambda H: (
        core_geom.decompose_homography(H, K))),
    "conic_rows": ("H", STACK, multi_solver.conic_rows),
    "build_linear_system": ("H", STACK, multi_solver.build_linear_system),
    "decompose_iac": ("q", [1.0, 0.0, 0.0, 1.0, 0.0, 1.0], multi_solver.decompose_iac),
    "general_problem": ("translations", [[0.0, 0.0, 700.0]], lambda t: (
        refine.general_problem(ObservationSet(**valid_fields(ObservationSet)),
                               (K, Distortion(), (np.eye(3)[None], t))))),
    "general_problem-rotations": ("rotations", STACK[:1], lambda R: (
        refine.general_problem(ObservationSet(**valid_fields(ObservationSet)),
                               (K, Distortion(), (R, [[0.0, 0.0, 700.0]]))))),
    "single_image_problem": ("rays", RAYS, lambda rays: refine.single_image_problem(
        rays, PIXELS, (K, Distortion(), np.eye(3)))),
    "single_image_problem-pixels": ("pixels", PIXELS, lambda pixels: (
        refine.single_image_problem(RAYS, pixels, (K, Distortion(), np.eye(3))))),
    "single_image_ba": ("rays", RAYS, lambda rays: refine.single_image_ba(
        rays, PIXELS, (K, Distortion(), np.eye(3)))),
    "build_ray_database": ("reference pixels", PIXELS, lambda pixels: (
        single_calib.build_ray_database(np.arange(8), pixels, K, Distortion()))),
    "select_pairs": ("rays", RAYS, single_calib.select_pairs),
    "init_focal_quartic": ("pixels", PIXELS, lambda pixels: single_calib.init_focal_quartic(
        pixels, single_calib.select_pairs(RAYS), (1000, 800))),
    "refine_intrinsics_angle": ("pixels", PIXELS, lambda pixels: (
        single_calib.refine_intrinsics_angle(pixels, single_calib.select_pairs(RAYS), K))),
    "estimate_rotation_kabsch-calib": ("calib_rays", RAYS, lambda rays: (
        single_calib.estimate_rotation_kabsch(rays, RAYS))),
    "estimate_rotation_kabsch-db": ("db_rays", RAYS, lambda rays: (
        single_calib.estimate_rotation_kabsch(RAYS, rays))),
    "calibrate_single_image": ("calibration pixels", PIXELS, lambda pixels: (
        single_calib.calibrate_single_image(np.arange(8), pixels,
                                            RayDatabase(**valid_fields(RayDatabase)),
                                            image_size=(1000, 800)))),
}

# Each argument transposed, where that changes its shape, and one entry short
# on its last axis, which a function of (..., 3) or (..., 3, 3) must refuse too.
MISSHAPEN = [(entry, case) for entry, (_, value, _) in SHAPED_ARGUMENTS.items()
             for case in ("transposed", "short")
             if case == "short" or np.shape(value)[::-1] != np.shape(value)]


@pytest.mark.parametrize("entry, case", MISSHAPEN,
                         ids=[f"{entry}-{case}" for entry, case in MISSHAPEN])
def test_every_array_argument_refuses_a_wrong_shape_by_name(entry, case):
    # Each used to be reshaped to what the function wanted, which scrambles a
    # transposed array's entries, or to fail in numpy without a name.
    name, value, call = SHAPED_ARGUMENTS[entry]
    assert_shape_taken(call, value)
    value = np.asarray(value)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must have shape "):
        call(value.T if case == "transposed" else value[..., :-1])


@pytest.mark.parametrize("bad", [True, "a"], ids=["bool", "string"])
@pytest.mark.parametrize("entry", sorted(SHAPED_ARGUMENTS))
def test_every_array_argument_refuses_a_non_number_by_name(entry, bad):
    # A bool used to be read as 0 or 1 (a start rotation of True entries was
    # the identity, and CameraIntrinsics.from_matrix gave fx = 1), and a
    # string raised numpy's own conversion error without naming the argument.
    name, value, call = SHAPED_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be real numbers"):
        call(planted(value, bad))


# The fields and the rotation stack that core_geom.finite_array takes: the
# name its error gives, a valid value and a call that takes it.  The solvers'
# arguments it takes have tests of their own (nearest_rotation,
# estimate_homography, decompose_homography, estimate_rotation_kabsch).
FINITE_ARGUMENTS = {
    **{entry: SHAPED_ARGUMENTS[entry] for entry in (
        "PlanarTarget.xy", "RayDatabase.rays", "GroundTruth.t_cp", "GroundTruth.rotations",
        "checked_rotations")},
    "SyntheticConfig.target_offset": ("target_offset", (150.0, 105.0),
                                      with_field(SyntheticConfig, "target_offset")),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", sorted(FINITE_ARGUMENTS))
def test_every_finite_argument_refuses_a_non_finite_entry_by_name(entry, bad):
    # A NaN database ray used to be refused only as not of unit norm.
    name, value, call = FINITE_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite$"):
        call(planted(value, bad))


# Every id and count argument, which must be one-dimensional (N,): the name
# its error gives, a valid value and a call that takes it.
INTEGER_ARGUMENTS = {
    "PlanarTarget.ids": ("target point ids", [0, 1, 2, 3], with_field(PlanarTarget, "ids")),
    "ObservationSet.ids": ("ids", [0, 1, 2, 3], with_field(ObservationSet, "ids")),
    "ObservationSet.counts": ("counts", [4], with_field(ObservationSet, "counts")),
    "RayDatabase.ids": ("database point ids", [0, 1, 2, 3], with_field(RayDatabase, "ids")),
    "RayDatabase.match": ("matched point ids", [1, 3],
                          RayDatabase(**valid_fields(RayDatabase)).match),
    "build_ray_database": ("reference point ids", np.arange(8), lambda ids: (
        single_calib.build_ray_database(ids, PIXELS, K, Distortion()))),
    "calibrate_single_image": ("calibration point ids", np.arange(8), lambda ids: (
        single_calib.calibrate_single_image(ids, PIXELS, RayDatabase(**valid_fields(RayDatabase)),
                                            image_size=(1000, 800)))),
}


@pytest.mark.parametrize("entry", sorted(INTEGER_ARGUMENTS))
def test_every_id_and_count_argument_refuses_a_column_by_name(entry):
    # A column of ids, or of counts, used to be flattened without a word.
    name, value, call = INTEGER_ARGUMENTS[entry]
    assert_shape_taken(call, value)
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must have shape \(N,\), got "):
        call(np.asarray(value)[:, None])


# A message that states a shape or a length rule; only core_geom.real_array
# may raise one.
SHAPE_MESSAGE = re.compile(r"must have (shape|the same length)|differ in length"
                           r"|\(N, 3, 3\) stack|of length \d|vector per image")


def shape_messages(source):
    """The string parts of the messages that `source` raises and that state a shape rule."""
    return [node.value for raised in ast.walk(ast.parse(source))
            if isinstance(raised, ast.Raise) and raised.exc is not None
            for node in ast.walk(raised.exc)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and SHAPE_MESSAGE.search(node.value)]


def test_only_core_geom_raises_a_shape_message():
    assert shape_messages('raise ValueError(f"{name} must have shape {shape}")\n'
                          'raise ValueError("H must be an (N, 3, 3) stack")\n'
                          'message = "x must have shape (3,)"\n') == [
        " must have shape ", "H must be an (N, 3, 3) stack"]
    found = {path.name: messages for path in (ROOT / "src" / "collimcal").glob("*.py")
             if path.stem != "core_geom" and (messages := shape_messages(path.read_text()))}
    assert not found
