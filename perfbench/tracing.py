"""Spans and counts around calls into collimcal's public functions.

The tracer replaces each target function in every collimcal module that
binds it (``estimate_homography`` in ``core_geom``, ``multi_solver`` and
``synth``, for example) with a wrapper that records a span, and restores
the originals on exit.  The program's own code is not modified.

A span is (name, start, end, parent, operation).  A span with no traced
parent starts a new operation: one Monte Carlo trial, or one CLI request.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from collections import defaultdict

# Module -> public functions timed by the traced run.
TARGETS = {
    "core_geom": ("estimate_homography", "decompose_homography", "project",
                  "back_project"),
    "multi_solver": ("solve_closed_form", "solve_minimal", "detect_degeneracy"),
    "refine": ("spherical_ba", "general_ba", "single_image_ba", "lm_minimize"),
    "single_calib": ("calibrate_single_image", "init_focal_quartic",
                     "refine_intrinsics_angle", "estimate_rotation_kabsch"),
    "synth": ("run_single_trial", "make_scene", "zhang_init"),
    "fileio": ("read_observation_file", "read_ray_database", "write_report"),
    "cli": ("main", "cmd_calibrate"),
}

# Functions that hand lm_minimize its residual, Jacobian and manifold update.
LM_CALLERS = ("spherical_ba", "general_ba", "single_image_ba",
              "refine_intrinsics_angle")
LM_CALLABLES = ("residual", "jacobian", "plus")


def span_names():
    """Every span name the tracer can record, in table order."""
    names = [f"{module}.{fn}" for module, fns in TARGETS.items() for fn in fns]
    names += [f"refine.{caller}.{part}" for caller in LM_CALLERS
              for part in LM_CALLABLES]
    return names


class Tracer:
    """Installs the wrappers, records spans and counts, and aggregates them."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, operation]
        self.counts = []       # (operation, name, value)
        self._stack = []
        self._operations = 0
        self._restore = []

    # -- installation ------------------------------------------------------

    def __enter__(self):
        import collimcal

        package = collimcal.__name__
        modules = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        for module_name, functions in TARGETS.items():
            home = sys.modules[f"{package}.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._restore.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        return False

    def _wrap(self, name, fn):
        special = {
            "refine.lm_minimize": self._lm_minimize,
            "multi_solver.solve_minimal": self._solve_minimal,
            "fileio.read_observation_file": self._file_read,
            "fileio.read_ray_database": self._file_read,
            "fileio.write_report": self._file_written,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if special is not None:
                return special(name, fn, args, kwargs)
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._operations += 1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self._operations - 1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counts.append((self._operations - 1, name, value))

    def _caller(self):
        """Short name of the innermost open span, e.g. 'spherical_ba'."""
        if not self._stack:
            return "toplevel"
        return self.spans[self._stack[-1]][0].rsplit(".", 1)[1]

    def _lm_minimize(self, name, fn, args, kwargs):
        prefix = f"refine.{self._caller()}"

        def traced(part, inner):
            return lambda *a, **k: self.call(f"{prefix}.{part}", inner, *a, **k)

        args = (traced("residual", args[0]), traced("jacobian", args[1])) + args[2:]
        if kwargs.get("plus") is not None:
            kwargs = dict(kwargs, plus=traced("plus", kwargs["plus"]))
        x, report = self.call(name, fn, *args, **kwargs)
        self.count(f"{prefix}.accepted", report.iterations_used)
        self.count(f"{prefix}.converged", 1 if report.converged else 0)
        return x, report

    def _solve_minimal(self, name, fn, args, kwargs):
        candidates = self.call(name, fn, *args, **kwargs)
        self.count("multi_solver.solve_minimal.candidates", len(candidates))
        return candidates

    def _file_read(self, name, fn, args, kwargs):
        result = self.call(name, fn, *args, **kwargs)
        self.count("fileio.bytes_read", os.path.getsize(args[0]))
        return result

    def _file_written(self, name, fn, args, kwargs):
        result = self.call(name, fn, *args, **kwargs)
        self.count("fileio.bytes_written", os.path.getsize(args[0]))
        return result

    # -- aggregation -------------------------------------------------------

    @property
    def operations(self) -> int:
        return self._operations

    def per_module(self) -> dict:
        """Per-module metrics over the recorded operations.

        ``<name>.calls`` is calls per operation (total calls over all
        operations).  ``<name>.ms`` and ``<name>.self_ms`` are the summed
        duration per operation, as a median over the operations that call
        the function; self time excludes the traced children and is given
        only for functions that have any.  A function never called reads
        0 calls and 0 ms.
        """
        n_ops = max(self._operations, 1)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        total = defaultdict(lambda: defaultdict(float))
        own = defaultdict(lambda: defaultdict(float))
        has_children = set()
        for k, (name, start, end, parent, op) in enumerate(self.spans):
            calls[name] += 1
            total[name][op] += end - start
            own[name][op] += end - start - child_time[k]
            if child_time[k] > 0.0:
                has_children.add(name)

        metrics = {}
        for name in span_names():
            metrics[f"{name}.calls"] = calls[name] / n_ops
            metrics[f"{name}.ms"] = _median_ms(total[name])
            if name in has_children:
                metrics[f"{name}.self_ms"] = _median_ms(own[name])

        counted = defaultdict(list)
        for _, name, value in self.counts:
            counted[name].append(value)
        for caller in LM_CALLERS:
            prefix = f"refine.{caller}"
            accepted = counted[f"{prefix}.accepted"]
            converged = counted[f"{prefix}.converged"]
            residuals = calls[f"{prefix}.residual"]
            metrics[f"{prefix}.accepted"] = _mean(accepted)
            metrics[f"{prefix}.accept_ratio"] = (sum(accepted) / residuals
                                                 if residuals else 0.0)
            metrics[f"{prefix}.converged_frac"] = _mean(converged)
        metrics["multi_solver.solve_minimal.candidates"] = _mean(
            counted["multi_solver.solve_minimal.candidates"])
        metrics["fileio.bytes_read"] = sum(counted["fileio.bytes_read"]) / n_ops
        metrics["fileio.bytes_written"] = sum(counted["fileio.bytes_written"]) / n_ops
        return metrics

    def write(self, path) -> None:
        """Write every span and count as JSON (times in seconds)."""
        names = sorted({s[0] for s in self.spans})
        index = {name: k for k, name in enumerate(names)}
        payload = {
            "span_fields": ["name", "start_s", "end_s", "parent", "operation"],
            "names": names,
            "spans": [[index[name], start, end, parent, op]
                      for name, start, end, parent, op in self.spans],
            "count_fields": ["operation", "name", "value"],
            "counts": [list(c) for c in self.counts],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _median_ms(per_op: dict) -> float:
    return statistics.median(per_op.values()) * 1e3 if per_op else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0
