"""The benchmark's three workloads.

All three are closed loops: the one client waits for each result before it
sends the next request.  Inputs come from the benchmark seed alone: the
first Monte Carlo call of a run uses ``rng_seed = seed`` and later calls,
and every generated CLI input, use seeds derived from it.

* ``mc_init`` -- the criterion-5 sweep: ``run_monte_carlo`` over 0..30 mm of
  center jitter at 0.5 px with the arms ``ours`` and ``zhang``.  Scene
  generation, the DLT, the closed form, ``zhang_init`` and the harness's
  pool creations and IPC do the work; ``refine`` does none.
* ``mc_ba`` -- the criterion-4 point: one noise sweep point at 1 px with all
  four arms.  The two bundle adjustments do about 95% of the work.
* ``calib_cli`` -- in-process ``collimcal calibrate`` requests rotating
  through the ``nimg``, ``minimal`` and ``single`` modes over generated
  files, each writing its report.  The only workload that runs ``fileio``,
  ``detect_degeneracy``, ``solve_minimal`` and ``single_calib``.

A run does a fixed number of operations: at least a fixed prefix, and as
many as take about the requested seconds at the machine's nominal speed.
So what a run computes, its failures included, depends on the seed and
the seconds alone.  Accuracy metrics, the correctness checks that use the
acceptance bounds, and the result digest are taken over the prefix.  The
end-to-end times are rescaled by the run's speed factor (see speed.py);
the raw times are printed beside them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
import time
from dataclasses import dataclass, field, replace

import numpy as np

from collimcal import cli, synth

from speed import SpeedProbe
from tracing import Tracer

# Tail percentile: the highest of these with at least ten samples beyond it.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

# Reference-kernel samples taken before each Monte Carlo sweep point (and
# after the last); the CLI loop takes one before each request.
PROBE_REPEATS = 10


def sub_seed(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the benchmark seed and a key path."""
    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


def tail_percentile(ops: int) -> float:
    for p in TAIL_LADDER:
        if ops * (100.0 - p) >= 1000.0:
            return p
    return TAIL_LADDER[-1]


def geomean(values) -> float:
    """Geometric mean of positive errors.

    It grows by the factor by which every error grows, and over seeds 0-9
    of calib_cli it spread less between seeds than the mean did.
    """
    values = np.asarray(values, dtype=float)
    values = values[np.isfinite(values)]
    return float(np.exp(np.mean(np.log(np.maximum(values, 1e-12)))))


def speed_metrics(rate_per_s: float, latency: dict, probe: SpeedProbe) -> dict:
    """The bounded timing metrics: the run's raw figures at nominal speed."""
    return {"throughput_adj_per_s": rate_per_s / probe.factor,
            "op_ms_mean_adj": latency["mean"] * probe.factor}


def latency_summary(samples_ms, p_tail: float) -> dict:
    samples = np.asarray(samples_ms, dtype=float)
    return {"p50": float(np.percentile(samples, 50.0)),
            "mean": float(np.mean(samples)),
            "tail": float(np.percentile(samples, p_tail)),
            "tail_pct": p_tail, "n": int(samples.size)}


@dataclass
class Check:
    name: str
    passed: bool
    detail: str
    gate: bool = True          # False: reported only, not part of `correct`


@dataclass
class RunResult:
    """What one untraced run measured."""

    metrics: dict                      # end-to-end metrics measured here
    attempted: int
    failed: int
    failures: dict                     # failure type -> count
    checks: list
    digest: str
    detail: dict = field(default_factory=dict)


@dataclass
class TracedResult:
    """What one traced run measured."""

    per_module: dict
    tracer: Tracer
    overhead: float                    # traced time / untraced time - 1
    attempted: int
    failed: int
    checks: list
    digest: str
    detail: dict = field(default_factory=dict)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item if isinstance(item, bytes) else
                 json.dumps(item, sort_keys=True).encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Monte Carlo workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloSpec:
    sweep: str
    values: tuple
    sigma: float
    arms: tuple
    trials_per_call: int
    prefix_calls: int          # calls whose results the accuracy and digest cover
    nominal_call_s: float      # a call's time at nominal speed, 2 workers
    accuracy_arm: str          # the constrained solver's arm for the error metrics
    op_tolerance: dict         # arm -> largest focal relative error of one trial
    serial_sample: int         # untraced serial trials per sweep point (traced run)
    informational: tuple = ()  # criteria reported but left out of `correct`

    def point_config(self, config, value):
        """The configuration ``run_monte_carlo`` uses at one sweep value."""
        field_name = {"spherical": "spherical_noise_sigma",
                      "noise": "pixel_noise_sigma"}[self.sweep]
        return replace(config, **{field_name: float(value)})


MC_SPECS = {
    "mc_init": MonteCarloSpec(
        sweep="spherical", values=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        sigma=0.5, arms=("ours", "zhang"), trials_per_call=100, prefix_calls=2,
        nominal_call_s=10.0,
        # `ours` has no per-trial bound here: its error grows without limit
        # with the center jitter (criterion 5c).  Criteria 5a and 5b hold on
        # the tier-1 seed but are statistical: 5a read 5.12% (> 5%) on the first
        # call of seed 11.
        accuracy_arm="ours", op_tolerance={"zhang": 0.25},
        serial_sample=10, informational=("criterion-5a", "criterion-5b")),
    "mc_ba": MonteCarloSpec(
        sweep="noise", values=(1.0,), sigma=1.0, arms=synth.SOLVER_ARMS,
        trials_per_call=20, prefix_calls=4, nominal_call_s=7.0,
        accuracy_arm="ours_ba",
        op_tolerance={"ours": 0.05, "ours_ba": 0.05, "zhang": 0.25,
                      "zhang_ba": 0.25},
        serial_sample=8),
}

_ARM_OF = {("ours", "init"): "ours", ("ours", "refined"): "ours_ba",
           ("zhang", "init"): "zhang", ("zhang", "refined"): "zhang_ba"}


class MonteCarlo:
    """Closed loop of ``run_monte_carlo`` calls on a pool of ``workers``."""

    def __init__(self, name: str, seed: int, workers: int, smoke: bool):
        self.name = name
        self.spec = MC_SPECS[name]
        self.seed = seed
        self.workers = workers
        self.smoke = smoke
        self.trials_per_call = 2 if smoke else self.spec.trials_per_call
        self.prefix_calls = 1 if smoke else self.spec.prefix_calls

    def config(self, call: int):
        rng_seed = self.seed if call == 0 else sub_seed(self.seed, call)
        return synth.default_config(pixel_noise_sigma=self.spec.sigma,
                                    trial_count=self.trials_per_call,
                                    rng_seed=rng_seed)

    def _sweep(self, config, workers, values=None):
        return synth.run_monte_carlo(config, self.spec.sweep,
                                     values or self.spec.values,
                                     arms=self.spec.arms, workers=workers)

    def call_count(self, seconds: float) -> int:
        if self.smoke:
            return self.prefix_calls
        return max(self.prefix_calls, round(seconds / self.spec.nominal_call_s))

    def setup(self) -> None:
        warm = synth.default_config(pixel_noise_sigma=self.spec.sigma,
                                    trial_count=self.workers,
                                    rng_seed=sub_seed(self.seed, 999_999))
        self._sweep(warm, self.workers)

    # -- untraced run ------------------------------------------------------

    def run(self, seconds: float) -> RunResult:
        # Each sweep point is its own run_monte_carlo call (the harness
        # treats the points independently, so the results are the same as
        # one call over all of them), with the speed probe, on as many
        # cores as the pool, in between.
        calls = []
        with SpeedProbe(self.workers) as probe:
            for call in range(self.call_count(seconds)):
                config = self.config(call)
                stats, wall = [], 0.0
                for value in self.spec.values:
                    probe.sample(PROBE_REPEATS)
                    t0 = time.perf_counter()
                    stats += self._sweep(config, self.workers, (value,))
                    wall += time.perf_counter() - t0
                calls.append((stats, wall))
            probe.sample(PROBE_REPEATS)

        trials = len(calls) * self.trials_per_call * len(self.spec.values)
        wall = sum(dt for _, dt in calls)
        trial_ms = np.concatenate([self._trial_ms(stats) for stats, _ in calls])
        tail = latency_summary(trial_ms, tail_percentile(trial_ms.size))

        attempted = trials * len(self.spec.arms)
        fail_count = {arm: 0 for arm in self.spec.arms}
        misses = {arm: 0 for arm in self.spec.arms}
        worst = {arm: 0.0 for arm in self.spec.arms}
        finite = True
        for stats, _ in calls:
            for s in stats:
                arm = _ARM_OF[(s.solver, s.stage)]
                fail_count[arm] += s.fail_count
                ok_rows = ~np.all(np.isnan(s.trials), axis=1)
                finite &= bool(np.all(np.isfinite(s.trials[ok_rows, :5])))
                focal = s.focal_rel_errors()[ok_rows]
                if focal.size:
                    worst[arm] = max(worst[arm], float(np.max(focal)))
                if arm in self.spec.op_tolerance:
                    misses[arm] += int(np.sum(focal > self.spec.op_tolerance[arm]))
        failures = {f"{arm}.fail_count": n for arm, n in fail_count.items() if n}
        failures.update({f"{arm}.tolerance": n for arm, n in misses.items() if n})
        failed = sum(fail_count.values()) + sum(misses.values())

        prefix = [s for stats, _ in calls[:self.prefix_calls] for s in stats]
        acc = [s for s in prefix
               if _ARM_OF[(s.solver, s.stage)] == self.spec.accuracy_arm]
        focal_err = geomean(np.concatenate([s.focal_rel_errors() for s in acc]))
        tcp_err = geomean(np.concatenate([s.center_errors() for s in acc]))

        checks = [Check("finite_results", finite,
                        "every successful arm returned finite intrinsics"),
                  Check("op_tolerance", not any(misses.values()),
                        "focal error of each trial within " + ", ".join(
                            f"{a} {t:g} (worst {worst[a]:.4f})"
                            for a, t in self.spec.op_tolerance.items()))]
        checks += [replace(c, gate=c.name not in self.spec.informational)
                   for c in self._criteria(prefix)]
        trials_per_s = trials / wall
        return RunResult(
            metrics=dict(speed_metrics(trials_per_s, tail, probe),
                         focal_err_rel=focal_err, tcp_err_mm=tcp_err),
            attempted=attempted, failed=failed, failures=failures, checks=checks,
            digest=self.digest(prefix),
            detail={"trials_per_s": trials_per_s, "trials": trials,
                    "calls": len(calls), "sweep_s": [dt for _, dt in calls],
                    "trial_ms": tail, "op_ms_tail_adj": tail["tail"] * probe.factor,
                    "speed": probe.summary(),
                    "fail_frac": failed / attempted,
                    "fail_count": fail_count, "workers": self.workers,
                    "trials_per_call": self.trials_per_call * len(self.spec.values)})

    def _trial_ms(self, stats) -> np.ndarray:
        """Per-trial solve time: the harness's arm timings of a trial, summed."""
        per_point = {}
        for s in stats:
            per_point.setdefault(s.sweep_value, []).append(s.seconds)
        return np.concatenate([np.sum(seconds, axis=0) * 1e3
                               for seconds in per_point.values()])

    def _criteria(self, prefix) -> list:
        """Acceptance bounds of the tier-1 criterion run on the same configuration."""
        if self.smoke:
            return [Check("criteria", True, "skipped at smoke size")]
        pooled = {}
        for s in prefix:
            key = (s.sweep_value, _ARM_OF[(s.solver, s.stage)])
            pooled.setdefault(key, []).append(s)
        focal = {key: float(np.nanmean(np.concatenate(
            [s.focal_rel_errors() for s in group]))) for key, group in pooled.items()}
        if self.name == "mc_init":
            zhang = [focal[(v, "zhang")] for v in self.spec.values]
            ours = [focal[(v, "ours")] for v in self.spec.values]
            variation = (max(zhang) - min(zhang)) / float(np.mean(zhang))
            return [
                Check("criterion-5a", variation < 0.05,
                      f"zhang focal variation {variation * 100:.2f}% (<5%)"),
                Check("criterion-5b", all(a <= b for a, b in zip(ours, ours[1:])),
                      "ours focal " + " -> ".join(f"{v * 100:.2f}%" for v in ours)
                      + " non-decreasing")]
        v = self.spec.values[0]
        pp = float(np.nanmean(np.concatenate(
            [s.principal_point_errors() for s in pooled[(v, "ours")]])))
        init_ok = focal[(v, "ours")] <= focal[(v, "zhang")]
        refined_ok = focal[(v, "ours_ba")] <= focal[(v, "zhang_ba")]
        return [
            Check("criterion-2", focal[(v, "ours")] < 0.0075 and pp < 3.0,
                  f"ours focal {focal[(v, 'ours')] * 100:.3f}% (<0.75%), "
                  f"principal point {pp:.2f}px (<3.0)"),
            Check("criterion-4", init_ok and refined_ok,
                  f"init {focal[(v, 'ours')] * 100:.3f}% <= "
                  f"{focal[(v, 'zhang')] * 100:.3f}%; refined "
                  f"{focal[(v, 'ours_ba')] * 100:.3f}% <= "
                  f"{focal[(v, 'zhang_ba')] * 100:.3f}%")]

    def digest(self, stats) -> str:
        items = []
        for s in stats:
            items.append([s.sweep_value, s.solver, s.stage, s.fail_count])
            items.append(np.ascontiguousarray(s.trials).tobytes())
        return _digest(items)

    # -- traced run --------------------------------------------------------

    def run_traced(self, seconds: float) -> TracedResult:
        # The pooled call runs before and after the serial traced one, so a
        # linear drift of the machine's speed cancels in synth.scaling_eff.
        config = self.config(0)
        t0 = time.perf_counter()
        pooled = self._sweep(config, self.workers)
        pooled_s = time.perf_counter() - t0
        synth.run_single_trial(config, 0, self.spec.arms)  # first in-process trial
        with Tracer() as tracer:
            traced_stats = self._sweep(config, 1)
        t0 = time.perf_counter()
        self._sweep(config, self.workers)
        pooled_s = 0.5 * (pooled_s + time.perf_counter() - t0)
        per_module = tracer.per_module()
        trials_per_s = self.trials_per_call * len(self.spec.values) / pooled_s
        trial_ms = [(end - start) * 1e3 for name, start, end, _, _ in tracer.spans
                    if name == "synth.run_single_trial"]
        scaling = trials_per_s / (self.workers * 1000.0 / float(np.mean(trial_ms)))

        # Tracing overhead: the first trials of every sweep point, each run
        # untraced and then traced, back to back, so drift cancels.
        sample = min(self.spec.serial_sample, self.trials_per_call)
        paired = Tracer()
        untraced_s = traced_s = 0.0
        for value in self.spec.values:
            point = self.spec.point_config(config, value)
            for t in range(sample):
                t0 = time.perf_counter()
                synth.run_single_trial(point, t, self.spec.arms)
                t1 = time.perf_counter()
                with paired:
                    synth.run_single_trial(point, t, self.spec.arms)
                untraced_s += t1 - t0
                traced_s += time.perf_counter() - t1
        overhead = traced_s / untraced_s - 1.0

        digest = self.digest(pooled)
        same = digest == self.digest(traced_stats)
        return TracedResult(
            per_module=per_module, tracer=tracer, overhead=overhead,
            attempted=len(traced_stats) * self.trials_per_call,
            failed=sum(s.fail_count for s in traced_stats),
            checks=[Check("traced_digest", same,
                          "traced serial run and untraced pooled run give "
                          "the same result digest")],
            digest=digest,
            detail={"operations": tracer.operations, "synth.scaling_eff": scaling,
                    "trials_per_s": trials_per_s,
                    "overhead_sample_trials": sample * len(self.spec.values)})


# ---------------------------------------------------------------------------
# CLI workload
# ---------------------------------------------------------------------------

MODES = ("nimg", "minimal", "single")

# Simulation settings of each mode's inputs (the fields of a config.json).
MODE_SCENES = {
    "nimg": {"pixel_noise_sigma": 0.5, "image_count": 15},
    "minimal": {"pixel_noise_sigma": 0.5, "image_count": 2},
    "single": {"pixel_noise_sigma": 0.5, "image_count": 1,
               "distortion": [0.1, -0.2]},
}

# Reference camera of the ray database, as in criterion 8.
REFERENCE_CAMERA = {"fx": 1200.0, "fy": 1180.0, "cx": 700.0, "cy": 500.0,
                    "gamma": 0.0}
REFERENCE_IMAGE_SIZE = [1400, 1000]

# Largest errors of one successful request: (focal relative error, t_cp mm).
REQUEST_TOLERANCE = {"nimg": (0.1, 100.0), "minimal": (0.5, 500.0),
                     "single": (0.05, None)}

FILES_PER_MODE = 50

# Requests per second at nominal speed, for the number of requests a run makes.
NOMINAL_REQ_PER_S = 7.0


def run_cli(argv):
    """One in-process CLI call with its output captured.

    Returns (exit code or None, failure name or None).
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # the loop keeps running and reports the type
        return None, type(exc).__name__
    if code == 0:
        return 0, None
    text = err.getvalue()
    match = re.search(r"\[(\w+)\]", text)
    if match:
        name = match.group(1)
    elif text.startswith("degenerate configuration"):
        name = "DegenerateConfiguration"
    else:
        name = "InputError"
    return code, name


def _errors(reports) -> dict:
    """Per-report focal relative error and t_cp error (where reported)."""
    errors = [rep["error_vs_truth"] for rep in reports]
    return {"focal": [0.5 * (e["fx_err_rel"] + e["fy_err_rel"]) for e in errors],
            "tcp": [e["tcp_err_mm"] for e in errors if "tcp_err_mm" in e]}


class SetupError(RuntimeError):
    pass


class CalibCli:
    """Closed loop of ``collimcal calibrate`` requests from one client."""

    def __init__(self, seed: int, workdir, smoke: bool):
        self.seed = seed
        self.workdir = workdir
        self.files = 2 if smoke else FILES_PER_MODE
        self.smoke = smoke

    def _cli(self, *argv) -> None:
        code, name = run_cli([str(a) for a in argv])
        if code != 0:
            raise SetupError(f"collimcal {argv[0]} failed: exit {code} {name}")

    def _write(self, name, payload):
        path = self.workdir / name
        path.write_text(json.dumps(payload))
        return path

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        (self.workdir / "reports").mkdir(parents=True)
        self.inputs = {mode: [] for mode in MODES}
        for m, mode in enumerate(MODES):
            for k in range(self.files):
                config = self._write(f"{mode}_{k}.config.json", {
                    "schema_version": 1, "rng_seed": sub_seed(self.seed, m, k),
                    **MODE_SCENES[mode]})
                obs = self.workdir / f"{mode}_{k}.json"
                self._cli("simulate", "--config", config, "--out", obs)
                self.inputs[mode].append(obs)

        config = self._write("reference.config.json", {
            "schema_version": 1, "rng_seed": sub_seed(self.seed, len(MODES), 0),
            "intrinsics": REFERENCE_CAMERA, "image_size": REFERENCE_IMAGE_SIZE,
            "image_count": 1})
        ref_obs = self.workdir / "reference.json"
        self._cli("simulate", "--config", config, "--out", ref_obs)
        ref_cam = self._write("reference_camera.json", {
            "schema_version": 1, "intrinsics": REFERENCE_CAMERA,
            "distortion": [0.0, 0.0]})
        self.database = self.workdir / "rays.json"
        self._cli("build-db", "--ref-obs", ref_obs, "--ref-cam", ref_cam,
                  "--out", self.database)
        for mode in MODES:
            self._request(mode, 0, self.workdir / f"warmup_{mode}.json")

    def _argv(self, mode, k, out):
        argv = ["calibrate", "--in", str(self.inputs[mode][k]), "--mode", mode,
                "--out", str(out)]
        if mode == "single":
            argv += ["--reference", str(self.database)]
        return argv

    def _request(self, mode, k, out):
        argv = self._argv(mode, k, out)
        t0 = time.perf_counter()
        code, name = run_cli(argv)
        return time.perf_counter() - t0, code, name

    def _schedule(self, i):
        """Request i: its mode, input file index and report path."""
        mode = MODES[i % len(MODES)]
        k = (i // len(MODES)) % self.files
        return mode, k, self.workdir / "reports" / f"{i:05d}_{mode}.json"

    def request_count(self, seconds: float) -> int:
        prefix = self.files * len(MODES)
        if self.smoke:
            return prefix
        return max(prefix, round(seconds * NOMINAL_REQ_PER_S))

    def _loop(self, count, probe):
        """``count`` requests back to back, the speed probe before each.

        Returns the requests and the summed request time.
        """
        requests = []
        for i in range(count):
            mode, k, out = self._schedule(i)
            probe.sample()
            requests.append((mode, k, out) + self._request(mode, k, out))
        return requests, sum(r[3] for r in requests)

    def _verify(self, requests):
        """Per-request outcome: (failure type or None, report or None)."""
        outcomes = []
        for mode, k, out, _, code, name in requests:
            if code != 0:
                kind = f"exit{code}:{name}" if code is not None else f"raised:{name}"
                outcomes.append((kind, None))
                continue
            report = json.loads(out.read_text())
            err = report["error_vs_truth"]
            focal = 0.5 * (err["fx_err_rel"] + err["fy_err_rel"])
            focal_tol, tcp_tol = REQUEST_TOLERANCE[mode]
            miss = focal > focal_tol or (tcp_tol is not None
                                         and err["tcp_err_mm"] > tcp_tol)
            outcomes.append(("tolerance" if miss else None, report))
        return outcomes

    def digest(self, requests, outcomes) -> str:
        items = []
        for (mode, k, _, _, code, name), (_, report) in zip(requests, outcomes):
            items.append([mode, k, code, name])
            if report is not None:
                report = dict(report, input=f"{mode}_{k}.json",
                              config_echo=dict(report["config_echo"], reference=None))
                items.append(report)
        return _digest(items)

    # -- untraced run ------------------------------------------------------

    def run(self, seconds: float) -> RunResult:
        probe = SpeedProbe()
        requests, wall = self._loop(self.request_count(seconds), probe)
        outcomes = self._verify(requests)
        prefix = self.files * len(MODES)
        p_tail = tail_percentile(len(requests))

        failures, by_mode = {}, {}
        for (mode, *_), (kind, _) in zip(requests, outcomes):
            if kind:
                failures[f"{mode}.{kind}"] = failures.get(f"{mode}.{kind}", 0) + 1
        for mode in MODES:
            ms = [r[3] * 1e3 for r in requests if r[0] == mode]
            fails = sum(1 for r, o in zip(requests, outcomes) if r[0] == mode and o[0])
            by_mode[mode] = dict(latency_summary(ms, tail_percentile(self.files)),
                                 fail_frac=fails / len(ms))
        latency = latency_summary([r[3] * 1e3 for r in requests], p_tail)
        failed = sum(failures.values())

        accuracy = {mode: _errors([rep for r, (kind, rep) in
                                        zip(requests[:prefix], outcomes[:prefix])
                                        if r[0] == mode and kind is None])
                    for mode in MODES}
        checks = [Check("no_uncaught_exception",
                        not any(k.split(".", 1)[1].startswith("raised")
                                for k in failures),
                        "every request returned an exit code")]
        for mode in ("nimg", "single"):
            checks.append(Check(f"{mode}_all_ok", by_mode[mode]["fail_frac"] == 0.0,
                                f"every {mode} request exits 0 within "
                                f"{REQUEST_TOLERANCE[mode]}"))
        typed = all(k.startswith("minimal.exit3:") or k == "minimal.tolerance"
                    for k in failures if k.startswith("minimal."))
        checks.append(Check("minimal_failures_typed", typed,
                            "minimal failures are typed solver failures (exit 3) "
                            "or tolerance misses"))
        checks += self._criteria(requests[:prefix], outcomes[:prefix])

        req_per_s = len(requests) / wall
        detail = {"req_per_s": req_per_s, "requests": len(requests), "request_ms": latency,
                  "op_ms_tail_adj": latency["tail"] * probe.factor,
                  "busy_s": wall, "speed": probe.summary(),
                  "fail_frac": failed / len(requests)}
        for mode, summary in by_mode.items():
            detail[f"{mode}_ms_p50"] = summary["p50"]
            detail[f"{mode}_ms_tail"] = summary["tail"]
            detail[f"{mode}_ms"] = summary
            for kind in ("focal", "tcp"):
                if accuracy[mode][kind]:
                    detail[f"{mode}_{kind}_err"] = geomean(accuracy[mode][kind])
        return RunResult(
            metrics=dict(speed_metrics(req_per_s, latency, probe),
                         focal_err_rel=geomean(
                             accuracy["nimg"]["focal"] + accuracy["single"]["focal"]),
                         tcp_err_mm=geomean(accuracy["nimg"]["tcp"])),
            attempted=len(requests), failed=failed, failures=failures,
            checks=checks, digest=self.digest(requests[:prefix], outcomes[:prefix]),
            detail=detail)

    def _criteria(self, requests, outcomes) -> list:
        """Criterion 8 on the single-image reports of the prefix."""
        if self.smoke:
            return [Check("criteria", True, "skipped at smoke size")]
        single = [rep for r, (kind, rep) in zip(requests, outcomes)
                  if r[0] == "single" and rep is not None]
        focal = float(np.mean(_errors(single)["focal"]))
        rms = float(np.mean([rep["rms_reprojection_px"] for rep in single]))
        return [Check("criterion-8", focal < 0.01 and 0.3 <= rms <= 0.7,
                      f"single focal {focal * 100:.2f}% (<1%), RMS {rms:.3f}px "
                      f"(in [0.3, 0.7])")]

    # -- traced run --------------------------------------------------------

    def run_traced(self, seconds: float) -> TracedResult:
        # Each prefix request runs untraced and then traced, back to back,
        # so drift cancels in the overhead.
        count = self.files * len(MODES)
        tracer = Tracer()
        requests, traced = [], []
        untraced_s = traced_s = 0.0
        for i in range(count):
            mode, k, out = self._schedule(i)
            requests.append((mode, k, out) + self._request(mode, k, out))
            out = out.with_suffix(".traced.json")
            with tracer:
                traced.append((mode, k, out) + self._request(mode, k, out))
            untraced_s += requests[-1][3]
            traced_s += traced[-1][3]
        digest = self.digest(requests, self._verify(requests))
        outcomes = self._verify(traced)
        same = digest == self.digest(traced, outcomes)
        return TracedResult(
            per_module=tracer.per_module(), tracer=tracer,
            overhead=traced_s / untraced_s - 1.0,
            attempted=count, failed=sum(1 for kind, _ in outcomes if kind),
            checks=[Check("traced_digest", same,
                          "traced and untraced requests give the same digest")],
            digest=digest,
            detail={"operations": tracer.operations, "requests": count})
