"""A/B timing of the working tree against a git revision.

Exports `src/collimcal` of REV with `git archive` into a temporary
directory and imports it as `collimcal_a`, and the working tree's as
`collimcal_b`, in one process.  Each round runs every unit in ABBA order
(A, B, B, A) and then AAAA, serially, each run on its own seed (below).
Each serial unit runs in two children forked from that process, one per
side, so that one side's heap and page faults do not depend on the other
side's code; the serial units share their rounds.  Each pooled unit then runs
its rounds alone, in this process, on a fresh 2-worker pool of each side:

    mc_ba2   `_run_chunk` of 2 trials, all four arms, 1 px (the `mc_ba` point)
    mc_ba5   the same with 5 trials
    mc_init  `_run_chunk` of 12 trials, arms ours and zhang, 0.5 px, 15 mm
    mc_starts
             the fits and starts of a 50-scene `mc_init` chunk alone: the
             two arms' `calibrate_all` calls as `_run_arms` makes them
             (`nimg`, then `zhang`, unrefined) on scenes drawn once, whose
             homography fits are cleared before each run
    mc_ba_pool
             `run_monte_carlo` of the `mc_ba` point, 20 trials, on 2 workers
    mc_init_pool
             `run_monte_carlo` of the `mc_init` point, 100 trials, on 2 workers
    mc_sweep the 7 points of the `mc_init` sweep (0-30 mm), 100 trials each, as
             one `run_monte_carlo` call per point on 2 workers, as the
             benchmark runs them
    nimg, minimal, single
             one in-process `collimcal calibrate` request of that mode

Every Monte Carlo unit but `mc_starts` takes its run's seed as its
config's `rng_seed`, and no run takes a seed that an earlier run of its
side took, since `synth` keeps the pose draws of the streams it has seen:
a unit that repeated one seeded call would time the kept draws only.  Both sides take
one sequence: the warm-up run seed 0, then in round r (from 0) the ABBA
runs s, s, s + 1 and s + 1 and the AAAA runs s + 2 to s + 5, where
s = 1 + 6r.  So B/A compares the two sides on the same seeds, while the
A/A control compares different seeds and also carries their spread.

Per unit it prints the median over the rounds of B / A (the summed time of
the two B runs over that of the two A runs), a bootstrap 95% interval of
that median, the rounds B won, the same median and interval for the A/A
control (the middle two A runs of AAAA over the outer two), the median
times, the median minor page faults of one run (`RUSAGE_SELF` of the
process that ran it), and, for the pooled units, the largest peak RSS
(`VmHWM`) of a worker of each side's own pool, in MB ("-" where /proc
cannot be read).  Times are process time, except for the pooled units,
whose work runs in the workers: those are wall time (`perf_counter`).
The forked children of the `mc_*` units keep the heap setting of the
pool workers that run them (`synth._keep_worker_heap`), and those of
`nimg`, `minimal` and `single` glibc's default heap, as a `collimcal
calibrate` process does.  Uses the standard library and numpy only; run
it with OPENBLAS_NUM_THREADS=1, as the benchmark does, so that the pooled
units' workers do not oversubscribe the cores.

    python3 tools/ab.py                          # HEAD against the working tree
    python3 tools/ab.py --against HEAD~1 --rounds 40 --units mc_ba2 mc_ba5
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import importlib.util
import io
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
UNITS = ("mc_ba2", "mc_ba5", "mc_init", "mc_starts", "mc_ba_pool", "mc_init_pool",
         "mc_sweep", "nimg", "minimal", "single")
POOLED = ("mc_ba_pool", "mc_init_pool", "mc_sweep")
ARMS = ("ours", "ours_ba", "zhang", "zhang_ba")

# The inputs of the calibrate requests, as the benchmark's CLI workload makes them.
SCENES = {"nimg": {"pixel_noise_sigma": 0.5, "image_count": 15},
          "minimal": {"pixel_noise_sigma": 0.5, "image_count": 2},
          "single": {"pixel_noise_sigma": 0.5, "image_count": 1, "distortion": [0.1, -0.2]}}
REFERENCE_CAMERA = {"fx": 1200.0, "fy": 1180.0, "cx": 700.0, "cy": 500.0, "gamma": 0.0}


def load(name: str, package_dir: Path):
    """The package in `package_dir` imported under the top-level name `name`."""
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("synth", "cli"):
        importlib.import_module(f"{name}.{module}")
    return package


def export(rev: str, into: Path) -> Path:
    """`src/collimcal` of git revision `rev`, extracted under `into`."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev,
                              "src/collimcal"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src" / "collimcal"


def cli_call(package, *argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return package.cli.main([str(a) for a in argv])


def make_inputs(package, workdir: Path) -> dict:
    """Observation files of each mode and a ray database, written with `package`'s CLI."""
    inputs = {}
    for mode, scene in SCENES.items():
        config = workdir / f"{mode}.config.json"
        config.write_text(json.dumps({"schema_version": 1, "rng_seed": 11, **scene}))
        inputs[mode] = workdir / f"{mode}.json"
        cli_call(package, "simulate", "--config", config, "--out", inputs[mode])
    config = workdir / "reference.config.json"
    config.write_text(json.dumps({"schema_version": 1, "rng_seed": 12, "image_count": 1,
                                  "intrinsics": REFERENCE_CAMERA,
                                  "image_size": [1400, 1000]}))
    camera = workdir / "reference_camera.json"
    camera.write_text(json.dumps({"schema_version": 1, "intrinsics": REFERENCE_CAMERA,
                                  "distortion": [0.0, 0.0]}))
    cli_call(package, "simulate", "--config", config, "--out", workdir / "reference.json")
    inputs["database"] = workdir / "rays.json"
    cli_call(package, "build-db", "--ref-obs", workdir / "reference.json",
             "--ref-cam", camera, "--out", inputs["database"])
    return inputs


def unit_call(unit: str, package, inputs: dict, workdir: Path):
    """A function that runs `unit` once with `package`, given the run's seed."""
    synth = package.synth
    if unit == "mc_starts":
        config = synth.default_config(pixel_noise_sigma=0.5, spherical_noise_sigma=15.0)
        rngs = [np.random.default_rng(np.random.SeedSequence(config.rng_seed, spawn_key=(t,)))
                for t in range(50)]
        sets = [obs for _, obs in synth._make_scenes(config, rngs)]

        def fits_and_starts(seed):
            for obs in sets:
                vars(obs).pop("homography_fit", None)
            for mode in ("nimg", "zhang"):
                package.pipeline.calibrate_all(sets, mode, refine=False,
                                               starts=[None] * len(sets))
        return fits_and_starts
    init = {"pixel_noise_sigma": 0.5, "spherical_noise_sigma": 15.0}
    if unit == "mc_ba_pool":
        return lambda seed: synth.run_monte_carlo(
            synth.default_config(pixel_noise_sigma=1.0, trial_count=20, rng_seed=seed),
            "noise", [1.0], arms=ARMS, workers=2)
    if unit == "mc_init_pool":
        return lambda seed: synth.run_monte_carlo(
            synth.default_config(**init, trial_count=100, rng_seed=seed),
            "noise", [0.5], arms=("ours", "zhang"), workers=2)
    if unit == "mc_sweep":
        def sweep(seed):
            config = synth.default_config(pixel_noise_sigma=0.5, trial_count=100, rng_seed=seed)
            for value in synth.SWEEPS["spherical"][1]:
                synth.run_monte_carlo(config, "spherical", [value], arms=("ours", "zhang"),
                                      workers=2)
        return sweep
    if unit.startswith("mc_"):
        if unit == "mc_init":
            overrides, trials, arms = init, range(12), ("ours", "zhang")
        else:
            overrides = {"pixel_noise_sigma": 1.0}
            trials, arms = range(int(unit[len("mc_ba"):])), ARMS
        return lambda seed: synth._run_chunk(synth.default_config(**overrides, rng_seed=seed),
                                             trials, arms)
    argv = ["calibrate", "--in", inputs[unit], "--mode", unit, "--out", workdir / "report.json"]
    if unit == "single":
        argv += ["--reference", inputs["database"]]
    return lambda seed: cli_call(package, *argv)


def timed(call, seed: int, clock=time.process_time):
    """(seconds on `clock`, minor faults) of one `call(seed)`."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = clock()
    call(seed)
    seconds = clock() - start
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def forked_timer(package, call, stack: contextlib.ExitStack, worker_heap: bool):
    """A function of a seed that returns `timed(call, seed)` of one run in a child forked now.

    With `worker_heap` the child takes the pool workers' heap setting
    (`synth._keep_worker_heap`); it serves until `stack` closes its pipe,
    and `stack` then waits for it.  A call that raises ends the child with
    its traceback on stderr, and the timer with EOFError.
    """
    conn, child = multiprocessing.Pipe()
    pid = os.fork()
    if pid == 0:  # the child never returns into the caller's code
        code = 1
        try:
            conn.close()
            if worker_heap:
                package.synth._keep_worker_heap()
            while True:
                child.send(timed(call, child.recv()))
        except EOFError:
            code = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(code)
    child.close()
    stack.callback(os.waitpid, pid, 0)
    stack.callback(conn.close)

    def timer(seed):
        conn.send(seed)
        return conn.recv()
    return timer


def worker_peak_mb(package) -> str:
    """The largest `VmHWM` of a worker of `package`'s pool, in MB, or "-" if unreadable."""
    peaks = []
    for proc in (package.synth._pool or (None, []))[1]:
        try:
            status = Path(f"/proc/{proc.pid}/status").read_text()
        except OSError:
            return "-"
        peaks += [int(line.split()[1]) / 1024 for line in status.splitlines()
                  if line.startswith("VmHWM:")]
    return f"{max(peaks):.1f}" if peaks else "-"


def bootstrap_median(ratios, rng, draws: int = 2000):
    """The median of `ratios` and a bootstrap 95% interval of it."""
    ratios = np.asarray(ratios)
    medians = np.median(rng.choice(ratios, size=(draws, ratios.size)), axis=1)
    return float(np.median(ratios)), *np.percentile(medians, [2.5, 97.5]).tolist()


def measured(units, rounds: int, a, b, inputs: dict, workdir: Path) -> dict:
    """Every serial unit's per-round (B/A, A/A) ratios, times and faults, each
    side's runs timed in a child forked per side (`forked_timer`); the units
    alternate."""
    with contextlib.ExitStack() as stack:
        timers = {unit: [forked_timer(package, unit_call(unit, package, inputs, workdir), stack,
                                      unit.startswith("mc_"))
                         for package in (a, b)]
                  for unit in units}
        return alternated(timers, rounds)


def alternated(timers: dict, rounds: int) -> dict:
    """The per-round statistics of `measured` from each unit's (A, B) timers,
    which return (seconds, faults) of a run of the seed they are given; the
    seeds follow the one sequence of the module docstring."""
    for timer_a, timer_b in timers.values():  # warm both sides once
        timer_a(0), timer_b(0)
    stats = {unit: {"ab": [], "aa": [], "a": [], "b": [], "faults_a": [], "faults_b": []}
             for unit in timers}
    for r in range(rounds):
        seed = 1 + 6 * r
        for unit, (timer_a, timer_b) in timers.items():
            (a1, fa), (b1, fb), (b2, _), (a2, _) = (
                timer_a(seed), timer_b(seed), timer_b(seed + 1), timer_a(seed + 1))
            c1, c2, c3, c4 = (timer_a(seed + k)[0] for k in range(2, 6))
            s = stats[unit]
            s["ab"].append((b1 + b2) / (a1 + a2))
            s["aa"].append((c2 + c3) / (c1 + c4))
            s["a"].append(a1 + a2)
            s["b"].append(b1 + b2)
            s["faults_a"].append(fa)
            s["faults_b"].append(fb)
    return stats


def run(units, rounds: int, a, b, inputs: dict, workdir: Path) -> dict:
    """`measured` of the serial units together, then each pooled unit alone.

    A pooled unit runs in this process on fresh pools of each side, timed
    in wall time, so that the peak RSS of a worker, kept in the unit's
    "peak_a" and "peak_b", is that unit's own.
    """
    serial = [unit for unit in units if unit not in POOLED]
    stats = measured(serial, rounds, a, b, inputs, workdir)
    for unit in units:
        if unit in POOLED:
            for package in (a, b):
                package.synth._close_pool()
            calls = [unit_call(unit, package, inputs, workdir) for package in (a, b)]
            stats |= alternated({unit: [functools.partial(timed, call, clock=time.perf_counter)
                                        for call in calls]}, rounds)
            stats[unit] |= {"peak_a": worker_peak_mb(a), "peak_b": worker_peak_mb(b)}
    return {unit: stats[unit] for unit in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", default="HEAD", help="git revision of side A")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--units", nargs="+", choices=UNITS, default=list(UNITS))
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        a = load("collimcal_a", export(args.against, tmp / "a"))
        b = load("collimcal_b", REPO / "src" / "collimcal")
        (tmp / "work").mkdir()
        inputs = make_inputs(b, tmp / "work")
        stats = run(args.units, args.rounds, a, b, inputs, tmp / "work")

    rng = np.random.default_rng(0)
    print(f"A = {args.against}, B = working tree; {args.rounds} rounds, process time "
          f"(pooled units: wall time, worker VmHWM in MB)")
    print(f"{'unit':12} {'B/A':>6} {'95% interval':>15} {'wins':>6} {'A/A':>6} "
          f"{'95% interval':>15} {'A ms':>8} {'B ms':>8} {'faults A':>8} {'faults B':>8} "
          f"{'HWM A':>6} {'HWM B':>6}")
    for unit, s in stats.items():
        ab, ab_lo, ab_hi = bootstrap_median(s["ab"], rng)
        aa, aa_lo, aa_hi = bootstrap_median(s["aa"], rng)
        wins = sum(ratio < 1.0 for ratio in s["ab"])
        print(f"{unit:12} {ab:6.3f} [{ab_lo:6.3f}, {ab_hi:6.3f}] {wins:>3}/{len(s['ab']):<2} "
              f"{aa:6.3f} [{aa_lo:6.3f}, {aa_hi:6.3f}] "
              f"{np.median(s['a']) * 500:8.2f} {np.median(s['b']) * 500:8.2f} "
              f"{np.median(s['faults_a']):8.0f} {np.median(s['faults_b']):8.0f} "
              f"{s.get('peak_a', '-'):>6} {s.get('peak_b', '-'):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
