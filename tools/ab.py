"""In-process A/B timing of the working tree against a git revision.

Exports `src/collimcal` of REV with `git archive` into a temporary
directory and imports it as `collimcal_a`, and the working tree's as
`collimcal_b`, in one process.  Each round runs every unit in ABBA order
(A, B, B, A) and then AAAA, serially, on the same inputs:

    mc_ba2   `_run_chunk` of 2 trials, all four arms, 1 px (the `mc_ba` point)
    mc_ba5   the same with 5 trials
    mc_init  `_run_chunk` of 12 trials, arms ours and zhang, 0.5 px, 15 mm
    nimg, minimal, single
             one in-process `collimcal calibrate` request of that mode

Per unit it prints the median over the rounds of B / A (the summed time of
the two B runs over that of the two A runs), a bootstrap 95% interval of
that median, the rounds B won, the same median and interval for the A/A
control (the middle two A runs of AAAA over the outer two), the median
times, and the median minor page faults of one run (`RUSAGE_SELF`).
Times are process time.  Uses the standard library and numpy only.

    python3 tools/ab.py                          # HEAD against the working tree
    python3 tools/ab.py --against HEAD~1 --rounds 40 --units mc_ba2 mc_ba5
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
UNITS = ("mc_ba2", "mc_ba5", "mc_init", "nimg", "minimal", "single")
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
    """A function that runs `unit` once with `package`."""
    synth = package.synth
    if unit.startswith("mc_"):
        if unit == "mc_init":
            config = synth.default_config(pixel_noise_sigma=0.5, spherical_noise_sigma=15.0)
            trials, arms = range(12), ("ours", "zhang")
        else:
            config = synth.default_config(pixel_noise_sigma=1.0)
            trials, arms = range(int(unit[len("mc_ba"):])), ARMS
        return lambda: synth._run_chunk(config, trials, arms)
    argv = ["calibrate", "--in", inputs[unit], "--mode", unit, "--out", workdir / "report.json"]
    if unit == "single":
        argv += ["--reference", inputs["database"]]
    return lambda: cli_call(package, *argv)


def timed(call):
    """(process seconds, minor faults) of one call."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.process_time()
    call()
    seconds = time.process_time() - start
    return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def bootstrap_median(ratios, rng, draws: int = 2000):
    """The median of `ratios` and a bootstrap 95% interval of it."""
    ratios = np.asarray(ratios)
    medians = np.median(rng.choice(ratios, size=(draws, ratios.size)), axis=1)
    return float(np.median(ratios)), *np.percentile(medians, [2.5, 97.5]).tolist()


def run(units, rounds: int, a, b, inputs: dict, workdir: Path) -> dict:
    """Every unit's per-round (B/A, A/A) ratios, times and faults."""
    calls = {unit: (unit_call(unit, a, inputs, workdir), unit_call(unit, b, inputs, workdir))
             for unit in units}
    for call_a, call_b in calls.values():  # warm both sides once
        call_a(), call_b()
    stats = {unit: {"ab": [], "aa": [], "a": [], "b": [], "faults_a": [], "faults_b": []}
             for unit in units}
    for _ in range(rounds):
        for unit, (call_a, call_b) in calls.items():
            (a1, fa), (b1, fb), (b2, _), (a2, _) = map(timed, (call_a, call_b, call_b, call_a))
            c1, c2, c3, c4 = (timed(call_a)[0] for _ in range(4))
            s = stats[unit]
            s["ab"].append((b1 + b2) / (a1 + a2))
            s["aa"].append((c2 + c3) / (c1 + c4))
            s["a"].append(a1 + a2)
            s["b"].append(b1 + b2)
            s["faults_a"].append(fa)
            s["faults_b"].append(fb)
    return stats


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
    print(f"A = {args.against}, B = working tree; {args.rounds} rounds, process time")
    print(f"{'unit':8} {'B/A':>6} {'95% interval':>15} {'wins':>6} {'A/A':>6} "
          f"{'95% interval':>15} {'A ms':>8} {'B ms':>8} {'faults A':>8} {'faults B':>8}")
    for unit, s in stats.items():
        ab, ab_lo, ab_hi = bootstrap_median(s["ab"], rng)
        aa, aa_lo, aa_hi = bootstrap_median(s["aa"], rng)
        wins = sum(ratio < 1.0 for ratio in s["ab"])
        print(f"{unit:8} {ab:6.3f} [{ab_lo:6.3f}, {ab_hi:6.3f}] {wins:>3}/{len(s['ab']):<2} "
              f"{aa:6.3f} [{aa_lo:6.3f}, {aa_hi:6.3f}] "
              f"{np.median(s['a']) * 500:8.2f} {np.median(s['b']) * 500:8.2f} "
              f"{np.median(s['faults_a']):8.0f} {np.median(s['faults_b']):8.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
