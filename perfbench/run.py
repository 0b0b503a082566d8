"""Benchmark of the collimcal library and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_init --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs the
workload with tracing and reports the per-module metrics.  The names and
units of both sets come from BENCHMARK.json.  Every line but the last
describes the run (machine, thread settings, correctness checks, failures
by type, result digest); the last line is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("mc_init", "mc_ba", "calib_cli")
# BLAS on tiny matrices oversubscribes the cores when each worker also runs
# BLAS threads; one thread per process makes the scheduler stop setting the
# throughput.  The variables must be set before numpy is imported, and the
# harness's forked workers inherit them.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and no statistical checks (smoke test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_info(workers: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workers": workers,
        "note": ("shared machine: no CPU pinning, no frequency control, "
                 "other tenants may load the machine"),
    }


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process plus ``workers`` times the largest worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def emit(label: str, payload) -> None:
    print(f"{label} {json.dumps(payload, sort_keys=True, default=str)}")


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    src = ROOT / "src"
    spec_path = ROOT / "BENCHMARK.json"
    if not (src / "collimcal" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/collimcal or no BENCHMARK.json; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import collimcal
    import workloads
    from speed import SpeedProbe

    if not Path(collimcal.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported collimcal from {collimcal.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start

    workers = len(os.sched_getaffinity(0))
    workdir = BENCH_DIR / "_work" / args.workload
    if args.workload == "calib_cli":
        bench = workloads.CalibCli(args.seed, workdir, args.smoke)
        workers = 1
    else:
        bench = workloads.MonteCarlo(args.workload, args.seed, workers, args.smoke)
    emit("machine", machine_info(workers))

    try:
        # Set-up time is rescaled to nominal speed like the run's times,
        # by the reference kernel timed around each repetition.
        setup_times = []
        with SpeedProbe(workers) as probe:
            probe.sample(workloads.PROBE_REPEATS)
            for _ in range(SETUP_REPEATS):
                t0 = time.perf_counter()
                bench.setup()
                setup_times.append(time.perf_counter() - t0)
                probe.sample(workloads.PROBE_REPEATS)
        setup_raw_s = import_s + statistics.median(setup_times)
        setup_s = setup_raw_s * probe.factor
        emit("setup", {"import_s": import_s, "repeats_s": setup_times,
                       "setup_raw_s": setup_raw_s, "setup_s": setup_s,
                       "speed": probe.summary()})

        if args.trace:
            result = bench.run_traced(args.seconds)
            names = spec["per_layer"]
            values = dict(result.per_module, **{"trace.overhead_frac": result.overhead})
            tracer = result.tracer
            out_dir = BENCH_DIR / "_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            tracer.write(spans_path)
            emit("per_module", result.per_module)
            emit("trace", dict(result.detail, overhead_frac=result.overhead,
                               spans_file=str(spans_path.relative_to(ROOT)),
                               spans=len(tracer.spans)))
        else:
            result = bench.run(args.seconds)
            names = spec["end_to_end"]
            values = dict(result.metrics, setup_s=setup_s,
                          peak_rss_mb=peak_rss_mb(workers))
            emit("failures", result.failures)
            emit("detail", result.detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for check in result.checks:
        label = "check" if check.gate else "check (reported only)"
        print(f"{label} {check.name}: {'PASS' if check.passed else 'FAIL'} - {check.detail}")
    emit("digest", {"workload": args.workload, "seed": args.seed,
                    "digest": result.digest})

    metrics = {}
    for entry in names:
        if entry["name"] not in values:
            print(f"error: metric {entry['name']} was not measured", file=sys.stderr)
            return 3
        metrics[entry["name"]] = {"value": float(values[entry["name"]]),
                                  "unit": entry["unit"]}
        print(f"metric {entry['name']} {values[entry['name']]!r} {entry['unit']}")
    print(json.dumps({"correct": all(c.passed for c in result.checks if c.gate),
                      "attempted": int(result.attempted),
                      "failed": int(result.failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
