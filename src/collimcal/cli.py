"""Command-line front end.

Exit codes: 0 success, 2 invalid input or configuration, 3 solver or
numeric failure, 4 hard degeneracy.  All commands are deterministic given
their inputs and seeds; benchmark parallelism is capped by the
COLLIMCAL_THREADS environment variable (unset means the number of CPUs the
process may run on, its CPU affinity).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import errors, fileio, pipeline, synth
from .core_geom import axis_angle_from_rotation_matrix
from .multi_solver import SphericalExtrinsics, detect_degeneracy
from .single_calib import build_ray_database

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_DEGENERATE = 4

CSV_COLUMNS = ("sweep_value", "solver", "stage",
               "fx_err_rel_mean", "fx_err_rel_std",
               "cxy_err_px_mean", "cxy_err_px_std",
               "d1_err_mean", "d2_err_mean", "tcp_err_mm_mean",
               "fail_count", "ms_per_trial")


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.10g}"


def _nan_guarded(reduction, values: np.ndarray) -> float:
    if np.all(np.isnan(values)):
        return float("nan")
    return float(reduction(values))


def _truth_errors(result: pipeline.Calibration, truth: fileio.GroundTruth):
    """The report's `error_vs_truth`: the Monte Carlo's `pipeline.error_row`, unsigned.

    The focal errors are relative to the truth, and the center's is the
    distance to the true center, written when there is a center.
    """
    true = pipeline.truth_row(truth.intrinsics, truth.distortion, truth.t_cp)
    err = np.abs(pipeline.error_row(result.intrinsics, result.distortion, result.extrinsics,
                                    true))
    block = {"fx_err_rel": err[0] / true[0], "fy_err_rel": err[1] / true[1],
             "cx_err_px": err[2], "cy_err_px": err[3], "gamma_err": err[4],
             "d1_err": err[5], "d2_err": err[6]}
    if isinstance(result.extrinsics, SphericalExtrinsics):
        block["tcp_err_mm"] = np.linalg.norm(err[7:])
    return {key: float(value) for key, value in block.items()}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    config = fileio.read_synthetic_config(args.config)
    rng = np.random.default_rng(np.random.SeedSequence(config.rng_seed, spawn_key=(0,)))
    (R, _), observations = synth.make_scene(config, rng)
    truth = fileio.GroundTruth(
        intrinsics=config.intrinsics,
        distortion=config.distortion,
        t_cp=config.t_cp,
        rotations=axis_angle_from_rotation_matrix(R))
    fileio.write_observation_file(args.out, observations,
                                  image_size=config.image_size, ground_truth=truth)
    print(f"wrote {args.out}: {len(observations)} images, "
          f"{len(observations.ids)} points")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    inputs = getattr(args, "in")
    data = fileio.read_observation_file(inputs)
    observations = data.observations
    database = None
    if args.mode == "single" and args.reference:
        database = fileio.read_ray_database(args.reference)
        inputs = f"{inputs} with {args.reference}"

    report = {"solver": args.mode, "input": getattr(args, "in"),
              "config_echo": {"mode": args.mode, "reference": args.reference,
                              "no_refine": bool(args.no_refine)}}

    try:  # each file reads, but what they hold may be refused
        result = pipeline.calibrate(observations, args.mode, refine=not args.no_refine,
                                    database=database, image_size=data.image_size)
        ext = result.extrinsics
        if args.mode == "single":
            report.update({"rotation_axis_angle": fileio.rotations_payload(ext[0]),
                           "n_matched": result.n_matched, "n_dropped": result.n_dropped})
        else:
            if args.mode == "minimal":
                report["candidate_count"] = len(result.start)
            report["degeneracy"] = dataclasses.asdict(detect_degeneracy(observations))
            report.update({"t_cp_mm": [float(v) for v in ext.t_cp],
                           "rotations_axis_angle": fileio.rotations_payload(ext.rotations)})
    except ValueError as exc:
        raise fileio.FileFormatError(f"{inputs}: {exc}") from exc
    # The refinement block: the same fields in every mode, refined or not.
    report.update({
        "stage": "init" if args.no_refine else "refined",
        "converged": result.report.converged,
        "termination": result.report.termination,
        "rms_reprojection_px": result.report.rms_reprojection,
        "per_image_rms_px": result.report.per_image_rms,
    })
    # The camera block, so that a report is a camera file.
    report.update(fileio.camera_payload(result.intrinsics, result.distortion))
    if data.ground_truth is not None:
        report["error_vs_truth"] = _truth_errors(result, data.ground_truth)
    fileio.write_report(args.out, report)
    print(f"wrote {args.out}: fx={report['intrinsics']['fx']:.3f} "
          f"fy={report['intrinsics']['fy']:.3f}")
    return EXIT_OK


def cmd_build_db(args) -> int:
    data = fileio.read_observation_file(args.ref_obs)
    intr, dist = fileio.read_camera_file(args.ref_cam)
    try:  # each file reads, but they make no database
        if len(data.observations) != 1:
            raise ValueError(f"reference file must hold exactly 1 image, "
                             f"got {len(data.observations)}")
        database = build_ray_database(data.observations.ids, data.observations.uv, intr, dist)
    except ValueError as exc:
        raise fileio.FileFormatError(f"{args.ref_obs} with {args.ref_cam}: {exc}") from exc
    fileio.write_ray_database(args.out, database)
    print(f"wrote {args.out}: {len(database)} rays")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    config = fileio.read_synthetic_config(args.config)
    values = fileio.read_sweep_values(args.config, args.sweep)
    stats = synth.run_monte_carlo(config, args.sweep, values)
    lines = [",".join(CSV_COLUMNS)]
    for s in stats:
        focal = s.focal_rel_errors()
        cxy = s.principal_point_errors()
        d1, d2 = (np.abs(s.trials[:, synth.PARAM_NAMES.index(name)]) for name in ("d1", "d2"))
        row = (s.sweep_value, s.solver, s.stage,
               _nan_guarded(np.nanmean, focal), _nan_guarded(np.nanstd, focal),
               _nan_guarded(np.nanmean, cxy), _nan_guarded(np.nanstd, cxy),
               _nan_guarded(np.nanmean, d1), _nan_guarded(np.nanmean, d2),
               _nan_guarded(np.nanmean, s.center_errors()),
               s.fail_count, s.ms_per_trial())
        lines.append(",".join(_fmt(v) for v in row))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {args.out}: {len(stats)} rows")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared for the process."""
    parser = argparse.ArgumentParser(
        prog="collimcal",
        description="Collimator-based camera calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic observation file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("calibrate", help="calibrate from an observation file")
    p.add_argument("--in", required=True)
    p.add_argument("--mode", required=True, choices=("nimg", "minimal", "single"))
    p.add_argument("--reference", default=None,
                   help="ray database file (single mode)")
    p.add_argument("--no-refine", dest="no_refine", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("build-db", help="build a ray database from a reference image")
    p.add_argument("--ref-obs", dest="ref_obs", required=True)
    p.add_argument("--ref-cam", dest="ref_cam", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("benchmark", help="run a Monte Carlo sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--sweep", required=True, choices=synth.SWEEP_KINDS)
    p.add_argument("--out", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up by name on every call rather than bound into the shared
    # parser, so that a wrapped module function (a tracer's, a test's) runs.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except ValueError as exc:  # fileio.FileFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except errors.DegenerateConfiguration as exc:
        print(f"degenerate configuration: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except errors.CalibrationError as exc:
        print(f"solver failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
