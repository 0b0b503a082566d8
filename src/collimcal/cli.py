"""Command-line front end.

Exit codes: 0 success, 2 invalid input or configuration, 3 solver or
numeric failure, 4 hard degeneracy.  All commands are deterministic given
their inputs and seeds; benchmark parallelism is capped by the
COLLIMCAL_THREADS environment variable (unset means hardware concurrency).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import errors, fileio, synth
from .core_geom import Distortion, ObservationSet, axis_angle_from_rotation_matrix
from .multi_solver import detect_degeneracy, solve_closed_form, solve_minimal
from .refine import reprojection_rms, spherical_ba, spherical_problem
from .single_calib import build_ray_database, calibrate_single_image

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


def _nan_guarded(reduction, values) -> float:
    values = np.asarray(values, dtype=float)
    if np.all(np.isnan(values)):
        return float("nan")
    return float(reduction(values))


def _truth_errors(intr, dist, ext, truth: fileio.GroundTruth):
    block = {
        "fx_err_rel": abs(intr.fx - truth.intrinsics.fx) / truth.intrinsics.fx,
        "fy_err_rel": abs(intr.fy - truth.intrinsics.fy) / truth.intrinsics.fy,
        "cx_err_px": abs(intr.cx - truth.intrinsics.cx),
        "cy_err_px": abs(intr.cy - truth.intrinsics.cy),
        "gamma_err": abs(intr.gamma - truth.intrinsics.gamma),
        "d1_err": abs(dist.d1 - truth.distortion.d1),
        "d2_err": abs(dist.d2 - truth.distortion.d2),
    }
    if ext is not None:
        block["tcp_err_mm"] = float(np.linalg.norm(ext.t_cp - truth.t_cp))
    return block


def _degeneracy_block(observations: ObservationSet):
    report = detect_degeneracy(observations)
    return {
        "pure_translation_pairs": [list(p) for p in report.pure_translation_pairs],
        "z_rotation_pairs": [list(p) for p in report.z_rotation_pairs],
        "rank": report.rank,
    }


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
    data = fileio.read_observation_file(getattr(args, "in"))
    observations = data.observations
    n = len(observations)
    if args.mode == "nimg" and n < 3:
        raise fileio.FileFormatError(f"nimg mode needs >= 3 images, got {n}")
    if args.mode == "minimal" and n != 2:
        raise fileio.FileFormatError(f"minimal mode needs exactly 2 images, got {n}")
    if args.mode == "single":
        if n != 1:
            raise fileio.FileFormatError(f"single mode needs exactly 1 image, got {n}")
        if not args.reference:
            raise fileio.FileFormatError("single mode needs --reference <database>")
        if data.image_size is None:
            raise fileio.FileFormatError("single mode needs image_size in the "
                                         "observation file")

    report = {"solver": args.mode, "input": getattr(args, "in"),
              "config_echo": {"mode": args.mode, "reference": args.reference,
                              "no_refine": bool(args.no_refine)}}

    ext = None
    if args.mode == "single":
        database = fileio.read_ray_database(args.reference)
        result = calibrate_single_image(
            observations.ids, observations.uv, database,
            image_width=data.image_size[0], image_height=data.image_size[1],
            refine_distortion=not args.no_refine)
        intr, dist = result.intrinsics, result.distortion
        report.update({
            "rotation_axis_angle": fileio.rotations_payload(result.rotation),
            "rms_reprojection_px": result.report.rms_reprojection,
            "n_matched": result.n_matched,
            "n_dropped": result.n_dropped,
            "converged": result.report.converged,
            "termination": result.report.termination,
        })
    else:
        report["degeneracy"] = _degeneracy_block(observations)
        if args.mode == "nimg":
            intr, ext = solve_closed_form(observations)
        else:
            candidates = solve_minimal(observations)
            report["candidate_count"] = len(candidates)
            intr, ext = candidates[0]
        dist = Distortion(0.0, 0.0)
        if args.no_refine:
            stage = "init"
            rms, per_image = reprojection_rms(spherical_problem(observations, (intr, dist, ext)))
        else:
            (intr, dist, ext), ba_report = spherical_ba(observations,
                                                        (intr, dist, ext))
            report["converged"] = ba_report.converged
            report["termination"] = ba_report.termination
            stage = "refined"
            rms, per_image = ba_report.rms_reprojection, ba_report.per_image_rms
        report.update({
            "stage": stage,
            "t_cp_mm": [float(v) for v in ext.t_cp],
            "rotations_axis_angle": fileio.rotations_payload(ext.rotations),
            "rms_reprojection_px": rms,
            "per_image_rms_px": per_image,
        })
    report["intrinsics"] = fileio.intrinsics_payload(intr)
    report["distortion"] = [dist.d1, dist.d2]
    if data.ground_truth is not None:
        report["error_vs_truth"] = _truth_errors(intr, dist, ext, data.ground_truth)
    fileio.write_report(args.out, report)
    print(f"wrote {args.out}: fx={report['intrinsics']['fx']:.3f} "
          f"fy={report['intrinsics']['fy']:.3f}")
    return EXIT_OK


def cmd_build_db(args) -> int:
    data = fileio.read_observation_file(args.ref_obs)
    if len(data.observations) != 1:
        raise fileio.FileFormatError(
            f"reference file must hold exactly 1 image, got {len(data.observations)}")
    intr, dist = fileio.read_camera_file(args.ref_cam)
    database = build_ray_database(data.observations.ids, data.observations.uv, intr, dist)
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

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collimcal",
        description="Collimator-based camera calibration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic observation file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("calibrate", help="calibrate from an observation file")
    p.add_argument("--in", required=True)
    p.add_argument("--mode", required=True, choices=("nimg", "minimal", "single"))
    p.add_argument("--reference", default=None,
                   help="ray database file (single mode)")
    p.add_argument("--no-refine", dest="no_refine", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("build-db", help="build a ray database from a reference image")
    p.add_argument("--ref-obs", dest="ref_obs", required=True)
    p.add_argument("--ref-cam", dest="ref_cam", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_db)

    p = sub.add_parser("benchmark", help="run a Monte Carlo sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--sweep", required=True, choices=synth.SWEEP_KINDS)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (fileio.FileFormatError, ValueError) as exc:
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
