"""The calibration pipeline: each mode's start, then its bundle adjustment.

The modes are the paper's three solvers for one collimator set-up, the
closed form over N images (`nimg`), the two-image minimal solver
(`minimal`) and single-image calibration against a reference ray database
(`single`), and the plane-based baseline without the motion constraint
(`zhang`).  `calibrate` runs one observation set in any mode, and
`calibrate_all` runs many sets in one mode with their bundle adjustments
side by side, as the Monte Carlo arms do.  `error_row` scores a result
against the truth, for the arms and the `calibrate` report alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import errors
from .core_geom import CameraIntrinsics, Distortion, ObservationSet, decompose_homography
from .multi_solver import (SphericalExtrinsics, conic_rows, decompose_iac,
                           solve_closed_form, solve_minimal)
from .refine import (ResidualReport, bundle_adjustments, general_ba, spherical_ba,
                     spherical_problem, unrefined_report)
from .single_calib import RayDatabase, calibrate_single_image

# ---------------------------------------------------------------------------
# motion-unconstrained baseline initializer
# ---------------------------------------------------------------------------

def zhang_init(observations: ObservationSet) -> CameraIntrinsics:
    """Classical plane-based closed-form intrinsics, no motion constraint.

    Stacks the orthogonality/equal-norm constraints on the image of the
    absolute conic from every homography and decodes K from the smallest
    singular vector.  Needs >= 3 images for the full five-parameter model;
    with exactly 2 a zero-skew row is added.
    """
    return observations.homography_fit.intrinsics_to_raw(_zhang_iac(observations))


def _zhang_iac(observations: ObservationSet) -> CameraIntrinsics:
    """The baseline's intrinsics (`zhang_init`) in the fit units of the homographies."""
    if len(observations) < 2:
        raise ValueError("baseline initialization needs at least 2 images")
    u = conic_rows(observations.homography_fit.matrices)
    V = np.stack([u[:, 1], u[:, 0] - u[:, 3]], axis=1).reshape(-1, 6)  # u12, u11 - u22
    if len(observations) == 2:
        V = np.vstack([V, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]])  # gamma = 0
    _, s, Vt = np.linalg.svd(V)
    if s[-2] <= 1e-9 * s[0]:
        raise errors.DegenerateConfiguration(
            "absolute-conic constraint matrix is rank deficient")
    return decompose_iac(Vt[-1])


# ---------------------------------------------------------------------------
# the calibration pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Calibration:
    """One calibration result, in raw units.

    `extrinsics` is the SphericalExtrinsics of the `nimg` and `minimal`
    modes, the refined `zhang` mode's poses (R (N, 3, 3), t (N, 3) mm), the
    `single` mode's rotation as a one-image stack (1, 3, 3), and None for
    the unrefined `zhang` mode.  Unrefined, `distortion` is the start's zero
    distortion.  `report` is the fit of the refinement, or unrefined that of
    the start (`unrefined_report`), except for the unrefined `zhang` mode
    and the unrefined results of `calibrate_all`, where it is None.  `start`
    holds the start candidates of the `nimg`, `minimal` and `zhang` modes,
    best first.  The `single` mode has no `start` but counts the image's
    points that matched the database and those dropped.
    """

    intrinsics: CameraIntrinsics
    extrinsics: SphericalExtrinsics | tuple | np.ndarray | None
    distortion: Distortion
    report: ResidualReport | None
    start: list | None
    n_matched: int | None = None
    n_dropped: int | None = None


def calibrate(observations: ObservationSet, mode: str, *, refine: bool = True, start=None,
              database: RayDatabase | None = None, image_size=None) -> Calibration:
    """One calibration of `observations`: the mode's start, then its bundle adjustment.

    The start of `nimg` is `solve_closed_form`, that of `minimal` the best
    of `solve_minimal`'s candidates, and that of `zhang`, the plane-based
    baseline, its absolute conic's intrinsics in the fit's units, solved
    once.  With `refine` the bundle adjustment runs from zero distortion:
    `spherical_ba` for `nimg` and `minimal`, and `general_ba` for `zhang`,
    from the poses of the fit's homographies decomposed with those fit-unit
    intrinsics.  `start` is the `start` of an earlier result of the same
    mode on the same observations, used in place of solving the start
    again.  The solvers own each mode's image-count rule.

    The `single` mode calibrates one image against the ray `database`
    (`calibrate_single_image`, which refines distortion with `refine`);
    the image's (width, height) `image_size` fixes its start's principal
    point.  It refuses, with ValueError, any other image count, and a
    missing database or image size.  `start` is not used in this mode, nor
    are `database` and `image_size` in the others.
    """
    if mode == "single":
        if len(observations) != 1:
            raise ValueError(f"single mode needs exactly 1 image, got {len(observations)}")
        if database is None:
            raise ValueError("single mode needs --reference <database>")
        if image_size is None:
            raise ValueError("single mode needs image_size in the observation file")
        result = calibrate_single_image(observations.ids, observations.uv, database,
                                        image_size=image_size, refine_distortion=refine)
        return Calibration(result.intrinsics, result.rotation[None], result.distortion,
                           result.report, None, result.n_matched, result.n_dropped)
    started = _started(observations, mode, refine, start)
    init = (started.intrinsics, started.distortion, started.extrinsics)
    if not refine:
        return started if mode == "zhang" else replace(
            started, report=unrefined_report(spherical_problem(observations, init)))
    return _refined(started, (general_ba if mode == "zhang" else spherical_ba)(observations, init))


def _started(observations: ObservationSet, mode: str, refine: bool, start) -> Calibration:
    """The unrefined Calibration of `observations` in `mode`, with no report.

    `start` is the mode's start candidates, solved when None.  Refined, the
    `zhang` mode also gets the poses its bundle adjustment starts from.
    """
    if mode not in ("nimg", "minimal", "zhang"):
        raise ValueError(f"unknown calibration mode {mode!r}")
    if start is None:
        start = ([_zhang_iac(observations)] if mode == "zhang"
                 else [solve_closed_form(observations)] if mode == "nimg"
                 else solve_minimal(observations))
    fit = observations.homography_fit
    intr, ext = (fit.intrinsics_to_raw(start[0]), None) if mode == "zhang" else start[0]
    if refine and mode == "zhang":
        R, t, _ = decompose_homography(fit.matrices, start[0])
        ext = (R, fit.translations_to_raw(R, t))
    return Calibration(intr, ext, Distortion(0.0, 0.0), None, start)


def calibrate_all(observation_sets, mode: str, *, refine: bool, starts) -> list:
    """`calibrate` of every observation set in `mode` with its start (None: solved).

    The `single` mode is not taken.  The starts are solved set by set, and
    the bundle adjustments of the sets whose start succeeded run side by
    side (`bundle_adjustments`), so each refined result is the one
    `calibrate` gives alone; an unrefined result has no report.  Returns
    per set (its Calibration or the CalibrationError it raised, seconds):
    the time of its start and, refined, an equal share of the time of the
    bundle adjustments.
    """
    outcomes, seconds = [], []
    for observations, start in zip(observation_sets, starts):
        began = time.perf_counter()
        try:
            outcomes.append(_started(observations, mode, refine, start))
        except errors.CalibrationError as exc:
            outcomes.append(exc)
        seconds.append(time.perf_counter() - began)
    if refine:
        started = [k for k, outcome in enumerate(outcomes) if isinstance(outcome, Calibration)]
        began = time.perf_counter()
        adjusted = bundle_adjustments(
            "general" if mode == "zhang" else "spherical",
            [observation_sets[k] for k in started],
            [(outcomes[k].intrinsics, outcomes[k].distortion, outcomes[k].extrinsics)
             for k in started])
        share = (time.perf_counter() - began) / max(len(started), 1)
        for k, result in zip(started, adjusted):
            seconds[k] += share
            outcomes[k] = (result if isinstance(result, errors.CalibrationError)
                           else _refined(outcomes[k], result))
    return list(zip(outcomes, seconds))


def _refined(started: Calibration, adjusted) -> Calibration:
    """`started` with the camera, poses and report of its bundle adjustment's result."""
    (intr, dist, ext), report = adjusted
    return replace(started, intrinsics=intr, extrinsics=ext, distortion=dist, report=report)


# ---------------------------------------------------------------------------
# scoring against the truth
# ---------------------------------------------------------------------------

def truth_row(intrinsics: CameraIntrinsics, distortion: Distortion, t_cp) -> np.ndarray:
    """A true camera and center t_cp (3,), as `synth.PARAM_NAMES` orders them, r = -t_cp[2]."""
    return np.array([intrinsics.fx, intrinsics.fy, intrinsics.cx, intrinsics.cy,
                     intrinsics.gamma, distortion.d1, distortion.d2, t_cp[0], t_cp[1], -t_cp[2]])


def error_row(intrinsics: CameraIntrinsics, distortion: Distortion | None, extrinsics,
              truth: np.ndarray) -> np.ndarray:
    """The signed errors of an estimate against `truth` (`truth_row`), in the same order.

    The one error formula of the Monte Carlo arms and of the `calibrate`
    report's `error_vs_truth`.  The distortion errors are NaN when
    `distortion` is None, and the center's unless `extrinsics` is a
    SphericalExtrinsics.
    """
    values = [intrinsics.fx, intrinsics.fy, intrinsics.cx, intrinsics.cy, intrinsics.gamma]
    values += [np.nan] * 2 if distortion is None else [distortion.d1, distortion.d2]
    spherical = isinstance(extrinsics, SphericalExtrinsics)
    values += [extrinsics.x, extrinsics.y, extrinsics.r] if spherical else [np.nan] * 3
    return np.array(values) - truth
