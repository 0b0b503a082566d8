"""Synthetic scenes, the motion-unconstrained baseline, and the benchmark harness.

Scene generation follows the experimental protocol: a planar grid target
observed from a fixed optical center t_cp = (x, y, -r) with arbitrary
camera orientation, isotropic per-coordinate Gaussian pixel noise, and
optional Gaussian perturbation of the center to model an imperfect sphere.

Per-trial RNG streams derive from SeedSequence(rng_seed, spawn_key=(trial,)),
so a trial sees identical poses and noise draws at every sweep point; the
swept parameter only scales its own (always-drawn) perturbations.  This
keeps solver comparisons and sweeps paired, and makes every run bit
reproducible.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import repeat

import numpy as np

from . import errors
from .core_geom import (
    MIN_IMAGE_POINTS,
    CameraIntrinsics,
    Distortion,
    ObservationSet,
    PlanarTarget,
    checked_rotations,
    decompose_homography,
    project_camera_points,
    radial_pixels,
    rotation_matrix_from_axis_angle,
)
from .multi_solver import conic_rows, decompose_iac, solve_closed_form
from .refine import general_ba, spherical_ba

MAX_TILT_DEG = 30.0
POSE_ATTEMPTS = 100

PARAM_NAMES = ("fx", "fy", "cx", "cy", "gamma", "d1", "d2", "x", "y", "r")

SOLVER_ARMS = ("ours", "ours_ba", "zhang", "zhang_ba")
_ARM_LABELS = {"ours": ("ours", "init"), "ours_ba": ("ours", "refined"),
               "zhang": ("zhang", "init"), "zhang_ba": ("zhang", "refined")}

SWEEP_KINDS = ("noise", "images", "spherical")


@dataclass(frozen=True)
class TargetGrid:
    """Regular grid of target points, row-major ids, spacing in mm."""

    rows: int = 8
    cols: int = 11
    spacing: float = 30.0

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) and n >= 2 for n in (self.rows, self.cols)):
            raise ValueError(f"target rows and cols must be integers of at least 2, "
                             f"got {self.rows} and {self.cols}")
        if not (np.isfinite(self.spacing) and self.spacing > 0):
            raise ValueError(f"target spacing must be finite and positive, got {self.spacing}")

    @functools.lru_cache(maxsize=16)
    def planar_target(self) -> PlanarTarget:
        """The grid as a PlanarTarget, built once per grid value and shared.

        Its `ids` and `xy` are read-only, since every caller gets the same arrays.
        """
        jj, ii = np.meshgrid(np.arange(self.cols), np.arange(self.rows))
        xy = np.column_stack([jj.ravel() * self.spacing, ii.ravel() * self.spacing])
        target = PlanarTarget(ids=np.arange(self.rows * self.cols), xy=xy)
        target.ids.flags.writeable = False
        target.xy.flags.writeable = False
        return target


@dataclass(frozen=True)
class SyntheticConfig:
    """Full synthetic protocol; defaults reproduce the reference configuration."""

    intrinsics: CameraIntrinsics = CameraIntrinsics(fx=1000.0, fy=1000.0,
                                                    cx=542.0, cy=478.0, gamma=0.01)
    distortion: Distortion = Distortion(0.0, 0.0)
    image_size: tuple = (1080, 960)
    target: TargetGrid = field(default_factory=TargetGrid)
    radius: float = 700.0
    target_offset: tuple = (150.0, 105.0)
    pixel_noise_sigma: float = 0.0
    spherical_noise_sigma: float = 0.0
    image_count: int = 15
    trial_count: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("radius", "target_offset", "pixel_noise_sigma", "spherical_noise_sigma"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        for name in ("image_count", "trial_count", "rng_seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.image_count < 1 or self.trial_count < 1:
            raise ValueError("counts must be at least 1")
        if self.pixel_noise_sigma < 0 or self.spherical_noise_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        w, h = self.image_size
        if not (w > 0 and h > 0):
            raise ValueError(f"image_size must be positive, got {self.image_size}")
        intr = self.intrinsics
        corners = np.array([[0.0, 0.0], [w, 0.0], [0.0, h], [w, h]])
        radii = np.hypot((corners[:, 0] - intr.cx) / intr.fx,
                         (corners[:, 1] - intr.cy) / intr.fy)
        self.distortion.check_monotone_within(float(radii.max()))

    @property
    def t_cp(self) -> np.ndarray:
        return np.array([self.target_offset[0], self.target_offset[1], -self.radius])

    def truth_vector(self) -> np.ndarray:
        intr = self.intrinsics
        return np.array([intr.fx, intr.fy, intr.cx, intr.cy, intr.gamma,
                         self.distortion.d1, self.distortion.d2,
                         self.target_offset[0], self.target_offset[1], self.radius])


def default_config(**overrides) -> SyntheticConfig:
    """The reference synthetic protocol (distortion off unless overridden)."""
    return replace(SyntheticConfig(), **overrides) if overrides else SyntheticConfig()


def _inside(uv: np.ndarray, image_size) -> np.ndarray:
    w, h = image_size
    u, v = uv[..., 0], uv[..., 1]
    return (u >= 0) & (u <= w) & (v >= 0) & (v <= h)


def _camera_model(config: SyntheticConfig):
    intr, dist = config.intrinsics, config.distortion
    return (intr.fx, intr.fy, intr.cx, intr.cy, intr.gamma), (dist.d1, dist.d2)


def _draw_pose(config: SyntheticConfig, rng: np.random.Generator, points: np.ndarray):
    """One image's rotation matrix and jittered center, drawn as the protocol says.

    Each attempt draws a uniform axis (3 normals) and an angle uniform in
    [0, MAX_TILT_DEG] (1 uniform); the first whose whole target lies in front
    of the camera and inside the image at the nominal center is kept, and
    the jitter (3 normals), which models the imperfect collimator, follows.
    """
    nominal = config.t_cp
    intr_p, dist_p = _camera_model(config)
    w, h = config.image_size
    max_angle = np.deg2rad(MAX_TILT_DEG)
    for _ in range(POSE_ATTEMPTS):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0.0, max_angle)
        R = rotation_matrix_from_axis_angle(axis * angle)
        # project_camera_points' checks, inline, without the outputs it would
        # build; it keeps the attempts that it would keep.
        x, y, z = (points @ R.T + (-R @ nominal)).T
        if z.min() <= 0:
            continue
        u, v = radial_pixels(intr_p, dist_p, x, y, z)[:2]
        if u.min() >= 0 and u.max() <= w and v.min() >= 0 and v.max() <= h:
            break
    else:
        raise errors.PoseSamplingFailed(
            f"no visible pose found in {POSE_ATTEMPTS} attempts; "
            f"the view cone is too wide for this target/image geometry")
    return R, nominal + rng.normal(size=3) * config.spherical_noise_sigma


def _render(R: np.ndarray, centers: np.ndarray, config: SyntheticConfig,
            points: np.ndarray, rng: np.random.Generator):
    """Noisy pixels (N, n, 2) of the points seen from every pose, in one pass.

    Returns the pixels and which points to keep (N, n): inside the image in
    a view with every point in front of the camera.  The noise is drawn for
    every view, as N sequential (n, 2) draws would be.
    """
    t = -(R @ centers[..., None])[..., 0]
    xc = points @ R.transpose(0, 2, 1) + t[:, None, :]
    front = np.all(xc[..., 2] > 0, axis=1)
    uv = np.zeros(xc.shape[:2] + (2,))
    intr_p, dist_p = _camera_model(config)
    uv[front] = project_camera_points(intr_p, dist_p, xc[front].reshape(-1, 3))[0].reshape(
        -1, len(points), 2)
    uv = uv + rng.normal(size=uv.shape) * config.pixel_noise_sigma
    return uv, _inside(uv, config.image_size) & front[:, None]


def make_scene(config: SyntheticConfig, rng: np.random.Generator):
    """Poses (R (N, 3, 3), centers (N, 3)) and their rendered observations.

    The one way to make a synthetic scene.  Every image's pose is drawn
    first, in image order (`_draw_pose`), then the pixel noise of every
    view, all from the one RNG stream.  A view whose jittered center puts a
    target point behind the camera, or leaves fewer than MIN_IMAGE_POINTS
    points in the image, is drawn again (pose, jitter and noise) after that,
    up to POSE_ATTEMPTS draws in all; then PoseSamplingFailed names the image.
    The observations' target is the grid's cached, read-only PlanarTarget,
    shared by every scene of that grid.
    """
    target = config.target.planar_target()
    points = np.column_stack([target.xy, np.zeros(len(target.ids))])
    R = np.empty((config.image_count, 3, 3))
    centers = np.empty((config.image_count, 3))
    for k in range(config.image_count):
        R[k], centers[k] = _draw_pose(config, rng, points)
    uv, keep = _render(R, centers, config, points, rng)
    for k in np.flatnonzero(keep.sum(axis=1) < MIN_IMAGE_POINTS):
        for _ in range(POSE_ATTEMPTS - 1):
            R[k], centers[k] = _draw_pose(config, rng, points)
            view_uv, view_keep = _render(R[k:k + 1], centers[k:k + 1], config, points, rng)
            uv[k], keep[k] = view_uv[0], view_keep[0]
            if keep[k].sum() >= MIN_IMAGE_POINTS:
                break
        else:
            raise errors.PoseSamplingFailed(
                f"image {k}: no pose in {POSE_ATTEMPTS} draws kept {MIN_IMAGE_POINTS} "
                f"target points in front of the camera and inside the image")
    observations = ObservationSet(target, target.ids[np.nonzero(keep)[1]], uv[keep],
                                  keep.sum(axis=1))
    return (checked_rotations(R), centers), observations


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
    if len(observations) < 2:
        raise ValueError("baseline initialization needs at least 2 images")
    fit = observations.homography_fit
    u = conic_rows(fit.matrices)
    V = np.stack([u[:, 1], u[:, 0] - u[:, 3]], axis=1).reshape(-1, 6)  # u12, u11 - u22
    if len(observations) == 2:
        V = np.vstack([V, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]])  # gamma = 0
    _, s, Vt = np.linalg.svd(V)
    if s[-2] <= 1e-9 * s[0]:
        raise errors.DegenerateConfiguration(
            "absolute-conic constraint matrix is rank deficient")
    return fit.intrinsics_to_raw(decompose_iac(Vt[-1]))


def _zhang_poses(observations: ObservationSet, intr: CameraIntrinsics):
    """Every image's pose (R (N, 3, 3), t (N, 3)) from its raw-unit homography."""
    fit = observations.homography_fit
    R, t, _ = decompose_homography(fit.homographies_to_raw(fit.matrices), intr)
    return R, t


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialStats:
    """Signed per-trial estimation errors for one solver arm at one sweep point.

    `trials` is (trial_count, 10) ordered as PARAM_NAMES; failed trials are
    NaN rows.  `seconds` holds the wall-clock time of each trial's solve.
    """

    sweep_value: float
    solver: str
    stage: str
    truth: np.ndarray
    trials: np.ndarray
    seconds: np.ndarray
    fail_count: int

    def _column(self, name: str) -> np.ndarray:
        return self.trials[:, PARAM_NAMES.index(name)]

    def focal_rel_errors(self) -> np.ndarray:
        fx, fy = self.truth[0], self.truth[1]
        return 0.5 * (np.abs(self._column("fx")) / fx + np.abs(self._column("fy")) / fy)

    def principal_point_errors(self) -> np.ndarray:
        return np.hypot(self._column("cx"), self._column("cy"))

    def center_errors(self) -> np.ndarray:
        return np.sqrt(self._column("x") ** 2 + self._column("y") ** 2
                       + self._column("r") ** 2)

    def ms_per_trial(self) -> float:
        return float(np.nanmean(self.seconds) * 1e3)


def _config_for(config: SyntheticConfig, sweep_kind: str, value) -> SyntheticConfig:
    if sweep_kind == "noise":
        return replace(config, pixel_noise_sigma=float(value))
    if sweep_kind == "images":
        return replace(config, image_count=int(value))
    if sweep_kind == "spherical":
        return replace(config, spherical_noise_sigma=float(value))
    raise ValueError(f"unknown sweep kind {sweep_kind!r}; expected one of {SWEEP_KINDS}")


def _error_row(intr, dist, ext, truth) -> np.ndarray:
    row = np.full(10, np.nan)
    row[0] = intr.fx - truth[0]
    row[1] = intr.fy - truth[1]
    row[2] = intr.cx - truth[2]
    row[3] = intr.cy - truth[3]
    row[4] = intr.gamma - truth[4]
    if dist is not None:
        row[5] = dist.d1 - truth[5]
        row[6] = dist.d2 - truth[6]
    if ext is not None:
        row[7] = ext.x - truth[7]
        row[8] = ext.y - truth[8]
        row[9] = ext.r - truth[9]
    return row


def run_single_trial(config: SyntheticConfig, trial_index: int, arms):
    """One paired trial: one scene, every requested solver arm on it.

    Returns {arm: (error_row, seconds)}; a failed arm maps to (None, seconds).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(config.rng_seed, spawn_key=(trial_index,)))
    truth = config.truth_vector()
    for _ in range(POSE_ATTEMPTS):
        _, observations = make_scene(config, rng)
        if observations.counts.min() >= 20:
            break
    else:
        raise errors.PoseSamplingFailed("could not render 20 visible points per image")

    results = {}
    closed_form = None
    zhang = None

    for arm in arms:
        start = time.perf_counter()
        try:
            if arm == "ours":
                closed_form = solve_closed_form(observations)
                results[arm] = (_error_row(closed_form[0], None, closed_form[1], truth),
                                time.perf_counter() - start)
            elif arm == "ours_ba":
                if closed_form is None:
                    closed_form = solve_closed_form(observations)
                init = (closed_form[0], Distortion(0.0, 0.0), closed_form[1])
                (intr, dist, ext), _ = spherical_ba(observations, init)
                results[arm] = (_error_row(intr, dist, ext, truth),
                                time.perf_counter() - start)
            elif arm == "zhang":
                zhang = zhang_init(observations)
                results[arm] = (_error_row(zhang, None, None, truth),
                                time.perf_counter() - start)
            elif arm == "zhang_ba":
                if zhang is None:
                    zhang = zhang_init(observations)
                init = (zhang, Distortion(0.0, 0.0), _zhang_poses(observations, zhang))
                (intr, dist, _), _ = general_ba(observations, init)
                results[arm] = (_error_row(intr, dist, None, truth),
                                time.perf_counter() - start)
            else:
                raise ValueError(f"unknown solver arm {arm!r}")
        except errors.CalibrationError:
            results[arm] = (None, time.perf_counter() - start)
    return results


def default_worker_count() -> int:
    env = os.environ.get("COLLIMCAL_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"COLLIMCAL_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def run_monte_carlo(config: SyntheticConfig, sweep_kind: str, sweep_values,
                    arms=SOLVER_ARMS, workers: int | None = None):
    """Monte Carlo sweep: trial_count paired trials per sweep value and arm.

    Returns a list of TrialStats, one per (sweep value, arm), in sweep-major
    order.  Every point's trials run on one process pool per call, handed
    out in chunks of max(1, trial_count // (4 * workers)); trials are seeded
    by their index, so neither the worker count nor the chunks change a
    result.  Per-trial failures are recorded as NaN rows.  Once every point
    has run, the first point at which more than half of the trials failed
    for some arm raises CalibrationError.
    """
    arms = tuple(arms)
    for arm in arms:
        if arm not in SOLVER_ARMS:
            raise ValueError(f"unknown solver arm {arm!r}")
    if workers is None:
        workers = default_worker_count()

    points = [(value, _config_for(config, sweep_kind, value)) for value in sweep_values]
    n = config.trial_count
    configs = [point for _, point in points for _ in range(n)]
    indices = list(range(n)) * len(points)
    if workers > 1 and len(configs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(run_single_trial, configs, indices, repeat(arms),
                                     chunksize=max(1, n // (4 * workers))))
    else:
        outcomes = list(map(run_single_trial, configs, indices, repeat(arms)))

    all_stats, failures = [], []
    for p, (value, point_config) in enumerate(points):
        for arm in arms:
            rows, seconds = zip(*(result[arm] for result in outcomes[p * n:(p + 1) * n]))
            trials = np.array([np.full(10, np.nan) if row is None else row for row in rows])
            fails = int(np.sum(np.all(np.isnan(trials), axis=1)))
            if fails > n // 2:
                failures.append(f"sweep point {value} arm {arm}: {fails}/{n} trials failed")
            all_stats.append(TrialStats(float(value), *_ARM_LABELS[arm],
                                        truth=point_config.truth_vector(), trials=trials,
                                        seconds=np.array(seconds), fail_count=fails))
    if failures:
        raise errors.CalibrationError(failures[0])
    return all_stats
