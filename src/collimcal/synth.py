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

import ctypes
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
    checked_image_size,
    decompose_homography,
    finite_array,
    radial_pixels,
    real_number,
    rotation_matrix_from_axis_angle,
)
from .multi_solver import (SphericalExtrinsics, conic_rows, decompose_iac,
                           solve_closed_form, solve_minimal)
from .refine import ResidualReport, general_ba, spherical_ba

MAX_TILT_DEG = 30.0
POSE_ATTEMPTS = 100

PARAM_NAMES = ("fx", "fy", "cx", "cy", "gamma", "d1", "d2", "x", "y", "r")

# The one arm table: each solver arm's TrialStats labels (solver, stage), then
# the mode and the refine flag of its one `calibrate` call.
_ARMS = {"ours": ("ours", "init", "nimg", False), "ours_ba": ("ours", "refined", "nimg", True),
         "zhang": ("zhang", "init", "zhang", False), "zhang_ba": ("zhang", "refined", "zhang", True)}
SOLVER_ARMS = tuple(_ARMS)

# The protocol's sweeps: each kind's SyntheticConfig field and default values.
SWEEPS = {
    "noise": ("pixel_noise_sigma", (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)),
    "images": ("image_count", (3, 5, 10, 15, 20, 25, 30)),
    "spherical": ("spherical_noise_sigma", (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)),
}
SWEEP_KINDS = tuple(SWEEPS)

# A Monte Carlo pool worker's glibc heap settings (`_keep_worker_heap`): the
# mallopt parameters of malloc.h and their values.  Freed memory up to the
# trim threshold stays in the worker, and blocks below the mmap threshold
# come from its heap.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_WORKER_TRIM_THRESHOLD = 512 << 20
_WORKER_MMAP_THRESHOLD = 256 << 20
# mallopt's return values (1 on success) in a worker that made the setting.
_worker_heap_setting = None


@dataclass(frozen=True)
class TargetGrid:
    """Regular grid of target points, row-major ids, spacing in mm."""

    rows: int = 8
    cols: int = 11
    spacing: float = 30.0

    def __post_init__(self):
        for name in ("rows", "cols", "spacing"):
            object.__setattr__(self, name, real_number(getattr(self, name), f"target {name}",
                                                       integer=name != "spacing"))
        if not (self.rows >= 2 and self.cols >= 2):
            raise ValueError(f"target rows and cols must be integers of at least 2, "
                             f"got {self.rows} and {self.cols}")
        if not self.spacing > 0:
            raise ValueError(f"target spacing must be finite and positive, got {self.spacing!r}")

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
        checked = {"target_offset": tuple(finite_array(self.target_offset, "target_offset",
                                                       (2,)).tolist()),
                   "image_size": checked_image_size(self.image_size)}
        for name in ("radius", "pixel_noise_sigma", "spherical_noise_sigma"):
            checked[name] = real_number(getattr(self, name), name)
        for name in ("image_count", "trial_count", "rng_seed"):
            checked[name] = real_number(getattr(self, name), name, integer=True)
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.image_count < 1 or self.trial_count < 1:
            raise ValueError("counts must be at least 1")
        if self.pixel_noise_sigma < 0 or self.spherical_noise_sigma < 0:
            raise ValueError("noise sigmas must be non-negative")
        w, h = self.image_size
        intr = self.intrinsics
        corners = np.array([[0.0, 0.0], [w, 0.0], [0.0, h], [w, h]])
        radii = np.hypot((corners[:, 0] - intr.cx) / intr.fx,
                         (corners[:, 1] - intr.cy) / intr.fy)
        self.distortion.check_monotone_within(float(radii.max()))

    @property
    def t_cp(self) -> np.ndarray:
        return np.array([self.target_offset[0], self.target_offset[1], -self.radius])

    def truth_vector(self) -> np.ndarray:
        return truth_row(self.intrinsics, self.distortion, self.t_cp)


def default_config(**overrides) -> SyntheticConfig:
    """The reference synthetic protocol (distortion off unless overridden)."""
    return replace(SyntheticConfig(), **overrides) if overrides else SyntheticConfig()


def _inside(u: np.ndarray, v: np.ndarray, image_size) -> np.ndarray:
    w, h = image_size
    return (u >= 0) & (u <= w) & (v >= 0) & (v <= h)


def _pixels(config: SyntheticConfig, points: np.ndarray, R: np.ndarray, t: np.ndarray):
    """Pixels u, v (S, n) of the target points (n, 3) in S views (R (S, 3, 3), t (S, 3)).

    A point behind the camera gets a NaN depth, so its pixels are NaN and
    fail every bounds test.  Inline rather than through `project`, which
    raises on such a point.
    """
    intr, dist = config.intrinsics, config.distortion
    xc = points @ R.transpose(0, 2, 1) + t[:, None, :]
    z = np.where(xc[..., 2] > 0, xc[..., 2], np.nan)
    return radial_pixels((intr.fx, intr.fy, intr.cx, intr.cy, intr.gamma),
                         (dist.d1, dist.d2), xc[..., 0], xc[..., 1], z)[:2]


def _draw_poses(config: SyntheticConfig, rngs, points: np.ndarray, images: range):
    """Every stream's poses of `images`, drawn in lockstep rounds.

    Each round, every stream still short of its images draws one attempt
    from its own stream, as the protocol says: a uniform axis (3 normals)
    and an angle uniform in [0, MAX_TILT_DEG] (1 uniform).  One stacked
    test then judges all the attempts: an attempt is kept when the whole
    target lies in front of the camera and inside the image at the nominal
    center.  A stream whose attempt is kept draws the jitter (3 normals),
    which models the imperfect collimator, and goes on to its next image.
    So each stream sees the same draws, in the same order, as when it is
    drawn alone.  Returns R (S, n, 3, 3) and centers (S, n, 3) for S
    streams and n images; PoseSamplingFailed names the first image that
    takes POSE_ATTEMPTS attempts.
    """
    nominal = config.t_cp
    max_angle = np.deg2rad(MAX_TILT_DEG)
    R = np.empty((len(rngs), len(images), 3, 3))
    jitter = np.empty((len(rngs), len(images), 3))
    drawn = [0] * len(rngs)
    tries = [0] * len(rngs)
    active = list(range(len(rngs)))
    while active:
        axes = np.empty((len(active), 3))
        angles = np.empty(len(active))
        for i, s in enumerate(active):
            axes[i] = rngs[s].normal(size=3)
            angles[i] = rngs[s].uniform(0.0, max_angle)
        # |axis| as a dot product, which rounds like np.linalg.norm of one vector.
        axes /= np.sqrt(axes[:, None, :] @ axes[:, :, None])[:, 0]
        attempts = rotation_matrix_from_axis_angle(axes * angles[:, None])
        u, v = _pixels(config, points, attempts, -attempts @ nominal)
        kept = _inside(u, v, config.image_size).all(axis=1)
        for i, s in enumerate(active):
            if kept[i]:
                R[s, drawn[s]] = attempts[i]
                jitter[s, drawn[s]] = rngs[s].normal(size=3)
                drawn[s] += 1
                tries[s] = 0
            else:
                tries[s] += 1
                if tries[s] == POSE_ATTEMPTS:
                    raise errors.PoseSamplingFailed(
                        f"image {images[drawn[s]]}: no visible pose found in "
                        f"{POSE_ATTEMPTS} attempts; the view cone is too wide "
                        f"for this target/image geometry")
        active = [s for s in active if drawn[s] < len(images)]
    return R, nominal + jitter * config.spherical_noise_sigma


def _render(R: np.ndarray, centers: np.ndarray, config: SyntheticConfig,
            points: np.ndarray, rng: np.random.Generator):
    """Noisy pixels (N, n, 2) of the points seen from every pose, in one pass.

    Returns the pixels and which points to keep (N, n): inside the image in
    a view with every point in front of the camera.  The noise is drawn for
    every view, as N sequential (n, 2) draws would be.
    """
    u, v = _pixels(config, points, R, -(R @ centers[..., None])[..., 0])
    front = ~np.isnan(u).any(axis=1)
    uv = np.stack([u, v], axis=-1)
    uv += rng.normal(size=uv.shape) * config.pixel_noise_sigma
    return uv, _inside(uv[..., 0], uv[..., 1], config.image_size) & front[:, None]


def _make_scenes(config: SyntheticConfig, rngs):
    """One scene per RNG stream, every stream drawn as `make_scene` draws it.

    The poses of all streams are drawn in lockstep (`_draw_poses`); then
    each stream, in order, renders its views and draws again, one view at
    a time, those that keep fewer than MIN_IMAGE_POINTS points.  A view is
    drawn at most POSE_ATTEMPTS times; then PoseSamplingFailed names it.
    """
    target = config.target.planar_target()
    points = np.column_stack([target.xy, np.zeros(len(target.ids))])
    poses = _draw_poses(config, rngs, points, range(config.image_count))
    scenes = []
    for rng, R, centers in zip(rngs, *poses):
        uv, keep = _render(R, centers, config, points, rng)
        for k in np.flatnonzero(keep.sum(axis=1) < MIN_IMAGE_POINTS):
            for _ in range(POSE_ATTEMPTS - 1):
                R[k], centers[k] = _draw_poses(config, [rng], points, range(k, k + 1))
                uv[k], keep[k] = _render(R[k:k + 1], centers[k:k + 1], config, points, rng)
                if keep[k].sum() >= MIN_IMAGE_POINTS:
                    break
            else:
                raise errors.PoseSamplingFailed(
                    f"image {k}: no pose in {POSE_ATTEMPTS} draws kept {MIN_IMAGE_POINTS} "
                    f"target points in front of the camera and inside the image")
        observations = ObservationSet(target, target.ids[np.nonzero(keep)[1]], uv[keep],
                                      keep.sum(axis=1))
        scenes.append(((R, centers), observations))
    return scenes


def make_scene(config: SyntheticConfig, rng: np.random.Generator):
    """Poses (R (N, 3, 3), centers (N, 3)) and their rendered observations.

    The one way to make a synthetic scene: the one-stream case of the
    lockstep generator that the Monte Carlo pool uses for a chunk of trials.
    Every image's pose is drawn first, in image order, then the pixel noise
    of every view, all from the one RNG stream.  A pose attempt is kept when
    the whole target lies in front of the camera and inside the image; after
    POSE_ATTEMPTS rejected attempts PoseSamplingFailed names the image.  A
    view whose jittered center puts a target point behind the camera, or
    leaves fewer than MIN_IMAGE_POINTS points in the image, is drawn again
    (pose, jitter and noise) after that, up to POSE_ATTEMPTS draws in all;
    then PoseSamplingFailed names the image.  A Monte Carlo trial draws its
    scene by the same rule (`_run_chunk`), and `collimcal simulate` writes
    trial 0's scene.  The observations' target is the grid's cached,
    read-only PlanarTarget, shared by every scene of that grid.
    """
    return _make_scenes(config, [rng])[0]


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
    """One `calibrate` result, in raw units.

    `extrinsics` is the SphericalExtrinsics of the `nimg` and `minimal`
    modes, the refined `zhang` mode's poses (R (N, 3, 3), t (N, 3) mm),
    and None for the unrefined `zhang` mode.  Unrefined, `distortion` is
    the start's zero distortion and `report` is None.  `start` holds the
    mode's start candidates, best first, and `candidate_count` their number.
    """

    intrinsics: CameraIntrinsics
    extrinsics: SphericalExtrinsics | tuple | None
    distortion: Distortion
    report: ResidualReport | None
    candidate_count: int
    start: list


def calibrate(observations: ObservationSet, mode: str, *, refine: bool = True,
              start=None) -> Calibration:
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
    """
    if mode not in ("nimg", "minimal", "zhang"):
        raise ValueError(f"unknown calibration mode {mode!r}")
    if start is None:
        start = ([_zhang_iac(observations)] if mode == "zhang"
                 else [solve_closed_form(observations)] if mode == "nimg"
                 else solve_minimal(observations))
    fit, zero = observations.homography_fit, Distortion(0.0, 0.0)
    intr, ext = (fit.intrinsics_to_raw(start[0]), None) if mode == "zhang" else start[0]
    if not refine:
        return Calibration(intr, ext, zero, None, len(start), start)
    if mode == "zhang":
        R, t, _ = decompose_homography(fit.matrices, start[0])
        ext = (R, fit.translations_to_raw(R, t))
    adjust = general_ba if mode == "zhang" else spherical_ba
    (intr, dist, ext), report = adjust(observations, (intr, zero, ext))
    return Calibration(intr, ext, dist, report, len(start), start)


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
    if sweep_kind not in SWEEP_KINDS:
        raise ValueError(f"unknown sweep kind {sweep_kind!r}; expected one of {SWEEP_KINDS}")
    number = real_number(value, f"{sweep_kind} sweep value")
    images = sweep_kind == "images"
    if images and not number.is_integer():
        raise ValueError(f"images sweep value must be an integer, got {value!r}")
    return replace(config, **{SWEEPS[sweep_kind][0]: int(number) if images else number})


def truth_row(intrinsics: CameraIntrinsics, distortion: Distortion, t_cp) -> np.ndarray:
    """A true camera and center t_cp (3,), ordered as PARAM_NAMES, with r = -t_cp[2]."""
    return np.array([intrinsics.fx, intrinsics.fy, intrinsics.cx, intrinsics.cy,
                     intrinsics.gamma, distortion.d1, distortion.d2, t_cp[0], t_cp[1], -t_cp[2]])


def error_row(intrinsics: CameraIntrinsics, distortion: Distortion | None, extrinsics,
              truth: np.ndarray) -> np.ndarray:
    """The signed errors of an estimate against `truth` (`truth_row`), ordered as PARAM_NAMES.

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


def run_single_trial(config: SyntheticConfig, trial_index: int, arms):
    """One paired trial: one scene, every requested solver arm on it.

    The one-trial chunk (`_run_chunk`), for a caller that wants a single
    trial; `run_monte_carlo` maps whole chunks instead.  The scene is
    `make_scene`'s of the trial's stream.  Returns {arm: (error_row,
    seconds)}; a failed arm maps to (None, seconds).
    """
    return _run_chunk(config, range(trial_index, trial_index + 1), arms)[0]


def _run_chunk(config: SyntheticConfig, trials: range, arms):
    """The outcomes of the paired trials `trials` of one sweep point.

    The one unit of work of `run_monte_carlo`, on a pool worker or in the
    calling process alike.  Each trial's scene is drawn from its own stream
    SeedSequence(rng_seed, spawn_key=(trial,)) by `make_scene`'s rule
    (`_make_scenes`): a view that keeps fewer than MIN_IMAGE_POINTS points
    is drawn again alone, so the trial's other views stay paired across
    sweep points.  The scenes of all trials are made in lockstep, so a
    trial's scene does not depend on the chunk it runs in.  An unknown arm
    raises ValueError before any scene is drawn.
    """
    for arm in arms:
        if arm not in _ARMS:
            raise ValueError(f"unknown solver arm {arm!r}")
    rngs = [np.random.default_rng(np.random.SeedSequence(config.rng_seed, spawn_key=(t,)))
            for t in trials]
    truth = config.truth_vector()
    return [_run_arms(obs, truth, arms) for _, obs in _make_scenes(config, rngs)]


def _run_arms(observations: ObservationSet, truth: np.ndarray, arms):
    """Every requested solver arm on one scene: {arm: (error_row, seconds)}.

    Each arm is one `calibrate` call, scored by `error_row`, which is given
    the distortion of a refined arm only.  An initial arm solves its mode's
    start each time it runs; a refined arm reuses the start of its initial
    arm when that arm ran before it, and its seconds then exclude the start.
    """
    results, starts = {}, {}
    for arm in arms:
        _, _, mode, refined = _ARMS[arm]
        start = time.perf_counter()
        try:
            result = calibrate(observations, mode, refine=refined,
                               start=starts.get(mode) if refined else None)
            starts[mode] = result.start
            row = error_row(result.intrinsics, result.distortion if refined else None,
                            result.extrinsics, truth)
        except errors.CalibrationError:
            row = None
        results[arm] = (row, time.perf_counter() - start)
    return results


def _worker_count(value, name: str) -> int:
    """`value` as a worker count; ValueError naming `name` unless an integer of at least 1."""
    workers = real_number(value, name, integer=True)
    if workers < 1:
        raise ValueError(f"{name} must be at least 1, got {workers}")
    return workers


def default_worker_count() -> int:
    """COLLIMCAL_THREADS if set, else the number of CPUs this process may run on."""
    env = os.environ.get("COLLIMCAL_THREADS")
    if env:
        try:
            count = int(env)
        except ValueError:
            raise ValueError(f"COLLIMCAL_THREADS must be an integer, got {env!r}") from None
        return _worker_count(count, "COLLIMCAL_THREADS")
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _keep_worker_heap() -> None:
    """Pool worker initializer: keep freed heap in the worker.

    glibc otherwise hands freed memory back to the system between bundle
    adjustment iterations, and the next iteration faults it in again.  The
    workers are short-lived processes that run trials only, so the caller's
    allocator is never touched.  Records mallopt's return values; does
    nothing where libc or mallopt cannot be loaded.
    """
    global _worker_heap_setting
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _worker_heap_setting = (mallopt(_M_TRIM_THRESHOLD, _WORKER_TRIM_THRESHOLD),
                            mallopt(_M_MMAP_THRESHOLD, _WORKER_MMAP_THRESHOLD))


def run_monte_carlo(config: SyntheticConfig, sweep_kind: str, sweep_values,
                    arms=SOLVER_ARMS, workers: int | None = None):
    """Monte Carlo sweep: trial_count paired trials per sweep value and arm.

    Returns a list of TrialStats, one per (sweep value, arm), in sweep-major
    order.  Every point's trials are cut into chunks of
    max(1, trial_count // (4 * workers)) trials of that point, and
    `_run_chunk`, which draws a chunk's scenes in lockstep, is mapped over
    them: on one process pool per call when there is more than one worker,
    in the calling process when there is one.  Every view keeps at least
    MIN_IMAGE_POINTS points, as in `make_scene`: a view that keeps fewer is
    drawn again alone, and a view that cannot be drawn raises
    PoseSamplingFailed naming its image.  Trials are seeded by their index,
    and a lockstep scene equals the one drawn alone, so neither the worker
    count nor the chunks change a result.  The pool has at most one worker
    per trial, and each worker keeps its freed heap (`_keep_worker_heap`).
    Per-trial failures are recorded as NaN rows.  Once every point has run, the first point at
    which more than half of the trials failed for some arm raises
    CalibrationError.  `workers` below 1 and an empty `sweep_values` raise
    ValueError, and so does an unknown arm, in the chunk (`_run_chunk`).
    """
    arms = tuple(arms)
    workers = default_worker_count() if workers is None else _worker_count(workers, "workers")
    points = [(value, _config_for(config, sweep_kind, value)) for value in sweep_values]
    if not points:
        raise ValueError("sweep_values must hold at least one value")

    n = config.trial_count
    workers = min(workers, n * len(points))
    size = max(1, n // (4 * workers))
    chunks = [(point, range(start, min(start + size, n)))
              for _, point in points for start in range(0, n, size)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_keep_worker_heap) as pool:
            chunked = list(pool.map(_run_chunk, *zip(*chunks), repeat(arms)))
    else:
        chunked = list(map(_run_chunk, *zip(*chunks), repeat(arms)))
    outcomes = [outcome for chunk in chunked for outcome in chunk]

    all_stats, failures = [], []
    for p, (value, point_config) in enumerate(points):
        for arm in arms:
            rows, seconds = zip(*(result[arm] for result in outcomes[p * n:(p + 1) * n]))
            trials = np.array([np.full(10, np.nan) if row is None else row for row in rows])
            fails = int(np.sum(np.all(np.isnan(trials), axis=1)))
            if fails > n // 2:
                failures.append(f"sweep point {value} arm {arm}: {fails}/{n} trials failed")
            all_stats.append(TrialStats(float(value), *_ARMS[arm][:2],
                                        truth=point_config.truth_vector(), trials=trials,
                                        seconds=np.array(seconds), fail_count=fails))
    if failures:
        raise errors.CalibrationError(failures[0])
    return all_stats
