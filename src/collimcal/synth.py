"""Synthetic scenes and the Monte Carlo benchmark harness.

Scene generation follows the experimental protocol: a planar grid target
observed from a fixed optical center t_cp = (x, y, -r) with arbitrary
camera orientation, isotropic per-coordinate Gaussian pixel noise, and
optional Gaussian perturbation of the center to model an imperfect sphere.

Per-trial RNG streams derive from SeedSequence(rng_seed, spawn_key=(trial,)),
so a trial sees identical poses and noise draws at every sweep point; the
swept parameter only scales its own (always-drawn) perturbations.  This
keeps solver comparisons and sweeps paired, and makes every run bit
reproducible.  Since a sweep point draws the same poses as the last one,
each process keeps the last few pose draws (`_lockstep_poses`), keyed on
their exact inputs; a draw found there leaves every result and every
stream's state as a fresh draw does.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import multiprocessing
import os
import pickle
import threading
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from multiprocessing.connection import wait

import numpy as np

from . import errors
from .core_geom import (
    MIN_IMAGE_POINTS,
    CameraIntrinsics,
    Distortion,
    ObservationSet,
    PlanarTarget,
    checked_image_size,
    finite_array,
    radial_pixels,
    real_number,
    rotation_matrix_from_axis_angle,
)
# `zhang_init` is bound here, unused, because the benchmark's tracer looks
# its traced functions up in the modules that bind them, and names this one
# as `synth.zhang_init`.
from .pipeline import Calibration, calibrate_all, error_row, truth_row, zhang_init

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
# The most trials in one Monte Carlo chunk (`run_monte_carlo`).  A chunk
# holds all its scenes and arm results at once, about 0.06 MB per trial of
# `ours` and `zhang` at 0.5 px, so this bounds a worker's peak memory; no
# benchmark point has more than 100 trials.
_CHUNK_TRIALS = 128
# The most pose draws a process keeps (`_lockstep_poses`), the least recently
# used dropped first.  An entry holds 96 bytes per view, so at most 0.74 MB
# for chunks of _CHUNK_TRIALS trials of 15 images; it covers up to this many
# chunks of one point on a worker.
_POSE_MEMO_ENTRIES = 4
# The kept pose draws: (the config's fields but _UNDRAWN, which the draw does
# not read, and every stream's starting state) -> (R, unscaled jitter, every
# stream's end state).
_UNDRAWN = ("pixel_noise_sigma", "spherical_noise_sigma", "trial_count")
_pose_memo = {}
# Guards the memo's lookups and updates; held across a fork, so that no child
# starts with it taken.
_pose_memo_lock = threading.Lock()
os.register_at_fork(before=_pose_memo_lock.acquire, after_in_parent=_pose_memo_lock.release,
                    after_in_child=_pose_memo_lock.release)
# The Monte Carlo pool (`_pool_of`): the PID of the process that forked it,
# its worker processes, and the caller's end of each worker's pipe.
_pool = None


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
    drawn alone.  Returns R (S, n, 3, 3) and the unscaled jitter (S, n, 3)
    for S streams and n images; PoseSamplingFailed names the first image
    that takes POSE_ATTEMPTS attempts.
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
            # uniform(0, max_angle)'s bits, from a cheaper call.
            angles[i] = rngs[s].random() * max_angle
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
    return R, jitter


def _lockstep_poses(config: SyntheticConfig, rngs, points: np.ndarray):
    """`_draw_poses` of every image, from the memo when these streams drew them before.

    The key is every field of the config but the two noise sigmas and the
    trial count, which the draw does not read, and every stream's starting
    state, pickled, which is exact for every numpy bit generator.  A hit
    moves every stream to the state the draw left it in, so the draws
    after it are those after a fresh draw.  Returns the memo's R and
    unscaled jitter, read-only; a draw that raises stores nothing.
    """
    key = (tuple(getattr(config, f.name) for f in fields(config) if f.name not in _UNDRAWN),
           tuple(pickle.dumps(rng.bit_generator.state) for rng in rngs))
    with _pose_memo_lock:
        entry = _pose_memo.pop(key, None)
    if entry is None:
        R, jitter = _draw_poses(config, rngs, points, range(config.image_count))
        R.flags.writeable = jitter.flags.writeable = False
        entry = R, jitter, [rng.bit_generator.state for rng in rngs]
    else:
        for rng, state in zip(rngs, entry[2]):
            rng.bit_generator.state = state
    with _pose_memo_lock:
        _pose_memo[key] = entry
        if len(_pose_memo) > _POSE_MEMO_ENTRIES:
            del _pose_memo[next(iter(_pose_memo))]
    return entry[:2]


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

    The poses of all streams are drawn in lockstep (`_draw_poses`), or
    taken from the memo of the last few such draws (`_lockstep_poses`),
    which gives the same bits and leaves the streams in the same states.
    Each center is t_cp plus its jitter times spherical_noise_sigma.  Then
    each stream, in order, renders its views and draws again, one view at
    a time, those that keep fewer than MIN_IMAGE_POINTS points, into its
    own copy of its rotations.  A view is drawn at most POSE_ATTEMPTS
    times; then PoseSamplingFailed names it.  A stream's R is read-only
    unless a view was drawn again.
    """
    target = config.target.planar_target()
    points = np.column_stack([target.xy, np.zeros(len(target.ids))])
    rotations, jitter = _lockstep_poses(config, rngs, points)
    sigma = config.spherical_noise_sigma
    scenes = []
    for rng, R, centers in zip(rngs, rotations, config.t_cp + jitter * sigma):
        uv, keep = _render(R, centers, config, points, rng)
        thin = np.flatnonzero(keep.sum(axis=1) < MIN_IMAGE_POINTS)
        if thin.size:
            R = R.copy()
        for k in thin:
            for _ in range(POSE_ATTEMPTS - 1):
                R[k], jitter_k = _draw_poses(config, [rng], points, range(k, k + 1))
                centers[k] = config.t_cp + jitter_k * sigma
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
    read-only PlanarTarget, shared by every scene of that grid, and R is
    read-only unless a view was drawn again, since a later scene of the
    same config and stream state may share it (`_lockstep_poses`).
    """
    return _make_scenes(config, [rng])[0]


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialStats:
    """Signed per-trial estimation errors for one solver arm at one sweep point.

    `trials` is (trial_count, 10) ordered as PARAM_NAMES; failed trials are
    NaN rows.  `seconds` holds each trial's wall-clock time of the arm: an
    equal share of the time of the homography fits and starts that ran in
    stacked calls over its chunk and, for a refined arm, an equal share of
    the time of the bundle adjustments that ran side by side over it (see
    `_run_arms`).
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
        """Each trial's distance to the true center, as the `calibrate` report's `tcp_err_mm`."""
        return np.array([np.linalg.norm(row) for row in self.trials[:, 7:]])

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
    return _run_arms([obs for _, obs in _make_scenes(config, rngs)], truth, arms)


def _run_arms(observation_sets, truth: np.ndarray, arms) -> list:
    """Every requested solver arm on every scene: per scene {arm: (error_row, seconds)}.

    The arms run arm-major: each arm is one `calibrate_all` call over all
    the scenes, so the scenes' homography fits and starts run in stacked
    calls and a refined arm's bundle adjustments side by side, and each
    scene's result is that of its own `calibrate` call.  It is scored by
    `error_row`, which is given the distortion of a refined arm only.  An
    initial arm solves its mode's start each time it runs; a refined arm
    reuses the start of its initial arm on a scene where that arm ran before
    it.  An arm's seconds on a scene are an equal share of the arm's time
    of fits and starts over the scenes (the first arm fits the homographies,
    and a reused start costs only its poses) and, refined, an equal share of
    the arm's bundle adjustment time over them.
    """
    results = [{} for _ in observation_sets]
    starts = {}
    for arm in arms:
        _, _, mode, refined = _ARMS[arm]
        known = starts.setdefault(mode, [None] * len(observation_sets))
        calibrations = calibrate_all(observation_sets, mode, refine=refined,
                                     starts=known if refined else [None] * len(known))
        for k, (result, seconds) in enumerate(calibrations):
            row = None
            if isinstance(result, Calibration):
                known[k] = result.start
                row = error_row(result.intrinsics, result.distortion if refined else None,
                                result.extrinsics, truth)
            results[k][arm] = (row, seconds)
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
    """Keep freed heap in a pool worker; each worker runs it once, before its first chunk.

    glibc otherwise hands freed memory back to the system between bundle
    adjustment iterations, and the next iteration faults it in again.  The
    workers run trials only, so the caller's allocator is never touched.
    Records mallopt's return values; does nothing where libc or mallopt
    cannot be loaded.
    """
    global _worker_heap_setting
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    _worker_heap_setting = (mallopt(_M_TRIM_THRESHOLD, _WORKER_TRIM_THRESHOLD),
                            mallopt(_M_MMAP_THRESHOLD, _WORKER_MMAP_THRESHOLD))


def _serve(conn, inherited) -> None:
    """A pool worker: runs each chunk it receives on `conn` until the pipe closes.

    It first closes `inherited`, the callers' pipe ends it holds, so that
    closing them in the caller reaches the workers as end of file.  Each
    (chunk index, config, trials, arms) it receives is answered with
    (chunk index, True, outcomes) or (chunk index, False, (exception,
    its formatted traceback)).
    """
    for other in inherited:
        other.close()
    _keep_worker_heap()
    while True:
        try:
            index, config, trials, arms = conn.recv()
        except EOFError:
            return
        try:
            conn.send((index, True, _run_chunk(config, trials, arms)))
        except Exception as exc:
            conn.send((index, False, (exc, traceback.format_exc())))


def _close_pool() -> None:
    """Drop the pool: close its pipes and end its workers, if this process started it.

    A pool inherited from the process that forked this one is dropped
    untouched.  Runs at exit, so no worker outlives its caller.
    """
    global _pool
    owner, procs, conns = _pool or (None, [], [])
    _pool = None
    if owner != os.getpid():
        return
    for conn in conns:
        conn.close()
    for proc in procs:
        proc.terminate()
        proc.join()


atexit.register(_close_pool)


def _forget_pool() -> None:
    """In a child just forked from this process: drop the inherited pool, untouched.

    Its workers are taken off `multiprocessing`'s list of this process's
    children too, as `multiprocessing`'s own start-up does in the children
    it starts; otherwise a child that exits normally would have the exit
    hook of `multiprocessing` end its parent's workers.
    """
    global _pool
    for proc in (_pool or (None, [], []))[1]:
        multiprocessing.process._children.discard(proc)
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _pool_of(size: int):
    """This process's pool of `size` live workers, started unless the last one fits.

    The workers are daemon processes started by the platform's default
    start method; each runs the code it was started with.
    """
    global _pool
    if _pool is not None:
        owner, procs, _ = _pool
        if not (owner == os.getpid() and len(procs) == size
                and all(proc.is_alive() for proc in procs)):
            _close_pool()
    if _pool is None:
        # Kept before the first start, so that a start that fails can end the others.
        procs, conns = [], []
        _pool = (os.getpid(), procs, conns)
        context = multiprocessing.get_context()
        for _ in range(size):
            conn, child = context.Pipe()
            conns.append(conn)
            proc = context.Process(target=_serve, args=(child, conns), daemon=True)
            proc.start()
            child.close()
            procs.append(proc)
    return _pool


def _map_on_pool(chunks, arms, size: int) -> list:
    """`_run_chunk` of every (config, trials) chunk on the pool of `size`, in chunk order.

    Each worker holds one chunk at a time, and the next chunk goes to
    whichever worker answers first.  Once a chunk raises, no further chunk
    is handed out; the chunks in flight finish, and the exception of the
    lowest-index failing chunk is raised, caused by the worker's traceback,
    with the pool kept.  A worker that dies raises BrokenProcessPool; then,
    and on any other exception that leaves the dispatch (KeyboardInterrupt
    among them), the pool is ended, so no stale answer reaches a later
    call.
    """
    try:
        conns = _pool_of(size)[2]
        outcomes, failures, busy = [None] * len(chunks), {}, set()
        queue = list(enumerate(chunks))[::-1]
        while True:
            for conn in conns:
                if conn not in busy and queue and not failures:
                    index, (config, trials) = queue.pop()
                    conn.send((index, config, trials, arms))
                    busy.add(conn)
            if not busy:
                break
            for conn in wait(busy):
                index, ok, value = conn.recv()
                busy.remove(conn)
                (outcomes if ok else failures)[index] = value
    except (EOFError, ConnectionError) as exc:
        _close_pool()
        raise BrokenProcessPool("a Monte Carlo pool worker died during the call") from exc
    except BaseException:
        _close_pool()
        raise
    if failures:
        exc, trace = failures[min(failures)]
        raise exc from RuntimeError(f"raised in a Monte Carlo pool worker:\n{trace}")
    return outcomes


def run_monte_carlo(config: SyntheticConfig, sweep_kind: str, sweep_values,
                    arms=SOLVER_ARMS, workers: int | None = None):
    """Monte Carlo sweep: trial_count paired trials per sweep value and arm.

    Returns a list of TrialStats, one per (sweep value, arm), in sweep-major
    order.  Every point's trials are cut into contiguous chunks whose sizes
    differ by at most one: min(workers, trial_count) chunks, one per
    worker, or the fewest multiple of that count whose chunks hold at most
    _CHUNK_TRIALS trials, which bounds a chunk's memory.  `_run_chunk`,
    which draws a chunk's scenes in lockstep, is mapped over them: on the
    process's worker pool when there is more than one worker, each chunk
    going to the first free worker, and in the calling process when there
    is one.  A chunk runs its arms arm-major over its scenes, so each
    refined arm's bundle adjustments run side by side (`_run_arms`); an
    arm's seconds on a trial are its start's time and, refined, an equal
    share of the chunk's adjustment time.  Every view keeps at least
    MIN_IMAGE_POINTS points, as in `make_scene`: a view that keeps fewer is
    drawn again alone, and a view that cannot be drawn raises
    PoseSamplingFailed naming its image.  Trials are seeded by their index,
    and a lockstep scene equals the one drawn alone, so neither the worker
    count nor the chunks change a result.  Each process keeps its last
    _POSE_MEMO_ENTRIES chunks' pose draws (`_lockstep_poses`), and the
    points of a sweep draw the same poses, so a chunk whose trials the
    process drew at an earlier point of the same seed reuses them, with
    the same results: a one-point call sends chunk j to worker j, so in a
    sweep of one-point calls each worker draws only the first point's
    poses.  The pool has at most one worker
    per trial, and each worker keeps its freed heap (`_keep_worker_heap`).
    It is started by the first pooled call and kept for the later calls of
    the same size in the same process, until the process exits; its
    workers run the code they were started with, so code patched after
    that runs only with `workers=1`.  A worker that
    dies during the call raises BrokenProcessPool.  Per-trial failures are
    recorded as NaN rows.  Once every point has run, the first point at
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
    per = min(workers, n)
    parts = per * -(-n // (per * _CHUNK_TRIALS))
    chunks = [(point, range(n * j // parts, n * (j + 1) // parts))
              for _, point in points for j in range(parts)]
    if workers > 1:
        chunked = _map_on_pool(chunks, arms, workers)
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
