"""Single-image calibration against a reference ray database.

Because every camera sees the collimated pattern under the same pairwise
angles, one reference image taken with a known camera fixes those angles
once and for all: back-projecting its features gives a database of unit
rays.  A new camera is then calibrated from a single image by (1) a
closed-form focal estimate from the pairwise-cosine constraints, (2) a
nonlinear refinement of all five intrinsics on the same constraints,
(3) a rotation fit between the two ray bundles, and (4) a joint
reprojection refinement that finally brings in distortion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .core_geom import (
    MIN_SINGLE_IMAGE_POINTS,
    CameraIntrinsics,
    Distortion,
    back_project,
    checked_image_size,
    finite_array,
    id_rows,
    integer_array,
    nearest_rotation,
    real_array,
)
from .refine import (
    BlockJacobian,
    LMState,
    ResidualReport,
    lm_minimize,
    single_image_ba,
    single_image_problem,
    unrefined_report,
)

MAX_EXHAUSTIVE_PAIR_POINTS = 120
SUBSAMPLED_PARTNERS = 30
ANGLE_CAUCHY_SCALE = 1e-3  # cosine residual units, not pixels


@dataclass(frozen=True)
class RayDatabase:
    """Unit reference rays keyed by point id, with the camera that made them."""

    ids: np.ndarray
    rays: np.ndarray
    ref_intrinsics: CameraIntrinsics
    ref_distortion: Distortion

    def __post_init__(self):
        ids = integer_array(self.ids, "database point ids")
        rays = finite_array(self.rays, "database rays", (len(ids), 3))
        if len(np.unique(ids)) != len(ids):
            raise ValueError("database point ids must be unique")
        norms = np.linalg.norm(rays, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-12):
            raise ValueError("database rays must be unit norm within 1e-12")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "rays", rays)

    def __len__(self) -> int:
        return len(self.ids)

    def match(self, ids):
        """Indices aligning this database with the given unique ids (intersection).

        Returns (database rows, positions in `ids`), in the order of `ids`.
        """
        ids = integer_array(ids, "matched point ids")
        if len(np.unique(ids)) != len(ids):
            raise ValueError("matched point ids must be unique")
        rows, found = id_rows(self.ids, ids)
        return rows[found], np.flatnonzero(found)


@dataclass(frozen=True)
class SingleImageResult:
    intrinsics: CameraIntrinsics
    distortion: Distortion
    rotation: np.ndarray  # (3, 3)
    report: ResidualReport
    n_matched: int
    n_dropped: int


def build_ray_database(ids, pixels, ref_intrinsics: CameraIntrinsics,
                       ref_distortion: Distortion) -> RayDatabase:
    """Back-project reference observations into unit rays keyed by id."""
    ids = integer_array(ids, "reference point ids")
    pixels = real_array(pixels, "reference pixels", (len(ids), 2))
    if len(ids) < MIN_SINGLE_IMAGE_POINTS:
        raise ValueError(f"reference image needs >= {MIN_SINGLE_IMAGE_POINTS} points, "
                         f"got {len(ids)}")
    rays = back_project(ref_intrinsics, ref_distortion, pixels)
    return RayDatabase(ids=ids, rays=rays,
                       ref_intrinsics=ref_intrinsics, ref_distortion=ref_distortion)


def select_pairs(rays: np.ndarray):
    """The pair table of the cosine constraints: (i, j, g) with g = rays[i]·rays[j].

    All pairs up to 120 points; beyond that point a is paired with the
    points a + o (mod count) at K = 30 fixed offsets o = k * count // (2K + 1),
    k = 1..K, which keeps the constraint count linear.  From 2K + 1 points on
    the offsets are distinct and below count / 2, so every pair appears once
    and there are K * count of them.
    """
    rays = real_array(rays, "rays", (None, 3))
    count = len(rays)
    if count <= MAX_EXHAUSTIVE_PAIR_POINTS:
        i, j = np.triu_indices(count, k=1)
    else:
        offsets = np.arange(1, SUBSAMPLED_PARTNERS + 1) * count // (2 * SUBSAMPLED_PARTNERS + 1)
        i = np.repeat(np.arange(count), SUBSAMPLED_PARTNERS)
        j = (i + np.tile(offsets, count)) % count
    ri, rj = _pair_columns(rays, i, j)
    return i, j, ri[0] * rj[0] + ri[1] * rj[1] + ri[2] * rj[2]


def _pair_columns(points: np.ndarray, i: np.ndarray, j: np.ndarray):
    """The two ends of every pair of rows of points (m, k), each (k, pairs).

    Gathered with `take` from the component-major (k, m) copy, which costs a
    fraction of a fancy-indexed row gather.
    """
    columns = np.ascontiguousarray(points.T)
    return columns.take(i, axis=1), columns.take(j, axis=1)


def _checked_pixels(pixels, pairs) -> np.ndarray:
    """`pixels` (M, 2) as floats, checked against the pair table (i, j, g).

    ValueError names `pairs` if the table indexes a pixel outside the M.
    """
    pixels = real_array(pixels, "pixels", (None, 2))
    ends = np.concatenate(pairs[:2])
    if len(ends) and not (0 <= ends.min() and ends.max() < len(pixels)):
        raise ValueError(f"pairs index pixels {ends.min()} to {ends.max()}, "
                         f"but there are {len(pixels)} pixels")
    return pixels


def init_focal_quartic(pixels: np.ndarray, pairs, image_size) -> CameraIntrinsics:
    """The start camera (f, f, w/2, h/2, 0) from the pair table (i, j, g) of `select_pairs`.

    Assumes fx = fy = f, zero skew and the principal point at the center
    of the image of `image_size` (width, height).  Summing the per-pair
    constraints cos^2 = g^2 over all pairs gives a quadratic in (1/f)^2
    which is solved exactly; with two admissible roots the one with smaller
    squared cosine residual wins.
    """
    center = np.array(checked_image_size(image_size)) / 2.0
    pixels = _checked_pixels(pixels, pairs)
    i, j, g = pairs
    mi, mj = _pair_columns(pixels - center, i, j)
    alpha = mi[0] * mj[0] + mi[1] * mj[1]
    beta_i = mi[0] * mi[0] + mi[1] * mi[1]
    beta_j = mj[0] * mj[0] + mj[1] * mj[1]
    # (alpha t + 1)^2 - g^2 (beta_i t + 1)(beta_j t + 1) = 0 with t = 1/f^2
    a2 = float(np.sum(alpha * alpha - g * g * beta_i * beta_j))
    a1 = float(np.sum(2.0 * alpha - g * g * (beta_i + beta_j)))
    a0 = float(np.sum(1.0 - g * g))
    scale = max(abs(a2), abs(a1), abs(a0))
    if scale < 1e-300:
        raise errors.NoRealRoot("pairs carry no angular information")
    a2, a1, a0 = a2 / scale, a1 / scale, a0 / scale

    if abs(a2) < 1e-14:
        roots = [-a0 / a1] if abs(a1) > 1e-14 else []
    else:
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < 0:
            roots = []
        else:
            sq = np.sqrt(disc)
            roots = [(-a1 - sq) / (2.0 * a2), (-a1 + sq) / (2.0 * a2)]
    focals = [1.0 / np.sqrt(t) for t in roots if t > 0]
    if not focals:
        raise errors.NoRealRoot("no positive real focal length root")
    if len(focals) > 1:
        residual = _cosine_model(pixels, pairs)[0]
        focals.sort(key=lambda f: np.sum(residual(LMState(np.array([f, f, *center, 0.0]))) ** 2))
    return CameraIntrinsics(fx=focals[0], fy=focals[0], cx=center[0], cy=center[1])


def _cosine_model(pixels, pairs):
    """The pairwise-cosine residuals over the intrinsics x = (fx, fy, cx, cy, gamma).

    Pixel p_k back-projects to the unit ray q^_k = q_k / |q_k| with
    q_k = K^-1 (p_k, 1), and pair (i, j) of the table (i, j, g) has the
    residual c_ij - g_ij, c_ij = q^_i . q^_j.  The rays are kept
    component-major (3, m) and each end of the pairs is gathered with `take`.
    The Jacobian comes in closed form from the same evaluation.  With
    v = K^-T q^, a parameter with dK = e_a e_b^T moves the cosine by

        dc_ij = -[(v_j,a - c_ij v_i,a) q^_i,b + (v_i,a - c_ij v_j,a) q^_j,b],

    where (a, b) is (0, 0) for fx, (1, 1) for fy, (0, 2) for cx, (1, 2) for
    cy and (0, 1) for gamma (from dq = -K^-1 dK q and
    dq^ = (I - q^ q^^T) dq / |q|).  K^-T is lower triangular, so v_0 and v_1
    need only the first two components of the same ray.

    Returns (residual, jacobian, plus) over `LMState`s whose x is the
    parameter vector; the residual stores its evaluation on the state and
    the Jacobian, a one-group `BlockJacobian`, reuses it.  A state with a
    non-positive focal length raises CalibrationError, which makes
    lm_minimize reject the step.
    """
    pair_i, pair_j, g = pairs
    ph = np.column_stack([pixels, np.ones(len(pixels))])

    def evaluate(state):
        if state.evaluation is None:
            fx, fy, cx, cy, gamma = state.x
            if not (fx > 0 and fy > 0):
                raise errors.CalibrationError(
                    f"trial focal lengths fx={fx}, fy={fy} are not positive")
            Ki = CameraIntrinsics(fx=fx, fy=fy, cx=cx, cy=cy, gamma=gamma).inverse
            q = ph @ Ki.T
            qi, qj = _pair_columns(q / np.linalg.norm(q, axis=1, keepdims=True),
                                   pair_i, pair_j)
            state.evaluation = Ki, qi, qj, qi[0] * qj[0] + qi[1] * qj[1] + qi[2] * qj[2]
        return state.evaluation

    def residual(state):
        return evaluate(state)[3] - g

    def jacobian(state):
        Ki, qi, qj, c = evaluate(state)
        vi = Ki[:2, :2].T @ qi[:2]
        vj = Ki[:2, :2].T @ qj[:2]
        # The minus sign taken inside: dc = A_a q^_i,b + B_a q^_j,b with
        # A = c v_i - v_j and B = c v_j - v_i.
        A = c * vi - vj
        B = c * vj - vi
        J = np.empty((5, len(c)))
        for row, (a, b) in enumerate(((0, 0), (1, 1), (0, 2), (1, 2), (0, 1))):
            J[row] = A[a] * qi[b] + B[a] * qj[b]
        return BlockJacobian(J[None], 5)

    def plus(state, delta):
        return LMState(state.x + delta)

    return residual, jacobian, plus


def refine_intrinsics_angle(pixels: np.ndarray, pairs,
                            initial: CameraIntrinsics) -> CameraIntrinsics:
    """Refine all five intrinsics on the pair table (i, j, g) of `select_pairs`.

    Distortion is deliberately absent here; it enters only at the final
    reprojection stage.  Each pair contributes one Cauchy-robustified
    residual (calibration cosine minus database cosine; see `_cosine_model`).
    """
    pixels = _checked_pixels(pixels, pairs)
    if len(pairs[2]) < 5:
        raise ValueError("intrinsic refinement needs at least 5 point pairs")
    residual, jacobian, plus = _cosine_model(pixels, pairs)
    x0 = LMState(np.array([initial.fx, initial.fy, initial.cx, initial.cy, initial.gamma]))
    x, _ = lm_minimize(residual, jacobian, x0, robust_scale=ANGLE_CAUCHY_SCALE, plus=plus)
    return CameraIntrinsics(*x.x)


def estimate_rotation_kabsch(calib_rays: np.ndarray, db_rays: np.ndarray) -> np.ndarray:
    """Least-squares rotation R with R @ db_rays[i] ~ calib_rays[i].

    The rotation nearest, in the Frobenius sense, to the covariance
    B = sum(q_bar q_bar'^T) of the centroid-subtracted bundles, so the result
    is always a proper rotation.  The factor order is fixed by the alignment
    direction, verified by tests, not by symbol-pushing.
    """
    q = finite_array(calib_rays, "calib_rays", (None, 3))
    qp = finite_array(db_rays, "db_rays", (len(q), 3))
    if len(q) < 3:
        raise errors.DegenerateConfiguration("rotation fit needs >= 3 ray pairs")
    qc = q - q.mean(axis=0)
    qpc = qp - qp.mean(axis=0)
    B = qc.T @ qpc
    s = np.linalg.svd(B, compute_uv=False)
    if s[1] <= 1e-12 * max(s[0], 1e-300):
        raise errors.DegenerateConfiguration("ray bundles are collinear")
    return nearest_rotation(B)


def calibrate_single_image(ids, pixels, database: RayDatabase, *, image_size,
                           refine_distortion: bool = True) -> SingleImageResult:
    """Full single-image pipeline: focal init, angle refinement, rotation, BA.

    `ids`/`pixels` are the calibration image's observations and `image_size`
    its (width, height); matching against the database is by id
    intersection, unmatched points are dropped and counted.  A bad input
    raises ValueError before any stage runs; stage failures carry the stage
    name.
    """
    image_size = checked_image_size(image_size)
    ids = integer_array(ids, "calibration point ids")
    pixels = real_array(pixels, "calibration pixels", (len(ids), 2))
    db_idx, obs_idx = database.match(ids)
    n_matched = len(db_idx)
    if n_matched < MIN_SINGLE_IMAGE_POINTS:
        raise ValueError(f"single-image calibration needs >= {MIN_SINGLE_IMAGE_POINTS} "
                         f"matched ids, got {n_matched}")
    rays = database.rays[db_idx]
    uv = pixels[obs_idx]

    def stage(name, fn):
        try:
            return fn()
        except errors.CalibrationError as exc:
            raise errors.PipelineStageError(name, exc) from exc

    pairs = select_pairs(rays)
    initial = stage("init_focal_quartic", lambda: init_focal_quartic(uv, pairs, image_size))
    intr = stage("refine_intrinsics_angle",
                 lambda: refine_intrinsics_angle(uv, pairs, initial))
    calib_rays = back_project(intr, Distortion(), uv)
    rot = stage("estimate_rotation_kabsch",
                lambda: estimate_rotation_kabsch(calib_rays, rays))

    dist = Distortion(0.0, 0.0)
    if refine_distortion:
        (intr, dist, rot), report = stage(
            "single_image_ba", lambda: single_image_ba(rays, uv, (intr, dist, rot)))
    else:
        report = unrefined_report(single_image_problem(rays, uv, (intr, dist, rot)))
    return SingleImageResult(intrinsics=intr, distortion=dist, rotation=rot,
                             report=report, n_matched=n_matched, n_dropped=len(ids) - n_matched)
