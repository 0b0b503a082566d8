"""Robust nonlinear refinement built on a damped normal-equations LM engine.

The three bundle adjustments are one reprojection problem over the points
of all images stacked together.  Point P of image i is seen at

    x_c = R_i (P - c) + t_i,    pixel = pi(K, d, x_c),

with intrinsics K = (fx, fy, cx, cy, gamma) and radial distortion
d = (d1, d2).  The three refinements differ only in which of c and t_i
are free:

    spherical motion:  one shared optical center c = t_cp, t_i = 0
                       (10 + 3N parameters);
    free motion:       c = 0 and a translation t_i per image (7 + 6N),
                       the refinement stage of the plane-based baseline;
    single image:      one image, c = t = 0, and P the reference rays (10).

Rotations are updated right-multiplicatively, R <- R exp(delta^), on every
trial step (every call of `plus`, damping retries included).  The product of
two rotations is orthonormal to rounding, so one Newton-Schulz polar step
R <- R (3I - RᵀR) / 2 takes the place of an SVD and keeps every rotation at
rounding level (Triggs et al., "Bundle Adjustment - A Modern Synthesis",
2000, section 2.2).  The solver works on local increments, so Jacobian
rotation blocks are evaluated at delta = 0.

LM works on an explicit state (`LMState`): the parameter vector, the
rotation stack and the one evaluation made there.  `plus` returns a new
state, and the residual stores its evaluation on the state it was given, so
the Jacobian at that state reuses its camera frame and projection and one LM
iteration projects every point once.  A state is read-only, so a stored
evaluation cannot go stale.  Rotations stay matrices throughout; only a
report converts them to axis-angle.

Residuals are robustified with the Cauchy function rho(s) = c^2 log(1 + s/c^2)
applied per residual block via iteratively reweighted least squares.  IRLS
converges linearly, so LM stops once the accepted steps still to come are
predicted to move the parameters by under a hundredth of their own standard
deviation, from the covariance sigma^2 (JᵀWJ)^-1 of the estimate; a relative
cost decrease of 1e-10 stays as the backstop (see `lm_minimize`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import errors
from .core_geom import (
    CameraIntrinsics,
    Distortion,
    ObservationSet,
    checked_rotations,
    project_camera_points,
    rotation_matrix_from_axis_angle,
)
from .multi_solver import SphericalExtrinsics

_MU_MIN = 1e-12
_MU_MAX = 1e16
_INITIAL_DAMPING = 1e-3
_MAX_ITERATIONS = 100
_GRADIENT_TOLERANCE = 1e-10
_STEP_TOLERANCE = 1e-12
# Relative decrease of the robust cost below which an accepted step ends the
# run (the `function_tolerance` of Ceres Solver).
_COST_TOLERANCE = 1e-10
# Predicted distance to the optimum, in the parameters' own standard
# deviations, below which shrinking accepted steps end the run.
_UNCERTAINTY_TOLERANCE = 1e-2
# Cauchy scale of the bundle adjustments' per-point pixel residuals.
_CAUCHY_SCALE_PX = 2.0
_CONVERGED = ("gradient", "cost", "step", "uncertainty")


@dataclass(frozen=True)
class ResidualReport:
    """Outcome of one refinement.

    `termination` says why LM stopped: "gradient", "cost", "step",
    "uncertainty", "budget" or "damping" (see `lm_minimize`), or "not_run"
    when no refinement ran.  The first four count as converged;
    "uncertainty" means the steps left to the optimum add up to under a
    hundredth of a standard deviation of every parameter.
    """
    rms_reprojection: float
    per_image_rms: tuple
    iterations_used: int
    termination: str
    cost_trajectory: tuple

    @property
    def converged(self) -> bool:
        return self.termination in _CONVERGED


def _block_squares(r: np.ndarray, block_size: int) -> np.ndarray:
    """Sum of squares of each block of `block_size` consecutive entries of r."""
    # Strided columns, added in order: as np.sum over each block, without a
    # reduction over rows of length block_size.
    return sum(r[j::block_size] ** 2 for j in range(block_size))


def _robust_cost(squares: np.ndarray, scale) -> float:
    """Robust cost of the residual blocks with the given sums of squares."""
    if scale is None:
        return float(np.sum(squares))
    c2 = scale * scale
    return float(c2 * np.sum(np.log1p(squares / c2)))


def _block_weights(squares: np.ndarray, block_size: int, scale) -> np.ndarray:
    """IRLS weight of every residual entry, from its block's sum of squares."""
    if scale is None:
        return np.ones(len(squares) * block_size)
    w = 1.0 / (1.0 + squares / (scale * scale))
    return w if block_size == 1 else np.repeat(w, block_size)


class LMState:
    """A point of an LM problem: the parameter vector `x`, the (N, 3, 3)
    `rotations` of a problem that has any, and the `evaluation` the problem
    stores at its first successful residual or Jacobian there.

    `x` and `rotations` are made read-only, so a stored evaluation cannot go
    stale: a step makes a new state (a problem's `plus`).
    """
    __slots__ = ("x", "rotations", "evaluation")

    def __init__(self, x: np.ndarray, rotations: np.ndarray | None = None):
        x.flags.writeable = False
        if rotations is not None:
            rotations.flags.writeable = False
        self.x, self.rotations, self.evaluation = x, rotations, None


@dataclass(frozen=True, eq=False)
class BlockJacobian:
    """A Jacobian whose rows fall into groups with parameters of their own.

    Row k of `block` holds the derivatives by the `shared` leading
    parameters, then by the `stride` parameters of the row's own group.
    Group g owns rows `starts[g]:starts[g + 1]` and the parameters from
    `shared + g * stride` on; every other entry of the row is zero.  The
    bundle adjustments' groups are their images, and their `block` is a
    column-major view.  A dense Jacobian is the form with one group and
    stride 0.
    """
    block: np.ndarray
    shared: int
    starts: np.ndarray

    @property
    def stride(self) -> int:
        return self.block.shape[1] - self.shared

    @property
    def shape(self) -> tuple:
        return len(self.block), self.shared + self.stride * (len(self.starts) - 1)

    def toarray(self) -> np.ndarray:
        J = np.zeros(self.shape)
        J[:, :self.shared] = self.block[:, :self.shared]
        for g, (lo, hi) in enumerate(zip(self.starts[:-1], self.starts[1:])):
            own = self.shared + g * self.stride
            J[lo:hi, own:own + self.stride] = self.block[lo:hi, self.shared:]
        return J

    def normal_equations(self, weights: np.ndarray, r: np.ndarray):
        """(JᵀWJ, JᵀWr) with W = diag(weights), every group's Gram in one product.

        Without per-group columns (stride 0, the dense form) that product is
        (√W J)ᵀ(√W J).  Otherwise the weighted row blocks are viewed as
        (groups, rows, columns): a plain reshape when every group has as many
        rows, otherwise one gather through a row index padded with row 0 at
        weight zero.  One batched BᵀB and one Bᵀr then give every group's
        Gram and gradient, which are scattered into JᵀWJ and JᵀWr through
        reshaped views; one group's are JᵀWJ and JᵀWr themselves.
        """
        s, k = self.shared, self.stride
        sw = np.sqrt(weights)
        if k == 0:
            Bw = self.block * sw[:, None]
            return Bw.T @ Bw, Bw.T @ (r * sw)
        n = len(self.starts) - 1
        sizes = np.diff(self.starts)
        length = sizes.max()
        if np.all(sizes == length):
            Bp = (self.block * sw[:, None]).reshape(n, length, -1)
            rp = (r * sw).reshape(n, length, 1)
        else:
            lanes = np.arange(length)
            kept = lanes < sizes[:, None]
            rows = np.where(kept, self.starts[:-1, None] + lanes, 0)
            swp = sw[rows] * kept
            Bp = self.block[rows]
            Bp *= swp[..., None]
            rp = (r[rows] * swp)[..., None]
        Bt = Bp.transpose(0, 2, 1)
        G = Bt @ Bp
        v = (Bt @ rp)[..., 0]
        if n == 1:
            return G[0], v[0]
        JtJ = np.zeros((self.shape[1],) * 2)
        JtJ[:s, :s] = G[:, :s, :s].sum(axis=0)
        JtJ[:s, s:] = G[:, :s, s:].transpose(1, 0, 2).reshape(s, n * k)
        JtJ[s:, :s] = G[:, s:, :s].reshape(n * k, s)
        group = np.arange(n)
        JtJ[s:, s:].reshape(n, k, n, k)[group, :, group, :] = G[:, s:, s:]
        g = np.concatenate([v[:, :s].sum(axis=0), v[:, s:].reshape(-1)])
        return JtJ, g


def _row_blocks(J) -> BlockJacobian:
    """`J` as a BlockJacobian; a dense array becomes one group with stride 0."""
    if isinstance(J, BlockJacobian):
        return J
    J = np.asarray(J, dtype=float)
    if J.ndim != 2:
        raise ValueError(f"jacobian must be 2-D, got shape {J.shape}")
    return BlockJacobian(J, J.shape[1], np.array([0, len(J)]))


def _step_spread(JtJ: np.ndarray, delta: np.ndarray, cost: float, m: int):
    """s = sqrt(deltaᵀ A delta / sigma^2), sigma^2 = cost / (m - P); None if undefined.

    s is the step's length in the parameters' own standard deviations (see
    `lm_minimize`); it is undefined when m <= P or sigma^2 <= 0.
    """
    dof = m - delta.size
    if dof <= 0 or not cost > 0.0:
        return None
    return float(np.sqrt(max(delta @ JtJ @ delta, 0.0) * dof / cost))


def _distance_left(spread, last_spread) -> float:
    """Geometric-series sum s rho / (1 - rho) of the steps to come, rho = s / s_prev.

    Infinite unless both lengths are defined, the last one is positive and
    the steps shrink (rho < 1).
    """
    if spread is None or not last_spread:
        return np.inf
    rho = spread / last_spread
    return spread * rho / (1.0 - rho) if rho < 1.0 else np.inf


def lm_minimize(residual_fn, jacobian_fn, x0, *,
                block_size: int = 1, robust_scale: float | None = None, plus=None):
    """Damped normal-equations Levenberg-Marquardt.

    Without `plus`, x is a parameter vector and a step adds to it.  With
    `plus`, x is a state that only the three callables look into (an
    `LMState`, for the problems of this package): `plus(x, delta)` returns
    the state one step delta away, and the Jacobian is taken with respect to
    that local increment at zero.  The parameter count comes from the
    Jacobian, a dense (residuals, parameters) array or a `BlockJacobian`,
    whose per-group row blocks form JᵀWJ in one batched product over the
    groups.  `residual_fn(x)` is called at the start and at every trial
    state; `jacobian_fn(x)` only ever at the last state whose residual was
    evaluated, the start or the step just accepted, so a problem may reuse
    that evaluation.  Each residual's block squares are taken once and serve
    both its robust cost and, once it is accepted, the next iteration's IRLS
    weights.  Damping is divided by 10 on accepted steps and multiplied by 10
    on rejections.  The report's `termination` gives the reason the run
    stopped:

        "gradient"  the gradient infinity norm fell below 1e-10;
        "cost"      an accepted step lowered the robust cost by no more than
                    a relative 1e-10 (cost - cost_new <= 1e-10 * cost);
        "step"      a step was shorter than 1e-12: accepted, or rejected with
                    a finite cost (at an exact fit the cost is rounding
                    noise that no step can lower, and x stays);
        "uncertainty"
                    the accepted steps shrink so that the distance left to
                    the optimum is under 0.01 standard deviations (below);
        "budget"    100 Jacobians were used up;
        "damping"   every step was rejected up to the largest damping.

    The first four count as converged.  The "uncertainty" test measures each
    accepted step delta against the covariance sigma^2 A^-1 of the
    Gauss-Newton estimate (Triggs et al. 2000, section 9), with A the
    undamped JᵀWJ of the iteration and sigma^2 = cost_new / (m - P) over m
    residuals and P parameters: s_k = sqrt(deltaᵀ A delta / sigma^2) bounds
    every |delta_i| / sigma_i.  IRLS converges linearly, so with the ratio
    rho = s_k / s_(k-1) of consecutive accepted steps the steps still to come
    sum to about s_k rho / (1 - rho); the run ends when rho < 1 and that is
    below 0.01.  The test is skipped when m <= P or sigma^2 <= 0, and until
    two accepted steps have a defined s.  A non-finite gradient, or damped
    normal equations that no damping level can solve, raise
    `errors.NormalEquationsFailed`.

    Returns (the final x, ResidualReport).  The cost trajectory holds the
    robust cost at the start and after every accepted step.
    """
    x = x0
    if plus is None:
        x, plus = np.asarray(x0, dtype=float), np.add
    r = np.asarray(residual_fn(x), dtype=float)
    if r.size % block_size:
        raise ValueError("residual length is not a multiple of the block size")
    squares = _block_squares(r, block_size)
    cost = _robust_cost(squares, robust_scale)
    trajectory = [cost]
    mu = _INITIAL_DAMPING
    accepted = 0
    spread = None   # s of the last accepted step, None while undefined
    termination = None

    for _ in range(_MAX_ITERATIONS):
        J = _row_blocks(jacobian_fn(x))
        if J.shape[0] != r.size:
            raise ValueError(f"jacobian shape {J.shape} does not match "
                             f"{r.size} residuals")
        JtJ, g = J.normal_equations(_block_weights(squares, block_size, robust_scale), r)
        if not np.all(np.isfinite(g)):
            raise errors.NormalEquationsFailed("gradient is not finite")
        if np.max(np.abs(g)) < _GRADIENT_TOLERANCE:
            termination = "gradient"
            break
        diag = np.maximum(JtJ.diagonal(), _MU_MIN)

        solved = False
        while mu <= _MU_MAX:
            damped = JtJ.copy()
            damped.flat[::g.size + 1] += mu * diag
            try:
                delta = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                mu *= 10.0
                continue
            solved = True
            x_new = plus(x, delta)
            try:
                r_new = np.asarray(residual_fn(x_new), dtype=float)
                squares_new = _block_squares(r_new, block_size)
                cost_new = _robust_cost(squares_new, robust_scale)
            except errors.CalibrationError:
                cost_new = np.inf
            if np.isfinite(cost_new) and cost_new <= cost:
                last_spread, spread = spread, _step_spread(JtJ, delta, cost_new, r.size)
                if cost - cost_new <= _COST_TOLERANCE * cost:
                    termination = "cost"
                elif np.linalg.norm(delta) < _STEP_TOLERANCE:
                    termination = "step"
                elif _distance_left(spread, last_spread) < _UNCERTAINTY_TOLERANCE:
                    termination = "uncertainty"
                x, r, squares, cost = x_new, r_new, squares_new, cost_new
                trajectory.append(cost)
                accepted += 1
                mu = max(mu / 10.0, _MU_MIN)
                break
            if np.isfinite(cost_new) and np.linalg.norm(delta) < _STEP_TOLERANCE:
                termination = "step"
                break
            mu *= 10.0
        else:  # the damping ran past _MU_MAX without an accepted step
            if not solved:
                raise errors.NormalEquationsFailed(
                    f"normal equations singular up to damping {_MU_MAX:.0e}")
            termination = "damping"
        if termination:
            break

    rms = float(np.sqrt(np.mean(r * r))) if r.size else 0.0
    report = ResidualReport(rms_reprojection=rms, per_image_rms=(),
                            iterations_used=accepted,
                            termination=termination or "budget",
                            cost_trajectory=tuple(trajectory))
    return x, report


# ---------------------------------------------------------------------------
# the stacked reprojection problem
# ---------------------------------------------------------------------------

def _reprojection_problem(points, pixels, counts, intr, dist, rotations, *,
                          center=None, translations=None):
    """Closures of the stacked problem x_c = R_i (P - c) + t_i, and its start.

    `points` (M, 3) and `pixels` (M, 2) list every observation, image after
    image, and `counts` (N,) how many each image has; `rotations` (N, 3, 3)
    are the initial R_i.  They are copied and checked here, the one place
    where a caller's rotations enter the three bundle adjustments:
    ValueError names the first that is not a proper rotation.  The center c
    is a parameter starting at `center` when that is given, and zero
    otherwise; `translations` (N, 3), when given, are the initial per-image
    t_i, which are otherwise zero.  The parameter vector of a state is (fx,
    fy, cx, cy, gamma, d1, d2, [c], then per image the rotation increment
    [and t_i]); the increments are zero at every state, whose rotations are
    the matrices it holds.

    Returns (residual, jacobian, plus, x0, unpack, image): x0 is the start
    `LMState`, image (M,) the image index of each observation, the Jacobian
    a BlockJacobian with one group per image, and unpack(state) gives
    (intrinsics (5,), distortion (2,), c (3,), rotation matrices (N, 3, 3),
    translations (N, 3) or None).
    """
    R0 = checked_rotations(np.array(rotations, dtype=float))
    n = len(R0)
    m = len(points)
    has_center = center is not None
    first = 10 if has_center else 7
    stride = 3 if translations is None else 6
    rot_cols = first + stride * np.arange(n)[:, None] + np.arange(3)
    image = np.repeat(np.arange(n), counts)
    points_t = np.ascontiguousarray(points.T, dtype=float)
    starts = 2 * np.concatenate([[0], np.cumsum(counts)])
    polar = 1.5 * np.eye(3)

    x0 = np.zeros(first + stride * n)
    x0[:7] = [intr.fx, intr.fy, intr.cx, intr.cy, intr.gamma, dist.d1, dist.d2]
    if has_center:
        x0[7:10] = center
    if translations is not None:
        x0[rot_cols + 3] = translations

    def unpack(state):
        x = state.x
        c = x[7:10] if has_center else np.zeros(3)
        t = None if translations is None else x[rot_cols + 3]
        return x[:5], x[5:7], c, state.rotations, t

    def evaluate(state):
        if state.evaluation is None:
            intr_p, dist_p, c, R, t = unpack(state)
            # Each point's rotation, component-major (3, 3, M) like P - c
            # (3, M), so that every component is one contiguous row.
            R = R.transpose(1, 2, 0).take(image, axis=2)
            centered = points_t - c[:, None]
            xc = np.einsum("ijm,jm->im", R, centered)
            if t is not None:
                xc += t.T.take(image, axis=1)
            uv, xn, yn, r2, f = project_camera_points(intr_p, dist_p, xc.T)
            state.evaluation = (uv, intr_p, dist_p, R, centered, xc[2], xn, yn, r2, f)
        return state.evaluation

    def residual(state):
        return (evaluate(state)[0] - pixels).ravel()

    def jacobian(state):
        _, (fx, fy, _, _, gamma), (d1, d2), R, q, z, xn, yn, r2, f = evaluate(state)
        # Column-major: B[col, i, row] is the derivative of row (u or v) of
        # point i, so every column is written with unit point stride and the
        # row block is the transposed view (2M, first + stride).
        B = np.zeros((first + stride, m, 2))
        # pixel = A (xd, yd) + (cx, cy) with A = [[fx, gamma], [0, fy]] and
        # (xd, yd) = f (xn, yn): the intrinsic and distortion columns.
        B[0, :, 0] = xn * f
        B[1, :, 1] = B[4, :, 0] = yn * f
        B[2, :, 0] = B[3, :, 1] = 1.0
        B[5, :, 0] = (fx * xn + gamma * yn) * r2
        B[5, :, 1] = fy * yn * r2
        B[6] = B[5] * r2[:, None]
        # d(xd, yd)/d x_c = [f I + k n n^T | -(f + k r2) n] / z with n = (xn, yn)
        # and k = 2 (d1 + 2 d2 r2), row by row; A times it is d pixel / d x_c.
        k = 2.0 * (d1 + 2.0 * d2 * r2)
        kxy = xn * yn * k / z
        g = -(f + k * r2) / z
        dx = np.array([(f + xn * xn * k) / z, kxy, xn * g])
        dy = np.array([kxy, (f + yn * yn * k) / z, yn * g])
        for row, J_xc in enumerate((fx * dx + gamma * dy, fy * dy)):
            # With a = J_xc R: d x_c / d c = -R gives -a, and d x_c / d delta
            # = -R [q]x with q = P - c gives -a [q]x, the cross product q x a.
            a = J_xc[0] * R[0] + J_xc[1] * R[1] + J_xc[2] * R[2]
            B[first:first + 3, :, row] = (q[[1, 2, 0]] * a[[2, 0, 1]]
                                          - q[[2, 0, 1]] * a[[1, 2, 0]])
            if has_center:
                B[7:10, :, row] = -a
            if translations is not None:
                B[first + 3:, :, row] = J_xc
        return BlockJacobian(B.reshape(first + stride, 2 * m).T, first, starts)

    def plus(state, delta):
        R = state.rotations @ rotation_matrix_from_axis_angle(delta[rot_cols])
        # A product of two rotations is orthonormal to rounding; one
        # Newton-Schulz polar step R (3I - RᵀR) / 2 removes the rounding.
        R = R @ (polar - 0.5 * (R.transpose(0, 2, 1) @ R))
        x = state.x + delta
        x[rot_cols] = 0.0
        return LMState(x, R)

    return residual, jacobian, plus, LMState(x0, R0), unpack, image


def _plane_points(observations: ObservationSet) -> np.ndarray:
    """The observed target points (M, 3) on the plane Z = 0."""
    return np.column_stack([observations.xy, np.zeros(len(observations.xy))])


def _per_image_rms(r: np.ndarray, image: np.ndarray):
    """Overall and per-image RMS of the stacked residual r (2M,)."""
    squares = _block_squares(r, 2)
    per = np.sqrt(np.bincount(image, squares) / (2.0 * np.bincount(image)))
    return float(np.sqrt(np.mean(r * r))), tuple(float(v) for v in per)


def _adjusted(problem):
    """Run LM on a stacked problem; K, d, rotations, c, t and the report with RMS."""
    residual, jacobian, plus, x0, unpack, image = problem
    x, report = lm_minimize(residual, jacobian, x0,
                            block_size=2, robust_scale=_CAUCHY_SCALE_PX, plus=plus)
    intr_p, dist_p, c, R, t = unpack(x)
    rms, per = _per_image_rms(residual(x), image)
    intr = CameraIntrinsics(*intr_p)
    dist = Distortion(*dist_p)
    report = replace(report, rms_reprojection=rms, per_image_rms=per)
    # A copy: the state's rotations are read-only, the caller's are not.
    return intr, dist, checked_rotations(R.copy()), c, t, report


# ---------------------------------------------------------------------------
# spherical-motion bundle adjustment
# ---------------------------------------------------------------------------

def spherical_problem(observations: ObservationSet, init):
    """The spherical BA's stacked problem (see `_reprojection_problem`).

    `init` is (CameraIntrinsics, Distortion, SphericalExtrinsics).  Exposed
    so the analytic Jacobian can be checked against finite differences on
    the same local parameterization.
    """
    intr0, dist0, ext0 = init
    if len(ext0.rotations) != len(observations):
        raise ValueError("initial extrinsics must hold one rotation per image")
    if not np.all(np.isfinite(ext0.t_cp)):
        raise ValueError("initial optical center must be finite")
    return _reprojection_problem(_plane_points(observations), observations.uv,
                                 observations.counts, intr0, dist0, ext0.rotations,
                                 center=ext0.t_cp)


def reprojection_rms(problem):
    """Overall and per-image reprojection RMS (px) at the start of a stacked problem.

    `problem` is what `spherical_problem`, `general_problem` or
    `single_image_problem` returns.
    """
    residual, _, _, x0, _, image = problem
    return _per_image_rms(residual(x0), image)


def spherical_ba(observations: ObservationSet, init):
    """Jointly refine K, distortion, per-image rotations and the shared center.

    `init` is (CameraIntrinsics, Distortion, SphericalExtrinsics); the pose of
    image i is [R_i | -R_i t_cp], so the parameter vector has 10 + 3N entries.
    Returns the refined triple and a report.
    """
    intr, dist, rotations, t_cp, _, report = _adjusted(spherical_problem(observations, init))
    ext = SphericalExtrinsics(x=t_cp[0], y=t_cp[1], r=-t_cp[2], rotations=rotations)
    return (intr, dist, ext), report


# ---------------------------------------------------------------------------
# single-image bundle adjustment
# ---------------------------------------------------------------------------

def single_image_problem(rays: np.ndarray, pixels: np.ndarray, init):
    """The single-image BA's stacked problem: one image, c = t = 0, P the rays.

    `init` is (CameraIntrinsics, Distortion, R (3, 3)).
    """
    rays = np.asarray(rays, dtype=float).reshape(-1, 3)
    pixels = np.asarray(pixels, dtype=float).reshape(-1, 2)
    if len(rays) != len(pixels):
        raise ValueError("rays and pixels differ in length")
    intr0, dist0, rot0 = init
    return _reprojection_problem(rays, pixels, [len(rays)], intr0, dist0, [rot0])


def single_image_ba(rays: np.ndarray, pixels: np.ndarray, init):
    """Refine (K, d, R) so that projected reference rays match observed pixels.

    `rays` are unit directions in the reference camera frame; the residual of
    point i is pi(K, d, R q'_i) - p_i.  Needs at least 8 ray-pixel pairs.
    """
    rays = np.asarray(rays, dtype=float).reshape(-1, 3)
    if len(rays) < 8:
        raise ValueError(f"single-image refinement needs >= 8 ray-pixel pairs, got {len(rays)}")
    intr, dist, (R,), _, _, report = _adjusted(single_image_problem(rays, pixels, init))
    return (intr, dist, R), report


# ---------------------------------------------------------------------------
# free-motion bundle adjustment (baseline refinement)
# ---------------------------------------------------------------------------

def general_problem(observations: ObservationSet, init):
    """The free-motion BA's stacked problem, with a translation per image.

    `init` is (CameraIntrinsics, Distortion, (R (N, 3, 3), t (N, 3))).
    """
    intr0, dist0, (R0, t0) = init
    if not len(R0) == len(t0) == len(observations):
        raise ValueError("initial poses must match the image count")
    return _reprojection_problem(_plane_points(observations), observations.uv,
                                 observations.counts, intr0, dist0, R0, translations=t0)


def general_ba(observations: ObservationSet, init):
    """Refine K, distortion and unconstrained per-image poses (7 + 6N parameters).

    `init` is (CameraIntrinsics, Distortion, (R (N, 3, 3), t (N, 3))), and the
    refined triple has the same form; used as the refinement stage of the
    motion-unconstrained baseline.
    """
    intr, dist, R, _, t, report = _adjusted(general_problem(observations, init))
    return (intr, dist, (R, t)), report
