"""Robust nonlinear refinement built on a damped normal-equations LM engine.

The three bundle adjustments are one reprojection problem over the points
of all images stacked together.  Point P of image i is seen at

    x_c = R_i (P - c) + t_i,    pixel = pi(K, d, x_c),

with intrinsics K = (fx, fy, cx, cy, gamma) and radial distortion
d = (d1, d2).  Every problem has one full parameter vector p = [K, d, c |
per image: rotation increment, t_i], and the three refinements differ
only in the index set `free` of the groups that LM moves; a held group
keeps its start, zero:

    spherical motion:  one shared optical center c = t_cp free, t_i held
                       (10 + 3N parameters);
    free motion:       c held and a translation t_i per image free
                       (7 + 6N), the refinement stage of the plane-based
                       baseline;
    single image:      one image, c and t held, and P the reference
                       rays (10).

A start enters all three in one place, `_reprojection_problem`, which
checks it against itself and names the field of the first fault.

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
    MIN_SINGLE_IMAGE_POINTS,
    CameraIntrinsics,
    Distortion,
    ObservationSet,
    checked_rotations,
    radial_pixels,
    real_array,
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


def _robust_cost(squares: np.ndarray, scale: float) -> float:
    """Robust cost of the residual blocks with the given sums of squares."""
    c2 = scale * scale
    return float(c2 * np.sum(np.log1p(squares / c2)))


def _block_weights(squares: np.ndarray, block_size: int, scale: float) -> np.ndarray:
    """IRLS weight of every residual entry, from its block's sum of squares."""
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

    `block` (groups, columns, length) holds group g's rows as the columns of
    `block[g]`: the derivatives by the `shared` leading parameters, then by
    the `stride` parameters of the group's own, which start at `shared + g *
    stride`; every other entry of a row is zero.  `rows`, when given, lists
    where each row of the Jacobian sits in the flattened (groups, length)
    grid; the slots it leaves out are padding, which counts with weight zero
    and is not part of the Jacobian.  Without it the slots are the rows, in
    order.
    `weighted`, when given, is a buffer of the shape of `block` that
    `normal_equations` writes its weighted copy into.

    The bundle adjustments' groups are their images, padded to the largest
    image, and their `block` and `weighted` are buffers of their problem: a
    BlockJacobian of theirs is valid until the problem's next Jacobian.  The
    single-image angle refinement's Jacobian is one group with stride 0.
    """
    block: np.ndarray
    shared: int
    rows: np.ndarray | None = None
    weighted: np.ndarray | None = None

    @property
    def stride(self) -> int:
        return self.block.shape[1] - self.shared

    @property
    def shape(self) -> tuple:
        n, _, length = self.block.shape
        size = n * length if self.rows is None else len(self.rows)
        return size, self.shared + self.stride * n

    def toarray(self) -> np.ndarray:
        n, _, length = self.block.shape
        s, k = self.shared, self.stride
        J = np.zeros((n, length, self.shape[1]))
        J[:, :, :s] = self.block[:, :s].transpose(0, 2, 1)
        for g in range(n):
            J[g, :, s + g * k:s + (g + 1) * k] = self.block[g, s:].T
        J = J.reshape(n * length, -1)
        return J if self.rows is None else J[self.rows]

    def normal_equations(self, weights: np.ndarray, r: np.ndarray):
        """(JᵀWJ, JᵀWr) with W = diag(weights), every group's Gram in one product.

        The weights and r are placed on the grid through `rows` (a reshape
        without it), padding at weight zero.  With Bw the weighted
        copy of the block, one batched Bw Bᵀ and one Bw r give every group's
        Gram and gradient, which are scattered into JᵀWJ and JᵀWr through
        reshaped views, one group's too.
        """
        n, _, length = self.block.shape
        s, k = self.shared, self.stride
        if self.rows is None:
            w, rp = weights, r
        else:
            w, rp = np.zeros(n * length), np.zeros(n * length)
            w[self.rows] = weights
            rp[self.rows] = r
        Bw = np.multiply(self.block, w.reshape(n, 1, length), out=self.weighted)
        G = Bw @ self.block.transpose(0, 2, 1)
        v = (Bw @ rp.reshape(n, length, 1))[..., 0]
        JtJ = np.zeros((self.shape[1],) * 2)
        JtJ[:s, :s] = G[:, :s, :s].sum(axis=0)
        JtJ[:s, s:] = G[:, :s, s:].transpose(1, 0, 2).reshape(s, n * k)
        JtJ[s:, :s] = G[:, s:, :s].reshape(n * k, s)
        group = np.arange(n)
        JtJ[s:, s:].reshape(n, k, n, k)[group, :, group, :] = G[:, s:, s:]
        g = np.concatenate([v[:, :s].sum(axis=0), v[:, s:].reshape(-1)])
        return JtJ, g


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


def lm_minimize(residual_fn, jacobian_fn, x0, *, robust_scale: float, plus,
                block_size: int = 1):
    """Cauchy-robust IRLS Levenberg-Marquardt on damped normal equations.

    x is a state that only the three callables look into (an `LMState`, for
    the problems of this package): `plus(x, delta)` returns the state one
    step delta away, and the Jacobian is taken with respect to that local
    increment at zero.  The Jacobian is a `BlockJacobian`, whose per-group
    row blocks form JᵀWJ in one batched product over the groups, and the
    parameter count comes from it.  Each block of `block_size` consecutive
    residuals is robustified with the Cauchy function of scale
    `robust_scale`.  `residual_fn(x)` is called at the start and at every
    trial state; `jacobian_fn(x)` only ever at the last state whose residual
    was evaluated, the start or the step just accepted, so a problem may
    reuse that evaluation; and each Jacobian is used up before the next is
    asked for, so a problem may write them all into one buffer.  Each
    residual's block squares are taken once and serve both its robust cost
    and, once it is accepted, the next iteration's IRLS weights.  Damping is
    divided by 10 on accepted steps and multiplied by 10 on rejections.  The
    report's `termination` gives the reason the run stopped:

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
        J = jacobian_fn(x)
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
    are the initial R_i.  This is the one place where a start enters the
    three bundle adjustments, and it is checked here against itself:
    ValueError names the field whose shape does not match the counts or
    that holds a bool, a string or None, or the first rotation that is not
    proper.

    Every problem has one full parameter vector p = (fx, fy, cx, cy, gamma,
    d1, d2, c, then per image the rotation increment and t_i), and the index
    array `free` picks the parameters that LM moves: K, d and the rotations
    always, c when `center` (3,) is given and the t_i when `translations`
    (N, 3) are.  A held group keeps its start, which is zero, so a state's
    parameter vector x is p[free], in that order, and the increments in it
    are zero at every state, whose rotations are the matrices it holds.

    The points are laid out image-major on one (N, L) grid, L the largest
    count, so that every image's x_c is one product R_i (P - c) over a
    (3, L) block.  An image's slots past its own count repeat its first
    point; they count in no residual, cost, RMS or depth check, and carry
    weight zero in the normal equations.  The residual is the 2M real
    entries, point after point, (u, v) within a point.  The Jacobian is a
    BlockJacobian with one group per image, written into one buffer of the
    problem, and its weighted copy into another: a Jacobian is valid until
    the problem's next Jacobian.

    Returns (residual, jacobian, plus, x0, unpack, image): x0 is the start
    `LMState`, image (M,) the image index of each observation, and
    unpack(state) gives (intrinsics (5,), distortion (2,), c (3,), rotation
    matrices (N, 3, 3), translations (N, 3)).
    """
    counts = np.asarray(counts)
    R0 = checked_rotations(real_array(rotations, "rotations", (len(counts), 3, 3))).copy()
    n = len(R0)
    image = np.repeat(np.arange(n), counts)
    points = real_array(points, "points", (len(image), 3))
    pixels = real_array(pixels, "pixels", (len(image), 2))

    p0 = np.zeros(10 + 6 * n)
    p0[:7] = [intr.fx, intr.fy, intr.cx, intr.cy, intr.gamma, dist.d1, dist.d2]
    rotation = 10 + 6 * np.arange(n)[:, None] + np.arange(3)
    free = np.ones(p0.size, dtype=bool)
    for cols, start, name, shape in ((slice(7, 10), center, "center", (3,)),
                                     (rotation + 3, translations, "translations", (n, 3))):
        free[cols] = start is not None
        p0[cols] = 0.0 if start is None else real_array(start, name, shape)
    free = np.flatnonzero(free)
    # The columns of x: the `first` shared ones (K, d and a free c), then
    # per image its rotation increment and a free t_i, `columns` in all with
    # image 0's.
    first, columns = np.searchsorted(free, [10, 16]).tolist()
    rot_cols = np.searchsorted(free, rotation)
    polar = 1.5 * np.eye(3)

    length = int(counts.max())
    lanes = np.arange(length)
    kept = lanes < counts[:, None]
    source = np.concatenate([[0], np.cumsum(counts)[:-1]])[:, None] + np.where(kept, lanes, 0)
    grid = np.ascontiguousarray(points[source].transpose(0, 2, 1))
    slot = np.flatnonzero(kept)   # each point's slot in the flattened grid
    real = None if kept.all() else slot
    # The Jacobian's buffer: B[i, col, row, l] is the derivative of row (u
    # or v) of slot l of image i by the image's column col, so that every
    # column is written in rows of unit stride and every image's block is
    # the (columns, 2L) view.  `rows` places residual entry 2p + row of
    # point p in that view.  The constant columns and structural zeros are
    # written here, once.
    u_rows = slot + length * (slot // length)
    rows = np.column_stack([u_rows, u_rows + length]).ravel()
    B = np.zeros((n, columns, 2, length))
    B[:, 2, 0] = B[:, 3, 1] = 1.0
    blocks = B.reshape(n, columns, 2 * length)
    weighted = np.empty_like(blocks)
    # The last three columns of an image are the projection's derivative by
    # x_c: d x_c / d t_i is the identity, so a free t_i's columns are it, and
    # with t_i held the rotation columns hold it until the rotation entries
    # are written over it.
    J_xc = B[:, -3:]
    a = np.empty((n, 3, 2 * length))

    def unpack(state):
        p = p0.copy()
        p[free] = state.x
        return p[:5], p[5:7], p[7:10], state.rotations, p[10:].reshape(n, 6)[:, 3:]

    def evaluate(state):
        if state.evaluation is None:
            intr_p, dist_p, c, R, t = unpack(state)
            q = grid - c[:, None]
            xc = R @ q
            xc += t[:, :, None]
            z = xc[:, 2]
            if np.any(z <= 0):
                behind = z <= 0
                count = int(np.sum(behind if real is None else behind.ravel()[real]))
                raise errors.PointBehindCamera(f"{count} point(s) at non-positive depth")
            u, v, xn, yn, r2, f = radial_pixels(intr_p, dist_p, xc[:, 0], xc[:, 1], z)
            uv = np.stack([u, v], axis=-1).reshape(-1, 2)
            r = ((uv if real is None else uv[real]) - pixels).ravel()
            r.flags.writeable = False
            state.evaluation = (r, intr_p, dist_p, R, q, z, xn, yn, r2, f)
        return state.evaluation

    def residual(state):
        return evaluate(state)[0]

    def jacobian(state):
        _, (fx, fy, _, _, gamma), (d1, d2), R, q, z, xn, yn, r2, f = evaluate(state)
        # pixel = A (xd, yd) + (cx, cy) with A = [[fx, gamma], [0, fy]] and
        # (xd, yd) = f (xn, yn): the intrinsic and distortion columns, with
        # (pu, pv) = A (xn, yn).
        pu = fx * xn + gamma * yn
        pv = fy * yn
        np.multiply(xn, f, out=B[:, 0, 0])
        np.multiply(yn, f, out=B[:, 1, 1])
        B[:, 4, 0] = B[:, 1, 1]
        np.multiply(pu, r2, out=B[:, 5, 0])
        np.multiply(pv, r2, out=B[:, 5, 1])
        np.multiply(B[:, 5], r2[:, None], out=B[:, 6])
        # d(xd, yd)/d x_c = [f I + k n nᵀ | -(f + k r2) n] / z with n = (xn, yn)
        # and k = 2 d1 + 4 d2 r2, so A times it, d pixel / d x_c, has the rows
        # u: (f (fx, gamma, -pu) + k pu m) / z and v: (f (0, fy, -pv) + k pv m) / z
        # with m = (xn, yn, -r2).
        fz = f / z
        kz = (2.0 * d1 + 4.0 * d2 * r2) / z
        h = -(fz + kz * r2)
        ku, kv = kz * pu, kz * pv
        u, v = J_xc[:, :, 0], J_xc[:, :, 1]
        np.multiply(ku, xn, out=u[:, 0])
        u[:, 0] += fx * fz
        np.multiply(ku, yn, out=u[:, 1])
        u[:, 1] += gamma * fz
        np.multiply(pu, h, out=u[:, 2])
        np.multiply(kv, xn, out=v[:, 0])
        np.multiply(kv, yn, out=v[:, 1])
        v[:, 1] += fy * fz
        np.multiply(pv, h, out=v[:, 2])
        # With a = Rᵀ J_xc, image by image: d x_c / d c = -R gives -a, and
        # d x_c / d delta = -R [q]x with q = P - c gives -a [q]x, the cross
        # product q x a.
        np.matmul(R.transpose(0, 2, 1), J_xc.reshape(n, 3, 2 * length), out=a)
        a4 = a.reshape(n, 3, 2, length)
        q4 = q[:, :, None]
        for j, (j1, j2) in enumerate(((1, 2), (2, 0), (0, 1))):
            np.subtract(q4[:, j1] * a4[:, j2], q4[:, j2] * a4[:, j1], out=B[:, first + j])
        # The center's columns, none while c is held.
        np.negative(a4[:, :first - 7], out=B[:, 7:first])
        return BlockJacobian(blocks, first, rows, weighted)

    def plus(state, delta):
        R = state.rotations @ rotation_matrix_from_axis_angle(delta[rot_cols])
        # A product of two rotations is orthonormal to rounding; one
        # Newton-Schulz polar step R (3I - RᵀR) / 2 removes the rounding.
        R = R @ (polar - 0.5 * (R.transpose(0, 2, 1) @ R))
        x = state.x + delta
        x[rot_cols] = 0.0
        return LMState(x, R)

    return residual, jacobian, plus, LMState(p0[free], R0), unpack, image


def _plane_points(observations: ObservationSet) -> np.ndarray:
    """The observed target points (M, 3) on the plane Z = 0."""
    return np.column_stack([observations.xy, np.zeros(len(observations.xy))])


def _per_image_rms(r: np.ndarray, image: np.ndarray):
    """Overall and per-image RMS of the stacked residual r (2M,).

    Both come from the same per-image sums, so one image's RMS is the overall one.
    """
    sums = np.bincount(image, _block_squares(r, 2))
    sizes = 2.0 * np.bincount(image)
    return (float(np.sqrt(sums.sum() / sizes.sum())),
            tuple(float(v) for v in np.sqrt(sums / sizes)))


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
    return intr, dist, R.copy(), c, t, report


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
    return _reprojection_problem(_plane_points(observations), observations.uv,
                                 observations.counts, intr0, dist0, ext0.rotations,
                                 center=ext0.t_cp)


def unrefined_report(problem):
    """The report of a stacked problem left at its start: "not_run", 0 iterations.

    `problem` is what `spherical_problem`, `general_problem` or
    `single_image_problem` returns; the RMS is that of its start point.
    """
    residual, _, _, x0, _, image = problem
    rms, per = _per_image_rms(residual(x0), image)
    return ResidualReport(rms_reprojection=rms, per_image_rms=per, iterations_used=0,
                          termination="not_run", cost_trajectory=())


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
    rays = real_array(rays, "rays", (None, 3))
    intr0, dist0, rot0 = init
    return _reprojection_problem(rays, pixels, [len(rays)], intr0, dist0, [rot0])


def single_image_ba(rays: np.ndarray, pixels: np.ndarray, init):
    """Refine (K, d, R) so that projected reference rays match observed pixels.

    `rays` are unit directions in the reference camera frame; the residual of
    point i is pi(K, d, R q'_i) - p_i.  Needs at least MIN_SINGLE_IMAGE_POINTS
    ray-pixel pairs.
    """
    problem = single_image_problem(rays, pixels, init)
    count = len(problem[-1])  # the image index of each ray-pixel pair
    if count < MIN_SINGLE_IMAGE_POINTS:
        raise ValueError(f"single-image refinement needs >= {MIN_SINGLE_IMAGE_POINTS} "
                         f"ray-pixel pairs, got {count}")
    intr, dist, (R,), _, _, report = _adjusted(problem)
    return (intr, dist, R), report


# ---------------------------------------------------------------------------
# free-motion bundle adjustment (baseline refinement)
# ---------------------------------------------------------------------------

def general_problem(observations: ObservationSet, init):
    """The free-motion BA's stacked problem, with a translation per image.

    `init` is (CameraIntrinsics, Distortion, (R (N, 3, 3), t (N, 3))).
    """
    intr0, dist0, (R0, t0) = init
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
