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

A start enters all three in one place, `_Reprojection`, which checks it
against itself and names the field of the first fault.  Problems of one
layout can run side by side (`bundle_adjustments`): their LM runs advance
in rounds (`_lockstep`) and share every kernel call (`_Stack`), and each
result is the one it gets alone.

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

import functools
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
    stacked,
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
    squares = r[::block_size] ** 2
    for j in range(1, block_size):
        squares += r[j::block_size] ** 2
    return squares


def _robust_cost(squares: np.ndarray, scale: float) -> float:
    """Robust cost of the residual blocks with the given sums of squares."""
    c2 = scale * scale
    return float(c2 * np.log1p(squares / c2).sum())


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

        The one-problem case of `_normal_equations`.
        """
        (JtJ,), (g,) = _normal_equations(self.block, self.shared, 1, self.rows,
                                         weights, r, self.weighted)
        return JtJ, g


@functools.lru_cache(maxsize=64)
def _scatter(problems: int, groups: int, shared: int, stride: int):
    """Where the groups' Grams and gradients land in the problems' normal equations.

    For `problems` problems of `groups` groups each, stacked, returns the
    flat indices (read-only) of every entry of the Grams (problems * groups,
    columns, columns) in the stacked JᵀWJ (problems, P, P) and of every entry
    of the gradients (problems * groups, columns) in the stacked JᵀWr
    (problems, P), and P = shared + stride * groups.
    """
    size = shared + stride * groups
    columns = np.arange(shared + stride)
    # Column c of group g is parameter c when shared, else shared + g * stride + c - shared.
    param = np.where(columns < shared, columns,
                     columns + stride * np.arange(groups)[:, None])
    start = np.arange(problems)[:, None, None]
    gram = start[..., None] * size * size + param[:, :, None] * size + param[:, None, :]
    grad = start * size + param
    gram, grad = gram.reshape(-1), grad.reshape(-1)
    gram.flags.writeable = grad.flags.writeable = False
    return gram, grad, size


def _normal_equations(block, shared, problems, rows, weights, r, weighted):
    """(JᵀWJ (problems, P, P), JᵀWr (problems, P)) of stacked block Jacobians.

    `block` holds the groups of `problems` problems of one layout, one
    problem's after another, and `rows`, `weights` and r list every
    problem's rows in the same order (see BlockJacobian, whose fields these
    are).  The weights and r are placed on the grid through `rows` (a
    reshape without it), padding at weight zero.  With Bw the weighted copy
    of the block, one batched Bw Bᵀ and one Bw r give every group's Gram and
    gradient, which one `np.bincount` through `_scatter`'s indices adds into
    the normal equations: a shared entry sums its problem's groups in order.
    """
    count, columns, length = block.shape
    if rows is None:
        w, rp = weights, r
    else:
        w, rp = np.zeros(count * length), np.zeros(count * length)
        w[rows] = weights
        rp[rows] = r
    Bw = np.multiply(block, w.reshape(count, 1, length), out=weighted)
    G = Bw @ block.transpose(0, 2, 1)
    v = Bw @ rp.reshape(count, length, 1)
    gram, grad, size = _scatter(problems, count // problems, shared, columns - shared)
    return (np.bincount(gram, G.reshape(-1), problems * size * size).reshape(problems, size, size),
            np.bincount(grad, v.reshape(-1), problems * size).reshape(problems, size))


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

    The one-problem case of `_lockstep`, which runs several problems side
    by side.  Returns (the final x, ResidualReport).  The cost trajectory
    holds the robust cost at the start and after every accepted step.
    """
    def normal_equations(x, weights, r):
        J = jacobian_fn(x)
        if J.shape[0] != r.size:
            raise ValueError(f"jacobian shape {J.shape} does not match "
                             f"{r.size} residuals")
        return J.normal_equations(weights, r)

    (outcome,) = _lockstep((_one(normal_equations), _one(plus), _one(residual_fn)), [x0],
                           robust_scale=robust_scale, block_size=block_size)
    return errors.raised(outcome)


def _one(fn):
    """The kernel of one problem: `fn` of the one request's arguments, as a list."""
    return lambda indices, requests: [fn(*requests[0])]


# The kinds of kernel request of an LM run, in the order `_lockstep` serves
# them in a round: the Jacobian's normal equations at the current state,
# the step to a trial state, and the residual there.
_NORMAL, _PLUS, _RESIDUAL = range(3)


def _lm_run(x, *, robust_scale: float, block_size: int):
    """One problem's LM run (see `lm_minimize`), as a generator of kernel requests.

    It yields (_RESIDUAL, (x,)), (_NORMAL, (x, weights, r)) or (_PLUS, (x,
    delta)) and is sent the residual, the pair (JᵀWJ, JᵀWr) or the new
    state, or thrown the exception the kernel raised.  It returns (the
    final x, ResidualReport).
    """
    r = np.asarray((yield _RESIDUAL, (x,)), dtype=float)
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
        JtJ, g = yield _NORMAL, (x, _block_weights(squares, block_size, robust_scale), r)
        if not np.isfinite(g).all():
            raise errors.NormalEquationsFailed("gradient is not finite")
        if np.abs(g).max() < _GRADIENT_TOLERANCE:
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
            # |delta|, rounded as np.linalg.norm rounds it.
            step = np.sqrt(delta @ delta)
            x_new = yield _PLUS, (x, delta)
            try:
                r_new = np.asarray((yield _RESIDUAL, (x_new,)), dtype=float)
                squares_new = _block_squares(r_new, block_size)
                cost_new = _robust_cost(squares_new, robust_scale)
            except errors.CalibrationError:
                cost_new = np.inf
            if np.isfinite(cost_new) and cost_new <= cost:
                last_spread, spread = spread, _step_spread(JtJ, delta, cost_new, r.size)
                if cost - cost_new <= _COST_TOLERANCE * cost:
                    termination = "cost"
                elif step < _STEP_TOLERANCE:
                    termination = "step"
                elif _distance_left(spread, last_spread) < _UNCERTAINTY_TOLERANCE:
                    termination = "uncertainty"
                x, r, squares, cost = x_new, r_new, squares_new, cost_new
                trajectory.append(cost)
                accepted += 1
                mu = max(mu / 10.0, _MU_MIN)
                break
            if np.isfinite(cost_new) and step < _STEP_TOLERANCE:
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


def _lockstep(kernels, starts, *, robust_scale: float, block_size: int) -> list:
    """LM runs (`_lm_run`) of several problems, advanced in rounds.

    `kernels` holds, for each kind of request (_NORMAL, _PLUS, _RESIDUAL),
    a function of the problems' indices and their requests' arguments that
    returns one value per request.  Each round serves the kinds in that
    order, with one kernel call for every problem that asks for that kind,
    so a problem whose step was rejected joins the others again at the next
    step.  Every run's damping, acceptance and stop tests are its own: a
    problem's result is the same beside any others as alone, as long as its
    kernels' values are.  Returns per problem (the final x, ResidualReport),
    or the CalibrationError its run raised; any other exception is raised.
    """
    runs = [_lm_run(x0, robust_scale=robust_scale, block_size=block_size) for x0 in starts]
    outcomes = [None] * len(runs)
    asked = [[] for _ in kernels]   # per kind, the (problem, arguments) of its requests

    def advance(k, value):
        try:
            kind, arguments = (runs[k].throw(value) if isinstance(value, Exception)
                               else runs[k].send(value))
        except StopIteration as stop:
            outcomes[k] = stop.value
        except errors.CalibrationError as exc:
            outcomes[k] = exc
        else:
            asked[kind].append((k, arguments))

    for k in range(len(runs)):
        advance(k, None)
    while any(asked):
        for kind, kernel in enumerate(kernels):
            if asked[kind]:
                indices, arguments = zip(*asked[kind])
                asked[kind] = []
                for k, value in zip(indices, _served(kernel, indices, arguments)):
                    advance(k, value)
    return outcomes


def _served(kernel, indices, arguments) -> list:
    """The value of every request from one kernel call, or the exception it raised.

    A call that raises is made again one problem at a time, so that each
    problem gets its own value or exception.
    """
    try:
        return kernel(indices, arguments)
    except Exception as exc:
        if len(indices) == 1:
            return [exc]
    return [value for k, args in zip(indices, arguments)
            for value in _served(kernel, (k,), (args,))]


# ---------------------------------------------------------------------------
# the stacked reprojection problem
# ---------------------------------------------------------------------------

def _closures(problem):
    """(residual, jacobian, plus, x0, unpack, image) of a `_Reprojection`.

    The closures are the one-problem case of `_Stack`'s kernels.  x0 is the
    start `LMState`, image (M,) the image index of each observation, and
    unpack(state) gives (intrinsics (5,), distortion (2,), c (3,), rotation
    matrices (N, 3, 3), translations (N, 3)).  The Jacobian is a
    BlockJacobian with one group per image, written into one buffer of the
    closures, and its weighted copy into another: a Jacobian is valid until
    the next one.
    """
    stack = _Stack([problem])

    def residual(state):
        return stack.residual((0,), ((state,),))[0]

    def jacobian(state):
        return BlockJacobian(*stack.jacobian((0,), (state,)))

    def plus(state, delta):
        return stack.plus((0,), ((state, delta),))[0]

    return residual, jacobian, plus, problem.x0, problem.unpack, problem.image


class _Reprojection:
    """One stacked reprojection problem x_c = R_i (P - c) + t_i: its checked
    start and its grid.

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
    entries, point after point, (u, v) within a point.  `_closures` makes
    the problem's residual, Jacobian and update, and `_Stack` those of
    several problems at once.

    `layout` is what the problems that share kernel calls (`_Stack`) have in
    common: the columns of x before the first image's (`first`), the
    columns of one image's Jacobian block (`columns`), N and L.
    """

    def __init__(self, points, pixels, counts, intr, dist, rotations, *,
                 center=None, translations=None):
        counts = np.asarray(counts)
        R0 = checked_rotations(real_array(rotations, "rotations", (len(counts), 3, 3))).copy()
        n = len(R0)
        self.image = np.repeat(np.arange(n), counts)
        points = real_array(points, "points", (len(self.image), 3))
        self.pixels = real_array(pixels, "pixels", (len(self.image), 2))

        self.p0 = p0 = np.zeros(10 + 6 * n)
        p0[:7] = [intr.fx, intr.fy, intr.cx, intr.cy, intr.gamma, dist.d1, dist.d2]
        rotation = 10 + 6 * np.arange(n)[:, None] + np.arange(3)
        free = np.ones(p0.size, dtype=bool)
        for cols, start, name, shape in ((slice(7, 10), center, "center", (3,)),
                                         (rotation + 3, translations, "translations", (n, 3))):
            free[cols] = start is not None
            p0[cols] = 0.0 if start is None else real_array(start, name, shape)
        self.free = free = np.flatnonzero(free)
        # The columns of x: the `first` shared ones (K, d and a free c), then
        # per image its rotation increment and a free t_i, `columns` in all with
        # image 0's.
        first, columns = np.searchsorted(free, [10, 16]).tolist()

        length = int(counts.max())
        lanes = np.arange(length)
        kept = lanes < counts[:, None]
        source = np.concatenate([[0], np.cumsum(counts)[:-1]])[:, None] + np.where(kept, lanes, 0)
        self.grid = np.ascontiguousarray(points[source].transpose(0, 2, 1))
        slot = np.flatnonzero(kept)   # each point's slot in the flattened grid
        self.real = None if kept.all() else slot
        # `rows` places residual entry 2p + row (u or v) of point p in the
        # image's (columns, 2L) Jacobian block (see `_Stack`).
        u_rows = slot + length * (slot // length)
        self.rows = np.column_stack([u_rows, u_rows + length]).ravel()
        self.layout = (first, columns, n, length)
        self.x0 = LMState(p0[free], R0)

    def unpacked(self, state) -> np.ndarray:
        """The full parameter vector p of a state."""
        p = self.p0.copy()
        p[self.free] = state.x
        return p

    def unpack(self, state):
        p = self.unpacked(state)
        return p[:5], p[5:7], p[7:10], state.rotations, p[10:].reshape(-1, 6)[:, 3:]


def _per_image(values, n: int):
    """The columns of per-problem values (k, m) as factors of (k N, L) image stacks.

    Numbers for one problem, which numpy multiplies fastest, and for several
    a (k N, 1) column each, a problem's value repeated for its N images.
    """
    return values[0] if len(values) == 1 else np.repeat(values.T, n, axis=1)[:, :, None]


def _rows(array, j: int, count: int):
    """Problem j's rows of an array that stacks the rows of `count` problems alike."""
    size = len(array) // count
    return array[j * size:(j + 1) * size]


def _joined(arrays):
    """The arrays concatenated along their first axis; the one array itself, uncopied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


class _Stack:
    """Reprojection problems of one layout whose kernels run in stacked calls.

    Each kernel takes the indices of some of the problems and one request's
    arguments for each (as `_lockstep` hands them over) and makes one call
    of every array operation for all k of them: their images follow one
    another in one (k N, ...) stack, which a per-problem scalar multiplies
    as a (k N, 1) column (`_per_image`).  Every operation acts on each
    image, or each problem, alone, so a problem's values are the same in
    any stack as alone.

    The Jacobian buffer: B[i, col, row, l] is the derivative of row (u or v)
    of slot l of stacked image i by the image's column col, so that every
    column is written in rows of unit stride and every image's block is the
    (columns, 2L) view.  The constant columns and structural zeros are
    written here, once; a call on k problems uses the first k N images.
    """

    def __init__(self, problems):
        self.problems = problems
        self.layout = first, columns, n, length = problems[0].layout
        B = np.zeros((len(problems) * n, columns, 2, length))
        B[:, 2, 0] = B[:, 3, 1] = 1.0
        self.B = B
        self.weighted = np.empty((len(B), columns, 2 * length))
        self.a = np.empty((len(B), 3, 2 * length))
        self.joined = {}   # the stacked grid and `rows` of each tuple of problem indices

    def _joined_data(self, indices):
        """The stacked grid (k N, 3, L) and `rows` of the problems `indices`, made once."""
        if indices not in self.joined:
            size = 2 * self.layout[2] * self.layout[3]
            self.joined[indices] = (
                _joined([self.problems[i].grid for i in indices]),
                _joined([self.problems[i].rows + j * size for j, i in enumerate(indices)]))
        return self.joined[indices]

    def _evaluate(self, indices, states):
        """Stores the evaluation of every state (see `residual`) on it."""
        problems = [self.problems[i] for i in indices]
        _, _, n, length = self.layout
        k = len(states)
        p = _joined([problem.unpacked(state)[None] for problem, state in zip(problems, states)])
        grid = self._joined_data(indices)[0].reshape(k, n, 3, length)
        q = (grid - p[:, None, 7:10, None]).reshape(k * n, 3, length)
        xc = _joined([state.rotations for state in states]) @ q
        xc += p[:, 10:].reshape(-1, 6)[:, 3:, None]
        z = xc[:, 2]
        if (z <= 0).any():
            behind = z <= 0
            count = sum(int(np.sum(b if problem.real is None else b.ravel()[problem.real]))
                        for problem, b in zip(problems, np.split(behind, k)))
            raise errors.PointBehindCamera(f"{count} point(s) at non-positive depth")
        u, v, xn, yn, r2, f = radial_pixels(_per_image(p[:, :5], n), _per_image(p[:, 5:7], n),
                                            xc[:, 0], xc[:, 1], z)
        uv = np.stack([u, v], axis=-1).reshape(k, n * length, 2)
        arrays = (p, q, z, xn, yn, r2, f)
        for j, (problem, state) in enumerate(zip(problems, states)):
            r = ((uv[j] if problem.real is None else uv[j][problem.real]) - problem.pixels).ravel()
            r.flags.writeable = False
            state.evaluation = (r, j, arrays)

    def residual(self, indices, requests):
        """The residual at each state, from its stored evaluation or a new one.

        An evaluation holds the residual, and the state's place j in the
        arrays of the call that made it: the stacked parameter vectors, and
        per image P - c and the depth z, and the radial map's xn, yn, r2 and
        f.  A state with a point at non-positive depth raises
        PointBehindCamera, which counts real points only.
        """
        fresh = [(k, state) for k, (state,) in zip(indices, requests) if state.evaluation is None]
        if fresh:
            self._evaluate(*zip(*fresh))
        return [state.evaluation[0] for state, in requests]

    def jacobian(self, indices, states):
        """(block, shared, rows, weighted) of the Jacobians at the states, stacked.

        The block and its weighted copy are buffers of the stack, valid
        until its next Jacobian; `rows` lists every problem's rows in order.
        """
        first, columns, n, length = self.layout
        self.residual(indices, [(state,) for state in states])
        k, images = len(states), len(states) * n
        evaluations = [state.evaluation for state in states]
        arrays = evaluations[0][2]
        if len(arrays[0]) != k or any(e[2] is not arrays or e[1] != j
                                      for j, e in enumerate(evaluations)):
            # not the states of one evaluation, in its order: each state's rows
            arrays = [_joined([_rows(e[2][a], e[1], len(e[2][0])) for e in evaluations])
                      for a in range(len(arrays))]
        camera, q, z, xn, yn, r2, f = arrays
        R = _joined([state.rotations for state in states])
        fx, fy, _, _, gamma, d1, d2 = _per_image(camera[:, :7], n)
        B, a = self.B[:images], self.a[:images]
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
        # with m = (xn, yn, -r2).  The last three columns of an image are
        # d pixel / d x_c: d x_c / d t_i is the identity, so a free t_i's
        # columns are it, and with t_i held the rotation columns hold it
        # until the rotation entries are written over it.
        fz = f / z
        kz = (2.0 * d1 + 4.0 * d2 * r2) / z
        h = -(fz + kz * r2)
        ku, kv = kz * pu, kz * pv
        u, v = B[:, -3:, 0], B[:, -3:, 1]
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
        np.matmul(R.transpose(0, 2, 1), B[:, -3:].reshape(images, 3, 2 * length), out=a)
        a4 = a.reshape(images, 3, 2, length)
        q4 = q[:, :, None]
        for j, (j1, j2) in enumerate(((1, 2), (2, 0), (0, 1))):
            np.subtract(q4[:, j1] * a4[:, j2], q4[:, j2] * a4[:, j1], out=B[:, first + j])
        # The center's columns, none while c is held.
        np.negative(a4[:, :first - 7], out=B[:, 7:first])
        return (B.reshape(images, columns, 2 * length), first, self._joined_data(indices)[1],
                self.weighted[:images])

    def normal_equations(self, indices, requests):
        """(JᵀWJ, JᵀWr) at each state with its weights and residual, one product for all."""
        states, weights, r = zip(*requests)
        block, first, rows, weighted = self.jacobian(indices, states)
        return list(zip(*_normal_equations(block, first, len(states), rows,
                                           _joined(weights), _joined(r), weighted)))

    def plus(self, indices, requests):
        """The state one step delta from each state: R <- R exp(delta^), polar-corrected."""
        states, deltas = zip(*requests)
        first, _, n, _ = self.layout
        k, size = len(states), states[0].x.size

        def turns(joined):
            """The (k, N, 3) view of the rotation increments in k joined vectors x."""
            return joined.reshape(k, -1)[:, first:].reshape(k, n, -1)[:, :, :3]

        delta = _joined(deltas)
        R = _joined([state.rotations for state in states]) @ rotation_matrix_from_axis_angle(
            turns(delta).reshape(-1, 3))
        # A product of two rotations is orthonormal to rounding; one
        # Newton-Schulz polar step R (3I - RᵀR) / 2 removes the rounding.
        R = R @ (_POLAR - 0.5 * (R.transpose(0, 2, 1) @ R))
        x = _joined([state.x for state in states]) + delta
        turns(x)[...] = 0.0
        return [LMState(x[j * size:(j + 1) * size], R[j * n:(j + 1) * n]) for j in range(k)]


_POLAR = 1.5 * np.eye(3)


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


def _finished(r, unpacked, image, report):
    """K, d, rotations, c, t and the report with RMS, from the final residual and unpack."""
    intr_p, dist_p, c, R, t = unpacked
    rms, per = _per_image_rms(r, image)
    report = replace(report, rms_reprojection=rms, per_image_rms=per)
    # A copy: the state's rotations are read-only, the caller's are not.
    return CameraIntrinsics(*intr_p), Distortion(*dist_p), R.copy(), c, t, report


def _adjusted(problem):
    """Run LM on a stacked problem; K, d, rotations, c, t and the report with RMS."""
    residual, jacobian, plus, x0, unpack, image = problem
    x, report = lm_minimize(residual, jacobian, x0,
                            block_size=2, robust_scale=_CAUCHY_SCALE_PX, plus=plus)
    return _finished(residual(x), unpack(x), image, report)


def _adjusted_together(problems, result_of) -> list:
    """`result_of(*_adjusted(...))` of problems of one layout (`_Reprojection`s),
    run side by side.

    One `_lockstep` over one `_Stack`: each result is the same as alone.
    Returns per problem the result or the CalibrationError LM raised.
    """
    stack = _Stack(problems)
    outcomes = _lockstep((stack.normal_equations, stack.plus, stack.residual),
                         [problem.x0 for problem in problems],
                         robust_scale=_CAUCHY_SCALE_PX, block_size=2)
    return [outcome if isinstance(outcome, errors.CalibrationError) else
            result_of(*_finished(outcome[0].evaluation[0], problem.unpack(outcome[0]),
                                 problem.image, outcome[1]))
            for problem, outcome in zip(problems, outcomes)]


def bundle_adjustments(kind: str, observation_sets, inits) -> list:
    """`spherical_ba` ("spherical") or `general_ba` ("general") of every
    (observations, init) pair, those of one layout run side by side.

    The problems of one layout (`_Reprojection.layout`: the image count and
    the padded length, on which the rounding of a stacked Gram depends) run
    a group at a time (`stacked`, 10 pairs as 5 + 5).  The LM runs of a
    group share every kernel call (`_adjusted_together`), so every result
    is the same, to the bit, as that of the public function.  Returns per
    pair its result, or the CalibrationError it raised; a start that is not
    valid raises its ValueError.
    """
    problem_of, result_of = ((_spherical, _spherical_result) if kind == "spherical"
                             else (_general, _general_result))
    return stacked([problem_of(obs, init) for obs, init in zip(observation_sets, inits)],
                   lambda problem: problem.layout,
                   lambda problems: _adjusted_together(problems, result_of))


# ---------------------------------------------------------------------------
# spherical-motion bundle adjustment
# ---------------------------------------------------------------------------

def _spherical(observations: ObservationSet, init) -> _Reprojection:
    intr0, dist0, ext0 = init
    return _Reprojection(_plane_points(observations), observations.uv, observations.counts,
                         intr0, dist0, ext0.rotations, center=ext0.t_cp)


def spherical_problem(observations: ObservationSet, init):
    """The spherical BA's stacked problem (see `_Reprojection` and `_closures`).

    `init` is (CameraIntrinsics, Distortion, SphericalExtrinsics).  Exposed
    so the analytic Jacobian can be checked against finite differences on
    the same local parameterization.
    """
    return _closures(_spherical(observations, init))


def unrefined_report(problem):
    """The report of a stacked problem left at its start: "not_run", 0 iterations.

    `problem` is what `spherical_problem`, `general_problem` or
    `single_image_problem` returns; the RMS is that of its start point.
    """
    residual, _, _, x0, _, image = problem
    rms, per = _per_image_rms(residual(x0), image)
    return ResidualReport(rms_reprojection=rms, per_image_rms=per, iterations_used=0,
                          termination="not_run", cost_trajectory=())


def _spherical_result(intr, dist, rotations, t_cp, _, report):
    ext = SphericalExtrinsics(x=t_cp[0], y=t_cp[1], r=-t_cp[2], rotations=rotations)
    return (intr, dist, ext), report


def spherical_ba(observations: ObservationSet, init):
    """Jointly refine K, distortion, per-image rotations and the shared center.

    `init` is (CameraIntrinsics, Distortion, SphericalExtrinsics); the pose of
    image i is [R_i | -R_i t_cp], so the parameter vector has 10 + 3N entries.
    Returns the refined triple and a report.
    """
    return _spherical_result(*_adjusted(spherical_problem(observations, init)))


# ---------------------------------------------------------------------------
# single-image bundle adjustment
# ---------------------------------------------------------------------------

def single_image_problem(rays: np.ndarray, pixels: np.ndarray, init):
    """The single-image BA's stacked problem: one image, c = t = 0, P the rays.

    `init` is (CameraIntrinsics, Distortion, R (3, 3)).
    """
    rays = real_array(rays, "rays", (None, 3))
    intr0, dist0, rot0 = init
    return _closures(_Reprojection(rays, pixels, [len(rays)], intr0, dist0, [rot0]))


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

def _general(observations: ObservationSet, init) -> _Reprojection:
    intr0, dist0, (R0, t0) = init
    return _Reprojection(_plane_points(observations), observations.uv, observations.counts,
                         intr0, dist0, R0, translations=t0)


def general_problem(observations: ObservationSet, init):
    """The free-motion BA's stacked problem, with a translation per image.

    `init` is (CameraIntrinsics, Distortion, (R (N, 3, 3), t (N, 3))).
    """
    return _closures(_general(observations, init))


def _general_result(intr, dist, R, _, t, report):
    return (intr, dist, (R, t)), report


def general_ba(observations: ObservationSet, init):
    """Refine K, distortion and unconstrained per-image poses (7 + 6N parameters).

    `init` is (CameraIntrinsics, Distortion, (R (N, 3, 3), t (N, 3))), and the
    refined triple has the same form; used as the refinement stage of the
    motion-unconstrained baseline.
    """
    return _general_result(*_adjusted(general_problem(observations, init)))
