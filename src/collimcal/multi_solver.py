"""Initial-value solvers under the spherical motion constraint.

With the camera optical center fixed at t_cp = (x, y, -r) in the target
frame, every image pose is [R | -R t_cp] and each homography yields five
independent constraints coupling the intrinsics with (x, y, r).  Stacking
them gives a closed-form linear solve for three or more images; for
exactly two images a minimal solver treats the combined center term as a
hidden variable and finds it as an eigenvalue of a linear matrix pencil.

All solvers read the homographies of `ObservationSet.homography_fit`,
fitted once per observation set in O(1) units (shared similarity
transforms of pixels and target coordinates); without the rescaling the
mixed pixel/mm scales lose half the float64 mantissa to cancellation.
The fit's `intrinsics_to_raw` and `center_to_raw` map results back to
the input units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .core_geom import (
    CameraIntrinsics,
    ObservationSet,
    checked_rotations,
    decompose_homography,
    real_array,
    real_number,
    stacked,
)

# The entries of a symmetric 3x3 matrix in the order of its 6-vector form
# (M11, M12, M13, M22, M23, M33), and their 0-based row and column indices.
_SYM_PAIRS = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
_SYM_I, _SYM_J = np.array(_SYM_PAIRS).T - 1

RANK_RATIO_CUTOFF = 1e-8
# Eigenvalues of the minimal solver's pencil below this fraction of the
# largest are roots at infinity; over 1,500 two-image scenes at 0 to 5 px
# of noise the spurious one stayed below 4.8e-6 of it.
_ROOT_RATIO_CUTOFF = 1e-4
# Distance from the identity or a plane rotation, entry by entry, within
# which a relative homography flags a degenerate image pair.
_STRUCTURE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class SphericalExtrinsics:
    """Spherical-motion extrinsics: fixed optical center plus per-image rotations.

    `rotations` is the (N, 3, 3) stack of the images' R_i, checked by
    `checked_rotations`.
    """

    x: float
    y: float
    r: float
    rotations: np.ndarray

    def __post_init__(self):
        for name in ("x", "y", "r"):
            object.__setattr__(self, name, real_number(getattr(self, name), f"center {name}"))
        object.__setattr__(self, "rotations", checked_rotations(self.rotations))
        if not self.r > 0:
            raise ValueError(f"spherical radius must be positive, got {self.r}")

    @property
    def t_cp(self) -> np.ndarray:
        return np.array([self.x, self.y, -self.r])


@dataclass(frozen=True)
class DegeneracyReport:
    """Flags for the two degenerate motions plus the rank of the stacked system."""

    pure_translation_pairs: tuple
    z_rotation_pairs: tuple
    rank: int


def _scale_ratios(H: np.ndarray, n: int):
    """Scale ratios lambda_i / lambda_0 of the homographies H (M, 3, 3) of
    sets of n images, one set after the other, each relative to its set's
    image 0, and per set whether that image's homography is singular (its
    ratios are then not valid).

    The motion matrix has unit determinant ratio between images, so each
    ratio is the signed real cube root of det(H_0^-1 H_i).  Any image would
    serve as the reference: a common factor of the ratios only rescales A
    in the linear system, and the center is decoded from ratios of A's
    entries.
    """
    det = np.linalg.det(H).reshape(-1, n)
    singular = np.abs(det[:, 0]) < 1e-300
    return np.cbrt(det / np.where(singular, 1.0, det[:, 0])[:, None]).reshape(-1), singular


def conic_rows(H: np.ndarray) -> np.ndarray:
    """The conic-constraint table of one H (3, 3) or a stack (..., 3, 3).

    Returns (..., 6, 6) whose row k is u_mn for the k-th pair (m, n) of
    _SYM_PAIRS: u_mn . q = h_m^T Q h_n for columns h_m, h_n of H and the
    symmetric Q of the 6-vector q.
    """
    cols = np.swapaxes(real_array(H, "H", (..., 3, 3)), -1, -2)
    hm = cols[..., _SYM_I, :]
    hn = cols[..., _SYM_J, :]
    return (hm[..., _SYM_I] * hn[..., _SYM_J]
            + np.where(_SYM_I != _SYM_J, hn[..., _SYM_I] * hm[..., _SYM_J], 0.0))


def build_linear_system(H: np.ndarray):
    """Stacked constraint system d [w; a] = b of the homographies H (N, 3, 3).

    Returns (d (6N, 11), b (6N,)).  Each image contributes six rows, one per
    independent entry of the symmetric constraint H^-1 W H^-T = mu^2 A with
    mu = lambda_0/lambda_i, the scale of image 0 relative to image i; the
    system depends on the stack alone.  The sixth (3,3) row is required:
    without it the A33 column is empty and the optical center cannot be
    decoded from the solution.
    """
    H = real_array(H, "H", (None, 3, 3))
    if not len(H):
        raise ValueError("H must hold at least one homography")
    ratios, singular = _scale_ratios(H, len(H))
    if singular[0]:
        raise errors.DegenerateConfiguration("homography of image 0 is singular")
    d, b = _constraint_rows(H, ratios)
    return d.reshape(-1, 11), b.reshape(-1)


def _constraint_rows(H: np.ndarray, ratios: np.ndarray):
    """The six rows d (M, 6, 11) and right sides b (M, 6) that each of the
    homographies H (M, 3, 3) with scale ratios `ratios` (M,) adds to
    `build_linear_system`."""
    # (H^-1 W H^-T)_mn on w = (W11, W12, W13, W22, W23); W33 = 1.
    Hinv_t = np.linalg.inv(H).transpose(0, 2, 1)
    u = conic_rows(Hinv_t)
    d = np.zeros((len(H), 6, 11))
    d[..., :5] = u[..., :5]
    diagonal = np.arange(6)
    d[:, diagonal, 5 + diagonal] = -((1.0 / ratios) ** 2)[:, None]
    return d, -u[..., 5]


def decompose_iac(q: np.ndarray) -> CameraIntrinsics:
    """Intrinsics from a 6-vector IAC estimate q ~ (Q11, Q12, Q13, Q22, Q23, Q33).

    The sign is normalized so Q33 > 0; K is the inverse transpose of the
    Cholesky factor of Q, scaled to K[2,2] = 1.
    """
    q = real_array(q, "q", (6,))
    if q[5] == 0.0:
        raise errors.NotPositiveDefinite("Q33 is zero")
    if q[5] < 0:
        q = -q
    Q = np.array([[q[0], q[1], q[2]],
                  [q[1], q[3], q[4]],
                  [q[2], q[4], q[5]]])
    try:
        L = np.linalg.cholesky(Q)
    except np.linalg.LinAlgError as exc:
        raise errors.NotPositiveDefinite("IAC matrix is not positive definite") from exc
    K = np.linalg.inv(L).T
    return CameraIntrinsics.from_matrix(K)


def _decode_intrinsics(w: np.ndarray) -> CameraIntrinsics:
    cx, cy = w[2], w[4]
    fy2 = w[3] - cy * cy
    if fy2 <= 0:
        raise errors.NegativeRadicand(f"W22 - cy^2 = {fy2:.3e}")
    fy = np.sqrt(fy2)
    gamma = (w[1] - cx * cy) / fy
    fx2 = w[0] - cx * cx - gamma * gamma
    if fx2 <= 0:
        raise errors.NegativeRadicand(f"W11 - cx^2 - gamma^2 = {fx2:.3e}")
    return CameraIntrinsics(fx=np.sqrt(fx2), fy=fy, cx=cx, cy=cy, gamma=gamma)


def _decode_center(a: np.ndarray):
    if a[5] <= 0:
        raise errors.NegativeRadicand(f"A33 = {a[5]:.3e} is not positive")
    x = a[2] / a[5]
    y = a[4] / a[5]
    r2 = a[0] / a[5] - x * x
    if r2 <= 0:
        raise errors.NegativeRadicand(f"A11/A33 - x^2 = {r2:.3e}")
    # The raw recovery fixes the sign of the center's z component; the radius
    # is stored positive with t_cp = (x, y, -r).
    return x, y, float(np.sqrt(r2))


def solve_closed_form(observations):
    """Closed-form calibration from three or more images.

    Returns (CameraIntrinsics, SphericalExtrinsics), solved from the
    observations' homography fit alone.  Given a list of ObservationSets,
    returns per set that pair or the CalibrationError it raised; the fits
    of one image count are solved a group at a time (`stacked`,
    `_closed_forms`), and each result is the same, to the bit, as alone.
    A set of fewer than three images raises ValueError for the call.
    """
    many = not isinstance(observations, ObservationSet)
    observation_sets = list(observations) if many else [observations]
    for observations in observation_sets:
        if len(observations) < 3:
            raise ValueError(f"closed-form solver needs at least 3 images, "
                             f"got {len(observations)}")
    fits = [errors.attempt(getattr, obs, "homography_fit") for obs in observation_sets]
    outcomes = stacked(fits, lambda fit: len(fit.matrices), _closed_forms)
    return outcomes if many else errors.raised(outcomes[0])


def _closed_forms(fits) -> list:
    """`solve_closed_form` of the fits of one image count: per fit its result
    or the CalibrationError it raised.

    The determinants, inverses and conic rows of all the fits' homographies
    are one call each, and so is the decomposition of the poses of the
    sets solved (`_posed`); only the least-squares solve runs set by set
    (`_linear_solution`), since numpy has no batched lstsq.  Every call
    acts on each matrix alone.
    """
    H = np.concatenate([fit.matrices for fit in fits])
    ratios, singular = _scale_ratios(H, len(H) // len(fits))
    d, b = _constraint_rows(H, ratios)
    return stacked([errors.attempt(_linear_solution, *system) for system in
                    zip(fits, np.split(d, len(fits)), np.split(b, len(fits)), singular)],
                   lambda solution: len(solution[0].matrices), _posed)


def _linear_solution(fit, d, b, singular: bool):
    """(fit, intrinsics, center (x, y, r)) in fit units from one set's rows d
    (N, 6, 11) and right sides b (N, 6)."""
    if singular:
        raise errors.DegenerateConfiguration("homography of image 0 is singular")
    solution, _, _, sv = np.linalg.lstsq(d.reshape(-1, 11), b.reshape(-1), rcond=None)
    if sv[-1] <= RANK_RATIO_CUTOFF * sv[0]:
        raise errors.DegenerateConfiguration(
            f"stacked linear system is rank deficient "
            f"(sigma_min/sigma_max = {sv[-1] / sv[0]:.2e})")
    return fit, _decode_intrinsics(solution[:5]), _decode_center(solution[5:])


def _posed(solutions) -> list:
    """The raw results of `_linear_solution`s, their poses decomposed in one call."""
    rotations, _, _ = decompose_homography(
        np.concatenate([fit.matrices for fit, _, _ in solutions]),
        [intr_n for fit, intr_n, _ in solutions for _ in fit.matrices])
    return [_raw_solution(fit, intr_n, center_n, R) for (fit, intr_n, center_n), R
            in zip(solutions, np.split(rotations, len(solutions)))]


def _raw_solution(fit, intr_n, center_n, rotations):
    """(CameraIntrinsics, SphericalExtrinsics) in raw units from a solution in fit units.

    `center_n` is (x, y, r) and `rotations` the poses of the fit's
    homographies decomposed with intr_n.
    """
    x, y, r = fit.center_to_raw(*center_n)
    return fit.intrinsics_to_raw(intr_n), SphericalExtrinsics(x=x, y=y, r=r,
                                                               rotations=rotations)


# ---------------------------------------------------------------------------
# minimal solver
# ---------------------------------------------------------------------------

def _hidden_variable_roots(A: np.ndarray, B: np.ndarray):
    """Real c with det C(c) = 0, for the pencil C(c) = A + c B with rank(B) = 2.

    B holds the two images' u11 rows (U) in rows 2 and 5 (E, so B = E U),
    so the nonzero eigenvalues lam of A^-1 B are those of the 2x2 matrix
    U A^-1 E, and each gives c = -1/lam.  An eigenvalue that is zero up to
    rounding is a root at infinity and is dropped.  The 2x2 product loses
    digits to cancellation; one Newton step on log det C(c), whose
    derivative is tr(C^-1 B), restores them.
    """
    E = np.eye(6)[:, 2::3]
    try:
        lam = np.linalg.eigvals(B[2::3] @ np.linalg.solve(A, E))
    except np.linalg.LinAlgError as exc:
        raise errors.NoRealRoot("hidden-variable system is singular at c = 0") from exc
    cutoff = _ROOT_RATIO_CUTOFF * np.max(np.abs(lam))
    roots = []
    for v in lam:
        if abs(v) <= cutoff or abs(v.imag) > _ROOT_RATIO_CUTOFF * abs(v):
            continue
        c = -1.0 / v.real
        try:
            c -= 1.0 / np.trace(np.linalg.solve(A + c * B, B))
        except np.linalg.LinAlgError:
            pass  # C(c) exactly singular: c is already a root
        roots.append(c)
    if not roots:
        raise errors.NoRealRoot(f"no real finite root among eigenvalues {lam}")
    return roots


def solve_minimal(observations: ObservationSet):
    """Two-image minimal solver via the hidden-variable technique.

    Treats c = x + y - |t_cp|^2 as the hidden variable of a 6x6 system
    C(c) q = 0, which is linear in c; the roots of det C(c) are generalized
    eigenvalues of the pencil.  Keeps every root whose conic is positive
    definite with a positive radius.  Candidates are returned ordered by
    total squared constraint residual.  A pair that `detect_degeneracy`
    flags, a pure translation or a rotation about a z-parallel axis, raises
    DegenerateConfiguration naming the motion.
    """
    if len(observations) != 2:
        raise ValueError(f"minimal solver takes exactly 2 images, got {len(observations)}")
    fit = observations.homography_fit
    translation, z_rotation = _degenerate_pair_flags(
        np.linalg.inv(fit.matrices[:1]) @ fit.matrices[1:])
    if translation[0] or z_rotation[0]:
        motion = "a pure translation" if translation[0] else "a rotation about a z-parallel axis"
        raise errors.DegenerateConfiguration(f"images 0 and 1 differ by {motion}")
    # Each (2, 6): one row per image.
    u11, u12, u13, u22, u23, u33 = np.moveaxis(conic_rows(fit.matrices), 1, 0)
    # Per image, rows u12, u11 - u22 and u13 + u23 + u33 + c u11 of C(c).
    A = np.stack([u12, u11 - u22, u13 + u23 + u33], axis=1).reshape(6, 6)
    B = np.zeros((2, 3, 6))
    B[:, 2] = u11
    B = B.reshape(6, 6)

    candidates = []
    for c in _hidden_variable_roots(A, B):
        _, _, Vt = np.linalg.svd(A + c * B)
        q = Vt[-1]
        if q[5] < 0:
            q = -q
        try:
            intr_n = decompose_iac(q)
        except errors.NotPositiveDefinite:
            continue
        # Joint least squares of both images' center constraints.
        g11 = u11 @ q
        num = np.sum(g11[:, None] * np.stack([-(u13 @ q), -(u23 @ q), u33 @ q], axis=1), axis=0)
        x_n, y_n, t2_n = num / np.sum(g11 * g11)
        r2 = t2_n - x_n * x_n - y_n * y_n
        if r2 <= 0:
            continue
        rows = np.stack([u12, u11 - u22, u13 + x_n * u11, u23 + y_n * u11, u33 - t2_n * u11])
        q_unit = q / np.linalg.norm(q)
        residual = np.sum((rows @ q_unit) ** 2 / np.sum(rows * rows, axis=-1))
        candidates.append((residual, _raw_solution(
            fit, intr_n, (x_n, y_n, float(np.sqrt(r2))),
            decompose_homography(fit.matrices, intr_n)[0])))
    if not candidates:
        raise errors.NoValidCandidate(
            "no root produced a positive-definite conic with positive radius")
    candidates.sort(key=lambda item: item[0])
    return [solution for _, solution in candidates]


# ---------------------------------------------------------------------------
# degeneracy detection
# ---------------------------------------------------------------------------

def _degenerate_pair_flags(G: np.ndarray):
    """Pure-translation and z-rotation flags of relative homographies G (P, 3, 3).

    Scaled to G[2,2] = 1, a pure translation leaves G the identity and a
    rotation about a z-parallel axis leaves it a plane rotation block over
    the last row (0, 0, 1).  G with |G[2,2]| < 1e-12 is neither.
    """
    scale = G[:, 2, 2]
    usable = np.abs(scale) >= 1e-12
    G = G / np.where(usable, scale, 1.0)[:, None, None]
    translation = np.max(np.abs(G - np.eye(3)), axis=(1, 2)) < _STRUCTURE_TOLERANCE
    z_rotation = np.max(np.abs([
        G[:, 2, 0], G[:, 2, 1],
        G[:, 0, 0] - G[:, 1, 1], G[:, 0, 1] + G[:, 1, 0],
        G[:, 0, 0] ** 2 + G[:, 1, 0] ** 2 - 1.0,
    ]), axis=0) < _STRUCTURE_TOLERANCE
    return usable & translation, usable & z_rotation


def detect_degeneracy(observations: ObservationSet) -> DegeneracyReport:
    """Flag degenerate image pairs and report the rank of the stacked system.

    A collimated pattern looks the same from a translated camera, so a pure
    translation leaves the relative homography G = H_i^-1 H_j proportional
    to the identity; a rotation about an axis parallel to z leaves G with a
    plane rotation block over an unchanged last row.
    """
    if len(observations) < 2:
        raise ValueError("degeneracy detection needs at least 2 images")
    H = observations.homography_fit.matrices
    i, j = np.triu_indices(len(H), k=1)
    translation, z_rotation = _degenerate_pair_flags(np.linalg.inv(H)[i] @ H[j])
    pairs = list(zip(i.tolist(), j.tolist()))

    d, _ = build_linear_system(H)
    sv = np.linalg.svd(d, compute_uv=False)
    rank = int(np.sum(sv > RANK_RATIO_CUTOFF * sv[0]))
    return DegeneracyReport(
        pure_translation_pairs=tuple(p for p, flag in zip(pairs, translation) if flag),
        z_rotation_pairs=tuple(p for p, flag in zip(pairs, z_rotation) if flag),
        rank=rank)
