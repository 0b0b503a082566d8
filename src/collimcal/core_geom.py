"""Camera model, distortion, rotations and planar homographies.

Coordinate conventions used throughout the package:

    Target frame:  planar calibration pattern on Z = 0, units mm,
                   origin at the pattern's upper-left point.
    Camera frame:  right-handed, X right, Y down, Z forward; a pose
                   (R, t) maps target points to camera points as
                   x_cam = R @ P + t.
    Image frame:   pixels, origin top-left, u right, v down.

A rotation is a plain (3, 3) float array and the rotations of several
images are one (N, 3, 3) stack, with the translations, where there are
any, an (N, 3) array beside it.  `checked_rotations` is the one check
that a stack holds proper rotations; the solvers apply it where a
rotation is produced or handed in.

A homography maps homogeneous target-plane points (X, Y, 1) to
homogeneous pixels and factors as H = lam * K [r1 r2 t].  Estimated
homographies are scaled to Frobenius norm sqrt(3) with H[2,2] > 0,
which pins the otherwise arbitrary sign/scale of lam.  An ObservationSet
fits every image's homography once, in one batched DLT
(`ObservationSet.homography_fit`), and every solver reads that result.

Radial distortion uses the forward (projection-side) model: normalized
coordinates are scaled by (1 + d1 r^2 + d2 r^4) before the intrinsic
map.  Undistortion is done by fixed-point iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import errors

UNDISTORT_MAX_ITERATIONS = 20
UNDISTORT_TOLERANCE = 1e-12
ROTATION_TOLERANCE = 1e-12
# Fewest points that fix a view's homography.
MIN_IMAGE_POINTS = 4


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths, principal point and skew, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    gamma: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.fx, self.fy, self.cx, self.cy, self.gamma))):
            raise ValueError(f"intrinsics must be finite, got fx={self.fx}, fy={self.fy}, "
                             f"cx={self.cx}, cy={self.cy}, gamma={self.gamma}")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, self.gamma, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])

    @property
    def inverse(self) -> np.ndarray:
        # Closed-form inverse of the upper-triangular intrinsic matrix.
        return np.array([
            [1.0 / self.fx, -self.gamma / (self.fx * self.fy),
             (self.gamma * self.cy - self.cx * self.fy) / (self.fx * self.fy)],
            [0.0, 1.0 / self.fy, -self.cy / self.fy],
            [0.0, 0.0, 1.0],
        ])

    @classmethod
    def from_matrix(cls, K: np.ndarray) -> "CameraIntrinsics":
        K = np.asarray(K, dtype=float)
        if K.shape != (3, 3) or abs(K[2, 2]) < 1e-300:
            raise ValueError("intrinsic matrix must be 3x3 with K[2,2] != 0")
        K = K / K[2, 2]
        return cls(fx=K[0, 0], fy=K[1, 1], cx=K[0, 2], cy=K[1, 2], gamma=K[0, 1])


@dataclass(frozen=True)
class Distortion:
    """Two-coefficient radial distortion applied in normalized image coordinates.

    The forward map x -> x * (1 + d1 r^2 + d2 r^4) must stay monotone in
    radius over the working field of view; callers that know the field of
    view check this with `check_monotone_within` against the image diagonal.
    """

    d1: float = 0.0
    d2: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.d1) and math.isfinite(self.d2)):
            raise ValueError(f"distortion must be finite, got ({self.d1}, {self.d2})")

    def factor(self, r2):
        return 1.0 + self.d1 * r2 + self.d2 * r2 * r2

    def check_monotone_within(self, max_radius: float) -> None:
        """Raise ValueError unless the map is monotone up to normalized radius max_radius."""
        # d/dr of r*(1 + d1 r^2 + d2 r^4) = 1 + 3 d1 r^2 + 5 d2 r^4
        r2 = np.linspace(0.0, max_radius, 256) ** 2
        if not np.all(1.0 + 3.0 * self.d1 * r2 + 5.0 * self.d2 * r2 * r2 > 0.0):
            raise ValueError(f"distortion ({self.d1}, {self.d2}) is not monotone within "
                             f"normalized radius {max_radius:.4f}")


def checked_rotations(R: np.ndarray) -> np.ndarray:
    """R (N, 3, 3) as a float stack, checked to hold proper rotations.

    Raises ValueError naming the first matrix that is not orthonormal, or
    whose determinant is not +1, within ROTATION_TOLERANCE.
    """
    R = np.asarray(R, dtype=float)
    if R.ndim != 3 or R.shape[1:] != (3, 3):
        raise ValueError("rotations must be an (N, 3, 3) stack")
    skewed = np.max(np.abs(R.transpose(0, 2, 1) @ R - np.eye(3)), axis=(1, 2)) > ROTATION_TOLERANCE
    improper = np.abs(np.linalg.det(R) - 1.0) > ROTATION_TOLERANCE
    bad = np.flatnonzero(skewed | improper)
    if len(bad):
        k = int(bad[0])
        reason = "is not orthonormal" if skewed[k] else "determinant is not +1"
        raise ValueError(f"rotation {k}: matrix {reason} within 1e-12")
    return R


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices [v]x of one vector (3,) or a stack (..., 3)."""
    v = np.asarray(v, dtype=float)
    S = np.zeros(v.shape[:-1] + (3, 3))
    S[..., 0, 1] = -v[..., 2]
    S[..., 0, 2] = v[..., 1]
    S[..., 1, 0] = v[..., 2]
    S[..., 1, 2] = -v[..., 0]
    S[..., 2, 0] = -v[..., 1]
    S[..., 2, 1] = v[..., 0]
    return S


def nearest_rotation(M: np.ndarray) -> np.ndarray:
    """Proper rotation(s) nearest to M (3, 3) or (..., 3, 3) in the Frobenius sense."""
    U, _, Vt = np.linalg.svd(np.asarray(M, dtype=float))
    R = U @ Vt
    flip = np.linalg.det(R) < 0
    return np.where(flip[..., None, None], (U * [1.0, 1.0, -1.0]) @ Vt, R)


_IDENTITY = np.eye(3)
_IDENTITY.flags.writeable = False


def rotation_matrix_from_axis_angle(v: np.ndarray) -> np.ndarray:
    """Rodrigues formula; v is the unit axis scaled by the angle in radians.

    Takes one vector (3,) or a stack (..., 3) and returns (..., 3, 3).
    """
    v = np.asarray(v, dtype=float)
    # |v| as a dot product, which rounds like np.linalg.norm of one vector.
    theta = np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]
    small = theta < 1e-12
    if small.any():
        # Below 1e-12 rad the second-order expansion I + S + S^2/2 of S = [v]x
        # keeps the map smooth through zero.
        S = skew(v / np.where(small, 1.0, theta))
        a = np.where(small, 1.0, np.sin(theta))[..., None]
        b = np.where(small, 0.5, 1.0 - np.cos(theta))[..., None]
    else:
        S = skew(v / theta)
        a = np.sin(theta)[..., None]
        b = (1.0 - np.cos(theta))[..., None]
    return _IDENTITY + a * S + b * (S @ S)


def axis_angle_from_rotation_matrix(R: np.ndarray) -> np.ndarray:
    """Axis-angle vector of one rotation (3, 3) or a stack (..., 3, 3)."""
    R = np.asarray(R, dtype=float)
    shape = R.shape[:-2] + (3,)
    R = R.reshape(-1, 3, 3)
    cos_theta = np.clip((np.trace(R, axis1=1, axis2=2) - 1.0) * 0.5, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    w = np.stack([R[:, 2, 1] - R[:, 1, 2], R[:, 0, 2] - R[:, 2, 0],
                  R[:, 1, 0] - R[:, 0, 1]], axis=-1)
    small = theta < 1e-7
    scale = np.where(small, 0.5, theta / (2.0 * np.sin(np.where(small, 1.0, theta))))
    out = w * scale[:, None]
    near_pi = np.abs(np.pi - theta) < 1e-7
    if np.any(near_pi):
        # Near pi the off-diagonal difference vanishes; use the symmetric part.
        A = 0.5 * (R[near_pi] + np.eye(3))
        d = np.sqrt(np.clip(np.diagonal(A, axis1=1, axis2=2), 0.0, None))
        rows = np.arange(len(A))
        k = np.argmax(d, axis=1)
        axis = A[rows, :, k] / d[rows, k, None]
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        flip = np.sum(axis * w[near_pi], axis=1) < 0
        out[near_pi] = np.where(flip[:, None], -axis, axis) * theta[near_pi, None]
    return out.reshape(shape)


@dataclass(frozen=True)
class PlanarTarget:
    """Known planar pattern: integer point ids and their (X, Y) mm positions, Z = 0."""

    ids: np.ndarray
    xy: np.ndarray

    def __post_init__(self):
        ids = np.atleast_1d(np.asarray(self.ids, dtype=int))
        xy = np.asarray(self.xy, dtype=float).reshape(-1, 2)
        if ids.shape[0] != xy.shape[0]:
            raise ValueError("ids and xy must have the same length")
        if not np.isfinite(xy).all():
            raise ValueError("target coordinates must be finite")
        sorted_ids = np.sort(ids)
        if (sorted_ids[1:] == sorted_ids[:-1]).any():
            raise ValueError("target point ids must be unique")
        if len(ids) < 4:
            raise ValueError("target needs at least 4 points")
        centered = xy - xy.mean(axis=0)
        if np.linalg.matrix_rank(centered, tol=1e-9 * max(1.0, np.abs(xy).max())) < 2:
            raise ValueError("target points are collinear")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "xy", xy)

    def _rows(self, ids: np.ndarray):
        """Row of each given point id (M,) and whether the id is on the target (M,).

        The row of an id not on the target is arbitrary.
        """
        order = np.argsort(self.ids)
        rows = order[np.minimum(np.searchsorted(self.ids, ids, sorter=order), len(order) - 1)]
        return rows, self.ids[rows] == ids

    def xy_for(self, ids: np.ndarray) -> np.ndarray:
        """(X, Y) of each given point id, in order; KeyError names an id not on the target."""
        ids = np.asarray(ids, dtype=int).reshape(-1)
        rows, found = self._rows(ids)
        if not np.all(found):
            raise KeyError(int(ids[~found][0]))
        return self.xy[rows]


@dataclass(frozen=True, eq=False)
class ObservationSet:
    """A planar target plus the pixels observed of it in N images.

    The observations are stacked, image after image, in read-only copies:
    `ids` (M,) the target point id and `uv` (M, 2) the pixel of each, and
    `counts` (N,) how many each image has; `xy` (M, 2) is the target point
    of each id.  Every image holds at least MIN_IMAGE_POINTS finite pixels
    of distinct ids on the target.
    """

    target: PlanarTarget
    ids: np.ndarray
    uv: np.ndarray
    counts: np.ndarray
    xy: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        ids = np.array(self.ids, dtype=int).reshape(-1)
        uv = np.array(self.uv, dtype=float).reshape(-1, 2)
        counts = np.array(self.counts, dtype=int).reshape(-1)
        if not len(ids) == len(uv) == counts.sum():
            raise ValueError(f"counts add up to {counts.sum()} points, but there are "
                             f"{len(ids)} ids and {len(uv)} pixels")
        short = np.flatnonzero(counts < MIN_IMAGE_POINTS)
        if len(short):
            raise ValueError(f"image {short[0]} has fewer than {MIN_IMAGE_POINTS} "
                             f"observed points")
        image = np.repeat(np.arange(len(counts)), counts)
        bad = ~np.isfinite(uv).all(axis=1)
        if bad.any():
            raise ValueError(f"image {image[np.argmax(bad)]} has non-finite pixel coordinates")
        rows, found = self.target._rows(ids)
        if not np.all(found):
            k = image[np.argmin(found)]
            raise ValueError(f"image {k} observes ids not on the target: "
                             f"{np.unique(ids[~found & (image == k)]).tolist()}")
        # Each (image, target row) pair once: sorted, a repeat sits next to its twin.
        key = np.sort(image * len(self.target.ids) + rows)
        repeated = np.flatnonzero(key[1:] == key[:-1])
        if len(repeated):
            k, row = divmod(int(key[repeated[0]]), len(self.target.ids))
            raise ValueError(f"image {k} observes point id {self.target.ids[row]} "
                             f"more than once")
        for name, value in {"ids": ids, "uv": uv, "counts": counts,
                            "xy": self.target.xy[rows]}.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.counts)

    @cached_property
    def homography_fit(self) -> "HomographyFit":
        """Every image's homography from one batched DLT, fitted on first use.

        The solvers and the baseline all read this one result.
        """
        return _fit_observations(self)


def _rank_deficient(H: np.ndarray) -> np.ndarray:
    """Indices of the matrices of H (N, 3, 3) with s_min / s_max <= 1e-10."""
    s = np.linalg.svd(H, compute_uv=False)
    return np.flatnonzero(s[:, -1] / s[:, 0] <= 1e-10)


def _with_scale_convention(H: np.ndarray) -> np.ndarray:
    """Scale each of H (N, 3, 3) to Frobenius norm sqrt(3) with H[2,2] > 0.

    A matrix whose H[2,2] is below 1e-12 takes its sign from its largest entry.
    """
    flat = H.reshape(-1, 1, 9)
    # Norms as dot products, which round like np.linalg.norm of one matrix.
    H = H * (np.sqrt(3.0) / np.sqrt(flat @ flat.transpose(0, 2, 1)))
    anchor = H[:, 2, 2]
    small = np.abs(anchor) < 1e-12
    if np.any(small):
        flat = H.reshape(-1, 9)
        anchor = np.where(small, flat[np.arange(len(flat)), np.argmax(np.abs(flat), axis=1)],
                          anchor)
    return np.where((anchor > 0)[:, None, None], H, -H)


def _checked_homographies(H: np.ndarray) -> np.ndarray:
    """H (N, 3, 3) under the scale convention; DegenerateConfiguration names
    the first image whose homography is rank deficient."""
    H = _with_scale_convention(H)
    bad = _rank_deficient(H)
    if len(bad):
        raise errors.DegenerateConfiguration(f"image {bad[0]}: homography is rank deficient")
    return H


def project_camera_points(intr_p, dist_p, xc: np.ndarray):
    """Pinhole-plus-radial map of camera-frame points xc (M, 3) to pixels.

    `intr_p` is (fx, fy, cx, cy, gamma) and `dist_p` is (d1, d2).  Returns
    the pixels (M, 2) and, for derivatives, the normalized coordinates xn
    and yn, r2 = xn^2 + yn^2 and the radial factor f = 1 + d1 r2 + d2 r2^2.
    Raises PointBehindCamera if any point has non-positive depth.
    """
    z = xc[:, 2]
    if np.any(z <= 0):
        raise errors.PointBehindCamera(f"{int(np.sum(z <= 0))} point(s) at non-positive depth")
    u, v, xn, yn, r2, f = radial_pixels(intr_p, dist_p, xc[:, 0], xc[:, 1], z)
    return np.column_stack([u, v]), xn, yn, r2, f


def radial_pixels(intr_p, dist_p, x, y, z):
    """The pinhole-plus-radial map of camera-frame coordinates x, y, z (M,), depth unchecked.

    Returns the pixel columns u and v and, as project_camera_points does,
    xn, yn, r2 and f.
    """
    fx, fy, cx, cy, gamma = intr_p
    d1, d2 = dist_p
    xn = x / z
    yn = y / z
    r2 = xn * xn + yn * yn
    f = 1.0 + d1 * r2 + d2 * r2 * r2
    xd = xn * f
    yd = yn * f
    return fx * xd + gamma * yd + cx, fy * yd + cy, xn, yn, r2, f


def project(intr: CameraIntrinsics, dist: Distortion, R: np.ndarray, t: np.ndarray,
            points: np.ndarray) -> np.ndarray:
    """Project target-frame points (N, 3) mm to pixels (N, 2) from the pose (R, t).

    Raises PointBehindCamera if any point has non-positive camera-frame depth.
    """
    P = np.asarray(points, dtype=float).reshape(-1, 3)
    xc = P @ np.asarray(R, dtype=float).T + np.asarray(t, dtype=float)
    out = project_camera_points((intr.fx, intr.fy, intr.cx, intr.cy, intr.gamma),
                                (dist.d1, dist.d2), xc)[0]
    return out[0] if np.asarray(points).ndim == 1 else out


def undistort_normalized(dist: Distortion, xy_distorted: np.ndarray) -> np.ndarray:
    """Invert the radial map by fixed-point iteration x <- x_d / factor(|x|^2)."""
    xd = np.asarray(xy_distorted, dtype=float).reshape(-1, 2)
    if dist.d1 == 0.0 and dist.d2 == 0.0:
        return xd.copy()
    x = xd.copy()
    for _ in range(UNDISTORT_MAX_ITERATIONS):
        f = dist.factor(np.sum(x * x, axis=1))
        x_new = xd / f[:, None]
        step = np.max(np.abs(x_new - x))
        x = x_new
        if step < UNDISTORT_TOLERANCE:
            return x
    raise errors.UndistortionDiverged(
        f"fixed-point undistortion did not reach {UNDISTORT_TOLERANCE:g} "
        f"in {UNDISTORT_MAX_ITERATIONS} iterations (last step {step:.3e})")


def back_project(intr: CameraIntrinsics, dist: Distortion, pixels: np.ndarray) -> np.ndarray:
    """Unit direction(s) of the ray(s) whose projection is the given pixel(s)."""
    p = np.asarray(pixels, dtype=float).reshape(-1, 2)
    ph = np.column_stack([p, np.ones(len(p))])
    xyd = ph @ intr.inverse.T
    xy = undistort_normalized(dist, xyd[:, :2])
    rays = np.column_stack([xy, np.ones(len(xy))])
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    return rays[0] if np.asarray(pixels).ndim == 1 else rays


def _normalization_transforms(points: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Hartley isotropic normalization of each padded point set (N, n, 2).

    Centroid to origin, mean distance sqrt(2), over the points where `mask`
    (N, n) is true, the padding being zero; returns (N, 3, 3).
    """
    count = mask.sum(axis=1)
    centroid = points.sum(axis=1) / count[:, None]
    dist = np.linalg.norm(points - centroid[:, None], axis=2)
    mean_dist = np.sum(dist * mask, axis=1) / count
    # Coincident points keep unit scale; the DLT's rank check rejects them.
    s = np.sqrt(2.0) / np.where(mean_dist > 1e-12, mean_dist, np.sqrt(2.0))
    T = np.zeros((len(points), 3, 3))
    T[:, 0, 0] = T[:, 1, 1] = s
    T[:, :2, 2] = -s[:, None] * centroid
    T[:, 2, 2] = 1.0
    return T


def _dlt(xy: np.ndarray, uv: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Normalized DLT of every image's point pairs in one batched SVD.

    `xy` and `uv` (M, 2) hold the images' target points and pixels one
    image after the other, `counts` (N,) how many each image has.  Each
    image keeps its own Hartley normalization.  Its (2n, 9) design matrix is
    zero-padded to a common height (at least 10 rows, so that its R factor
    is 9 x 9); zero rows leave A^T A, and with it the singular values and
    the null vector, unchanged.  The SVD is taken of the R factor of A's
    QR decomposition, the path LAPACK's gesdd takes for tall matrices,
    without forming A's left singular vectors.  Returns the homographies
    (N, 3, 3) and raises DegenerateConfiguration naming the first image
    whose homography is ambiguous or rank deficient.
    """
    N = len(counts)
    n = max(int(counts.max()), 5)
    # Every image's target points, then every image's pixels, as 2N padded
    # point sets (2N, n, 2) that one call normalizes.
    mask = np.tile(np.arange(n) < counts[:, None], (2, 1))
    P = np.zeros((2 * N, n, 2))
    P[mask] = np.concatenate([xy, uv])
    T = _normalization_transforms(P, mask)
    # Homogeneous points whose padding rows are zero, third coordinate too,
    # so that the normalization leaves them zero and their design rows vanish.
    Pn = np.concatenate([P, mask[..., None]], axis=2) @ T.transpose(0, 2, 1)
    Xn, Un = Pn[:N], Pn[N:]

    A = np.zeros((N, 2 * n, 9))
    A[:, 0::2, 0:3] = Xn
    A[:, 0::2, 6:9] = -Un[..., 0:1] * Xn
    A[:, 1::2, 3:6] = Xn
    A[:, 1::2, 6:9] = -Un[..., 1:2] * Xn

    _, s, Vt = np.linalg.svd(np.linalg.qr(A, mode="r"))
    # With >= 4 generic point pairs only one singular value is ~0; a
    # second vanishing one means the solution is ambiguous.
    ambiguous = np.flatnonzero(s[:, -2] <= 1e-10 * s[:, 0])
    if len(ambiguous):
        raise errors.DegenerateConfiguration(
            f"image {ambiguous[0]}: homography design matrix is rank deficient")
    return _checked_homographies(np.linalg.inv(T[N:]) @ Vt[:, -1].reshape(-1, 3, 3) @ T[:N])


def estimate_homography(target_xy: np.ndarray, pixels_uv: np.ndarray) -> np.ndarray:
    """Normalized DLT estimate (3, 3) of the target-plane-to-image homography.

    It is scaled and rank-checked as every fitted homography is.
    """
    X = np.asarray(target_xy, dtype=float).reshape(-1, 2)
    U = np.asarray(pixels_uv, dtype=float).reshape(-1, 2)
    if len(X) != len(U):
        raise ValueError("correspondence lists differ in length")
    if len(X) < 4:
        raise ValueError("homography estimation needs at least 4 point pairs")
    return _dlt(X, U, np.array([len(X)]))[0]


class HomographyFit(NamedTuple):
    """Every image's homography in O(1) solver units, from one batched DLT.

    `matrices` (N, 3, 3) map normalized target points to normalized pixels.
    The similarity transforms that normalize pixels and target mm map
    intrinsics, centers and homographies back to raw units: solving in raw
    units mixes pixel and mm scales and loses half the float64 mantissa to
    cancellation in the constraint matrices.
    """

    matrices: np.ndarray
    pixel_scale: float
    pixel_shift: np.ndarray
    target_scale: float
    target_shift: np.ndarray

    def intrinsics_to_raw(self, intr: CameraIntrinsics) -> CameraIntrinsics:
        s, m = self.pixel_scale, self.pixel_shift
        return CameraIntrinsics(fx=intr.fx * s, fy=intr.fy * s,
                                cx=intr.cx * s + m[0], cy=intr.cy * s + m[1],
                                gamma=intr.gamma * s)

    def center_to_raw(self, x: float, y: float, r: float):
        s, m = self.target_scale, self.target_shift
        return x * s + m[0], y * s + m[1], r * s

    def homographies_to_raw(self, H: np.ndarray) -> np.ndarray:
        """Raw-unit homographies T_pix^-1 H T_tgt of normalized ones H (N, 3, 3).

        They are scaled and checked as every fitted homography is.
        """
        s, m = self.pixel_scale, self.pixel_shift
        pix_inv = np.array([[s, 0.0, m[0]], [0.0, s, m[1]], [0.0, 0.0, 1.0]])
        s, m = self.target_scale, self.target_shift
        tgt = np.array([[1.0 / s, 0.0, -m[0] / s], [0.0, 1.0 / s, -m[1] / s],
                        [0.0, 0.0, 1.0]])
        return _checked_homographies(pix_inv @ H @ tgt)


def _fit_observations(observations: ObservationSet) -> HomographyFit:
    xy, uv = observations.xy, observations.uv
    pix_shift = uv.mean(axis=0)
    pix_scale = np.mean(np.linalg.norm(uv - pix_shift, axis=1))
    if not pix_scale > 0:
        raise errors.DegenerateConfiguration(
            "image 0: every observed pixel of every image is the same point")
    tgt = observations.target.xy
    tgt_shift = tgt.mean(axis=0)
    tgt_scale = np.mean(np.linalg.norm(tgt - tgt_shift, axis=1))
    H = _dlt((xy - tgt_shift) / tgt_scale, (uv - pix_shift) / pix_scale, observations.counts)
    H.flags.writeable = False  # cached on the observation set and shared by every solver
    return HomographyFit(H, pixel_scale=pix_scale, pixel_shift=pix_shift,
                         target_scale=tgt_scale, target_shift=tgt_shift)


def decompose_homography(H: np.ndarray, intr: CameraIntrinsics):
    """Recover every pose of a stack H (N, 3, 3) with H_i = lam_i * K [r1 r2 t_i].

    Returns (R (N, 3, 3), t (N, 3), lam (N,)), recovered in one pass.  The
    sign is chosen so the target origin lies in front of the camera
    (t[2] > 0) and the rotations are re-orthogonalized by SVD.
    """
    H = np.asarray(H, dtype=float)
    if H.ndim != 3 or H.shape[1:] != (3, 3):
        raise ValueError("homographies must be an (N, 3, 3) stack")
    M = intr.inverse @ H
    cols = M.transpose(0, 2, 1)[:, :2]
    # Column norms as dot products, which round like np.linalg.norm of one vector.
    n = np.sqrt(cols[..., None, :] @ cols[..., :, None])[..., 0, 0]
    lam = 0.5 * (n[:, 0] + n[:, 1])
    r1 = M[:, :, 0] / lam[:, None]
    r2 = M[:, :, 1] / lam[:, None]
    t = M[:, :, 2] / lam[:, None]
    sign = np.where(t[:, 2] < 0, -1.0, 1.0)[:, None]
    r1, r2, t = sign * r1, sign * r2, sign * t
    R = nearest_rotation(np.stack([r1, r2, np.cross(r1, r2)], axis=-1))
    return checked_rotations(R), t, lam
