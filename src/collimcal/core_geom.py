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
that a stack holds proper rotations.  It runs where a stack is handed in
(the bundle adjustments' one entry) and wherever a `SphericalExtrinsics`
is built, so the closed-form, minimal and `spherical_ba` results pass it
too.  The package checks no other stack it makes: Rodrigues' formula,
the SVD-nearest rotation with its determinant flip and the bundle
adjustments' Newton-Schulz polar step each give proper rotations to
rounding.

A homography maps homogeneous target-plane points (X, Y, 1) to
homogeneous pixels and factors as H = lam * K [r1 r2 t].  Estimated
homographies are scaled to Frobenius norm sqrt(3) with H[2,2] > 0,
which pins the otherwise arbitrary sign/scale of lam.  An ObservationSet
fits every image's homography once, in one batched DLT
(`ObservationSet.homography_fit`), and every solver reads that result.

Radial distortion uses the forward (projection-side) model: normalized
coordinates are scaled by (1 + d1 r^2 + d2 r^4) before the intrinsic
map.  Undistortion is done by fixed-point iteration.

What counts as a number is decided here alone: `real_number`,
`real_array` and `integer_array` refuse a bool, a string or None with a
ValueError naming the field, and every type of the package applies them
to its own fields when it is built.  So is an array's shape: every
function and type of the package gives `real_array` the shape it takes,
(None, 2) for N points, (len(ids), 3) for one row per id or (..., 3, 3)
for one matrix or a stack, and a mismatch raises "<name> must have
shape (N, 2), got (2, 88)"; `integer_array` takes only (N,).  An
argument is checked for its shape, never reshaped into it.  Finiteness
has one rule too: an argument that must be finite (target coordinates,
homographies, rotation stacks, reference rays) is taken by
`finite_array`, which is `real_array` and then "<name> must be finite".
`real_array` itself does not test it, since it also runs on every
bundle-adjustment step, where a non-finite trial step is rejected, not
raised.
"""

from __future__ import annotations

import numbers
import sys
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
# Fewest points the single-image pipeline works from: the reference image,
# the calibration points matched to it and its final refinement.
MIN_SINGLE_IMAGE_POINTS = 8


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths, principal point and skew, in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy", "gamma"):
            object.__setattr__(self, name, real_number(getattr(self, name), f"intrinsics {name}"))
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
        K = real_array(K, "intrinsic matrix", (3, 3))
        if abs(K[2, 2]) < 1e-300:
            raise ValueError("intrinsic matrix must have K[2,2] != 0")
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
        for name in ("d1", "d2"):
            object.__setattr__(self, name, real_number(getattr(self, name), f"distortion {name}"))

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

    Raises ValueError for an entry that is not a finite number, and names
    the first matrix that is not orthonormal, or whose determinant is not
    +1, within ROTATION_TOLERANCE.
    """
    R = finite_array(R, "rotations", (None, 3, 3))
    skewed = np.max(np.abs(R.transpose(0, 2, 1) @ R - np.eye(3)), axis=(1, 2)) > ROTATION_TOLERANCE
    improper = np.abs(np.linalg.det(R) - 1.0) > ROTATION_TOLERANCE
    bad = np.flatnonzero(skewed | improper)
    if len(bad):
        k = int(bad[0])
        reason = "is not orthonormal" if skewed[k] else "determinant is not +1"
        raise ValueError(f"rotation {k}: matrix {reason} within 1e-12")
    return R


# Where v and -v go in a flattened [v]x: [v]x[2, 1], [0, 2], [1, 0] are v,
# and [1, 2], [2, 0], [0, 1] are -v.
_SKEW_PLUS, _SKEW_MINUS = np.array([7, 2, 3]), np.array([5, 6, 1])


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices [v]x of one vector (3,) or a stack (..., 3)."""
    v = real_array(v, "v", (..., 3))
    S = np.zeros(v.shape[:-1] + (9,))
    S[..., _SKEW_PLUS] = v
    S[..., _SKEW_MINUS] = -v
    return S.reshape(v.shape[:-1] + (3, 3))


def nearest_rotation(M: np.ndarray) -> np.ndarray:
    """Proper rotation(s) nearest to M (3, 3) or (..., 3, 3) in the Frobenius sense.

    Raises ValueError for an entry of M that is not finite, which the SVD
    would turn into a LinAlgError or an all-NaN result.
    """
    M = finite_array(M, "M", (..., 3, 3))
    U, _, Vt = np.linalg.svd(M)
    R = U @ Vt
    flip = np.linalg.det(R) < 0
    return np.where(flip[..., None, None], (U * [1.0, 1.0, -1.0]) @ Vt, R)


_IDENTITY = np.eye(3)
_IDENTITY.flags.writeable = False


def rotation_matrix_from_axis_angle(v: np.ndarray) -> np.ndarray:
    """Rodrigues formula; v is the unit axis scaled by the angle in radians.

    Takes one vector (3,) or a stack (..., 3) and returns (..., 3, 3).
    """
    v = real_array(v, "v", (..., 3))
    # |v| as a dot product, which rounds like np.linalg.norm of one vector.
    theta = np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0]
    # Below 1e-12 rad the second-order expansion I + S + S^2/2 of S = [v]x
    # keeps the map smooth through zero.
    small = theta < 1e-12
    S = skew(v / np.where(small, 1.0, theta))
    a = np.where(small, 1.0, np.sin(theta))[..., None]
    b = np.where(small, 0.5, 1.0 - np.cos(theta))[..., None]
    return _IDENTITY + a * S + b * (S @ S)


def axis_angle_from_rotation_matrix(R: np.ndarray) -> np.ndarray:
    """Axis-angle vector of one rotation (3, 3) or a stack (..., 3, 3)."""
    R = real_array(R, "R", (..., 3, 3))
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


def real_number(value, name: str, integer: bool = False):
    """`value` as a float, or as an int where `integer` is set.

    The one check of a number: ValueError naming `name` if `value` is a
    bool, a string, None or anything else that is not a real number (an
    integer, given `integer`), or if it is not finite.
    """
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if integer else numbers.Real):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, "
                         f"got {value!r}")
    # Compared, not converted: float() overflows on a huge int.
    if not (integer or abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return int(value) if integer else float(value)


def _holds_bool(values) -> bool:
    """Whether a list or tuple holds a bool at any depth of nesting.

    np.asarray would turn such a bool into a number, where a string or
    None leaves a dtype of its own.
    """
    types = set(map(type, values))
    return bool(types & {bool, np.bool_}) or (bool(types & {list, tuple}) and any(
        _holds_bool(v) for v in values if isinstance(v, (list, tuple))))


def _array_of(values, name: str, kinds: str, what: str) -> np.ndarray:
    """np.asarray(values); ValueError naming `name` unless its dtype kind is in `kinds`
    and no list in it holds a bool, or if its nested lists are ragged.  An
    empty input passes whatever its dtype."""
    try:
        array = np.asarray(values)
    except ValueError as exc:  # numpy's message for a ragged list names no field
        raise ValueError(f"{name} must be a rectangular array, not a ragged list") from exc
    if array.size and (array.dtype.kind not in kinds
                       or isinstance(values, (list, tuple)) and _holds_bool(values)):
        raise ValueError(f"{name} must be {what}")
    return array


def real_array(values, name: str, shape: tuple | None = None) -> np.ndarray:
    """`values` as a float array, without a copy where it can.

    ValueError naming `name` if any entry, at any depth of a nested list,
    is a bool, a string or None; an ndarray costs one dtype test.  The one
    check of a shape: given `shape`, ValueError naming `name` unless the
    array has it, where None matches any length and a leading `...` any
    number of leading dimensions, so (None, 2) takes N points and
    (..., 3, 3) one matrix or a stack of them.
    """
    array = _array_of(values, name, "iuf", "real numbers, not booleans, strings or None"
                      ).astype(float, copy=False)
    return array if shape is None else _shaped(array, name, shape)


def finite_array(values, name: str, shape: tuple | None = None) -> np.ndarray:
    """`real_array(values, name, shape)`, and ValueError "<name> must be finite"
    unless every entry is.  The one finiteness check of an array argument.
    """
    array = real_array(values, name, shape)
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    return array


def _shaped(array: np.ndarray, name: str, shape: tuple) -> np.ndarray:
    """`array`, checked to have `shape` as `real_array` reads it."""
    trailing = shape[:1] == (...,)
    want = shape[1:] if trailing else shape
    have = array.shape[-len(want):] if trailing else array.shape
    if len(have) != len(want) or any(w is not None and w != h for w, h in zip(want, have)):
        text = ", ".join("N" if w is None else "..." if w is ... else str(w) for w in shape)
        raise ValueError(f"{name} must have shape ({text}{',' * (len(shape) == 1)}), "
                         f"got {array.shape}")
    return array


def integer_array(values, name: str) -> np.ndarray:
    """`values` as a one-dimensional int array, without a copy where it can.

    ValueError naming `name` if any entry is a bool, a float or a string,
    rather than truncate it, or if it is not one-dimensional (N,); an
    empty input passes whatever its dtype, since np.asarray([]) is float.
    """
    array = _shaped(_array_of(values, name, "iu", "integers, not booleans, floats or strings"),
                    name, (None,))
    ints = array.astype(int, copy=False)
    # np.asarray makes a list holding 2**63 or more uint64, which int would wrap.
    if array.dtype.kind == "u" and (ints < 0).any():
        raise ValueError(f"{name} must be integers below 2**63")
    return ints


def checked_image_size(value) -> tuple:
    """The (width, height) of an image size, two positive integers below 2**63, as ints.

    ValueError for anything else, a bool or a string among them too.  The
    bound keeps the rule idempotent: the int of a float past int64's range
    would be no number to `real_array`, so it could not be checked again.
    """
    size = real_array(value, "image_size", (2,))
    if not all(v.is_integer() and 0 < v < 2.0 ** 63 for v in size.tolist()):
        raise ValueError(f"image_size must be positive integers (width, height), "
                         f"got {value!r}")
    return int(size[0]), int(size[1])


def id_rows(table: np.ndarray, ids: np.ndarray):
    """Row of each id (M,) in `table`, an array of unique ids, and whether it is there (M,).

    One sorted-index lookup, shared by every id match of the package; the
    row of an id not in `table` is arbitrary, and an empty table finds none.
    """
    if not len(table):
        return np.zeros(len(ids), dtype=int), np.zeros(len(ids), dtype=bool)
    order = np.argsort(table)
    rows = order[np.minimum(np.searchsorted(table, ids, sorter=order), len(order) - 1)]
    return rows, table[rows] == ids


@dataclass(frozen=True)
class PlanarTarget:
    """Known planar pattern: integer point ids and their (X, Y) mm positions, Z = 0."""

    ids: np.ndarray
    xy: np.ndarray

    def __post_init__(self):
        ids = integer_array(self.ids, "target point ids")
        xy = finite_array(self.xy, "target coordinates", (len(ids), 2))
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

    @cached_property
    def _frame(self) -> tuple[np.ndarray, float]:
        """Centroid (2,) and mean distance from it of the target points, in mm.

        The homography pass solves in this shift and scale; computed on
        first use, so the scenes that share a target share it too.
        """
        shift = self.xy.mean(axis=0)
        shift.flags.writeable = False
        d = self.xy - shift
        return shift, float(np.mean(np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))


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
        ids = np.array(integer_array(self.ids, "ids"))
        uv = np.array(real_array(self.uv, "pixel coordinates", (len(ids), 2)))
        counts = np.array(integer_array(self.counts, "counts"))
        if len(ids) != counts.sum():
            raise ValueError(f"counts add up to {counts.sum()} points, but there are "
                             f"{len(ids)} ids")
        short = np.flatnonzero(counts < MIN_IMAGE_POINTS)
        if len(short):
            raise ValueError(f"image {short[0]} has fewer than {MIN_IMAGE_POINTS} "
                             f"observed points")
        image = np.repeat(np.arange(len(counts)), counts)
        bad = ~np.isfinite(uv).all(axis=1)
        if bad.any():
            raise ValueError(f"image {image[np.argmax(bad)]} has non-finite pixel coordinates")
        rows, found = id_rows(self.target.ids, ids)
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


def radial_pixels(intr_p, dist_p, x, y, z):
    """The pinhole-plus-radial map of camera-frame coordinates x, y, z, depth unchecked.

    `intr_p` is (fx, fy, cx, cy, gamma) and `dist_p` is (d1, d2).  Returns
    the pixel coordinates u and v and, for derivatives, the normalized
    coordinates xn and yn, r2 = xn^2 + yn^2 and the radial factor
    f = 1 + d1 r2 + d2 r2^2, all of the shape of x.
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
    """Project target-frame points (..., 3) mm to pixels (..., 2) from the pose (R, t).

    Raises PointBehindCamera if any point has non-positive camera-frame depth.
    """
    P = real_array(points, "points", (..., 3))
    x, y, z = (P.reshape(-1, 3) @ real_array(R, "R", (3, 3)).T + real_array(t, "t", (3,))).T
    if np.any(z <= 0):
        raise errors.PointBehindCamera(f"{int(np.sum(z <= 0))} point(s) at non-positive depth")
    u, v = radial_pixels((intr.fx, intr.fy, intr.cx, intr.cy, intr.gamma),
                         (dist.d1, dist.d2), x, y, z)[:2]
    return np.column_stack([u, v]).reshape(P.shape[:-1] + (2,))


def undistort_normalized(dist: Distortion, xy_distorted: np.ndarray) -> np.ndarray:
    """Invert the radial map by fixed-point iteration x <- x_d / factor(|x|^2)."""
    xd = real_array(xy_distorted, "xy_distorted", (None, 2))
    if dist.d1 == 0.0 and dist.d2 == 0.0:
        return xd.copy()
    x = xd.copy()
    for _ in range(UNDISTORT_MAX_ITERATIONS):
        f = dist.factor(np.sum(x * x, axis=1))
        x_new = xd / f[:, None]
        step = np.max(np.abs(x_new - x), initial=0.0)  # 0 for no points
        x = x_new
        if step < UNDISTORT_TOLERANCE:
            return x
    raise errors.UndistortionDiverged(
        f"fixed-point undistortion did not reach {UNDISTORT_TOLERANCE:g} "
        f"in {UNDISTORT_MAX_ITERATIONS} iterations (last step {step:.3e})")


def back_project(intr: CameraIntrinsics, dist: Distortion, pixels: np.ndarray) -> np.ndarray:
    """Unit directions (..., 3) of the rays whose projections are the pixels (..., 2)."""
    p = real_array(pixels, "pixels", (..., 2))
    rows = p.reshape(-1, 2)
    ph = np.column_stack([rows, np.ones(len(rows))])
    xyd = ph @ intr.inverse.T
    xy = undistort_normalized(dist, xyd[:, :2])
    rays = np.column_stack([xy, np.ones(len(xy))])
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    return rays.reshape(p.shape[:-1] + (3,))


def _dlt(xy: np.ndarray, uv: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Normalized DLT (Hartley and Zisserman, section 4.4) of every image at once.

    `xy` and `uv` (M, 2) hold the images' target points and pixels one
    image after the other, `counts` (N,) how many each image has.  Each
    image keeps its own isotropic normalization (centroid to the origin,
    mean distance sqrt(2)).  With X (n, 3) the image's normalized target
    rows (x, y, 1) and u, v its normalized pixels, the design matrix is,
    up to row order, A = [[X, 0, -u*X], [0, X, -v*X]]; it is never formed.
    A block QR reduces it instead: X = Q1 R1 (thin), E = Q1^T (-u*X),
    F = Q1^T (-v*X), and R3 is the R factor of the 2n x 3 block that
    stacks (-u*X) - Q1 E and (-v*X) - Q1 F.  The 9 x 9 matrix
    R = [[R1, 0, E], [0, R1, F], [0, 0, R3]] has R^T R = A^T A, so it has
    A's singular values and right singular vectors, and one batched SVD
    of the N factors gives every null vector.  Each step is an orthogonal
    transform, so the backward error stays O(eps ||A||), as with a QR of
    A itself.  Images are zero-padded to the largest count: zero rows of X
    leave every product, and so A^T A, unchanged.  Returns the
    homographies (N, 3, 3) and raises DegenerateConfiguration naming the
    first image whose homography is ambiguous or rank deficient.
    """
    R, T_xy, T_uv_inv = _dlt_factor(xy, uv, counts)
    _, s, Vt = np.linalg.svd(R)
    # With >= 4 generic point pairs only one singular value is ~0; a
    # second vanishing one means the solution is ambiguous.
    ambiguous = np.flatnonzero(s[:, -2] <= 1e-10 * s[:, 0])
    if len(ambiguous):
        raise errors.DegenerateConfiguration(
            f"image {ambiguous[0]}: homography design matrix is rank deficient")
    H = _with_scale_convention(T_uv_inv @ Vt[:, -1].reshape(-1, 3, 3) @ T_xy)
    s = np.linalg.svd(H, compute_uv=False)
    rank_deficient = np.flatnonzero(s[:, -1] / s[:, 0] <= 1e-10)
    if len(rank_deficient):
        raise errors.DegenerateConfiguration(
            f"image {rank_deficient[0]}: homography is rank deficient")
    return H


def _dlt_factor(xy: np.ndarray, uv: np.ndarray, counts: np.ndarray):
    """Every image's 9 x 9 factor R (N, 9, 9), whose Gram is its A^T A (see `_dlt`).

    Also returns the normalizations T_xy and the inverses of T_uv (N, 3, 3).
    """
    N, n = len(counts), int(counts.max())
    mask = np.arange(n) < counts[:, None]
    # Target points and pixels side by side, (N, n, 4), zero in the padding.
    # Sums over the points run as products with a ones vector, which take
    # a fraction of the time of numpy's reductions over a middle axis.
    P = np.zeros((N, n, 4))
    P[mask] = np.concatenate([xy, uv], axis=1)
    ones = np.ones(n)
    centroid = (ones @ P) / counts[:, None]
    D = np.where(mask[..., None], P - centroid[:, None], 0.0)
    D2 = D * D
    mean_dist = (ones @ np.sqrt(D2[..., 0::2] + D2[..., 1::2])) / counts[:, None]
    # Coincident points keep unit scale; the ambiguity test rejects them.
    s = np.sqrt(2.0) / np.where(mean_dist > 1e-12, mean_dist, np.sqrt(2.0))  # (N, 2)
    X = np.empty((N, n, 3))
    X[..., :2] = D[..., :2] * s[:, None, :1]
    X[..., 2] = mask
    # The columns -u*X and -v*X of every point, (N, n, 6).
    B = (X[..., None, :] * (D[..., 2:] * -s[:, None, 1:])[..., None]).reshape(N, n, 6)

    Q1, R1 = np.linalg.qr(X)
    EF = Q1.transpose(0, 2, 1) @ B
    # Row pairs (-u*X - Q1 E, -v*X - Q1 F) of point k are rows 2k, 2k+1.
    R3 = np.linalg.qr((B - Q1 @ EF).reshape(N, 2 * n, 3), mode="r")
    R = np.zeros((N, 9, 9))
    R[:, 0:3, 0:3] = R[:, 3:6, 3:6] = R1
    R[:, 0:3, 6:9] = EF[..., :3]
    R[:, 3:6, 6:9] = EF[..., 3:]
    R[:, 6:9, 6:9] = R3

    # T = [[s, 0, -s c], [0, s, -s c], [0, 0, 1]], and its closed-form inverse.
    T_xy = np.zeros((N, 3, 3))
    T_xy[:, 0, 0] = T_xy[:, 1, 1] = s[:, 0]
    T_xy[:, :2, 2] = -s[:, :1] * centroid[:, :2]
    T_xy[:, 2, 2] = 1.0
    T_uv_inv = np.zeros((N, 3, 3))
    T_uv_inv[:, 0, 0] = T_uv_inv[:, 1, 1] = 1.0 / s[:, 1]
    T_uv_inv[:, :2, 2] = centroid[:, 2:]
    T_uv_inv[:, 2, 2] = 1.0
    return R, T_xy, T_uv_inv


def estimate_homography(target_xy: np.ndarray, pixels_uv: np.ndarray) -> np.ndarray:
    """Normalized DLT estimate (3, 3) of the target-plane-to-image homography.

    It is scaled and rank-checked as every fitted homography is.  Fewer
    than 4 point pairs or a non-finite coordinate raise ValueError.
    """
    X = finite_array(target_xy, "target_xy", (None, 2))
    U = finite_array(pixels_uv, "pixels_uv", (len(X), 2))
    if len(X) < 4:
        raise ValueError("homography estimation needs at least 4 point pairs")
    return _dlt(X, U, np.array([len(X)]))[0]


class HomographyFit(NamedTuple):
    """Every image's homography in O(1) solver units, from one batched DLT.

    `matrices` (N, 3, 3) map normalized target points to normalized pixels.
    The similarity transforms that normalize pixels and target mm map
    intrinsics, centers and translations back to raw units: solving in raw
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

    def translations_to_raw(self, R: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Raw-mm translations (N, 3) of the poses (R, t) that `matrices` decompose into."""
        return self.target_scale * t - R[:, :, :2] @ self.target_shift


def _fit_observations(observations: ObservationSet) -> HomographyFit:
    if not len(observations):
        raise ValueError("the observation set has no images to fit homographies to")
    uv = observations.uv
    ones = np.ones(len(uv))
    pix_shift = (ones @ uv) / len(uv)
    d = uv - pix_shift
    pix_scale = (ones @ np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])) / len(uv)
    if not pix_scale > 0:
        raise errors.DegenerateConfiguration(
            "image 0: every observed pixel of every image is the same point")
    tgt_shift, tgt_scale = observations.target._frame
    H = _dlt((observations.xy - tgt_shift) / tgt_scale, d / pix_scale, observations.counts)
    H.flags.writeable = False  # cached on the observation set and shared by every solver
    return HomographyFit(H, pixel_scale=pix_scale, pixel_shift=pix_shift,
                         target_scale=tgt_scale, target_shift=tgt_shift)


def decompose_homography(H: np.ndarray, intr: CameraIntrinsics):
    """Recover every pose of a stack H (N, 3, 3) with H_i = lam_i * K [r1 r2 t_i].

    Returns (R (N, 3, 3), t (N, 3), lam (N,)), recovered in one pass.  The
    sign is chosen so the target origin lies in front of the camera
    (t[2] > 0) and the rotations are re-orthogonalized by SVD.
    """
    H = finite_array(H, "homographies", (None, 3, 3))
    M = intr.inverse @ H
    M2 = M * M
    n = np.sqrt(M2[:, 0, :2] + M2[:, 1, :2] + M2[:, 2, :2])  # norms of the columns r1, r2
    lam = 0.5 * (n[:, 0] + n[:, 1])
    # One scale per image: 1 / lam, negated where t[2] = M[2, 2] / lam < 0.
    G = M * (np.where(M[:, 2, 2] < 0, -1.0, 1.0) / lam)[:, None, None]
    t = G[:, :, 2].copy()
    # The third column becomes r1 x r2.
    a, b = G[:, :, 0], G[:, :, 1]
    G[:, :, 2] = a[:, [1, 2, 0]] * b[:, [2, 0, 1]] - a[:, [2, 0, 1]] * b[:, [1, 2, 0]]
    return nearest_rotation(G), t, lam
