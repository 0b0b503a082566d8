import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from collimcal import core_geom as cg
from collimcal import errors, fileio
from conftest import (
    angular_distance,
    first_images,
    homography_from_pose,
    identity_rotation,
    image_points,
    rotation_from_axis_angle,
    scene,
    split_images,
    stack_images,
)

TRUE_K = cg.CameraIntrinsics(fx=1000.0, fy=1000.0, cx=542.0, cy=478.0, gamma=0.01)
TRUE_D = cg.Distortion(d1=0.1, d2=-0.2)


def random_rotation(rng, max_angle=np.pi):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    return rotation_from_axis_angle(axis * rng.uniform(0.0, max_angle))


def tiny_angle(u, v):
    """Sine-based angle, resolves near-parallel pairs below the arccos floor."""
    u = np.asarray(u, float) / np.linalg.norm(u)
    v = np.asarray(v, float) / np.linalg.norm(v)
    return float(np.arcsin(min(1.0, np.linalg.norm(np.cross(u, v)))))


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

def test_intrinsics_reject_nonpositive_focal():
    with pytest.raises(ValueError):
        cg.CameraIntrinsics(fx=-1.0, fy=1000.0, cx=0.0, cy=0.0)
    with pytest.raises(ValueError):
        cg.CameraIntrinsics(fx=1000.0, fy=0.0, cx=0.0, cy=0.0)


def test_intrinsics_inverse_matches_numpy():
    Ki = TRUE_K.inverse
    assert np.allclose(Ki, np.linalg.inv(TRUE_K.matrix), atol=1e-14)


def test_distortion_monotonicity_window():
    # Valid up to r^2 solving r^4 - 0.3 r^2 - 1 = 0, i.e. r ~ 1.078 for (0.1, -0.2).
    TRUE_D.check_monotone_within(1.0)
    with pytest.raises(ValueError, match=r"^distortion \(0.1, -0.2\) is not monotone"):
        TRUE_D.check_monotone_within(1.2)
    # A stronger distortion pair is monotone only within a smaller radius.
    strong = cg.Distortion(0.3, -0.5)
    strong.check_monotone_within(0.90)
    with pytest.raises(ValueError, match="within normalized radius 1.0000"):
        strong.check_monotone_within(1.0)


def test_rotation_validation():
    with pytest.raises(ValueError, match="rotation 0: matrix is not orthonormal"):
        cg.checked_rotations((np.eye(3) * 2.0)[None])
    with pytest.raises(ValueError, match="rotation 0: matrix determinant is not"):
        cg.checked_rotations(np.diag([1.0, 1.0, -1.0])[None])
    with pytest.raises(ValueError,
                       match=r"^rotations must have shape \(N, 3, 3\), got \(3, 3\)$"):
        cg.checked_rotations(np.eye(3))
    R = rotation_from_axis_angle([0.1, -0.2, 0.3])
    assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12


def test_rotation_stack_matches_one_vector_at_a_time():
    rng = np.random.default_rng(21)
    v = rng.normal(size=(2000, 3)) * rng.uniform(0.0, np.pi, size=(2000, 1))
    v[:100] *= 1e-13 / np.linalg.norm(v[:100], axis=1, keepdims=True)  # |v| < 1e-12
    v[100] = 0.0
    stack = cg.rotation_matrix_from_axis_angle(v)
    for k in range(len(v)):
        alone = cg.rotation_matrix_from_axis_angle(v[k])
        assert alone.shape == (3, 3)
        assert alone.tobytes() == stack[k].tobytes()


@pytest.mark.parametrize("angles", [(0.0, 1e-13, 0.7, 2.9), (0.4, 1.3, 3.1)],
                         ids=["mixed", "no-small-angle"])
def test_rotation_stack_with_and_without_small_angles_matches_one_vector_at_a_time(angles):
    # An angle below 1e-12 rad takes the series expansion and any other the
    # plain formula, whether or not its stack mixes the two; either way each
    # matrix equals the vector's own, bit for bit.
    axes = np.random.default_rng(23).normal(size=(len(angles), 3))
    v = axes / np.linalg.norm(axes, axis=1, keepdims=True) * np.array(angles)[:, None]
    stack = cg.rotation_matrix_from_axis_angle(v)
    for k in range(len(v)):
        assert cg.rotation_matrix_from_axis_angle(v[k]).tobytes() == stack[k].tobytes()
    assert np.max(np.abs(stack.transpose(0, 2, 1) @ stack - np.eye(3))) < 1e-15


def test_rotation_stack_validation_names_the_bad_matrix():
    R = cg.rotation_matrix_from_axis_angle(np.random.default_rng(22).normal(size=(5, 3)))
    assert cg.checked_rotations(R).tobytes() == R.tobytes()
    skewed = R.copy()
    skewed[3, 0, 0] += 1e-9
    with pytest.raises(ValueError, match="rotation 3: matrix is not orthonormal"):
        cg.checked_rotations(skewed)
    improper = R.copy()
    improper[1] = -improper[1]
    with pytest.raises(ValueError, match="rotation 1: matrix determinant"):
        cg.checked_rotations(improper)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("shape", [(3, 3), (4, 3, 3)], ids=["matrix", "stack"])
def test_nearest_rotation_refuses_a_non_finite_matrix_by_name(bad, shape):
    # Refused before the SVD: a NaN entry made it raise a LinAlgError and an
    # inf entry gave an all-NaN matrix after a RuntimeWarning, neither
    # naming the argument.
    M = np.broadcast_to(np.eye(3), shape).copy()
    M[..., 1, 2] = bad
    with pytest.raises(ValueError, match="^M must be finite$"):
        cg.nearest_rotation(M)


def test_axis_angle_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.normal(size=3)
        v *= rng.uniform(0.0, np.pi - 1e-3) / np.linalg.norm(v)
        R = rotation_from_axis_angle(v)
        assert np.allclose(cg.axis_angle_from_rotation_matrix(R), v, atol=1e-9)
    # near-pi branch
    v = np.array([1.0, 0.0, 0.0]) * (np.pi - 1e-9)
    R = rotation_from_axis_angle(v)
    back = cg.axis_angle_from_rotation_matrix(R)
    assert abs(np.linalg.norm(back) - np.linalg.norm(v)) < 1e-6


def test_planar_target_invariants():
    with pytest.raises(ValueError):
        cg.PlanarTarget(ids=[0, 1, 2, 2], xy=[[0, 0], [1, 0], [0, 1], [1, 1]])
    with pytest.raises(ValueError):
        cg.PlanarTarget(ids=[0, 1, 2, 3], xy=[[0, 0], [1, 0], [2, 0], [3, 0]])
    t = cg.PlanarTarget(ids=[3, 1, 0, 2], xy=[[0, 0], [1, 0], [0, 1], [1, 1]])
    # int() would have truncated these to the distinct ids 0..3.
    for ids in ([0.5, 1.5, 2.5, 3.5], [True, False, 2, 3], np.array([0.0, 1.0, 2.0, 3.0]),
                [[True, 1], [2, 3]], [2 ** 63, 1, 2, 3]):
        with pytest.raises(ValueError, match=r"^target point ids must be integers"):
            cg.PlanarTarget(ids=ids, xy=t.xy)


def test_id_rows_looks_up_every_id_at_once():
    rng = np.random.default_rng(23)
    table = rng.permutation(200)[:88] * 3
    query = rng.choice(table, size=300)
    row = {pid: k for k, pid in enumerate(table.tolist())}
    rows, found = cg.id_rows(table, query)
    assert found.all() and rows.tolist() == [row[q] for q in query.tolist()]
    unknown = np.array([table.max() + 1, table.min() - 1, 1])
    rows, found = cg.id_rows(table, np.concatenate([query, unknown]))
    assert found.tolist() == [True] * 300 + [False] * 3
    assert rows[:300].tolist() == [row[q] for q in query.tolist()]
    rows, found = cg.id_rows(table[:0], query)
    assert not found.any() and rows.shape == (300,)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.one_of(st.integers(-2, 2 ** 65), st.floats(),
                          st.integers(1, 2 ** 65).map(float)), min_size=2, max_size=2))
@example([1e308, 960])
@example([2.0 ** 63 - 1024, 1])
@example([2 ** 63, 1])
def test_image_size_rule_takes_its_own_result(size):
    # [1e308, 960] used to give a 309-digit width, which the rule then
    # refused as no number when it ran again.
    try:
        checked = cg.checked_image_size(size)
    except ValueError as exc:
        assert str(exc).startswith("image_size must be ")
        return
    assert cg.checked_image_size(checked) == checked


def test_observation_set_invariants():
    target = cg.PlanarTarget(ids=[0, 1, 2, 3], xy=[[0, 0], [30, 0], [0, 30], [30, 30]])
    zeros = np.zeros((4, 2))
    good = ([0, 1, 2, 3], zeros)
    stack_images(target, [good])
    # One id in two different images is two observations of one point.
    stack_images(target, [good, ([3, 2, 1, 0], zeros)])
    with pytest.raises(ValueError):
        stack_images(target, [([0, 1, 2, 9], zeros)])
    stray = [([3, 9, 1, 2], zeros), ([12, 0, 5, 2], zeros)]
    with pytest.raises(ValueError, match=r"^image 1 observes ids not on the target: \[9\]$"):
        stack_images(target, [good] + stray)
    with pytest.raises(ValueError, match=r"^image 1 observes ids not on the target: \[5, 12\]$"):
        stack_images(target, [good, stray[1]])
    with pytest.raises(ValueError, match=r"^image 1 observes point id 0 more than once$"):
        stack_images(target, [good, ([0, 0, 1, 2], zeros)])
    with pytest.raises(ValueError, match=r"^image 2 has non-finite pixel coordinates$"):
        stack_images(target, [good, good, ([0, 1, 2, 3], [[0, 0], [0, 0], [np.nan, 0], [0, 0]])])
    with pytest.raises(ValueError, match=r"^image 1 has fewer than 4 observed points$"):
        stack_images(target, [good, ([0, 1, 2], zeros[:3]), good])
    with pytest.raises(ValueError, match=r"^counts add up to 5 points, but there are 4 ids$"):
        cg.ObservationSet(target, [0, 1, 2, 3], zeros, [5])
    # Truncated, each of these would have made a valid set.
    for ids, counts, name in (([0.7, 1.2, 2, 3], [4], "ids"), ([0, True, 2, 3], [4], "ids"),
                              (["0", "1", "2", "3"], [4], "ids"),
                              ([[True, 1], [2, 3]], [4], "ids"),
                              ([0, 1, 2, 3], [4.9], "counts"),
                              (np.arange(8), np.array([True, True]) * 4.0, "counts")):
        with pytest.raises(ValueError, match=rf"^{name} must be integers"):
            cg.ObservationSet(target, ids, np.zeros((len(ids), 2)), counts)


def test_observation_set_stacks_its_images_once():
    obs = dropped_points_scene(4)
    rng = np.random.default_rng(4)
    shuffled = stack_images(obs.target, [(ids[p], uv[p]) for ids, uv in split_images(obs)
                                         for p in [rng.permutation(len(ids))]])
    for subset in (shuffled, first_images(shuffled, 3), first_images(shuffled, 1)):
        assert subset.counts.tolist() == [len(ids) for ids, _ in split_images(subset)]
        row = {pid: k for k, pid in enumerate(subset.target.ids.tolist())}
        assert np.array_equal(subset.xy, subset.target.xy[[row[i] for i in subset.ids.tolist()]])
    assert np.array_equal(shuffled.counts, obs.counts)
    assert not np.array_equal(shuffled.ids, obs.ids)
    empty = stack_images(obs.target, [])
    assert len(empty) == 0
    assert empty.xy.shape == empty.uv.shape == (0, 2)
    assert empty.ids.shape == empty.counts.shape == (0,)


def test_observation_set_keeps_read_only_copies_of_its_input(tmp_path):
    obs = dropped_points_scene(5)
    ids, uv, counts = obs.ids.copy(), obs.uv.copy(), obs.counts.copy()
    built = cg.ObservationSet(obs.target, ids, uv, counts)
    ids[[0, 1]] = ids[[1, 0]]
    uv += 7.0
    counts[[0, 1]] = counts[[1, 0]] + [1, -1]
    assert np.array_equal(built.ids, obs.ids) and np.array_equal(built.uv, obs.uv)
    assert np.array_equal(built.counts, obs.counts)
    assert np.array_equal(built.homography_fit.matrices, obs.homography_fit.matrices)
    path = tmp_path / "obs.json"
    fileio.write_observation_file(path, built)
    back = fileio.read_observation_file(path).observations
    for name in ("ids", "uv", "counts", "xy"):
        assert np.array_equal(getattr(back, name), getattr(obs, name)), name
        stored = getattr(built, name)
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0] = 0


# ---------------------------------------------------------------------------
# project / back_project
# ---------------------------------------------------------------------------

def test_project_optical_axis_point_hits_principal_point():
    uv = cg.project(TRUE_K, TRUE_D, identity_rotation(),
                    np.array([0.0, 0.0, 700.0]), np.array([0.0, 0.0, 0.0]))
    assert np.allclose(uv, [542.0, 478.0], atol=1e-12)


def test_project_matches_independent_evaluation():
    # Independent scripted evaluation of the projection chain for the reference
    # camera at the front-facing spherical pose t = -R t_cp = (-150, -105, 700),
    # point P = (30, 0, 0).
    P = np.array([30.0, 0.0, 0.0])
    t = np.array([-150.0, -105.0, 700.0])
    xc = P + t                               # R = I
    xn, yn = xc[0] / xc[2], xc[1] / xc[2]
    r2 = xn * xn + yn * yn
    f = 1.0 + 0.1 * r2 - 0.2 * r2 * r2
    xd, yd = xn * f, yn * f
    expected = np.array([1000.0 * xd + 0.01 * yd + 542.0, 1000.0 * yd + 478.0])

    uv = cg.project(TRUE_K, TRUE_D, identity_rotation(), t, P)
    assert np.allclose(uv, expected, atol=1e-12)
    # frozen values from the oracle above
    assert np.allclose(expected, [369.7727259929445, 327.3024538473553], atol=1e-9)


def test_project_rejects_point_behind_camera():
    with pytest.raises(errors.PointBehindCamera):
        cg.project(TRUE_K, TRUE_D, identity_rotation(),
                   np.array([150.0, 105.0, -700.0]), np.array([0.0, 0.0, 0.0]))
    # A point at depth exactly zero is refused too, and counted alone.
    with pytest.raises(errors.PointBehindCamera, match=r"^1 point\(s\) at non-positive depth$"):
        cg.project(TRUE_K, TRUE_D, identity_rotation(), np.zeros(3),
                   np.array([[0.0, 0.0, 700.0], [10.0, 0.0, 0.0], [0.0, 5.0, 700.0]]))


def test_back_project_principal_point_is_optical_axis():
    ray = cg.back_project(TRUE_K, TRUE_D, np.array([542.0, 478.0]))
    assert np.allclose(ray, [0.0, 0.0, 1.0], atol=1e-12)


def test_back_project_one_focal_length_offset():
    K = cg.CameraIntrinsics(fx=1000.0, fy=1000.0, cx=542.0, cy=478.0, gamma=0.0)
    ray = cg.back_project(K, cg.Distortion(), np.array([1542.0, 478.0]))
    assert np.allclose(ray, np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0), atol=1e-12)


def test_project_back_project_round_trip():
    # 1000 random depth-positive points through the full distorted chain.
    rng = np.random.default_rng(42)
    count = 0
    while count < 1000:
        R = random_rotation(rng, max_angle=0.4)
        t = np.array([rng.uniform(-50, 50), rng.uniform(-50, 50), rng.uniform(400, 900)])
        P = np.array([rng.uniform(-150, 150), rng.uniform(-100, 100), 0.0])
        xc = R @ P + t
        if xc[2] <= 0 or np.hypot(xc[0], xc[1]) / xc[2] > 0.6:
            continue
        uv = cg.project(TRUE_K, TRUE_D, R, t, P)
        ray = cg.back_project(TRUE_K, TRUE_D, uv)
        assert tiny_angle(ray, xc) < 1e-10
        count += 1


def test_round_trip_gamma_zero_exact():
    K = cg.CameraIntrinsics(fx=800.0, fy=820.0, cx=500.0, cy=400.0, gamma=0.0)
    R = identity_rotation()
    t = np.array([0.0, 0.0, 500.0])
    P = np.array([40.0, -25.0, 0.0])
    uv = cg.project(K, cg.Distortion(), R, t, P)
    ray = cg.back_project(K, cg.Distortion(), uv)
    direction = (R @ P + t)
    direction /= np.linalg.norm(direction)
    assert np.allclose(ray, direction, atol=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(fx=st.floats(500.0, 2000.0), fy=st.floats(500.0, 2000.0),
       gamma=st.floats(-1.0, 1.0), d1=st.floats(-0.2, 0.2), d2=st.floats(-0.2, 0.2),
       radius=st.floats(0.0, 0.5), angle=st.floats(0.0, 2.0 * np.pi),
       depth=st.floats(1.0, 1e4))
@example(fx=500.0, fy=2000.0, gamma=-1.0, d1=-0.2, d2=-0.2, radius=0.5, angle=0.0, depth=1.0)
@example(fx=2000.0, fy=500.0, gamma=1.0, d1=0.2, d2=0.2, radius=0.5, angle=2.0, depth=1e4)
def test_project_back_project_round_trip_property(fx, fy, gamma, d1, d2, radius, angle, depth):
    # A camera-frame point within normalized radius 0.5, projected and
    # back-projected, gives its own unit ray.
    K = cg.CameraIntrinsics(fx=fx, fy=fy, cx=542.0, cy=478.0, gamma=gamma)
    dist = cg.Distortion(d1, d2)
    point = depth * np.array([radius * np.cos(angle), radius * np.sin(angle), 1.0])
    ray = cg.back_project(K, dist, cg.project(K, dist, identity_rotation(), np.zeros(3), point))
    assert np.max(np.abs(ray - point / np.linalg.norm(point))) <= 1e-10


@pytest.mark.parametrize("dist", [cg.Distortion(), cg.Distortion(0.1, 0.0)],
                         ids=["undistorted", "distorted"])
def test_back_project_of_no_pixels_is_empty(dist):
    # The fixed point's step test used to take the maximum of no entries.
    rays = cg.back_project(cg.CameraIntrinsics(1000.0, 1000.0, 500.0, 500.0), dist,
                           np.zeros((0, 2)))
    assert rays.shape == (0, 3)


def test_undistortion_divergence_reported():
    # Far outside the monotone window the fixed point cannot settle.
    bad = cg.Distortion(d1=-0.9, d2=0.0)
    with pytest.raises(errors.UndistortionDiverged):
        cg.undistort_normalized(bad, np.array([[1.2, 0.9]]))


# ---------------------------------------------------------------------------
# homography estimation / decomposition
# ---------------------------------------------------------------------------

def test_homography_identity_from_unit_square():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    H = cg.estimate_homography(xy, xy)
    assert np.allclose(H / H[2, 2], np.eye(3), atol=1e-9)


def test_homography_synthesize_recover():
    rng = np.random.default_rng(5)
    for _ in range(25):
        H_true = np.eye(3) + 0.4 * rng.normal(size=(3, 3))
        if abs(np.linalg.det(H_true)) < 0.1:
            continue
        xy = rng.uniform(-1.0, 1.0, size=(12, 2))
        ph = np.column_stack([xy, np.ones(12)]) @ H_true.T
        uv = ph[:, :2] / ph[:, 2:3]
        H_est = cg.estimate_homography(xy, uv)
        H_a = H_true / np.linalg.norm(H_true)
        H_b = H_est / np.linalg.norm(H_est)
        if np.sum(H_a * H_b) < 0:
            H_b = -H_b
        assert np.linalg.norm(H_a - H_b) < 1e-10


def test_homography_degenerate_inputs_rejected():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])  # collinear
    uv = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(errors.DegenerateConfiguration):
        cg.estimate_homography(xy, uv)
    # 11 collinear points of a noisy view: 22 design rows, which go through QR.
    _, _, obs = scene(seed=4, pixel_noise_sigma=1.0)
    (points, pixels), row = image_points(obs)[0], np.arange(11)  # the grid's first row
    with pytest.raises(errors.DegenerateConfiguration):
        cg.estimate_homography(points[row], pixels[row])
    with pytest.raises(ValueError):
        cg.estimate_homography(xy[:3], uv[:3])


@pytest.mark.parametrize("bad", ["nan pixel", "inf target"])
def test_homography_rejects_non_finite_coordinates(bad):
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
    uv = 100.0 + 50.0 * xy
    if bad == "nan pixel":
        uv[2, 1] = np.nan
    else:
        xy[4, 0] = np.inf
    name = "pixels_uv" if bad == "nan pixel" else "target_xy"
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        cg.estimate_homography(xy, uv)


def test_homography_tests_finiteness_before_the_point_count():
    xy = np.array([[0.0, 0.0], [1.0, 0.0], [np.nan, 1.0]])
    with pytest.raises(ValueError, match="^target_xy must be finite$"):
        cg.estimate_homography(xy, xy)


@pytest.mark.parametrize("values", [[1.0, np.nan], [[0.0, 2.0], [-np.inf, 1.0]]],
                         ids=["nan", "inf"])
def test_finite_array_names_a_non_finite_entry(values):
    with pytest.raises(ValueError, match="^the values must be finite$"):
        cg.finite_array(values, "the values")


def test_finite_array_is_real_array_for_finite_input():
    values = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert cg.finite_array(values, "v", (None, 2)) is values
    with pytest.raises(ValueError, match="^v must be real numbers"):
        cg.finite_array([True, 1.0], "v")
    with pytest.raises(ValueError, match=r"^v must have shape \(N, 2\)"):
        cg.finite_array([1.0, 2.0], "v", (None, 2))


def test_homography_pass_of_no_images_is_a_value_error():
    _, _, obs = scene(seed=4)
    empty = stack_images(obs.target, [])
    assert len(empty) == 0
    with pytest.raises(ValueError, match="no images"):
        empty.homography_fit


def reference_design_matrix(xy, uv):
    """Hartley normalizations Tx, Tu and the (2n, 9) design matrix, built point by point."""
    def hartley(p):
        c = p.mean(axis=0)
        s = np.sqrt(2.0) / np.mean(np.linalg.norm(p - c, axis=1))
        return np.array([[s, 0.0, -s * c[0]], [0.0, s, -s * c[1]], [0.0, 0.0, 1.0]])

    Tx, Tu = hartley(xy), hartley(uv)
    rows = []
    for (x, y), (u, v) in zip(xy, uv):
        X = Tx @ [x, y, 1.0]
        un, vn, _ = Tu @ [u, v, 1.0]
        rows.append(np.concatenate([X, np.zeros(3), -un * X]))
        rows.append(np.concatenate([np.zeros(3), X, -vn * X]))
    return Tx, Tu, np.array(rows)


def reference_homography(xy, uv):
    """Normalized DLT through the SVD of the explicit design matrix.

    The SVD is the full one, so that four points (eight rows) keep the null
    vector.  DegenerateConfiguration if a second singular value of the nine
    (zero where A has only eight rows) is within 1e-10 of the largest.
    """
    Tx, Tu, A = reference_design_matrix(xy, uv)
    _, s, Vt = np.linalg.svd(A)
    s = np.concatenate([s, np.zeros(9 - len(s))])
    if s[-2] <= 1e-10 * s[0]:
        raise errors.DegenerateConfiguration("ambiguous")
    H = np.linalg.inv(Tu) @ Vt[-1].reshape(3, 3) @ Tx
    H *= np.sqrt(3.0) / np.linalg.norm(H)
    return H if H[2, 2] > 0 else -H


@pytest.mark.parametrize("count", [4, 5, 20, 88])
def test_homography_matches_the_design_matrix_null_vector(count):
    # The DLT takes the SVD of the design matrix's R factor; its null vector
    # is the one of the design matrix itself.
    _, _, obs = scene(seed=4, pixel_noise_sigma=1.0)
    xy, uv = image_points(obs)[0]
    assert len(xy) == 88
    rows = {4: [0, 10, 77, 87], 5: [0, 10, 40, 77, 87]}.get(
        count, np.random.default_rng(count).choice(88, count, replace=False))
    H = cg.estimate_homography(xy[rows], uv[rows])
    assert relative_difference(H, reference_homography(xy[rows], uv[rows])) <= 1e-12


def test_scale_convention_takes_the_sign_of_the_largest_entry_when_h22_vanishes():
    # A homography that sends the target origin to infinity has H[2,2] = 0,
    # so its sign comes from its largest entry instead; the others keep
    # H[2,2] > 0.  Every one is scaled to Frobenius norm sqrt(3).
    H = np.array([[[1.0, -4.0, 2.0], [0.5, 1.0, -1.0], [0.2, 0.1, 0.0]],
                  [[1.0, 4.0, 2.0], [0.5, 1.0, -1.0], [0.2, 0.1, 0.0]],
                  [[1.0, -4.0, 2.0], [0.5, 1.0, -1.0], [0.2, 0.1, -0.5]]])
    scaled = cg._with_scale_convention(H)
    flipped = [True, False, True]
    expected = [(-h if flip else h) * np.sqrt(3.0) / np.linalg.norm(h)
                for h, flip in zip(H, flipped)]
    np.testing.assert_allclose(scaled, expected, rtol=1e-15, atol=0.0)
    assert [float(np.abs(h).max()) for h in scaled] == [float(h[0, 1]) for h in scaled]


def random_observations(counts, seed, collinear_image=None):
    """Images of `counts` points of a jittered 11 x 8 grid under random homographies.

    With `collinear_image` given, the target's first row (ids 0-10) lies
    on the line y = 0, that image sees only points of this row, and every
    other image sees only points of the other rows.
    """
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(np.arange(11.0), np.arange(8.0)), axis=-1).reshape(-1, 2)
    xy = 30.0 * grid + rng.uniform(-5.0, 5.0, size=grid.shape)
    if collinear_image is not None:
        xy[:11, 1] = 0.0
    target = cg.PlanarTarget(np.arange(88), xy)
    images = []
    for k, count in enumerate(counts):
        if collinear_image is None:
            pool = np.arange(88)
        else:
            pool = np.arange(11) if k == collinear_image else np.arange(11, 88)
        ids = rng.choice(pool, size=min(count, len(pool)), replace=False)
        H = np.array([[rng.uniform(1.5, 3.0), rng.uniform(-0.3, 0.3), rng.uniform(100, 500)],
                      [rng.uniform(-0.3, 0.3), rng.uniform(1.5, 3.0), rng.uniform(100, 400)],
                      [rng.uniform(-5e-4, 5e-4), rng.uniform(-5e-4, 5e-4), 1.0]])
        ph = np.column_stack([xy[ids], np.ones(len(ids))]) @ H.T
        uv = ph[:, :2] / ph[:, 2:] + rng.normal(0.0, rng.uniform(0.0, 2.0), size=(len(ids), 2))
        images.append((ids, uv))
    return stack_images(target, images)


def frame_images(obs):
    """Every image's (target points, pixels) in the frame of its homography pass."""
    fit = obs.homography_fit
    return [((xy - fit.target_shift) / fit.target_scale,
             (uv - fit.pixel_shift) / fit.pixel_scale) for xy, uv in image_points(obs)]


point_sets = st.tuples(st.lists(st.integers(4, 88), min_size=1, max_size=6),
                       st.integers(0, 2**32 - 1))
pass_settings = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@pass_settings
@given(point_sets)
@example(([4], 1))
@example(([88], 2))
@example(([88, 88, 88], 4))
@example(([4, 88, 4, 17], 3))
def test_homography_pass_matches_the_explicit_design_matrix(drawn):
    obs = random_observations(*drawn)
    for H, (xy, uv) in zip(obs.homography_fit.matrices, frame_images(obs)):
        assert relative_difference(H, reference_homography(xy, uv)) <= 1e-12


@pass_settings
@given(point_sets)
@example(([4], 1))
@example(([88, 88, 88], 4))
@example(([4, 88, 4, 17], 3))
def test_homography_factor_has_the_design_matrix_gram(drawn):
    # Unpadded (every image of one count) and padded stacks alike.
    obs = random_observations(*drawn)
    images = frame_images(obs)
    points = np.concatenate([np.column_stack([xy, uv]) for xy, uv in images]).T
    R, _, _ = cg._dlt_factor(lambda: points, obs.counts)
    for factor, (xy, uv) in zip(R, images):
        _, _, A = reference_design_matrix(xy, uv)
        assert np.linalg.norm(factor.T @ factor - A.T @ A) <= 1e-13 * np.linalg.norm(A) ** 2


@pass_settings
@given(point_sets)
@example(([4], 1))
@example(([4, 88, 4, 17], 3))
def test_homography_pass_ignores_point_order(drawn):
    obs = random_observations(*drawn)
    rng = np.random.default_rng(drawn[1])
    shuffled = stack_images(obs.target, [(ids[order], uv[order]) for ids, uv in split_images(obs)
                                         for order in [rng.permutation(len(ids))]])
    for a, b in zip(shuffled.homography_fit.matrices, obs.homography_fit.matrices):
        assert relative_difference(a, b) <= 1e-12


@pass_settings
@given(point_sets, st.integers(0, 5))
@example(([4], 1), 0)
@example(([30, 4, 88], 2), 2)
def test_collinear_image_in_the_pass_is_named(drawn, collinear):
    counts, seed = drawn
    collinear %= len(counts)
    obs = random_observations(counts, seed, collinear_image=collinear)
    flagged = []
    for k, (xy, uv) in enumerate(image_points(obs)):
        try:
            reference_homography(xy, uv)
        except errors.DegenerateConfiguration:
            flagged.append(k)
    assert flagged == [collinear]
    with pytest.raises(errors.DegenerateConfiguration,
                       match=f"^image {collinear}: homography design matrix is rank deficient$"):
        obs.homography_fit


def test_decompose_recovers_exact_pose():
    t = np.array([0.0, 0.0, 700.0])
    H = homography_from_pose(TRUE_K, identity_rotation(), t)
    (R,), (t_out,), (lam,) = cg.decompose_homography(H[None], TRUE_K)
    assert np.allclose(R, np.eye(3), atol=1e-10)
    assert np.allclose(t_out, t, atol=1e-9 * 700.0)
    assert lam > 0


def test_decompose_takes_only_a_stack():
    H = homography_from_pose(TRUE_K, identity_rotation(), np.array([0.0, 0.0, 700.0]))
    with pytest.raises(ValueError,
                       match=r"^homographies must have shape \(N, 3, 3\), got \(3, 3\)$"):
        cg.decompose_homography(H, TRUE_K)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_decompose_refuses_a_non_finite_homography_by_name(bad):
    # Refused before the product with K^-1 and the SVD, whose RuntimeWarning
    # and LinAlgError name no argument.
    H = homography_from_pose(TRUE_K, identity_rotation(), np.array([0.0, 0.0, 700.0]))
    H = np.stack([H, H])
    H[1, 0, 2] = bad
    with pytest.raises(ValueError, match="^homographies must be finite$"):
        cg.decompose_homography(H, TRUE_K)


def test_decompose_reorthogonalizes_under_perturbation():
    rng = np.random.default_rng(3)
    Rt = random_rotation(rng, max_angle=0.3)
    t = np.array([-150.0, -105.0, 700.0])
    H = homography_from_pose(TRUE_K, Rt, t)
    H_noisy = H + 1e-6 * rng.normal(size=(3, 3))
    (R,), _, _ = cg.decompose_homography(H_noisy[None], TRUE_K)
    assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-12


def test_estimate_then_decompose_round_trip_spherical_pose():
    rng = np.random.default_rng(9)
    t_cp = np.array([150.0, 105.0, -700.0])
    for _ in range(10):
        R = random_rotation(rng, max_angle=0.2)
        t = -R @ t_cp
        xy = np.array([[x, y] for x in (0.0, 100.0, 200.0, 300.0)
                       for y in (0.0, 70.0, 140.0, 210.0)])
        uv = cg.project(cg.CameraIntrinsics(1000, 1000, 542, 478, 0.01), cg.Distortion(),
                        R, t, np.column_stack([xy, np.zeros(len(xy))]))
        H = cg.estimate_homography(xy, uv)
        (R_out,), (t_out,), _ = cg.decompose_homography(
            H[None], cg.CameraIntrinsics(1000, 1000, 542, 478, 0.01))
        assert tiny_angle(R_out @ np.array([0, 0, 1.0]),
                          R @ np.array([0, 0, 1.0])) < 1e-8
        assert np.max(np.abs(R_out - R)) < 1e-8
        assert np.allclose(t_out, t, atol=1e-6)


def dropped_points_scene(seed):
    """A default noisy scene in which every image keeps a random subset of its points."""
    _, _, obs = scene(seed=seed, pixel_noise_sigma=0.5)
    rng = np.random.default_rng(seed)
    images = []
    for ids, uv in split_images(obs):
        keep = np.sort(rng.choice(len(ids), size=rng.integers(8, len(ids) + 1), replace=False))
        images.append((ids[keep], uv[keep]))
    return stack_images(obs.target, images)


def relative_difference(A, B):
    return float(np.linalg.norm(A - B) / np.linalg.norm(B))


def test_batched_homographies_match_per_image_fits():
    counts = set()
    for seed in range(20):
        obs = dropped_points_scene(seed)
        fit = obs.homography_fit
        for k, (xy, uv) in enumerate(image_points(obs)):
            counts.add(len(uv))
            alone = cg.estimate_homography((xy - fit.target_shift) / fit.target_scale,
                                           (uv - fit.pixel_shift) / fit.pixel_scale)
            assert relative_difference(fit.matrices[k], alone) <= 1e-12
    assert len(counts) > 50  # the stack pads images of many different sizes


def test_rank_deficient_homography_in_a_stack_names_the_image():
    # Image 2's pixels lie on the line v = 2u + 5, an affine map of the
    # target points: its homography is unique but of rank 2.
    obs = dropped_points_scene(0)
    images = split_images(obs)[:4]
    ids, xy = images[2][0], image_points(obs)[2][0]
    u = 0.5 * xy[:, 0] + 0.2 * xy[:, 1] + 100.0
    images[2] = (ids, np.column_stack([u, 2.0 * u + 5.0]))
    with pytest.raises(errors.DegenerateConfiguration,
                       match="^image 2: homography is rank deficient$"):
        stack_images(obs.target, images).homography_fit


def fit_outcome(observations):
    """A set's homography fit as the bytes of its fields, or the type and
    message of the error it raises."""
    try:
        fit = observations.homography_fit
    except (ValueError, errors.DegenerateConfiguration) as exc:
        return type(exc), str(exc)
    return tuple(np.asarray(value).tobytes() for value in fit)


def unfitted(observations):
    """A copy of an observation set that has not fitted its homographies."""
    return cg.ObservationSet(observations.target, observations.ids, observations.uv,
                             observations.counts)


def test_fit_homographies_gives_each_set_the_fit_or_error_it_gets_alone():
    # Two padded lengths, the longer in two groups of one length; sets of 3
    # and of 15 images; and sets that cannot be fitted: a collinear image,
    # every pixel on one point, no images.  A set that cannot be fitted is
    # left unfitted, and its own fit raises what it raises alone.
    _, _, obs = scene(seed=6)
    one_point = stack_images(obs.target, [(ids, np.full((len(ids), 2), 5.0))
                                          for ids, _ in split_images(obs)[:3]])
    sets = ([scene(seed=6, trial=t)[2] for t in range(10)]
            + [first_images(obs, 3), dropped_points_scene(1), dropped_points_scene(2),
               random_observations([30, 4, 88], 2, collinear_image=1), one_point,
               stack_images(obs.target, [])])
    assert {len(o) for o in sets} >= {0, 3, 15}
    assert len({int(o.counts.max()) for o in sets if len(o)}) >= 2
    alone = [fit_outcome(unfitted(o)) for o in sets]
    failed = [type(outcome[0]) is type for outcome in alone]
    assert failed == [False] * 13 + [True] * 3
    together = [unfitted(o) for o in sets]
    cg.fit_homographies(together)
    assert [("homography_fit" not in vars(o)) for o in together] == failed
    assert [fit_outcome(o) for o in together] == alone
    fitted = together[0].homography_fit
    cg.fit_homographies(together)  # a fitted set keeps its fit
    assert together[0].homography_fit is fitted


def test_padding_in_a_group_cannot_reach_a_full_images_fit(monkeypatch):
    # A set of full (88-point) images is fitted alone, in a group where no
    # image is padded, and with a set that has a shorter image, in one `_dlt`
    # call of the same padded length; its fit has the same bytes in both.
    _, _, obs = scene(seed=3)
    full = first_images(obs, 3)
    assert full.counts.tolist() == [88, 88, 88]
    (ids, uv), (short_ids, short_uv) = split_images(obs)[3:5]
    padded = stack_images(obs.target, [(ids, uv), (short_ids[:50], short_uv[:50])])
    assert padded.counts.tolist() == [88, 50]
    together = [unfitted(full), unfitted(padded)]
    calls = []
    real_dlt = cg._dlt

    def spy(points, counts):
        calls.append(counts.tolist())
        return real_dlt(points, counts)

    monkeypatch.setattr(cg, "_dlt", spy)
    cg.fit_homographies(together)
    assert calls == [[88, 88, 88, 88, 50]]
    monkeypatch.undo()
    assert fit_outcome(together[0]) == fit_outcome(unfitted(full))


def test_decomposition_takes_one_camera_per_homography():
    # Each homography decomposed with its own camera is, to the bit, the
    # stack decomposed with that one camera, also for empty stacks; a
    # count that is neither one nor one per homography is refused.
    cameras = [scene(seed=0)[0].intrinsics, TRUE_K]
    stacks = [np.array([cg.estimate_homography(xy, uv)
                        for xy, uv in image_points(dropped_points_scene(seed))])
              for seed in (3, 4)]
    for case in (stacks, [np.zeros((0, 3, 3))] * 2):
        together = cg.decompose_homography(
            np.concatenate(case), [k for k, H in zip(cameras, case) for _ in H])
        parts = [cg.decompose_homography(H, k) for H, k in zip(case, cameras)]
        for mine, theirs in zip(together, zip(*parts)):
            assert mine.shape == np.concatenate(theirs).shape
            assert mine.tobytes() == np.concatenate(theirs).tobytes()
    assert [part.shape for part in together] == [(0, 3, 3), (0, 3), (0,)]
    with pytest.raises(ValueError, match="^intrinsics must be one camera or one per "
                                         "homography, got 2 for 15 homographies$"):
        cg.decompose_homography(stacks[0], cameras)


def test_stacked_runs_the_live_items_of_a_key_in_even_groups():
    # Items that already failed are their own outcomes and never reach the
    # solve; the live items of one key run in order in the fewest even
    # groups of at most 8, and every outcome goes back to its item's place.
    def run(items):
        groups = []

        def solve(group):
            groups.append(group)
            return [("solved", item) for item in group]
        return cg.stacked(items, lambda item: item[0], solve), groups

    for count, sizes in ((10, [5, 5]), (17, [6, 6, 5])):
        live = [("a", k) for k in range(count)]
        failed = [errors.NoRealRoot(f"failed {k}") for k in range(3)]
        items = failed[:1] + live[:4] + failed[1:] + live[4:]
        outcomes, groups = run(items)
        assert [len(group) for group in groups] == sizes
        assert [item for group in groups for item in group] == live
        assert all(outcome is item for outcome, item in zip(outcomes, items)
                   if isinstance(item, Exception))
        assert outcomes == [item if isinstance(item, Exception) else ("solved", item)
                            for item in items]
    interleaved = [(key, k) for k in range(6) for key in "ab"]
    outcomes, groups = run(interleaved)
    assert groups == [interleaved[0::2], interleaved[1::2]]
    assert outcomes == [("solved", item) for item in interleaved]
    # The outcome of one call: its value or the CalibrationError it raised,
    # which `raised` raises again; any other exception goes out.
    assert errors.attempt(divmod, 7, 2) == (3, 1) == errors.raised((3, 1))
    failure = errors.attempt(errors.raised, errors.NoRealRoot("no root"))
    assert isinstance(failure, errors.NoRealRoot)
    with pytest.raises(ValueError, match="invalid literal"):
        errors.attempt(int, "seven")
    for outcome in (failure, ValueError("bad"), KeyError("key")):
        with pytest.raises(type(outcome)):
            errors.raised(outcome)


def reference_decomposition(H, intr):
    """decompose_homography computed for one image on its own."""
    M = intr.inverse @ H
    lam = 0.5 * (np.linalg.norm(M[:, 0]) + np.linalg.norm(M[:, 1]))
    r1, r2, t = M[:, 0] / lam, M[:, 1] / lam, M[:, 2] / lam
    if t[2] < 0:
        r1, r2, t = -r1, -r2, -t
    R = cg.nearest_rotation(np.column_stack([r1, r2, np.cross(r1, r2)]))
    return cg.checked_rotations(R[None])[0], t, lam


def test_batched_decomposition_matches_per_image_decomposition():
    for seed in range(20):
        config, _, _ = scene(seed=seed)
        obs = dropped_points_scene(seed)
        raw = np.array([cg.estimate_homography(xy, uv) for xy, uv in image_points(obs)])
        rotations, t, lam = cg.decompose_homography(raw, config.intrinsics)
        for k, H in enumerate(raw):
            R_ref, t_ref, lam_ref = reference_decomposition(H, config.intrinsics)
            assert np.max(np.abs(rotations[k] - R_ref)) <= 1e-12
            assert relative_difference(t[k], t_ref) <= 1e-12
            assert abs(lam[k] - lam_ref) <= 1e-12 * lam_ref


# ---------------------------------------------------------------------------
# angular distance
# ---------------------------------------------------------------------------

def test_angular_distance_basics():
    assert angular_distance([1, 0, 0], [0, 1, 0]) == pytest.approx(np.pi / 2)
    assert angular_distance([1, 0, 0], [1, 0, 0]) == 0.0
    with pytest.raises(ValueError):
        angular_distance([0, 0, 0], [1, 0, 0])


def test_orthogonal_point_triplet_right_angles():
    # Three points on the plane z = r subtending pairwise right angles from the origin.
    r = 1.0
    A = np.array([np.sqrt(2.0) * r, 0.0, r])
    B = np.array([-np.sqrt(2.0) / 2 * r, np.sqrt(6.0) / 2 * r, r])
    C = np.array([-np.sqrt(2.0) / 2 * r, -np.sqrt(6.0) / 2 * r, r])
    for u, v in ((A, B), (A, C), (B, C)):
        assert angular_distance(u, v) == pytest.approx(np.pi / 2, abs=1e-12)


def test_angle_invariance_under_rotation():
    rng = np.random.default_rng(8)
    for _ in range(100):
        Q = random_rotation(rng)
        v1 = rng.normal(size=3)
        v2 = rng.normal(size=3)
        a = angular_distance(v1, v2)
        b = angular_distance(Q @ v1, Q @ v2)
        assert abs(a - b) < 1e-12
