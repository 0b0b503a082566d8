import numpy as np
import pytest

from collimcal import core_geom as cg
from collimcal import errors, fileio
from conftest import (
    angular_distance,
    first_images,
    homography_from_pose,
    identity_rotation,
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
    with pytest.raises(ValueError, match=r"\(N, 3, 3\) stack"):
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
    # A stack with an angle below 1e-12 rad takes the series branch for the
    # whole stack, and one without takes the plain formula; either way each
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
    assert np.allclose(t.xy_for([1, 3]), [[1, 0], [0, 0]])
    # int() would have truncated these to the distinct ids 0..3.
    for ids in ([0.5, 1.5, 2.5, 3.5], [True, False, 2, 3], np.array([0.0, 1.0, 2.0, 3.0])):
        with pytest.raises(ValueError, match=r"^target point ids must be integers"):
            cg.PlanarTarget(ids=ids, xy=t.xy)


def test_xy_for_looks_up_every_id_at_once():
    rng = np.random.default_rng(23)
    ids = rng.permutation(200)[:88] * 3
    t = cg.PlanarTarget(ids=ids, xy=rng.normal(size=(88, 2)))
    query = rng.choice(ids, size=300)
    row = {pid: k for k, pid in enumerate(ids.tolist())}
    assert np.array_equal(t.xy_for(query), t.xy[[row[q] for q in query.tolist()]])
    for unknown in (ids.max() + 1, ids.min() - 1, 1):
        with pytest.raises(KeyError):
            t.xy_for(np.append(query, unknown))
    with pytest.raises(ValueError, match=r"^point ids must be integers"):
        t.xy_for(query + 0.5)


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
    with pytest.raises(ValueError, match=r"^counts add up to 5 points, but there are 4 ids "):
        cg.ObservationSet(target, [0, 1, 2, 3], zeros, [5])
    # Truncated, each of these would have made a valid set.
    for ids, counts, name in (([0.7, 1.2, 2, 3], [4], "ids"), ([0, True, 2, 3], [4], "ids"),
                              (["0", "1", "2", "3"], [4], "ids"),
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
        assert np.array_equal(subset.xy, subset.target.xy_for(subset.ids))
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
    (ids, pixels), row = split_images(obs)[0], np.arange(11)  # the grid's first row
    with pytest.raises(errors.DegenerateConfiguration):
        cg.estimate_homography(obs.target.xy_for(ids)[row], pixels[row])
    with pytest.raises(ValueError):
        cg.estimate_homography(xy[:3], uv[:3])


def reference_homography(xy, uv):
    """Normalized DLT through the SVD of a design matrix built point by point.

    The SVD is the full one, so that four points (eight rows) keep the null vector.
    """
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
    _, _, Vt = np.linalg.svd(np.array(rows))
    H = np.linalg.inv(Tu) @ Vt[-1].reshape(3, 3) @ Tx
    H *= np.sqrt(3.0) / np.linalg.norm(H)
    return H if H[2, 2] > 0 else -H


@pytest.mark.parametrize("count", [4, 5, 20, 88])
def test_homography_matches_the_design_matrix_null_vector(count):
    # The DLT takes the SVD of the design matrix's R factor; its null vector
    # is the one of the design matrix itself.
    _, _, obs = scene(seed=4, pixel_noise_sigma=1.0)
    ids, uv = split_images(obs)[0]
    assert len(ids) == 88
    xy = obs.target.xy_for(ids)
    rows = {4: [0, 10, 77, 87], 5: [0, 10, 40, 77, 87]}.get(
        count, np.random.default_rng(count).choice(88, count, replace=False))
    H = cg.estimate_homography(xy[rows], uv[rows])
    assert relative_difference(H, reference_homography(xy[rows], uv[rows])) <= 1e-12


def test_decompose_recovers_exact_pose():
    t = np.array([0.0, 0.0, 700.0])
    H = homography_from_pose(TRUE_K, identity_rotation(), t)
    (R,), (t_out,), (lam,) = cg.decompose_homography(H[None], TRUE_K)
    assert np.allclose(R, np.eye(3), atol=1e-10)
    assert np.allclose(t_out, t, atol=1e-9 * 700.0)
    assert lam > 0


def test_decompose_takes_only_a_stack():
    H = homography_from_pose(TRUE_K, identity_rotation(), np.array([0.0, 0.0, 700.0]))
    with pytest.raises(ValueError, match=r"\(N, 3, 3\) stack"):
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
        for k, (ids, uv) in enumerate(split_images(obs)):
            xy = obs.target.xy_for(ids)
            counts.add(len(uv))
            alone = cg.estimate_homography((xy - fit.target_shift) / fit.target_scale,
                                           (uv - fit.pixel_shift) / fit.pixel_scale)
            assert relative_difference(fit.matrices[k], alone) <= 1e-12
    assert len(counts) > 50  # the stack pads images of many different sizes


def test_raw_homographies_from_the_frame_match_raw_fits():
    for seed in range(20):
        obs = dropped_points_scene(seed)
        fit = obs.homography_fit
        raws = fit.homographies_to_raw(fit.matrices)
        ends = np.cumsum(obs.counts)
        for raw, lo, hi in zip(raws, ends - obs.counts, ends):
            direct = cg.estimate_homography(obs.xy[lo:hi], obs.uv[lo:hi])
            assert relative_difference(raw, direct) <= 1e-9


def test_rank_deficient_homography_in_a_stack_names_the_image():
    fit = dropped_points_scene(0).homography_fit
    H = fit.matrices[:4].copy()
    H[2] = np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
    with pytest.raises(errors.DegenerateConfiguration, match="image 2: homography is rank deficient"):
        fit.homographies_to_raw(H)


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
        fit = dropped_points_scene(seed).homography_fit
        raw = fit.homographies_to_raw(fit.matrices)
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
