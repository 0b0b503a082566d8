import numpy as np
import pytest

from collimcal import errors, synth
from collimcal import single_calib as sc
from collimcal.core_geom import (
    CameraIntrinsics,
    Distortion,
    axis_angle_from_rotation_matrix,
    back_project,
)
from collimcal.refine import LMState, single_image_problem
from conftest import angular_distance, rotation_from_axis_angle

REF_K = CameraIntrinsics(fx=1200.0, fy=1180.0, cx=700.0, cy=500.0, gamma=0.0)
CAL_K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=542.0, cy=478.0, gamma=0.01)


def reference_database(seed=5, ref_distortion=Distortion(0.0, 0.0)):
    cfg = synth.default_config(intrinsics=REF_K, image_size=(1400, 1000),
                                     image_count=1, distortion=ref_distortion)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    (R, _), obs = synth.make_scene(cfg, rng)
    db = sc.build_ray_database(obs.ids, obs.uv,
                               REF_K, ref_distortion)
    return db, R[0]


def calibration_image(seed=6, trial=0, distortion=Distortion(0.0, 0.0), noise=0.0,
                      intrinsics=CAL_K):
    cfg = synth.default_config(intrinsics=intrinsics, image_count=1,
                                     distortion=distortion, pixel_noise_sigma=noise)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
    (R, _), obs = synth.make_scene(cfg, rng)
    return obs, R[0]


def geodesic_angle(Ra, Rb):
    """Rotation angle between two rotation matrices; exact for tiny angles."""
    return float(np.linalg.norm(axis_angle_from_rotation_matrix(Ra.T @ Rb)))


def random_unit_rays(rng, count, spread=0.25):
    rays = rng.normal(size=(count, 3)) * np.array([spread, spread, 0.0])
    rays[:, 2] = 1.0
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# ray database
# ---------------------------------------------------------------------------

def test_database_principal_point_is_axis():
    ids = np.arange(8)
    pixels = np.tile([REF_K.cx, REF_K.cy], (8, 1))
    pixels[1:] += np.arange(1, 8)[:, None] * 10.0
    db = sc.build_ray_database(ids, pixels, REF_K, Distortion())
    assert np.allclose(db.rays[0], [0.0, 0.0, 1.0], atol=1e-12)


def test_database_angles_match_scene_geometry():
    # Pairwise database angles equal the target points' angular separation
    # seen from the reference camera.
    db, ref_rot = reference_database()
    cfg = synth.default_config()
    target = cfg.target.planar_target()
    points = np.column_stack([target.xy, np.zeros(len(target.ids))]) - cfg.t_cp
    cam_points = points @ ref_rot.T
    rng = np.random.default_rng(0)
    for _ in range(200):
        i, j = rng.choice(len(db), size=2, replace=False)
        expected = angular_distance(cam_points[i], cam_points[j])
        got = angular_distance(db.rays[i], db.rays[j])
        assert abs(expected - got) < 1e-10


def test_database_rejects_duplicates_and_tampering():
    ids = np.array([0, 1, 2, 3, 4, 5, 6, 6])
    with pytest.raises(ValueError):
        sc.build_ray_database(ids, np.random.default_rng(0).uniform(0, 900, (8, 2)),
                              REF_K, Distortion())
    db, _ = reference_database()
    with pytest.raises(ValueError):
        sc.RayDatabase(ids=db.ids, rays=db.rays * 1.001,
                       ref_intrinsics=REF_K, ref_distortion=Distortion())
    rays = db.rays.copy()
    rays[0] = np.nan
    with pytest.raises(ValueError):
        sc.RayDatabase(ids=db.ids, rays=rays,
                       ref_intrinsics=REF_K, ref_distortion=Distortion())
    for ids in ([0.5, 1.5], [True, 2]):
        with pytest.raises(ValueError, match=r"^database point ids must be integers"):
            sc.RayDatabase(ids=ids, rays=db.rays[:2],
                           ref_intrinsics=REF_K, ref_distortion=Distortion())


# ---------------------------------------------------------------------------
# quartic focal initialization
# ---------------------------------------------------------------------------

def test_quartic_exact_recovery_centered_prior():
    # Ground truth honours every prior: f = 1000, c at the image center.
    rng = np.random.default_rng(2)
    rays = random_unit_rays(rng, 40)
    K = CameraIntrinsics(1000.0, 1000.0, 540.0, 480.0, 0.0)
    Q = rotation_from_axis_angle([0.1, -0.05, 0.2])
    cal = rays @ Q.T
    ph = cal / cal[:, 2:3]
    uv = ph[:, :2] * 1000.0 + np.array([540.0, 480.0])
    start = sc.init_focal_quartic(uv, sc.select_pairs(rays), (1080, 960))
    assert start == CameraIntrinsics(start.fx, start.fx, 540.0, 480.0, 0.0)
    assert abs(start.fx - 1000.0) / 1000.0 < 1e-6


def test_quartic_start_camera_sits_at_the_image_center():
    # The start camera is (f, f, w/2, h/2, 0); an odd size puts the center
    # on a half pixel.
    rays, uv, _ = full_intrinsics_setup(np.random.default_rng(7))
    start = sc.init_focal_quartic(uv, sc.select_pairs(rays), np.array([1081, 961]))
    assert (start.fy, start.cx, start.cy, start.gamma) == (start.fx, 540.5, 480.5, 0.0)


def quartic_coefficients(uv, center, pairs):
    """(a2, a1, a0) of the summed quadratic in t = 1/f^2 of `init_focal_quartic`."""
    i, j, g = pairs
    m = uv - center
    alpha = np.sum(m[i] * m[j], axis=1)
    bi, bj = np.sum(m[i] ** 2, axis=1), np.sum(m[j] ** 2, axis=1)
    return np.array([np.sum(alpha ** 2 - g ** 2 * bi * bj),
                     np.sum(2 * alpha - g ** 2 * (bi + bj)), np.sum(1 - g ** 2)])


def test_quartic_polynomial_root_residual():
    # The assembled quadratic in (1/f)^2 vanishes at the true value.
    rng = np.random.default_rng(3)
    rays = random_unit_rays(rng, 30)
    cal = rays @ rotation_from_axis_angle([0.0, 0.1, -0.07]).T
    uv = (cal / cal[:, 2:3])[:, :2] * 1000.0 + np.array([540.0, 480.0])
    coeffs = quartic_coefficients(uv, np.array([540.0, 480.0]), sc.select_pairs(rays))
    coeffs /= np.abs(coeffs).max()
    assert abs(np.polyval(coeffs, 1.0 / 1000.0 ** 2)) < 1e-12


def test_quartic_picks_the_root_with_the_smaller_cosine_residual():
    # Pixels unrelated to the rays give the quadratic two positive roots;
    # the start camera takes the one whose cosines fit the pair table better.
    rng = np.random.default_rng(0)
    rays = rng.normal(size=(10, 3))
    rays[:, 2] = np.abs(rays[:, 2]) * rng.uniform(0.1, 3.0)
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    uv = rng.uniform(0.0, 1000.0, size=(10, 2))
    pairs = sc.select_pairs(rays)
    roots = np.roots(quartic_coefficients(uv, 500.0, pairs))
    assert np.isreal(roots).all() and (roots.real > 0).all()
    residual = sc._cosine_model(uv, pairs)[0]
    costs = {f: np.sum(residual(LMState(np.array([f, f, 500.0, 500.0, 0.0]))) ** 2)
             for f in 1.0 / np.sqrt(roots.real)}
    best, worst = sorted(costs, key=costs.get)
    assert costs[best] < 0.8 * costs[worst]
    start = sc.init_focal_quartic(uv, pairs, (1000, 1000))
    assert start.fx == pytest.approx(best, rel=1e-9)
    assert start == CameraIntrinsics(start.fx, start.fx, 500.0, 500.0, 0.0)


@pytest.mark.parametrize("unit", [1.0, 1e-3], ids=["pixels", "kilopixels"])
@pytest.mark.parametrize("focal, other", [(250.0, 569.4), (600.0, 225.6)],
                         ids=["second-root", "first-root"])
def test_quartic_takes_the_one_of_two_positive_roots_that_fits(focal, other, unit):
    # The four corner pixels of a wide-angle camera on a 1000 x 1000 image:
    # the quadratic has a2 > 0, a1 < 0 and two positive roots.  The true t,
    # whose cosines fit exactly, is the larger one, (-a1 + sqrt(disc)) /
    # (2 a2), at f = 250 px and the smaller one at f = 600 px.  In units of
    # 1000 px the largest coefficient, which scales the quadratic, is a0
    # instead of a2; the roots must not change.
    uv = unit * np.array([[100.0, 100.0], [900.0, 100.0], [100.0, 900.0], [900.0, 900.0]])
    f, c = focal * unit, 500.0 * unit
    pairs = sc.select_pairs(back_project(CameraIntrinsics(f, f, c, c), Distortion(), uv))
    a2, a1, a0 = quartic_coefficients(uv, c, pairs)
    assert a2 > 0 and a1 < 0
    roots = np.roots([a2, a1, a0])
    assert np.isreal(roots).all()
    assert sorted(1.0 / np.sqrt(roots.real) / unit) == pytest.approx(sorted([focal, other]),
                                                                     rel=1e-3)
    start = sc.init_focal_quartic(uv, pairs, (round(1000 * unit),) * 2)
    assert start == CameraIntrinsics(start.fx, start.fx, c, c, 0.0)
    assert start.fx == pytest.approx(f, rel=1e-9)


def test_quartic_without_a_square_term_takes_the_linear_root():
    # One pair whose g is the cosine of its two pixels' directions from the
    # image center, (3, 4) and (100, 0): alpha^2 = g^2 beta_i beta_j, so a2
    # vanishes and the quadratic is the line a1 t + a0 with a1 = 600 - 0.36 *
    # 10025 and a0 = 0.64.  Its root gives rays whose cosine is g.
    uv = np.array([[503.0, 504.0], [600.0, 500.0]])
    pairs = (np.array([0]), np.array([1]), np.array([0.6]))
    a2, a1, a0 = quartic_coefficients(uv, 500.0, pairs)
    assert abs(a2) < 1e-14 * max(abs(a1), abs(a0))
    start = sc.init_focal_quartic(uv, pairs, (1000, 1000))
    assert start == CameraIntrinsics(start.fx, start.fx, 500.0, 500.0, 0.0)
    assert start.fx == pytest.approx(np.sqrt(3009.0 / 0.64), rel=1e-12)
    rays = back_project(start, Distortion(), uv)
    assert rays[0] @ rays[1] == pytest.approx(0.6, rel=1e-12)


def test_quartic_parallel_rays_have_no_focal_length():
    # Pairs of parallel rays (g = 1) make a0 = 0, so one root is t = 0,
    # an infinite focal length, and the other is negative.
    uv = np.array([[100.0, 100.0], [900.0, 200.0], [300.0, 800.0]])
    pairs = (np.array([0, 0, 1]), np.array([1, 2, 2]), np.ones(3))
    with pytest.raises(errors.NoRealRoot, match="no positive real focal length root"):
        sc.init_focal_quartic(uv, pairs, (1000, 1000))


def test_quartic_degenerate_rays_rejected():
    rays = np.tile([0.0, 0.0, 1.0], (10, 1))
    uv = np.tile([540.0, 480.0], (10, 1))
    with pytest.raises(errors.NoRealRoot):
        sc.init_focal_quartic(uv, sc.select_pairs(rays), (1080, 960))


def test_quartic_tolerates_off_center_principal_point():
    # True c off the assumed image center by (2, -2) px.
    rng = np.random.default_rng(4)
    rays = random_unit_rays(rng, 60)
    cal = rays @ rotation_from_axis_angle([0.05, 0.04, -0.1]).T
    ph = cal / cal[:, 2:3]
    uv = ph[:, :2] * 1000.0 + np.array([542.0, 478.0])
    f = sc.init_focal_quartic(uv, sc.select_pairs(rays), (1080, 960)).fx
    assert abs(f - 1000.0) / 1000.0 < 0.01


# ---------------------------------------------------------------------------
# angle-constraint intrinsic refinement
# ---------------------------------------------------------------------------

def full_intrinsics_setup(rng, intr=CAL_K, count=70):
    rays = random_unit_rays(rng, count)
    Q = rotation_from_axis_angle([0.08, -0.03, 0.15])
    cal = rays @ Q.T
    ph = cal / cal[:, 2:3]
    uv = (np.column_stack([ph[:, 0], ph[:, 1], np.ones(len(ph))]) @ intr.matrix.T)[:, :2]
    return rays, uv, Q


def test_angle_refinement_fixed_point():
    rays, uv, _ = full_intrinsics_setup(np.random.default_rng(5))
    out = sc.refine_intrinsics_angle(uv, sc.select_pairs(rays), CAL_K)
    assert abs(out.fx - CAL_K.fx) < 1e-6
    assert abs(out.gamma - CAL_K.gamma) < 1e-8


def test_angle_refinement_from_quartic_prior():
    rays, uv, _ = full_intrinsics_setup(np.random.default_rng(6))
    pairs = sc.select_pairs(rays)
    start = sc.init_focal_quartic(uv, pairs, (1080, 960))
    out = sc.refine_intrinsics_angle(uv, pairs, start)
    assert abs(out.fx - 1000.0) / 1000.0 < 1e-3
    assert abs(out.fy - 1000.0) / 1000.0 < 1e-3
    assert np.hypot(out.cx - 542.0, out.cy - 478.0) < 0.5


def test_angle_invariance_residual_after_refinement():
    rays, uv, _ = full_intrinsics_setup(np.random.default_rng(8))
    i, j, g = sc.select_pairs(rays)
    out = sc.refine_intrinsics_angle(
        uv, (i, j, g), CameraIntrinsics(980.0, 1020.0, 540.0, 480.0, 0.0))
    ph = np.column_stack([uv, np.ones(len(uv))])
    q = ph @ out.inverse.T
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    resid = np.sum(q[i] * q[j], axis=1) - g
    assert np.sqrt(np.mean(resid ** 2)) < 1e-8


def test_pair_subsampling_strategy_robustness():
    # All-pairs versus star-pairs changes the recovered focal by < 0.05%.
    rays, uv, _ = full_intrinsics_setup(np.random.default_rng(9))
    start = CameraIntrinsics(990.0, 990.0, 540.0, 480.0, 0.0)
    full = sc.refine_intrinsics_angle(uv, sc.select_pairs(rays), start)
    original = sc.MAX_EXHAUSTIVE_PAIR_POINTS
    sc.MAX_EXHAUSTIVE_PAIR_POINTS = 10  # force the subsampled path
    try:
        sub = sc.refine_intrinsics_angle(uv, sc.select_pairs(rays), start)
    finally:
        sc.MAX_EXHAUSTIVE_PAIR_POINTS = original
    assert abs(full.fx - sub.fx) / full.fx < 5e-4
    assert abs(full.fy - sub.fy) / full.fy < 5e-4


@pytest.mark.parametrize("start_focal", [5000.0, 20000.0])
def test_angle_refinement_rejects_steps_to_a_non_positive_focal(start_focal):
    # From far above the truth the first LM steps overshoot below f = 0; each
    # such trial point must count as a rejected step, not abort the refinement.
    K = CameraIntrinsics(1000.0, 1000.0, 540.0, 480.0, 0.0)
    rays, uv, _ = full_intrinsics_setup(np.random.default_rng(12), intr=K, count=88)
    uv = uv + np.random.default_rng(13).normal(scale=0.5, size=uv.shape)
    start = CameraIntrinsics(start_focal, start_focal, 540.0, 480.0, 0.0)
    out = sc.refine_intrinsics_angle(uv, sc.select_pairs(rays), start)
    assert abs(out.fx - 1000.0) / 1000.0 < 1e-2
    assert abs(out.fy - 1000.0) / 1000.0 < 1e-2


@pytest.mark.parametrize("count", [90, 160], ids=["exhaustive", "subsampled"])
def test_cosine_jacobian_matches_central_differences(count):
    # The closed-form derivatives of the pairwise cosines against central
    # differences, with skew and an off-center principal point, on both
    # kinds of pair table, away from the optimum.
    K = CameraIntrinsics(1010.0, 985.0, 561.0, 452.0, 2.5)
    rays, uv, _ = full_intrinsics_setup(np.random.default_rng(count), intr=K, count=count)
    pairs = sc.select_pairs(rays)
    exhaustive = len(pairs[0]) == count * (count - 1) // 2
    assert exhaustive == (count <= sc.MAX_EXHAUSTIVE_PAIR_POINTS)
    residual, jacobian, plus = sc._cosine_model(uv, pairs)
    state = LMState(np.array([1040.0, 960.0, 548.0, 470.0, -1.5]))
    block = jacobian(state)
    assert block.block.shape[0] == 1 and block.stride == 0
    J = block.toarray()
    h = 1e-2  # pixels, for every parameter
    J_fd = np.column_stack([(residual(plus(state, e)) - residual(plus(state, -e))) / (2.0 * h)
                            for e in np.eye(5) * h])
    assert J.shape == (len(pairs[2]), 5)
    deviation = np.max(np.abs(J - J_fd), axis=0) / np.max(np.abs(J), axis=0)
    assert np.all(deviation < 1e-6), deviation


def reference_pairs(count):
    """The offset rule's pairs: (a, (a + o) mod count) for each point a and offset o."""
    k = sc.SUBSAMPLED_PARTNERS
    offsets = [m * count // (2 * k + 1) for m in range(1, k + 1)]
    return [(a, (a + o) % count) for a in range(count) for o in offsets]


@pytest.mark.parametrize("count", [121, 200, 500])
def test_subsampled_pairs_match_the_offset_reference(count):
    # 30 partners a point, no random draw, and every unordered pair once.
    rays = random_unit_rays(np.random.default_rng(count), count)
    i, j, g = sc.select_pairs(rays)
    pairs = list(zip(i.tolist(), j.tolist()))
    assert i.dtype.kind == j.dtype.kind == "i"
    assert pairs == reference_pairs(count)
    assert len({frozenset(pair) for pair in pairs}) == sc.SUBSAMPLED_PARTNERS * count
    assert (i != j).all()
    assert np.allclose(g, [rays[a] @ rays[b] for a, b in pairs], rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# Kabsch rotation
# ---------------------------------------------------------------------------

def test_kabsch_identity():
    rays = random_unit_rays(np.random.default_rng(10), 20)
    R = sc.estimate_rotation_kabsch(rays, rays)
    assert np.allclose(R, np.eye(3), atol=1e-12)


def test_kabsch_random_rotations():
    rng = np.random.default_rng(11)
    for _ in range(100):
        rays = random_unit_rays(rng, 15)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        Q = rotation_from_axis_angle(axis * rng.uniform(0, np.pi * 0.9))
        R = sc.estimate_rotation_kabsch(rays @ Q.T, rays)
        assert geodesic_angle(R, Q) < 1e-10


def test_kabsch_reflection_guard():
    # A planar bundle with noise pushing toward a reflection still returns
    # a proper rotation.
    rng = np.random.default_rng(12)
    flat = rng.normal(size=(10, 3))
    flat[:, 2] = 1.0  # all rays in a plane after centering? keep near-planar
    flat[:, 1] *= 1e-6
    flat /= np.linalg.norm(flat, axis=1, keepdims=True)
    Q = rotation_from_axis_angle([0.3, -0.2, 0.5])
    noisy = flat @ Q.T + rng.normal(size=flat.shape) * 1e-4
    R = sc.estimate_rotation_kabsch(noisy, flat)
    assert abs(np.linalg.det(R) - 1.0) < 1e-12


def test_kabsch_degenerate_collinear():
    rays = np.tile([0.0, 0.0, 1.0], (5, 1))
    with pytest.raises(errors.DegenerateConfiguration):
        sc.estimate_rotation_kabsch(rays, rays)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("argument", ["calib_rays", "db_rays"])
def test_kabsch_refuses_non_finite_rays_by_name(argument, bad):
    # Refused before the SVD, whose LinAlgError names no argument.
    rays = {"calib_rays": random_unit_rays(np.random.default_rng(13), 10),
            "db_rays": random_unit_rays(np.random.default_rng(14), 10)}
    rays[argument][3, 1] = bad
    with pytest.raises(ValueError, match=f"^{argument} must be finite$"):
        sc.estimate_rotation_kabsch(**rays)


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

def test_pipeline_noiseless_exact():
    db, ref_rot = reference_database()
    image, cal_rot = calibration_image()
    res = sc.calibrate_single_image(image.ids, image.uv, db, image_size=(1080, 960))
    assert abs(res.intrinsics.fx - CAL_K.fx) / CAL_K.fx < 1e-6
    assert abs(res.intrinsics.fy - CAL_K.fy) / CAL_K.fy < 1e-6
    assert abs(res.intrinsics.cx - CAL_K.cx) < 1e-3
    R_true = cal_rot @ ref_rot.T
    assert geodesic_angle(res.rotation, R_true) < 1e-8


def test_pipeline_rotation_matches_relative_pose_invariance():
    # Re-orienting the calibration camera changes R but not K.
    db, _ = reference_database()
    results = []
    for trial in (0, 1, 2):
        image, _ = calibration_image(seed=60, trial=trial)
        results.append(sc.calibrate_single_image(image.ids, image.uv, db,
                                                 image_size=(1080, 960)))
    fx = [r.intrinsics.fx for r in results]
    assert max(fx) - min(fx) < 1e-6 * 1000.0
    angles = [axis_angle_from_rotation_matrix(r.rotation) for r in results]
    assert np.linalg.norm(angles[0] - angles[1]) > 1e-3  # genuinely different poses


def test_pipeline_database_reusable_across_cameras():
    db, _ = reference_database()
    other_K = CameraIntrinsics(800.0, 805.0, 530.0, 470.0, 0.0)
    image_a, _ = calibration_image(seed=61)
    image_b, _ = calibration_image(seed=62, intrinsics=other_K)
    res_a = sc.calibrate_single_image(image_a.ids, image_a.uv, db, image_size=(1080, 960))
    res_b = sc.calibrate_single_image(image_b.ids, image_b.uv, db, image_size=(1080, 960))
    assert abs(res_a.intrinsics.fx - 1000.0) / 1000.0 < 1e-6
    assert abs(res_b.intrinsics.fx - 800.0) / 800.0 < 1e-6


def test_pipeline_distorted_noisy_statistics():
    # True distortion (0.1, -0.2) and 0.5 px noise; the final joint stage
    # must hold focal error under 1% with the reprojection at the noise level.
    db, _ = reference_database()
    focal_errors, rms = [], []
    for trial in range(8):
        image, _ = calibration_image(seed=63, trial=trial,
                                     distortion=Distortion(0.1, -0.2), noise=0.5)
        res = sc.calibrate_single_image(image.ids, image.uv, db, image_size=(1080, 960))
        focal_errors.append(abs(res.intrinsics.fx - 1000.0) / 1000.0)
        rms.append(res.report.rms_reprojection)
    assert np.mean(focal_errors) < 0.01
    assert 0.3 < np.mean(rms) < 0.7


def test_pipeline_selects_the_pairs_once(monkeypatch):
    # Both angle stages read the one pair table the pipeline builds.
    calls = []
    select_pairs = sc.select_pairs
    monkeypatch.setattr(sc, "select_pairs", lambda *args: calls.append(args)
                        or select_pairs(*args))
    db, _ = reference_database()
    image, _ = calibration_image()
    sc.calibrate_single_image(image.ids, image.uv, db, image_size=(1080, 960))
    assert len(calls) == 1


def test_pipeline_without_refinement_reports_the_start_point():
    db, _ = reference_database()
    image, _ = calibration_image(distortion=Distortion(0.1, -0.2), noise=0.5)
    res = sc.calibrate_single_image(image.ids, image.uv, db, image_size=(1080, 960),
                                    refine_distortion=False)
    report = res.report
    assert report.termination == "not_run" and not report.converged
    assert report.iterations_used == 0 and report.cost_trajectory == ()
    assert res.distortion == Distortion(0.0, 0.0)
    assert report.per_image_rms == (report.rms_reprojection,)
    db_idx, obs_idx = db.match(image.ids)
    residual, _, _, x0, _, _ = single_image_problem(
        db.rays[db_idx], image.uv[obs_idx], (res.intrinsics, Distortion(), res.rotation))
    r = residual(x0)
    assert report.rms_reprojection == pytest.approx(np.sqrt(np.mean(r * r)), rel=1e-12)
    assert report.rms_reprojection > 0.5  # the unmodelled distortion shows


BAD_IDS = {"float": lambda ids: list(ids + 0.3),
           "bool": lambda ids: [bool(k % 2) for k in ids],
           "string": lambda ids: [str(k) for k in ids]}


@pytest.mark.parametrize("kind", sorted(BAD_IDS))
@pytest.mark.parametrize("entry", ["build_ray_database", "calibrate_single_image"])
def test_single_image_entry_points_refuse_non_integer_ids(entry, kind):
    db, _ = reference_database()
    image, _ = calibration_image()
    ids = BAD_IDS[kind](image.ids)
    field = "reference" if entry == "build_ray_database" else "calibration"
    with pytest.raises(ValueError, match=f"^{field} point ids must be integers"):
        if entry == "build_ray_database":
            sc.build_ray_database(ids, image.uv, REF_K, Distortion())
        else:
            sc.calibrate_single_image(ids, image.uv, db, image_size=(1080, 960))


def test_pipeline_requires_eight_matches():
    db, _ = reference_database()
    image, _ = calibration_image()
    with pytest.raises(ValueError):
        sc.calibrate_single_image(image.ids[:7], image.uv[:7], db, image_size=(1080, 960))


def reference_match(db_ids, ids):
    """RayDatabase.match through a dict, one observed id at a time."""
    position = {int(pid): k for k, pid in enumerate(db_ids)}
    pairs = [(position[int(pid)], k) for k, pid in enumerate(ids) if int(pid) in position]
    return (np.array([db for db, _ in pairs], dtype=int),
            np.array([k for _, k in pairs], dtype=int))


def test_match_equals_a_dict_reference_in_the_observed_order():
    rng = np.random.default_rng(12)
    db_ids = rng.permutation(400)[:120] * 2  # even; the odd ids are unknown
    db = sc.RayDatabase(ids=db_ids, rays=random_unit_rays(rng, 120),
                        ref_intrinsics=REF_K, ref_distortion=Distortion())
    for _ in range(200):
        known = rng.choice(db_ids, size=rng.integers(0, 121), replace=False)
        unknown = 2 * rng.choice(500, size=rng.integers(0, 30), replace=False) + 1
        ids = rng.permutation(np.concatenate([known, unknown]))
        db_idx, obs_idx = db.match(ids)
        ref_db, ref_obs = reference_match(db_ids, ids)
        assert np.array_equal(db_idx, ref_db) and np.array_equal(obs_idx, ref_obs)
        assert np.all(np.diff(obs_idx) > 0)
        assert np.array_equal(db.ids[db_idx], ids[obs_idx])
    with pytest.raises(ValueError, match="unique"):
        db.match([db_ids[0], 7, db_ids[0]])
    with pytest.raises(ValueError, match="^matched point ids must be integers"):
        db.match([db_ids[0] + 0.5, 7])
    empty = sc.RayDatabase(ids=np.zeros(0, dtype=int), rays=np.zeros((0, 3)),
                           ref_intrinsics=REF_K, ref_distortion=Distortion())
    assert [len(idx) for idx in empty.match([3, 1, 2])] == [0, 0]


def test_pipeline_drops_unmatched_ids():
    db, _ = reference_database()
    image, _ = calibration_image()
    ids = image.ids.copy()
    ids[:3] = [9001, 9002, 9003]  # ids absent from the database
    res = sc.calibrate_single_image(ids, image.uv, db, image_size=(1080, 960))
    assert res.n_dropped == 3
    assert res.n_matched == len(ids) - 3


@pytest.mark.parametrize("size, message", [
    ("1080", "real numbers"),
    (True, "real numbers"),
    (None, "real numbers"),
    (float("nan"), "positive integers"),
    (0, "positive integers"),
    (-1080.0, "positive integers"),
    (1080.5, "positive integers"),
    (2.0 ** 63, "positive integers"),
], ids=["string", "bool", "None", "nan", "zero", "negative", "fraction", "past-int64"])
@pytest.mark.parametrize("entry", ["init_focal_quartic", "calibrate_single_image"])
def test_single_image_entry_points_refuse_a_bad_image_size(entry, size, message):
    # Each is an input error, not a solver stage's failure, refused by the
    # one image-size rule.  The width goes bad in one entry point and the
    # height in the other.
    db, _ = reference_database()
    image, _ = calibration_image()
    with pytest.raises(ValueError, match=f"^image_size must be {message}"):
        if entry == "init_focal_quartic":
            db_idx, obs_idx = db.match(image.ids)
            sc.init_focal_quartic(image.uv[obs_idx], sc.select_pairs(db.rays[db_idx]),
                                  (size, 960))
        else:
            sc.calibrate_single_image(image.ids, image.uv, db, image_size=(1080, size))


@pytest.mark.parametrize("count", [83, 93], ids=["fewer", "more"])
def test_pipeline_refuses_ids_and_pixels_of_unequal_length(count):
    # The pixel at each position belongs to the id at that position, so with
    # unequal lengths some ids or pixels have no partner.
    db, _ = reference_database()
    image, _ = calibration_image()
    assert len(image.ids) == 88
    pixels = np.resize(image.uv, (count, 2))
    with pytest.raises(ValueError, match=rf"^calibration pixels must have shape \(88, 2\), "
                                         rf"got \({count}, 2\)$"):
        sc.calibrate_single_image(image.ids, pixels, db, image_size=(1080, 960))


@pytest.mark.parametrize("table", ["past", "negative"])
@pytest.mark.parametrize("entry", ["init_focal_quartic", "refine_intrinsics_angle"])
def test_pair_stages_refuse_a_pair_table_outside_the_pixels(entry, table):
    # The first 5 pixels with the pair table of all 88 rays used to raise
    # numpy's IndexError, which names no argument; a negative index used to
    # pick a pixel from the end.
    db, _ = reference_database()
    image, _ = calibration_image()
    db_idx, obs_idx = db.match(image.ids)
    i, j, g = sc.select_pairs(db.rays[db_idx])
    pixels = image.uv[obs_idx]
    if table == "past":
        pixels, message = pixels[:5], r"^pairs index pixels 0 to 87, but there are 5 pixels$"
    else:
        i, message = np.where(i == 3, -1, i), r"^pairs index pixels -1 to 87, but there are 88 "
    with pytest.raises(ValueError, match=message):
        if entry == "init_focal_quartic":
            sc.init_focal_quartic(pixels, (i, j, g), (1080, 960))
        else:
            sc.refine_intrinsics_angle(pixels, (i, j, g), CAL_K)
