import numpy as np
import pytest
from dataclasses import replace

from collimcal import errors, synth
from collimcal import single_calib as sc
from collimcal.core_geom import CameraIntrinsics, Distortion, axis_angle_from_rotation_matrix
from collimcal.refine import LMState
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
    f = sc.init_focal_quartic(uv, sc.select_pairs(rays), 1080, 960)
    assert abs(f - 1000.0) / 1000.0 < 1e-6


def test_quartic_polynomial_root_residual():
    # The assembled quadratic in (1/f)^2 vanishes at the true value.
    rng = np.random.default_rng(3)
    rays = random_unit_rays(rng, 30)
    cal = rays @ rotation_from_axis_angle([0.0, 0.1, -0.07]).T
    uv = (cal / cal[:, 2:3])[:, :2] * 1000.0 + np.array([540.0, 480.0])
    m = uv - np.array([540.0, 480.0])
    i, j, g = sc.select_pairs(rays)
    alpha = np.sum(m[i] * m[j], axis=1)
    bi = np.sum(m[i] ** 2, axis=1)
    bj = np.sum(m[j] ** 2, axis=1)
    coeffs = np.array([np.sum(alpha ** 2 - g ** 2 * bi * bj),
                       np.sum(2 * alpha - g ** 2 * (bi + bj)),
                       np.sum(1 - g ** 2)])
    coeffs /= np.abs(coeffs).max()
    assert abs(np.polyval(coeffs, 1.0 / 1000.0 ** 2)) < 1e-12


def test_quartic_degenerate_rays_rejected():
    rays = np.tile([0.0, 0.0, 1.0], (10, 1))
    uv = np.tile([540.0, 480.0], (10, 1))
    with pytest.raises(errors.NoRealRoot):
        sc.init_focal_quartic(uv, sc.select_pairs(rays), 1080, 960)


def test_quartic_tolerates_off_center_principal_point():
    # True c off the assumed image center by (2, -2) px.
    rng = np.random.default_rng(4)
    rays = random_unit_rays(rng, 60)
    cal = rays @ rotation_from_axis_angle([0.05, 0.04, -0.1]).T
    ph = cal / cal[:, 2:3]
    uv = ph[:, :2] * 1000.0 + np.array([542.0, 478.0])
    f = sc.init_focal_quartic(uv, sc.select_pairs(rays), 1080, 960)
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
    f0 = sc.init_focal_quartic(uv, pairs, 1080, 960)
    start = CameraIntrinsics(f0, f0, 540.0, 480.0, 0.0)
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
    J = jacobian(state)
    h = 1e-2  # pixels, for every parameter
    J_fd = np.column_stack([(residual(plus(state, e)) - residual(plus(state, -e))) / (2.0 * h)
                            for e in np.eye(5) * h])
    assert J.shape == (len(pairs[2]), 5)
    deviation = np.max(np.abs(J - J_fd), axis=0) / np.max(np.abs(J), axis=0)
    assert np.all(deviation < 1e-6), deviation


def reference_pairs(count):
    """The subsampled pairs of select_pairs, deduplicated through a dict."""
    rng = np.random.default_rng(0)
    keep = {}
    for i in range(count):
        partners = rng.choice(count - 1, size=sc.SUBSAMPLED_PARTNERS, replace=False)
        for j in (partners + (partners >= i)).tolist():
            keep[(min(i, j), max(i, j))] = None
    pairs = np.array(sorted(keep), dtype=int)
    return pairs[:, 0], pairs[:, 1]


@pytest.mark.parametrize("count", [121, 200, 500])
def test_subsampled_pairs_match_a_dict_reference(count):
    rays = random_unit_rays(np.random.default_rng(count), count)
    i, j, g = sc.select_pairs(rays)
    ref_i, ref_j = reference_pairs(count)
    assert i.dtype == ref_i.dtype and j.dtype == ref_j.dtype
    assert np.array_equal(i, ref_i) and np.array_equal(j, ref_j)
    assert np.allclose(g, [rays[a] @ rays[b] for a, b in zip(i, j)], rtol=0.0, atol=1e-15)


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


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

def test_pipeline_noiseless_exact():
    db, ref_rot = reference_database()
    image, cal_rot = calibration_image()
    res = sc.calibrate_single_image(image.ids, image.uv, db,
                                    image_width=1080, image_height=960)
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
                                                 image_width=1080, image_height=960))
    fx = [r.intrinsics.fx for r in results]
    assert max(fx) - min(fx) < 1e-6 * 1000.0
    angles = [axis_angle_from_rotation_matrix(r.rotation) for r in results]
    assert np.linalg.norm(angles[0] - angles[1]) > 1e-3  # genuinely different poses


def test_pipeline_database_reusable_across_cameras():
    db, _ = reference_database()
    other_K = CameraIntrinsics(800.0, 805.0, 530.0, 470.0, 0.0)
    image_a, _ = calibration_image(seed=61)
    image_b, _ = calibration_image(seed=62, intrinsics=other_K)
    res_a = sc.calibrate_single_image(image_a.ids, image_a.uv, db,
                                      image_width=1080, image_height=960)
    res_b = sc.calibrate_single_image(image_b.ids, image_b.uv, db,
                                      image_width=1080, image_height=960)
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
        res = sc.calibrate_single_image(image.ids, image.uv, db,
                                        image_width=1080, image_height=960)
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
    sc.calibrate_single_image(image.ids, image.uv, db, image_width=1080, image_height=960)
    assert len(calls) == 1


def test_pipeline_requires_eight_matches():
    db, _ = reference_database()
    image, _ = calibration_image()
    with pytest.raises(ValueError):
        sc.calibrate_single_image(image.ids[:7], image.uv[:7], db,
                                  image_width=1080, image_height=960)


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


def test_pipeline_drops_unmatched_ids():
    db, _ = reference_database()
    image, _ = calibration_image()
    ids = image.ids.copy()
    ids[:3] = [9001, 9002, 9003]  # ids absent from the database
    res = sc.calibrate_single_image(ids, image.uv, db,
                                    image_width=1080, image_height=960)
    assert res.n_dropped == 3
    assert res.n_matched == len(ids) - 3
