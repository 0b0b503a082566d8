import numpy as np
import pytest

from collimcal import errors, synth
from collimcal.core_geom import (
    CameraIntrinsics,
    Distortion,
    back_project,
    project,
)
from conftest import (
    angular_distance,
    motion_matrix,
    rotation_from_axis_angle,
    scene,
    split_images,
)


def pose_rng(seed=0, trial=0):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_default_protocol_constants():
    cfg = synth.default_config()
    assert (cfg.intrinsics.fx, cfg.intrinsics.fy) == (1000.0, 1000.0)
    assert (cfg.intrinsics.cx, cfg.intrinsics.cy) == (542.0, 478.0)
    assert cfg.intrinsics.gamma == 0.01
    assert cfg.image_size == (1080, 960)
    assert cfg.target.rows * cfg.target.cols == 88
    assert cfg.target.spacing == 30.0
    assert np.allclose(cfg.t_cp, [150.0, 105.0, -700.0])


def test_config_validation():
    with pytest.raises(ValueError):
        synth.default_config(radius=-1.0)
    with pytest.raises(ValueError):
        synth.default_config(pixel_noise_sigma=-0.1)
    with pytest.raises(ValueError):
        # non-monotone forward distortion within this camera's field of view
        synth.default_config(distortion=Distortion(-0.9, 0.0))


def test_grid_target_layout():
    grid = synth.TargetGrid(rows=2, cols=3, spacing=10.0)
    target = grid.planar_target()
    assert np.allclose(target.xy[:3], [[0, 0], [10, 0], [20, 0]])
    assert np.allclose(target.xy[3:], [[0, 10], [10, 10], [20, 10]])


def test_scenes_share_one_read_only_target_per_grid():
    cfg = synth.default_config()
    _, a = synth.make_scene(cfg, pose_rng(seed=1))
    _, b = synth.make_scene(synth.default_config(pixel_noise_sigma=0.5), pose_rng(seed=2))
    assert a.target is b.target is cfg.target.planar_target()
    with pytest.raises(ValueError, match="read-only"):
        a.target.xy[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        a.target.ids[0] = 1
    wider = synth.TargetGrid(spacing=31.0).planar_target()
    assert wider is not a.target
    assert wider.xy[1].tolist() == [31.0, 0.0]


# ---------------------------------------------------------------------------
# pose generation
# ---------------------------------------------------------------------------

def test_poses_share_center_without_spherical_noise():
    cfg = synth.default_config()
    (_, centers), _ = synth.make_scene(cfg, pose_rng())
    assert np.all(centers == centers[0])
    assert np.allclose(centers[0], cfg.t_cp)


def test_poses_perturbed_center_statistics():
    cfg = synth.default_config(spherical_noise_sigma=5.0, image_count=400)
    (_, centers), _ = synth.make_scene(cfg, pose_rng())
    offsets = centers - cfg.t_cp
    assert 4.0 < np.std(offsets) < 6.0
    assert np.all(np.abs(np.mean(offsets, axis=0)) < 1.5)


def test_pose_motion_matrix_determinant():
    cfg = synth.default_config()
    poses, _ = synth.make_scene(cfg, pose_rng(seed=1))
    for rot, t_cp in zip(*poses):
        assert abs(np.linalg.det(motion_matrix(rot, t_cp)) - cfg.radius) < 1e-10 * cfg.radius


def test_angle_invariance_across_poses():
    # The angle subtended by any fixed target point pair is the same from
    # every pose: spherical motion preserves viewing angles.
    cfg = synth.default_config(image_count=100)
    poses, _ = synth.make_scene(cfg, pose_rng(seed=2))
    target = cfg.target.planar_target()
    points = np.column_stack([target.xy, np.zeros(len(target.ids))])
    pair_rng = np.random.default_rng(3)
    for _ in range(10):
        i, j = pair_rng.choice(len(points), size=2, replace=False)
        angles = []
        for rot, t_cp in zip(*poses):
            vi = rot @ (points[i] - t_cp)
            vj = rot @ (points[j] - t_cp)
            angles.append(angular_distance(vi, vj))
        assert max(angles) - min(angles) < 1e-10


def test_target_stays_on_sphere():
    cfg = synth.default_config(image_count=1000)
    poses, _ = synth.make_scene(cfg, pose_rng(seed=4))
    expected = np.linalg.norm(cfg.t_cp)
    for rot, t_cp in zip(*poses):
        t = -rot @ t_cp
        assert abs(np.linalg.norm(t) - expected) < 1e-10


def test_pose_sampling_failure_when_target_cannot_fit():
    cfg = synth.default_config(radius=260.0)  # target wider than the view
    with pytest.raises(errors.PoseSamplingFailed):
        synth.make_scene(cfg, pose_rng(seed=5))


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_full_visibility_noiseless():
    cfg = synth.default_config()
    _, obs = synth.make_scene(cfg, pose_rng(seed=6))
    assert obs.counts.tolist() == [88] * len(obs)


def test_render_inverts_through_back_projection():
    cfg = synth.default_config(distortion=Distortion(0.1, -0.2), image_count=3)
    (R, centers), obs = synth.make_scene(cfg, pose_rng(seed=7))
    target = cfg.target.planar_target()
    for rot, t_cp, (ids, uv) in zip(R, centers, split_images(obs)):
        points = np.column_stack([target.xy_for(ids), np.zeros(len(ids))])
        cam = (points - t_cp) @ rot.T
        rays = back_project(cfg.intrinsics, cfg.distortion, uv)
        cam /= np.linalg.norm(cam, axis=1, keepdims=True)
        assert np.max(np.linalg.norm(np.cross(rays, cam), axis=1)) < 1e-10


def test_render_noise_statistics():
    # One seed at sigma 0 and 0.5 gives the same poses with the noise scaled.
    cfg = synth.default_config(pixel_noise_sigma=0.5, image_count=120)
    (R0, centers0), noiseless = synth.make_scene(synth.default_config(image_count=120),
                                                 pose_rng(seed=8))
    (R, centers), noisy = synth.make_scene(cfg, pose_rng(seed=8))
    assert np.array_equal(R, R0) and np.array_equal(centers, centers0)
    deltas = []
    for (ids_a, uv_a), (ids_b, uv_b) in zip(split_images(noisy), split_images(noiseless)):
        common = np.intersect1d(ids_a, ids_b)
        a = uv_a[np.isin(ids_a, common)]
        b = uv_b[np.isin(ids_b, common)]
        deltas.append(a - b)
    sigma = np.std(np.vstack(deltas))
    assert 0.45 < sigma < 0.55


def reference_scene(config, rng):
    """make_scene as one pose attempt and one image at a time, on the public API.

    Returns the poses, each image's (ids, pixels), and how many pose
    attempts were rejected.
    """
    target = config.target.planar_target()
    points = np.column_stack([target.xy, np.zeros(len(target.ids))])
    w, h = config.image_size

    def inside(uv):
        return (uv[:, 0] >= 0) & (uv[:, 0] <= w) & (uv[:, 1] >= 0) & (uv[:, 1] <= h)

    poses, rejected = [], 0
    for _ in range(config.image_count):
        for _ in range(synth.POSE_ATTEMPTS):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0.0, np.deg2rad(synth.MAX_TILT_DEG))
            rot = rotation_from_axis_angle(axis * angle)
            try:
                uv = project(config.intrinsics, config.distortion, rot,
                             -rot @ config.t_cp, points)
            except errors.PointBehindCamera:
                rejected += 1
                continue
            if np.all(inside(uv)):
                break
            rejected += 1
        else:
            raise AssertionError("the reference found no visible pose")
        jitter = rng.normal(size=3) * config.spherical_noise_sigma
        poses.append((rot, config.t_cp + jitter))
    images = []
    for rot, center in poses:
        uv = project(config.intrinsics, config.distortion, rot, -rot @ center, points)
        uv = uv + rng.normal(size=uv.shape) * config.pixel_noise_sigma
        keep = inside(uv)
        images.append((target.ids[keep], uv[keep]))
    return poses, images, rejected


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_scenes_match_the_per_image_reference_bit_for_bit():
    configs = [synth.default_config(pixel_noise_sigma=0.5),
               synth.default_config(pixel_noise_sigma=1.0, distortion=Distortion(0.1, -0.2)),
               synth.default_config(pixel_noise_sigma=0.5, spherical_noise_sigma=30.0)]
    rejected = dropped = 0
    for seed in range(20):
        config = configs[seed % 3]
        (R, centers), obs = synth.make_scene(config, pose_rng(seed=seed))
        ref_poses, ref_images, ref_rejected = reference_scene(config, pose_rng(seed=seed))
        rejected += ref_rejected
        assert len(R) == len(centers) == len(ref_poses) == len(obs)
        for rot, center, (ref_rot, ref_center) in zip(R, centers, ref_poses):
            assert same_bytes(rot, ref_rot)
            assert same_bytes(center, ref_center)
        for (ids, uv), (ref_ids, ref_uv) in zip(split_images(obs), ref_images):
            assert same_bytes(ids, ref_ids)
            assert same_bytes(uv, ref_uv)
            dropped += len(ids) < len(obs.target.ids)
    # The seeds exercise rejected pose attempts and images with dropped points.
    assert rejected > 0 and dropped > 0


@pytest.mark.parametrize("sigma", [200.0, 400.0])
def test_center_jitter_that_ruins_a_view_draws_it_again(sigma):
    # At 200 mm the jitter leaves some views with fewer than 4 points in the
    # image, at 400 mm it puts points behind the camera; each such view is
    # drawn again instead of failing the trial.
    cfg = synth.default_config(pixel_noise_sigma=0.5, spherical_noise_sigma=sigma)
    for trial in range(20):
        rng = pose_rng(trial=trial)
        (R, centers), obs = synth.make_scene(cfg, rng)
        target = cfg.target.planar_target()
        points = np.column_stack([target.xy, np.zeros(len(target.ids))])
        assert obs.counts.min() >= 4
        for rot, center in zip(R, centers):
            assert np.all((points - center) @ rot.T[:, 2] > 0)
        results = synth.run_single_trial(cfg, trial, ("ours", "zhang"))
        assert set(results) == {"ours", "zhang"}


def test_view_that_cannot_be_drawn_names_the_image():
    # Noise this large throws every point out of the image on every draw.
    cfg = synth.default_config(pixel_noise_sigma=1e7, image_count=2)
    with pytest.raises(errors.PoseSamplingFailed, match="image 0"):
        synth.make_scene(cfg, pose_rng())


# ---------------------------------------------------------------------------
# baseline initializer
# ---------------------------------------------------------------------------

def test_zhang_exact_on_noiseless_scene(noiseless_scene):
    _, _, obs = noiseless_scene
    intr = synth.zhang_init(obs)
    assert abs(intr.fx - 1000.0) / 1000.0 < 1e-6
    assert abs(intr.fy - 1000.0) / 1000.0 < 1e-6
    assert abs(intr.cx - 542.0) < 1e-3
    assert abs(intr.gamma - 0.01) < 1e-4


def test_zhang_degenerate_rotation_set_rejected():
    from test_multi_solver import z_rotated_observation_set
    obs = z_rotated_observation_set(
        [rotation_from_axis_angle([0.1, -0.07, 0.02])], extra_pairs=(0.4, -0.6))
    with pytest.raises((errors.DegenerateConfiguration, errors.NotPositiveDefinite)):
        synth.zhang_init(obs)


def test_zhang_noisier_than_constrained_solver():
    cfg = synth.default_config(pixel_noise_sigma=1.0, trial_count=25)
    stats = synth.run_monte_carlo(cfg, "noise", [1.0], arms=("ours", "zhang"), workers=1)
    ours, zhang = stats
    assert np.nanmean(ours.focal_rel_errors()) < np.nanmean(zhang.focal_rel_errors())


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

def test_monte_carlo_deterministic():
    cfg = synth.default_config(pixel_noise_sigma=0.7, trial_count=6)
    a = synth.run_monte_carlo(cfg, "noise", [0.7], arms=("ours",), workers=1)[0]
    b = synth.run_monte_carlo(cfg, "noise", [0.7], arms=("ours",), workers=1)[0]
    assert np.array_equal(a.trials, b.trials, equal_nan=True)


def test_monte_carlo_parallel_matches_serial():
    # 6 trials on 3 workers go out one at a time, 16 on 2 in chunks of 2.
    for trial_count, workers in ((6, 3), (16, 2)):
        cfg = synth.default_config(pixel_noise_sigma=0.7, trial_count=trial_count)
        serial = synth.run_monte_carlo(cfg, "noise", [0.7], arms=("ours",), workers=1)[0]
        parallel = synth.run_monte_carlo(cfg, "noise", [0.7], arms=("ours",),
                                         workers=workers)[0]
        assert serial.trials.tobytes() == parallel.trials.tobytes()
        assert serial.fail_count == parallel.fail_count
    # A 3-point sweep runs on one pool and must equal three one-point serial calls.
    cfg = synth.default_config(trial_count=5)
    values = [0.5, 3.0, 1.0]
    serial = [s for v in values for s in synth.run_monte_carlo(
        cfg, "noise", [v], arms=("ours", "zhang"), workers=1)]
    for workers in (2, 3):
        parallel = synth.run_monte_carlo(cfg, "noise", values, arms=("ours", "zhang"),
                                         workers=workers)
        assert [(s.sweep_value, s.solver) for s in parallel] == \
            [(s.sweep_value, s.solver) for s in serial]
        for a, b in zip(serial, parallel):
            assert a.trials.tobytes() == b.trials.tobytes()
            assert a.fail_count == b.fail_count


def test_monte_carlo_failing_middle_point_raises_after_the_sweep():
    # At 50 px 6 of 8 three-image closed forms fail.  The check runs once every
    # point is done and names the middle one.
    cfg = synth.default_config(image_count=3, trial_count=8)
    with pytest.raises(errors.CalibrationError, match=r"sweep point 50\.0 arm ours: 6/8"):
        synth.run_monte_carlo(cfg, "noise", [0.5, 50.0, 1.0], arms=("ours",), workers=2)


def test_monte_carlo_noise_trend():
    cfg = synth.default_config(trial_count=12)
    stats = synth.run_monte_carlo(cfg, "noise", [0.25, 1.0, 2.5], arms=("ours",),
                                  workers=1)
    focal = [np.nanmean(s.focal_rel_errors()) for s in stats]
    assert focal[0] < focal[1] < focal[2]


def test_monte_carlo_image_count_trend():
    cfg = synth.default_config(pixel_noise_sigma=0.5, trial_count=12)
    stats = synth.run_monte_carlo(cfg, "images", [3, 30], arms=("ours",), workers=1)
    assert np.nanmean(stats[1].focal_rel_errors()) < np.nanmean(stats[0].focal_rel_errors())


def test_monte_carlo_records_failures_not_fatal():
    # Three images at very high noise occasionally break the closed form;
    # failures must land in fail_count as NaN rows, not raise.
    cfg = synth.default_config(pixel_noise_sigma=3.0, image_count=3,
                                     trial_count=8)
    stats = synth.run_monte_carlo(cfg, "noise", [3.0], arms=("ours",), workers=1)[0]
    nan_rows = int(np.sum(np.all(np.isnan(stats.trials), axis=1)))
    assert nan_rows == stats.fail_count


def test_trial_stats_accessors():
    cfg = synth.default_config(pixel_noise_sigma=0.5, trial_count=5)
    s = synth.run_monte_carlo(cfg, "noise", [0.5], arms=("ours",), workers=1)[0]
    assert s.trials.shape == (5, 10)
    fx = synth.PARAM_NAMES.index("fx")
    mean_abs_fx = np.nanmean(np.abs(s.trials[:, fx]))
    assert mean_abs_fx >= 0
    assert mean_abs_fx / abs(s.truth[fx]) == pytest.approx(mean_abs_fx / 1000.0)
    assert s.ms_per_trial() > 0
    assert s.solver == "ours" and s.stage == "init"


def test_unknown_sweep_and_arm_rejected():
    cfg = synth.default_config(trial_count=1)
    with pytest.raises(ValueError):
        synth.run_monte_carlo(cfg, "zoom", [1.0], arms=("ours",), workers=1)
    with pytest.raises(ValueError):
        synth.run_monte_carlo(cfg, "noise", [1.0], arms=("theirs",), workers=1)
