import ctypes
import multiprocessing
import os
import pickle
import platform
import select
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from collimcal import errors, pipeline, synth
from collimcal.core_geom import (
    MIN_IMAGE_POINTS,
    CameraIntrinsics,
    Distortion,
    back_project,
    project,
)
from collimcal.multi_solver import conic_rows
from conftest import (
    angular_distance,
    image_points,
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


@pytest.mark.parametrize("size", [(1080.5, 960), (True, 960), (0, 960), (1080, 960, 3)])
def test_config_rejects_a_bad_image_size(size):
    with pytest.raises(ValueError, match="image_size"):
        synth.default_config(image_size=size)


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
    with pytest.raises(errors.PoseSamplingFailed, match="image 0"):
        synth.make_scene(cfg, pose_rng(seed=5))
    # A pooled chunk whose scenes cannot be made fails as the serial path does.
    cfg = synth.default_config(radius=260.0, trial_count=4)
    for workers in (1, 2):
        with pytest.raises(errors.PoseSamplingFailed, match="image 0"):
            synth.run_monte_carlo(cfg, "noise", [0.5], arms=("ours",), workers=workers)


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
    for rot, t_cp, (xy, uv) in zip(R, centers, image_points(obs)):
        points = np.column_stack([xy, np.zeros(len(xy))])
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

    Returns the poses, each image's (ids, pixels), how many pose attempts
    were rejected and how many views were drawn again.
    """
    target = config.target.planar_target()
    points = np.column_stack([target.xy, np.zeros(len(target.ids))])
    w, h = config.image_size

    def inside(uv):
        return (uv[:, 0] >= 0) & (uv[:, 0] <= w) & (uv[:, 1] >= 0) & (uv[:, 1] <= h)

    rejected = 0

    def draw_pose():
        nonlocal rejected
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
        return rot, config.t_cp + jitter

    def render(rot, center):
        try:
            uv, front = project(config.intrinsics, config.distortion, rot, -rot @ center,
                                points), True
        except errors.PointBehindCamera:
            uv, front = np.zeros((len(points), 2)), False
        uv = uv + rng.normal(size=uv.shape) * config.pixel_noise_sigma
        keep = inside(uv) & front
        return target.ids[keep], uv[keep]

    poses = [draw_pose() for _ in range(config.image_count)]
    images = [render(rot, center) for rot, center in poses]
    redrawn = 0
    for k in range(config.image_count):
        for _ in range(synth.POSE_ATTEMPTS - 1):
            if len(images[k][0]) >= MIN_IMAGE_POINTS:
                break
            poses[k] = draw_pose()
            images[k] = render(*poses[k])
            redrawn += 1
        assert len(images[k][0]) >= MIN_IMAGE_POINTS
    return poses, images, rejected, redrawn


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_scene_is_the_reference(scene, reference):
    (R, centers), obs = scene
    ref_poses, ref_images = reference
    assert len(R) == len(centers) == len(ref_poses) == len(obs)
    for rot, center, (ref_rot, ref_center) in zip(R, centers, ref_poses):
        assert same_bytes(rot, ref_rot)
        assert same_bytes(center, ref_center)
    for (ids, uv), (ref_ids, ref_uv) in zip(split_images(obs), ref_images):
        assert same_bytes(ids, ref_ids)
        assert same_bytes(uv, ref_uv)


def test_scenes_match_the_per_image_reference_bit_for_bit():
    # One stream at a time through make_scene, and each config's streams
    # together through one lockstep call: every scene and every stream's
    # final state must be the reference's.  At 200 mm of jitter some views
    # are drawn again.
    configs = [synth.default_config(pixel_noise_sigma=0.5),
               synth.default_config(pixel_noise_sigma=1.0, distortion=Distortion(0.1, -0.2)),
               synth.default_config(pixel_noise_sigma=0.5, spherical_noise_sigma=30.0),
               synth.default_config(pixel_noise_sigma=0.5, spherical_noise_sigma=200.0)]
    seeds = range(24)
    rejected = dropped = redrawn = 0
    references, states = {}, {}
    for seed in seeds:
        config = configs[seed % len(configs)]
        rng = pose_rng(seed=seed)
        poses, images, ref_rejected, ref_redrawn = reference_scene(config, rng)
        references[seed], states[seed] = (poses, images), rng.bit_generator.state
        rejected += ref_rejected
        redrawn += ref_redrawn
        dropped += sum(len(ids) < config.target.rows * config.target.cols
                       for ids, _ in images)
        rng = pose_rng(seed=seed)
        assert_scene_is_the_reference(synth.make_scene(config, rng), references[seed])
        assert rng.bit_generator.state == states[seed]
    for c, config in enumerate(configs):
        group = [seed for seed in seeds if seed % len(configs) == c]
        rngs = [pose_rng(seed=seed) for seed in group]
        for seed, rng, scene in zip(group, rngs, synth._make_scenes(config, rngs)):
            assert_scene_is_the_reference(scene, references[seed])
            assert rng.bit_generator.state == states[seed]
    # The seeds exercise rejected pose attempts, images with dropped points
    # and views drawn again.
    assert rejected > 0 and dropped > 0 and redrawn > 0


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


def test_a_point_at_zero_depth_gets_nan_pixels():
    # The bounds test reads a NaN pixel as out of the image; a point at
    # depth exactly zero is as far from a pixel as one behind the camera.
    points = np.array([[0.0, 0.0, 700.0], [10.0, 0.0, 0.0], [0.0, 0.0, -700.0]])
    u, v = synth._pixels(synth.default_config(), points, np.eye(3)[None], np.zeros((1, 3)))
    assert np.isfinite([u[0, 0], v[0, 0]]).all()
    assert np.isnan([u[0, 1:], v[0, 1:]]).all()


@pytest.mark.parametrize("sigma", [0.0, 30.0])
def test_trial_scene_is_make_scene_of_its_stream(sigma, monkeypatch):
    # A Monte Carlo trial runs its arms on make_scene's scene of the trial's
    # stream, whatever chunk it runs in.
    seen = []
    monkeypatch.setattr(synth, "_run_arms", lambda sets, truth, arms: seen.extend(sets))
    cfg = synth.default_config(pixel_noise_sigma=0.5, spherical_noise_sigma=sigma)
    trials = range(3, 27)
    synth._run_chunk(cfg, trials, ("ours",))
    for t, obs in zip(trials, seen, strict=True):
        _, ref_obs = synth.make_scene(cfg, pose_rng(trial=t))
        assert same_bytes(obs.ids, ref_obs.ids) and same_bytes(obs.uv, ref_obs.uv)
        assert same_bytes(obs.counts, ref_obs.counts)


def test_trial_redraws_a_thin_view_alone_and_keeps_the_others_paired():
    # At 200 mm of jitter one view of trial 1 keeps fewer than 4 points and
    # is drawn again alone; the trial's other views keep the 0 mm scene's
    # rotations.
    (R0, _), _ = synth.make_scene(synth.default_config(pixel_noise_sigma=0.5),
                                  pose_rng(trial=1))
    cfg = synth.default_config(pixel_noise_sigma=0.5, spherical_noise_sigma=200.0)
    (R, _), obs = synth.make_scene(cfg, pose_rng(trial=1))
    assert sum(np.array_equal(a, b) for a, b in zip(R0, R)) == 14
    assert obs.counts.min() >= MIN_IMAGE_POINTS


def test_view_that_cannot_be_drawn_names_the_image():
    # Noise this large throws every point out of the image on every draw.
    cfg = synth.default_config(pixel_noise_sigma=1e7, image_count=2)
    with pytest.raises(errors.PoseSamplingFailed, match="image 0"):
        synth.make_scene(cfg, pose_rng())


# ---------------------------------------------------------------------------
# pose memo
# ---------------------------------------------------------------------------

@pytest.fixture
def draws(monkeypatch):
    """An empty pose memo, and a list that logs each lockstep draw's stream count."""
    monkeypatch.setattr(synth, "_pose_memo", {})
    logged, draw = [], synth._draw_poses

    def logging_draw(config, rngs, points, images):
        if len(images) == config.image_count:
            logged.append(len(rngs))
        return draw(config, rngs, points, images)

    monkeypatch.setattr(synth, "_draw_poses", logging_draw)
    return logged


def grid_points(config):
    target = config.target.planar_target()
    return np.column_stack([target.xy, np.zeros(len(target.ids))])


@pytest.mark.parametrize("sweep, values, arms", [
    ("spherical", [0.0, 30.0, 200.0], ("zhang",)),
    ("noise", [0.5, 2.0, 1.0], ("ours", "zhang"))])
def test_a_sweep_is_the_same_with_a_cold_and_a_warm_pose_memo(sweep, values, arms,
                                                              monkeypatch):
    # The reference draws every pose afresh: a memo that keeps nothing, in
    # this process.  Then the memo and the pool start cold, and the sweep
    # runs as one call and as one call per point, on 1 and 2 workers, each
    # run on a memo the runs before it warmed.  At 200 mm some views are
    # drawn again, and the `ours` arm fails on most trials.
    cfg = synth.default_config(pixel_noise_sigma=0.5, trial_count=6)
    with monkeypatch.context() as patch:
        patch.setattr(synth, "_pose_memo", {})
        patch.setattr(synth, "_POSE_MEMO_ENTRIES", 0)
        reference = [s for v in values
                     for s in synth.run_monte_carlo(cfg, sweep, [v], arms=arms, workers=1)]
        assert synth._pose_memo == {}
    synth._pose_memo.clear()
    synth._close_pool()
    for workers in (1, 2):
        for stats in (synth.run_monte_carlo(cfg, sweep, values, arms=arms, workers=workers),
                      [s for v in values for s in synth.run_monte_carlo(
                          cfg, sweep, [v], arms=arms, workers=workers)]):
            assert len(stats) == len(reference)
            assert all(map(same_trial_stats, stats, reference))


FIELDS_THE_DRAW_READS = {
    "intrinsics": CameraIntrinsics(fx=1010.0, fy=1000.0, cx=542.0, cy=478.0, gamma=0.01),
    "distortion": Distortion(0.01, 0.0),
    "image_size": (1100, 960),
    "target": synth.TargetGrid(spacing=29.0),
    "radius": 710.0,
    "target_offset": (150.0, 100.0),
    "image_count": 14,
    "rng_seed": 1,
}


def test_a_pose_draw_is_reused_only_on_the_same_inputs(draws):
    # The noise sigmas and the trial count are not read by the draw; every
    # other field is, and so is every stream's starting state.
    base = synth.default_config(pixel_noise_sigma=0.5)

    def make(config, advanced=None):
        rngs = [pose_rng(trial=t) for t in range(3)]
        if advanced is not None:
            rngs[advanced].random()
        before = len(draws)
        synth._make_scenes(config, rngs)
        return len(draws) - before

    assert make(base) == 1
    assert make(synth.default_config(pixel_noise_sigma=2.0, spherical_noise_sigma=30.0,
                                     trial_count=7)) == 0
    for name, value in FIELDS_THE_DRAW_READS.items():
        assert make(synth.default_config(pixel_noise_sigma=0.5, **{name: value})) == 1, name
        assert make(base) == 0, name
    for advanced in range(3):
        assert make(base, advanced) == 1, advanced


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
def test_a_reused_pose_draw_leaves_each_stream_where_a_fresh_one_does(bit_generator, draws):
    cfg = synth.default_config(pixel_noise_sigma=0.5, spherical_noise_sigma=15.0)
    points = grid_points(cfg)

    def streams():
        return [np.random.Generator(bit_generator(seed)) for seed in range(4)]

    fresh = streams()
    R, jitter = synth._draw_poses(cfg, fresh, points, range(cfg.image_count))
    for _ in range(2):  # a miss, then a hit
        rngs = streams()
        R_memo, jitter_memo = synth._lockstep_poses(cfg, rngs, points)
        assert same_bytes(R_memo, R) and same_bytes(jitter_memo, jitter)
        for rng, rng_fresh in zip(rngs, fresh):
            assert (pickle.dumps(rng.bit_generator.state)
                    == pickle.dumps(rng_fresh.bit_generator.state))
            assert rng.random() == rng_fresh.random()
        fresh = streams()
        synth._draw_poses(cfg, fresh, points, range(cfg.image_count))
    assert draws == [4] * 4  # the three fresh draws and the memo's one miss


def test_a_thin_view_is_drawn_again_the_same_with_a_warm_memo(draws):
    # Trial 1 at 200 mm draws one view again, into its own copy of the
    # rotations; the 0 mm scene that warmed the memo keeps its own.
    thin = synth.default_config(pixel_noise_sigma=0.5, spherical_noise_sigma=200.0)
    (R_cold, centers_cold), cold = synth.make_scene(thin, pose_rng(trial=1))
    synth._pose_memo.clear()
    (R0, _), _ = synth.make_scene(synth.default_config(pixel_noise_sigma=0.5),
                                  pose_rng(trial=1))
    R0_before = R0.copy()
    (R, centers), warm = synth.make_scene(thin, pose_rng(trial=1))
    assert draws == [1, 1]
    assert same_bytes(R, R_cold) and same_bytes(centers, centers_cold)
    assert sum(np.array_equal(a, b) for a, b in zip(R0, R)) == 14
    assert same_bytes(R0, R0_before) and not R0.flags.writeable and R.flags.writeable
    for name in ("ids", "uv", "counts"):
        assert same_bytes(getattr(warm, name), getattr(cold, name))


def test_a_kept_pose_draw_is_read_only(draws):
    cfg = synth.default_config(spherical_noise_sigma=15.0)
    (R, centers), _ = synth.make_scene(cfg, pose_rng())
    ((R_memo, jitter, _),) = synth._pose_memo.values()
    for array in (R, R_memo, jitter):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 0.0
    centers[0] = 0.0  # each scene's centers are its own


def test_a_pose_draw_that_fails_is_not_kept(draws):
    cfg = synth.default_config(radius=260.0)  # target wider than the view
    for _ in range(2):
        with pytest.raises(errors.PoseSamplingFailed, match="image 0"):
            synth.make_scene(cfg, pose_rng(seed=5))
        assert synth._pose_memo == {}
    assert draws == [1, 1]


def test_threads_that_share_the_pose_memo_get_their_own_draws(monkeypatch):
    # Four threads draw the poses of six one-image streams over and over,
    # switching as often as the interpreter allows, so the memo keeps
    # dropping entries: every draw is its stream's, every call returns, and
    # the memo never holds more than its bound.
    monkeypatch.setattr(synth, "_pose_memo", {})
    cfg = synth.default_config(image_count=1)
    points = grid_points(cfg)
    references = {seed: synth._draw_poses(cfg, [pose_rng(seed=seed)], points, range(1))[0]
                  for seed in range(6)}
    wrong, sizes, raised = [], [], []

    def work(offset):
        try:
            for k in range(300):
                seed = (offset + k) % 6
                R, _ = synth._lockstep_poses(cfg, [pose_rng(seed=seed)], points)
                if not same_bytes(R, references[seed]):
                    wrong.append(seed)
                with synth._pose_memo_lock:
                    sizes.append(len(synth._pose_memo))
        except Exception as exc:
            raised.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert raised == [] and wrong == [] and len(sizes) == 4 * 300
    assert max(sizes) <= synth._POSE_MEMO_ENTRIES


def test_the_pose_memo_keeps_its_most_recent_draws(draws):
    cfg = synth.default_config()
    seeds = range(synth._POSE_MEMO_ENTRIES + 1)
    for seed in seeds:
        synth.make_scene(cfg, pose_rng(seed=seed))
    synth.make_scene(cfg, pose_rng(seed=1))  # a hit, now the most recent
    synth.make_scene(cfg, pose_rng(seed=0))  # dropped, drawn again
    assert len(synth._pose_memo) == synth._POSE_MEMO_ENTRIES
    assert draws == [1] * (len(seeds) + 1)
    synth.make_scene(cfg, pose_rng(seed=1))
    synth.make_scene(cfg, pose_rng(seed=2))  # dropped by seed 0's draw
    assert draws == [1] * (len(seeds) + 2)


# ---------------------------------------------------------------------------
# solver arms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("arms", [("zhang", "zhang_ba"), ("zhang_ba",)], ids=["both", "refined"])
def test_baseline_conic_is_solved_once_per_scene(arms, monkeypatch):
    # The refined arm takes its start and its poses from the one conic solve,
    # and the conics of a chunk's scenes share one stacked call.
    solves = []

    def counting_rows(H):
        solves.append(len(H))
        return conic_rows(H)

    monkeypatch.setattr(pipeline, "conic_rows", counting_rows)
    config = synth.default_config(pixel_noise_sigma=1.0)
    sets = [scene(seed=0, trial=t, pixel_noise_sigma=1.0)[2] for t in range(3)]
    results = synth._run_arms(sets, config.truth_vector(), arms)
    assert all(row is not None for per_scene in results for row, _ in per_scene.values())
    assert solves == [sum(map(len, sets))]


def test_arms_over_a_chunk_score_each_scene_as_alone():
    # Arm-major over six scenes: three of one layout, whose refined arms run
    # their bundle adjustments side by side, and three of three images at
    # 50 px, where some starts fail.  Every row is the scene's own, to the bit.
    sets = ([scene(seed=3, trial=t, pixel_noise_sigma=1.0)[2] for t in range(3)]
            + [scene(seed=3, trial=t, pixel_noise_sigma=50.0, image_count=3)[2]
               for t in range(3)])
    truth = synth.default_config().truth_vector()
    together = synth._run_arms(sets, truth, synth.SOLVER_ARMS)
    failed = 0
    for obs, results in zip(sets, together, strict=True):
        (alone,) = synth._run_arms([obs], truth, synth.SOLVER_ARMS)
        for arm in synth.SOLVER_ARMS:
            row, row_alone = results[arm][0], alone[arm][0]
            assert (row is None) == (row_alone is None), arm
            assert row is None or same_bytes(row, row_alone), arm
            failed += row is None
    assert failed > 0


@pytest.mark.parametrize("arms", [synth.SOLVER_ARMS, ("ours_ba", "zhang_ba", "ours")],
                         ids=["all", "refined-first"])
def test_a_refined_arm_times_its_start_and_a_share_of_the_bundle_adjustments(arms):
    # Seconds are positive for every arm, and a refined arm that reuses its
    # initial arm's start still pays its share of the bundle adjustments.
    sets = [scene(seed=4, trial=t, pixel_noise_sigma=1.0)[2] for t in range(2)]
    results = synth._run_arms(sets, synth.default_config().truth_vector(), arms)
    for per_scene in results:
        assert set(per_scene) == set(arms)
        assert all(row is not None and seconds > 0 for row, seconds in per_scene.values())


def test_every_arm_is_its_calibrate_call():
    config, _, obs = scene(seed=0, trial=1, pixel_noise_sigma=1.0)
    truth = config.truth_vector()
    (results,) = synth._run_arms([obs], truth, synth.SOLVER_ARMS)
    calls = {"ours": ("nimg", False), "ours_ba": ("nimg", True),
             "zhang": ("zhang", False), "zhang_ba": ("zhang", True)}
    assert set(calls) == set(synth.SOLVER_ARMS)
    for arm, (mode, refine) in calls.items():
        result = pipeline.calibrate(obs, mode, refine=refine)
        expected = pipeline.error_row(result.intrinsics, result.distortion if refine else None,
                                      result.extrinsics, truth)
        assert results[arm][0].tobytes() == expected.tobytes(), arm
    # An initial arm estimates no distortion, and only "ours" has a center.
    assert np.isnan(results["zhang"][0][5:]).all() and np.isnan(results["ours"][0][5:7]).all()
    assert np.isnan(results["zhang_ba"][0][7:]).all()
    assert np.isfinite(results["ours_ba"][0]).all()


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


def same_trial_stats(a, b):
    return ((a.sweep_value, a.solver, a.stage, a.fail_count)
            == (b.sweep_value, b.solver, b.stage, b.fail_count)
            and a.truth.tobytes() == b.truth.tobytes()
            and a.trials.tobytes() == b.trials.tobytes())


def test_monte_carlo_parallel_matches_serial():
    # 6 trials on 3 workers go out as 3 chunks of 2, 16 on 2 as 2 chunks of
    # 8, and 25 on 2 as 12 + 13 at each point; a chunk never holds trials of
    # two points.
    for trial_count, workers, sweep, values in (
            (6, 3, "noise", [0.7]), (16, 2, "noise", [0.7]),
            (25, 2, "noise", [0.7, 1.5]), (25, 2, "spherical", [0.0, 20.0])):
        cfg = synth.default_config(pixel_noise_sigma=0.7, trial_count=trial_count)
        serial = synth.run_monte_carlo(cfg, sweep, values, arms=("ours", "zhang"), workers=1)
        parallel = synth.run_monte_carlo(cfg, sweep, values, arms=("ours", "zhang"),
                                         workers=workers)
        assert len(serial) == len(parallel) == 2 * len(values)
        assert all(map(same_trial_stats, serial, parallel))
    # A 3-point sweep runs on one pool and must equal three one-point serial calls.
    cfg = synth.default_config(trial_count=5)
    values = [0.5, 3.0, 1.0]
    serial = [s for v in values for s in synth.run_monte_carlo(
        cfg, "noise", [v], arms=("ours", "zhang"), workers=1)]
    for workers in (2, 3):
        parallel = synth.run_monte_carlo(cfg, "noise", values, arms=("ours", "zhang"),
                                         workers=workers)
        assert len(serial) == len(parallel)
        assert all(map(same_trial_stats, serial, parallel))
    # The bundle adjustments run on workers that keep their heap, and must
    # still give the serial bytes.
    cfg = synth.default_config(pixel_noise_sigma=1.0, trial_count=4)
    serial = synth.run_monte_carlo(cfg, "noise", [1.0], workers=1)
    parallel = synth.run_monte_carlo(cfg, "noise", [1.0], workers=2)
    assert len(serial) == len(parallel)
    assert all(map(same_trial_stats, serial, parallel))


def test_default_worker_count_follows_cpu_affinity(monkeypatch):
    monkeypatch.delenv("COLLIMCAL_THREADS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert synth.default_worker_count() == 3
    monkeypatch.setenv("COLLIMCAL_THREADS", "5")
    assert synth.default_worker_count() == 5
    monkeypatch.delenv("COLLIMCAL_THREADS")
    monkeypatch.delattr(os, "sched_getaffinity")
    assert synth.default_worker_count() == (os.cpu_count() or 1)


@pytest.mark.parametrize("env", ["0", "-3"])
def test_default_worker_count_refuses_a_count_below_one(monkeypatch, env):
    # The rule run_monte_carlo applies to `workers`; a count below 1 used to
    # run one worker silently.
    monkeypatch.setenv("COLLIMCAL_THREADS", env)
    with pytest.raises(ValueError, match=f"^COLLIMCAL_THREADS must be at least 1, got {env}$"):
        synth.default_worker_count()


def test_one_worker_runs_the_pools_chunks_in_the_calling_process(monkeypatch):
    # 8 trials on one worker go out as one chunk of 8 at each of the two
    # points, each chunk's scenes drawn in one lockstep call.
    streams = []
    make_scenes_alone = synth._make_scenes

    def make_scenes(config, rngs):
        streams.append(len(rngs))
        return make_scenes_alone(config, rngs)

    monkeypatch.setattr(synth, "_make_scenes", make_scenes)
    cfg = synth.default_config(pixel_noise_sigma=0.5, trial_count=8)
    stats = synth.run_monte_carlo(cfg, "noise", [0.5, 1.0], arms=("ours",), workers=1)
    assert streams == [8, 8]
    assert [s.trials.shape for s in stats] == [(8, 10)] * 2


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("arms", [("ours",), ("theirs",)], ids=["ours", "unknown-arm"])
def test_an_empty_sweep_is_refused(workers, arms):
    # Refused before any chunk is built, so before the arms are checked.
    cfg = synth.default_config(trial_count=2)
    with pytest.raises(ValueError, match="^sweep_values must hold at least one value$"):
        synth.run_monte_carlo(cfg, "noise", [], arms=arms, workers=workers)


def pool_pids():
    return [proc.pid for proc in synth._pool[1]]


def pooled_sweep(workers, **overrides):
    cfg = synth.default_config(**{"pixel_noise_sigma": 0.5, "trial_count": 4, **overrides})
    return synth.run_monte_carlo(cfg, "noise", [0.5], arms=("ours", "zhang"), workers=workers)


@pytest.fixture
def fresh_pool():
    """A pool forked inside the test (it sees the test's patches) and ended after it."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("a patch reaches the workers only when they are forked")
    synth._close_pool()
    yield
    synth._close_pool()


def test_pool_has_at_most_one_worker_per_trial():
    cfg = synth.default_config(trial_count=2)
    synth.run_monte_carlo(cfg, "noise", [0.5], arms=("ours",), workers=8)
    pool = synth._pool
    assert len(pool[1]) == 2
    # One trial runs in the calling process and leaves the pool alone.
    synth.run_monte_carlo(synth.default_config(trial_count=1), "noise", [0.5],
                          arms=("ours",), workers=8)
    assert synth._pool is pool and len(pool[1]) == 2


def test_workers_keep_their_heap_and_the_caller_does_not(monkeypatch, fresh_pool):
    def report_heap_setting(config, trials, arms):
        raise RuntimeError(synth._worker_heap_setting)

    monkeypatch.setattr(synth, "_run_chunk", report_heap_setting)
    with pytest.raises(RuntimeError) as raised:
        pooled_sweep(workers=2)
    assert synth._worker_heap_setting is None
    if platform.libc_ver()[0] == "glibc":
        assert raised.value.args == ((1, 1),)


def test_a_failing_chunk_keeps_the_pool():
    serial = pooled_sweep(workers=1)
    pooled_sweep(workers=2)
    pids = pool_pids()
    with pytest.raises(errors.PoseSamplingFailed, match="image 0") as raised:
        pooled_sweep(workers=2, radius=260.0)
    assert "_make_scenes" in str(raised.value.__cause__)  # the worker's traceback
    assert all(map(same_trial_stats, serial, pooled_sweep(workers=2)))
    assert pool_pids() == pids


def test_the_lowest_failing_chunk_is_raised_once_the_chunks_in_flight_end(monkeypatch,
                                                                          fresh_pool, tmp_path):
    started = tmp_path / "started"

    def fail(config, trials, arms):
        chunk = f"{config.pixel_noise_sigma}:{trials.start}"
        with open(started, "a") as log:
            log.write(f"{chunk}\n")
        if trials.start == 0:
            time.sleep(0.2)  # the second chunk fails first
        raise ValueError(f"chunk at {chunk}")

    monkeypatch.setattr(synth, "_run_chunk", fail)
    cfg = synth.default_config(trial_count=4)
    with pytest.raises(ValueError, match="^chunk at 0.5:0$"):
        # 2 chunks of 2 trials at each of 4 points: 8 chunks
        synth.run_monte_carlo(cfg, "noise", [0.5, 1.0, 1.5, 2.0], arms=("ours",), workers=2)
    assert sorted(started.read_text().split()) == ["0.5:0", "0.5:2"]  # no chunk after a failure
    assert len(pool_pids()) == 2


def test_each_worker_runs_one_even_chunk_of_a_point(monkeypatch, fresh_pool, tmp_path):
    # 25 trials on 2 workers go out as trials [0, 12) and [12, 25) at each
    # point, so every worker runs one lockstep chunk per point.
    chunks = tmp_path / "chunks"
    run_chunk = synth._run_chunk

    def logged(config, trials, arms):
        with open(chunks, "a") as log:
            log.write(f"{config.pixel_noise_sigma}:{trials.start}:{trials.stop}\n")
        return run_chunk(config, trials, arms)

    monkeypatch.setattr(synth, "_run_chunk", logged)
    cfg = synth.default_config(trial_count=25)
    stats = synth.run_monte_carlo(cfg, "noise", [0.5, 1.0], arms=("ours",), workers=2)
    assert sorted(chunks.read_text().split()) == ["0.5:0:12", "0.5:12:25",
                                                  "1.0:0:12", "1.0:12:25"]
    assert [s.trials.shape for s in stats] == [(25, 10)] * 2


def test_a_point_of_many_trials_goes_out_in_bounded_even_chunks(monkeypatch, fresh_pool,
                                                                 tmp_path):
    # 300 trials on 2 workers would be one chunk of 150 per worker; chunks
    # hold at most _CHUNK_TRIALS = 128, so the point goes out as 4 chunks of
    # 75, two per worker.
    chunks = tmp_path / "chunks"
    run_chunk = synth._run_chunk

    def logged(config, trials, arms):
        with open(chunks, "a") as log:
            log.write(f"{trials.start}:{trials.stop}\n")
        return run_chunk(config, trials, arms)

    monkeypatch.setattr(synth, "_run_chunk", logged)
    cfg = synth.default_config(trial_count=300)
    stats = synth.run_monte_carlo(cfg, "noise", [0.5], arms=("ours",), workers=2)
    assert sorted(chunks.read_text().split(), key=lambda c: int(c.split(":")[0])) == [
        "0:75", "75:150", "150:225", "225:300"]
    assert stats[0].trials.shape == (300, 10)


def test_a_worker_killed_between_calls_is_replaced():
    serial = pooled_sweep(workers=1)
    pooled_sweep(workers=2)
    victim = synth._pool[1][0]
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=60)
    assert not victim.is_alive()
    assert all(map(same_trial_stats, serial, pooled_sweep(workers=2)))
    assert victim.pid not in pool_pids() and len(pool_pids()) == 2


def test_a_worker_that_dies_during_a_call_raises_and_ends_the_pool(monkeypatch, fresh_pool):
    monkeypatch.setattr(synth, "_run_chunk", lambda config, trials, arms: os._exit(3))
    with pytest.raises(BrokenProcessPool):
        pooled_sweep(workers=2)
    assert synth._pool is None


def test_an_interrupted_call_ends_the_pool(monkeypatch):
    pooled_sweep(workers=2)
    workers = list(synth._pool[1])

    def interrupted(conns):
        raise KeyboardInterrupt

    monkeypatch.setattr(synth, "wait", interrupted)
    with pytest.raises(KeyboardInterrupt):
        pooled_sweep(workers=2)
    assert synth._pool is None and not any(proc.is_alive() for proc in workers)
    monkeypatch.undo()
    assert all(map(same_trial_stats, pooled_sweep(workers=1), pooled_sweep(workers=2)))


def test_a_pooled_call_leaves_no_thread_running():
    # The benchmark's speed probe forks only beside no other thread.
    pooled_sweep(workers=2)
    assert threading.active_count() == 1


def test_a_forked_child_makes_its_own_pool_and_leaves_the_parents():
    serial = pooled_sweep(workers=1)
    pooled_sweep(workers=2)
    pids = pool_pids()
    read, write = os.pipe()
    child = os.fork()
    if child == 0:  # leaves by os._exit, so no exit hook of the parent's runs here
        passed = False
        try:
            pooled = pooled_sweep(workers=2)
            passed = (synth._pool[0] == os.getpid() and not set(pool_pids()) & set(pids)
                      and all(map(same_trial_stats, serial, pooled)))
            synth._close_pool()
        finally:
            os.write(write, b"1" if passed else b"0")
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as answer:
        answered = select.select([answer], [], [], 120)[0]
        if not answered:
            os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
        assert answered and answer.read() == b"1"
    assert synth._pool[0] == os.getpid() and pool_pids() == pids
    assert all(map(same_trial_stats, serial, pooled_sweep(workers=2)))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="forks")
def test_a_child_that_exits_normally_leaves_the_parents_pool():
    # A bare fork whose child leaves through the interpreter's exit hooks:
    # the parent's workers live on, and its next call reuses them.
    code = ("import os, sys, time\n"
            "from collimcal import synth\n"
            "def sweep():\n"
            "    synth.run_monte_carlo(synth.default_config(trial_count=2), 'noise', [0.5],\n"
            "                          arms=('ours',), workers=2)\n"
            "sweep()\n"
            "procs = list(synth._pool[1])\n"
            "child = os.fork()\n"
            "if child == 0:\n"
            "    sys.exit(0)\n"
            "os.waitpid(child, 0)\n"
            "time.sleep(0.2)\n"
            "alive = all(proc.is_alive() for proc in procs)\n"
            "sweep()\n"
            "print(alive, [proc.pid for proc in synth._pool[1]] == [proc.pid for proc in procs])\n")
    src = str(Path(synth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert run.stdout.split() == ["True", "True"]
    assert "Error" not in run.stderr


def running(pid):
    """Whether `pid` is a live process, from /proc; a zombie has ended."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("leave", ["", "os._exit(0)"], ids=["exit", "os-exit"])
def test_a_process_that_used_the_pool_leaves_no_worker_behind(leave):
    # On a normal exit the exit hook ends the workers; os._exit runs no hook,
    # and each worker reads end of file on its pipe and returns.
    code = ("import os\n"
            "from collimcal import synth\n"
            "synth.run_monte_carlo(synth.default_config(trial_count=2), 'noise', [0.5],\n"
            "                      arms=('ours',), workers=2)\n"
            "print(*(proc.pid for proc in synth._pool[1]), flush=True)\n" + leave)
    src = str(Path(synth.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    pids = [int(pid) for pid in run.stdout.split()]
    assert len(pids) == 2
    deadline = time.monotonic() + 30
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(running, pids))


def test_worker_heap_setting_is_a_no_op_without_mallopt(monkeypatch):
    def no_libc(name):
        raise OSError("no libc")

    for cdll in (no_libc, lambda name: object()):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        synth._keep_worker_heap()
        assert synth._worker_heap_setting is None


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


def test_center_errors_are_the_reports_distance():
    # The report's tcp_err_mm is np.linalg.norm of the center errors; the
    # root of the summed squares differs from it in the last bit on some rows.
    rows = np.random.default_rng(0).normal(size=(200, 10)) * 30.0
    s = synth.TrialStats(0.0, "ours", "init", truth=np.zeros(10), trials=rows,
                         seconds=np.zeros(200), fail_count=0)
    assert s.center_errors().tolist() == [np.linalg.norm(row[7:10]) for row in rows]
    assert s.center_errors().tolist() != np.sqrt(np.sum(rows[:, 7:] ** 2, axis=1)).tolist()


def test_unknown_sweep_and_arm_rejected():
    cfg = synth.default_config(trial_count=1)
    with pytest.raises(ValueError):
        synth.run_monte_carlo(cfg, "zoom", [1.0], arms=("ours",), workers=1)
    with pytest.raises(ValueError):
        synth.run_monte_carlo(cfg, "noise", [1.0], arms=("theirs",), workers=1)
    with pytest.raises(ValueError, match="theirs"):
        synth.run_single_trial(cfg, 0, ("theirs",))
    # A pooled call checks its arms where a serial one does, in the chunk.
    with pytest.raises(ValueError, match="unknown solver arm 'theirs'"):
        synth.run_monte_carlo(synth.default_config(trial_count=2), "noise", [1.0],
                              arms=("ours", "theirs"), workers=2)


def one_trial_sweep(sweep="noise", values=(0.5,), workers=1):
    cfg = synth.default_config(trial_count=1)
    return synth.run_monte_carlo(cfg, sweep, values, arms=("ours",), workers=workers)


@pytest.mark.parametrize("make, field", [
    (lambda: synth.default_config(radius=True), "radius"),
    (lambda: synth.default_config(pixel_noise_sigma=True), "pixel_noise_sigma"),
    (lambda: synth.default_config(spherical_noise_sigma=True), "spherical_noise_sigma"),
    (lambda: synth.default_config(radius="700"), "radius"),
    (lambda: synth.default_config(pixel_noise_sigma=None), "pixel_noise_sigma"),
    (lambda: synth.default_config(spherical_noise_sigma=None), "spherical_noise_sigma"),
    (lambda: synth.default_config(target_offset=(150.0, 105.0, 0.0)), "target_offset"),
    (lambda: synth.default_config(target_offset=(150.0,)), "target_offset"),
    (lambda: synth.default_config(target_offset=("150", 105.0)), "target_offset"),
    (lambda: synth.TargetGrid(spacing=True), "spacing"),
    (lambda: synth.TargetGrid(spacing="30"), "spacing"),
    (lambda: one_trial_sweep(workers=2.5), "workers"),
    (lambda: one_trial_sweep(workers="2"), "workers"),
    (lambda: one_trial_sweep(workers=True), "workers"),
    (lambda: one_trial_sweep(workers=0), "workers"),
    (lambda: one_trial_sweep(workers=-3), "workers"),
    (lambda: one_trial_sweep(values=(True,)), "noise sweep value"),
    (lambda: one_trial_sweep("spherical", values=("5",)), "spherical sweep value"),
    (lambda: one_trial_sweep("images", values=(3.5,)), "images sweep value"),
], ids=["radius-True", "pixel-sigma-True", "spherical-sigma-True", "radius-str",
        "pixel-sigma-None", "spherical-sigma-None", "offset-3", "offset-1", "offset-str",
        "spacing-True", "spacing-str", "workers-float", "workers-str", "workers-True",
        "workers-0", "workers-negative",
        "noise-sweep-True", "spherical-sweep-str", "images-sweep-3.5"])
def test_inputs_that_are_not_numbers_are_refused_by_name(make, field):
    with pytest.raises(ValueError, match=field):
        make()
