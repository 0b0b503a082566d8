"""Metamorphic tests: transforms of the input with an exact expected answer.

A solver that treats every pixel alike must answer a pixel shift with the
same shift of the principal point, and one that treats every image alike
must not care about their order.  Each expected answer is exact, so each
bound, 1e-9 relative, leaves room for rounding only, never for noise: over
90 scenes at 1 px the largest deviation seen was 2.4e-11, in the minimal
solver, and 3.1e-13 elsewhere.
"""

import numpy as np
import pytest

from collimcal import errors, synth
from collimcal.core_geom import (
    CameraIntrinsics,
    Distortion,
    ObservationSet,
    PlanarTarget,
)
from collimcal.multi_solver import (
    SphericalExtrinsics,
    detect_degeneracy,
    solve_closed_form,
    solve_minimal,
)
from collimcal.refine import spherical_ba
from collimcal.single_calib import RayDatabase, build_ray_database, calibrate_single_image
from collimcal.synth import zhang_init
from conftest import first_images, pick_images, rotation_from_axis_angle, scene

BOUND = 1e-9
SHIFT = np.array([37.25, -11.5])
TARGET_MOVE = np.array([123.25, -45.5])
SCENES = [(5, trial) for trial in range(10)]
# A power of two, which scales every pixel exactly, and a factor that rounds.
PIXEL_SCALES = [2.0, 0.7]
# Scenes with 30 mm of center jitter in which image 0 does not have the most
# points.
JITTERED = [(5, trial, 30.0) for trial in (2, 38, 39)]


def noisy_scene(seed, trial, jitter=0.0):
    return scene(seed=seed, trial=trial, pixel_noise_sigma=1.0,
                 spherical_noise_sigma=jitter)[2]


def shifted(observations):
    """The observation set with every pixel moved by SHIFT."""
    return ObservationSet(observations.target, observations.ids, observations.uv + SHIFT,
                          observations.counts)


def in_metres(observations):
    """The observation set with its target in metres instead of millimetres."""
    target = observations.target
    return ObservationSet(PlanarTarget(target.ids, target.xy / 1000.0), observations.ids,
                          observations.uv, observations.counts)


def moved_target(observations):
    """The observation set with its target moved by TARGET_MOVE in its plane."""
    target = observations.target
    return ObservationSet(PlanarTarget(target.ids, target.xy + TARGET_MOVE), observations.ids,
                          observations.uv, observations.counts)


def scaled(observations, s):
    """The observation set with every pixel scaled by s about the image origin."""
    return ObservationSet(observations.target, observations.ids, observations.uv * s,
                          observations.counts)


def relabeled(observations):
    """The observation set with every target id replaced by 5000 - 7 id.

    The new ids run the other way, so a sort by id puts the points in the
    reverse order.
    """
    target = observations.target
    return ObservationSet(PlanarTarget(5000 - 7 * target.ids, target.xy),
                          5000 - 7 * observations.ids, observations.uv, observations.counts)


def shuffled(observations, seed):
    """The observation set with the points of each image in a random order."""
    rng = np.random.default_rng(seed)
    starts = np.cumsum(observations.counts) - observations.counts
    order = np.concatenate([start + rng.permutation(count)
                            for start, count in zip(starts, observations.counts)])
    return ObservationSet(observations.target, observations.ids[order],
                          observations.uv[order], observations.counts)


def assert_close(got, expected, scale):
    """|got - expected| within BOUND of `scale`, entry by entry."""
    deviation = np.max(np.abs(np.asarray(got, dtype=float) - expected)) / scale
    assert deviation < BOUND, deviation


def assert_same_camera(intr, ext, ref_intr, ref_ext, shift=(0.0, 0.0), order=None, unit=1.0):
    """intr and ext match the reference camera with its principal point
    moved by `shift`, its rotations taken in `order` and its center scaled
    by `unit`."""
    f = ref_intr.fx
    assert_close([intr.fx, intr.fy, intr.gamma], [f, ref_intr.fy, ref_intr.gamma], f)
    assert_close([intr.cx, intr.cy], [ref_intr.cx + shift[0], ref_intr.cy + shift[1]], f)
    assert_close(ext.t_cp, ref_ext.t_cp * unit, ref_ext.r * unit)
    rotations = ref_ext.rotations if order is None else ref_ext.rotations[order]
    assert_close(ext.rotations, rotations, 1.0)


@pytest.mark.parametrize("seed, trial", SCENES)
def test_closed_form_moves_the_principal_point_with_a_pixel_shift(seed, trial):
    observations = noisy_scene(seed, trial)
    assert_same_camera(*solve_closed_form(shifted(observations)),
                       *solve_closed_form(observations), shift=SHIFT)


@pytest.mark.parametrize("seed, trial", SCENES)
def test_spherical_ba_moves_the_principal_point_with_a_pixel_shift(seed, trial):
    observations = noisy_scene(seed, trial)
    intr, ext = solve_closed_form(observations)
    (ref_intr, ref_dist, ref_ext), ref_report = spherical_ba(
        observations, (intr, Distortion(), ext))
    intr, ext = solve_closed_form(shifted(observations))
    (intr, dist, ext), report = spherical_ba(shifted(observations), (intr, Distortion(), ext))
    assert_same_camera(intr, ext, ref_intr, ref_ext, shift=SHIFT)
    assert_close([dist.d1, dist.d2], [ref_dist.d1, ref_dist.d2], 1.0)
    assert report.iterations_used == ref_report.iterations_used


@pytest.mark.parametrize("seed, trial, jitter", [(*s, 0.0) for s in SCENES] + JITTERED,
                         ids=[f"{seed}-{trial}" for seed, trial in SCENES]
                         + [f"{seed}-{trial}-{jitter:g}mm" for seed, trial, jitter in JITTERED])
def test_closed_form_ignores_the_image_order(seed, trial, jitter):
    # The linear system takes its scale ratios to image 0, so reversing the
    # order changes the reference image.
    observations = noisy_scene(seed, trial, jitter)
    assert not jitter or observations.counts[0] < max(observations.counts)
    order = np.arange(len(observations))[::-1]
    assert_same_camera(*solve_closed_form(pick_images(observations, order)),
                       *solve_closed_form(observations), order=order)


@pytest.mark.parametrize("seed, trial", SCENES)
def test_minimal_solver_ignores_which_image_comes_first(seed, trial):
    # A pair without a valid candidate has none either way round.
    pair = first_images(noisy_scene(seed, trial), 2)
    try:
        candidates = solve_minimal(pair)
    except errors.NoValidCandidate:
        with pytest.raises(errors.NoValidCandidate):
            solve_minimal(pick_images(pair, [1, 0]))
        return
    swapped = solve_minimal(pick_images(pair, [1, 0]))
    assert len(swapped) == len(candidates)
    for (intr, ext), (ref_intr, ref_ext) in zip(swapped, candidates):
        assert_same_camera(intr, ext, ref_intr, ref_ext, order=[1, 0])


@pytest.mark.parametrize("seed, trial", SCENES)
def test_minimal_solver_moves_the_principal_point_with_a_pixel_shift(seed, trial):
    # A pair without a valid candidate has none after the shift either.
    pair = first_images(noisy_scene(seed, trial), 2)
    try:
        candidates = solve_minimal(pair)
    except errors.CalibrationError as exc:
        with pytest.raises(errors.CalibrationError) as raised:
            solve_minimal(shifted(pair))
        assert type(raised.value) is type(exc)
        return
    moved = solve_minimal(shifted(pair))
    assert len(moved) == len(candidates)
    for (intr, ext), (ref_intr, ref_ext) in zip(moved, candidates):
        assert_same_camera(intr, ext, ref_intr, ref_ext, shift=SHIFT)


@pytest.mark.parametrize("seed, trial", SCENES)
def test_closed_form_scales_the_center_with_the_target_units(seed, trial):
    observations = noisy_scene(seed, trial)
    assert_same_camera(*solve_closed_form(in_metres(observations)),
                       *solve_closed_form(observations), unit=1e-3)


@pytest.mark.parametrize("seed, trial", SCENES)
def test_spherical_ba_scales_the_center_with_the_target_units(seed, trial):
    # LM damps each parameter by its own JᵀWJ diagonal, so a change of units
    # leaves every step, and the iteration count, as it was.
    observations = noisy_scene(seed, trial)
    intr, ext = solve_closed_form(observations)
    (ref_intr, ref_dist, ref_ext), ref_report = spherical_ba(
        observations, (intr, Distortion(), ext))
    intr, ext = solve_closed_form(in_metres(observations))
    (intr, dist, ext), report = spherical_ba(in_metres(observations), (intr, Distortion(), ext))
    assert_same_camera(intr, ext, ref_intr, ref_ext, unit=1e-3)
    assert_close([dist.d1, dist.d2], [ref_dist.d1, ref_dist.d2], 1.0)
    assert report.iterations_used == ref_report.iterations_used


@pytest.mark.parametrize("seed, trial", SCENES)
def test_spherical_ba_moves_the_center_with_the_target(seed, trial):
    # Moving the target by s in its plane, and the start's center with it,
    # leaves every P - c, so every residual, Jacobian and step, as it was.
    observations = noisy_scene(seed, trial)
    intr, ext = solve_closed_form(observations)
    (ref_intr, ref_dist, ref_ext), ref_report = spherical_ba(
        observations, (intr, Distortion(), ext))
    x, y = ext.x + TARGET_MOVE[0], ext.y + TARGET_MOVE[1]
    start = SphericalExtrinsics(x=x, y=y, r=ext.r, rotations=ext.rotations)
    (intr, dist, ext), report = spherical_ba(moved_target(observations),
                                             (intr, Distortion(), start))
    x, y = ref_ext.x + TARGET_MOVE[0], ref_ext.y + TARGET_MOVE[1]
    moved = SphericalExtrinsics(x=x, y=y, r=ref_ext.r, rotations=ref_ext.rotations)
    assert_same_camera(intr, ext, ref_intr, moved)
    assert_close([dist.d1, dist.d2], [ref_dist.d1, ref_dist.d2], 1.0)
    assert report.iterations_used == ref_report.iterations_used


@pytest.mark.parametrize("seed, trial", SCENES)
def test_closed_form_ignores_the_point_order(seed, trial):
    observations = noisy_scene(seed, trial)
    assert_same_camera(*solve_closed_form(shuffled(observations, trial)),
                       *solve_closed_form(observations))


def assert_scaled_intrinsics(intr, ref_intr, s):
    """Every intrinsic of intr is s times that of the reference."""
    assert_close([intr.fx, intr.fy, intr.cx, intr.cy, intr.gamma],
                 [s * ref_intr.fx, s * ref_intr.fy, s * ref_intr.cx, s * ref_intr.cy,
                  s * ref_intr.gamma], s * ref_intr.fx)


def assert_scaled_camera(intr, ext, ref_intr, ref_ext, s):
    """intr and ext match the reference camera with its pixels scaled by s:
    the intrinsics scale by s, and the rotations and the center stay."""
    assert_scaled_intrinsics(intr, ref_intr, s)
    assert_close(ext.t_cp, ref_ext.t_cp, ref_ext.r)
    assert_close(ext.rotations, ref_ext.rotations, 1.0)


@pytest.mark.parametrize("s", PIXEL_SCALES)
@pytest.mark.parametrize("seed, trial", SCENES)
def test_closed_form_scales_the_intrinsics_with_the_pixels(seed, trial, s):
    # Scaling every pixel by s is K -> diag(s, s, 1) K: the intrinsics scale
    # by s and the rotations and the center stay.
    observations = noisy_scene(seed, trial)
    assert_scaled_camera(*solve_closed_form(scaled(observations, s)),
                         *solve_closed_form(observations), s)


@pytest.mark.parametrize("s", PIXEL_SCALES)
@pytest.mark.parametrize("seed, trial", SCENES)
def test_minimal_solver_scales_the_intrinsics_with_the_pixels(seed, trial, s):
    # A pair without a valid candidate has none after the scaling either.
    pair = first_images(noisy_scene(seed, trial), 2)
    try:
        candidates = solve_minimal(pair)
    except errors.CalibrationError as exc:
        with pytest.raises(errors.CalibrationError) as raised:
            solve_minimal(scaled(pair, s))
        assert type(raised.value) is type(exc)
        return
    scaled_candidates = solve_minimal(scaled(pair, s))
    assert len(scaled_candidates) == len(candidates)
    for (intr, ext), (ref_intr, ref_ext) in zip(scaled_candidates, candidates):
        assert_scaled_camera(intr, ext, ref_intr, ref_ext, s)


@pytest.mark.parametrize("s", PIXEL_SCALES)
@pytest.mark.parametrize("seed, trial", SCENES)
def test_zhang_init_scales_the_intrinsics_with_the_pixels(seed, trial, s):
    observations = noisy_scene(seed, trial)
    assert_scaled_intrinsics(zhang_init(scaled(observations, s)), zhang_init(observations), s)


@pytest.mark.parametrize("seed, trial", SCENES)
def test_closed_form_ignores_the_id_labels(seed, trial):
    observations = noisy_scene(seed, trial)
    assert_same_camera(*solve_closed_form(relabeled(observations)),
                       *solve_closed_form(observations))


@pytest.mark.parametrize("seed, trial", SCENES)
def test_spherical_ba_ignores_the_id_labels(seed, trial):
    observations = noisy_scene(seed, trial)
    intr, ext = solve_closed_form(observations)
    (ref_intr, ref_dist, ref_ext), ref_report = spherical_ba(
        observations, (intr, Distortion(), ext))
    (intr, dist, ext), report = spherical_ba(relabeled(observations),
                                             (intr, Distortion(), ext))
    assert_same_camera(intr, ext, ref_intr, ref_ext)
    assert_close([dist.d1, dist.d2], [ref_dist.d1, ref_dist.d2], 1.0)
    assert report.iterations_used == ref_report.iterations_used


@pytest.mark.parametrize("seed, trial", SCENES)
def test_degeneracy_report_ignores_the_id_labels(seed, trial):
    # Image 0 repeated last, so the report flags a pair to keep.
    observations = pick_images(noisy_scene(seed, trial), [0, 1, 2, 3, 0])
    report = detect_degeneracy(observations)
    assert (0, 4) in report.pure_translation_pairs
    assert detect_degeneracy(relabeled(observations)) == report


def baseline(observations):
    """The free-motion BA's refined triple and report, as `calibrate` runs it in
    the `zhang` mode: from the baseline's conic and the poses of its homographies."""
    result = synth.calibrate(observations, "zhang")
    return (result.intrinsics, result.distortion, result.extrinsics), result.report


@pytest.mark.parametrize("seed, trial", SCENES)
def test_general_ba_moves_the_principal_point_with_a_pixel_shift(seed, trial):
    observations = noisy_scene(seed, trial)
    (ref_intr, ref_dist, (ref_R, ref_t)), ref_report = baseline(observations)
    (intr, dist, (R, t)), report = baseline(shifted(observations))
    f = ref_intr.fx
    assert_close([intr.fx, intr.fy, intr.gamma], [f, ref_intr.fy, ref_intr.gamma], f)
    assert_close([intr.cx, intr.cy], [ref_intr.cx + SHIFT[0], ref_intr.cy + SHIFT[1]], f)
    assert_close([dist.d1, dist.d2], [ref_dist.d1, ref_dist.d2], 1.0)
    assert_close(R, ref_R, 1.0)
    assert_close(t, ref_t, np.max(np.abs(ref_t)))
    assert report.iterations_used == ref_report.iterations_used


@pytest.fixture(scope="module")
def single_image_database():
    """Criterion-8's reference database and the same rays in a rotated frame Q."""
    config = synth.default_config(intrinsics=CameraIntrinsics(1200.0, 1180.0, 700.0, 500.0),
                                  image_size=(1400, 1000), image_count=1)
    rng = np.random.default_rng(np.random.SeedSequence(41, spawn_key=(0,)))
    _, reference = synth.make_scene(config, rng)
    database = build_ray_database(reference.ids, reference.uv, config.intrinsics, Distortion())
    Q = rotation_from_axis_angle([0.3, -0.5, 0.2])
    return database, Q, RayDatabase(database.ids, database.rays @ Q.T,
                                    database.ref_intrinsics, database.ref_distortion)


@pytest.mark.parametrize("trial", range(10))
def test_single_image_pipeline_follows_a_rotation_of_the_database_frame(
        single_image_database, trial):
    # With the database rays turned by Q, K stays and R becomes R Qᵀ.  The
    # BA stage is left out: Marquardt damping scales each parameter by its
    # own JᵀWJ diagonal, which a rotation of the rotation increments
    # changes, so each damped path stops within its stop tolerance of the
    # optimum, not at the same point (ROADMAP Direction 15).
    database, Q, rotated = single_image_database
    config = synth.default_config(image_count=1, distortion=Distortion(0.1, -0.2),
                                  pixel_noise_sigma=0.5)
    rng = np.random.default_rng(np.random.SeedSequence(43, spawn_key=(trial,)))
    _, image = synth.make_scene(config, rng)
    ref, got = (calibrate_single_image(image.ids, image.uv, db, image_size=config.image_size,
                                       refine_distortion=False)
                for db in (database, rotated))
    f = ref.intrinsics.fx
    assert_close([got.intrinsics.fx, got.intrinsics.fy, got.intrinsics.cx, got.intrinsics.cy,
                  got.intrinsics.gamma],
                 [f, ref.intrinsics.fy, ref.intrinsics.cx, ref.intrinsics.cy,
                  ref.intrinsics.gamma], f)
    assert_close(got.rotation @ Q, ref.rotation, 1.0)
