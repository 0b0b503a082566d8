import time

import numpy as np
import pytest

from collimcal import errors, pipeline
from collimcal.core_geom import CameraIntrinsics, Distortion, ObservationSet, PlanarTarget
from collimcal.refine import general_ba, spherical_ba
from collimcal.single_calib import build_ray_database, calibrate_single_image
from conftest import rotation_from_axis_angle, scene

# ---------------------------------------------------------------------------
# baseline initializer
# ---------------------------------------------------------------------------

def test_zhang_exact_on_noiseless_scene(noiseless_scene):
    _, _, obs = noiseless_scene
    intr = pipeline.zhang_init(obs)
    assert abs(intr.fx - 1000.0) / 1000.0 < 1e-6
    assert abs(intr.fy - 1000.0) / 1000.0 < 1e-6
    assert abs(intr.cx - 542.0) < 1e-3
    assert abs(intr.gamma - 0.01) < 1e-4


@pytest.mark.parametrize("trial", range(5))
def test_zhang_on_two_noiseless_images_adds_the_zero_skew_row(trial):
    # Two views fix only four of the conic's five unknowns; the baseline
    # adds gamma = 0 as a sixth row, which recovers a zero-skew camera.
    truth = CameraIntrinsics(1000.0, 990.0, 542.0, 478.0, 0.0)
    _, _, obs = scene(seed=5, trial=trial, intrinsics=truth, image_count=2)
    intr = pipeline.zhang_init(obs)
    for name in ("fx", "fy", "cx", "cy"):
        assert abs(getattr(intr, name) / getattr(truth, name) - 1.0) < 1e-8, name
    assert abs(intr.gamma) < 1e-9
    assert pipeline.calibrate(obs, "zhang").report.converged


def test_zhang_degenerate_rotation_set_rejected():
    from test_multi_solver import z_rotated_observation_set
    obs = z_rotated_observation_set(
        [rotation_from_axis_angle([0.1, -0.07, 0.02])], extra_pairs=(0.4, -0.6))
    with pytest.raises((errors.DegenerateConfiguration, errors.NotPositiveDefinite)):
        pipeline.zhang_init(obs)


def test_zhang_refuses_a_system_past_the_rank_cutoff(monkeypatch):
    # Singular values 1e3 ... 5e-7: none is zero, but s[-2]/s[0] = 5e-10 lies
    # just below the 1e-9 cutoff, which is relative to s[0] = 1e3.
    rng = np.random.default_rng(0)
    _, _, obs = scene(seed=0, pixel_noise_sigma=0.5)
    U, _ = np.linalg.qr(rng.normal(size=(2 * len(obs), 6)))
    W, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    V = U @ np.diag([1e3, 1e2, 1e1, 1.0, 5e-7, 1e-9]) @ W.T
    rows = np.zeros((len(obs), 6, 6))
    rows[:, 1], rows[:, 0] = V[0::2], V[1::2]  # the u12 and u11 - u22 rows
    monkeypatch.setattr(pipeline, "conic_rows", lambda H: rows)
    with pytest.raises(errors.DegenerateConfiguration, match="rank deficient"):
        pipeline.zhang_init(obs)


@pytest.mark.parametrize("move", [(3000.0, 0.0), (-8000.0, 3000.0)], ids=["3m", "8.5m"])
def test_baseline_start_does_not_depend_on_the_target_origin(move, monkeypatch):
    # Moving the target's coordinates by d moves each pose's translation by
    # exactly -R[:, :2] d and leaves R alone; a start decomposed in raw mm
    # picks the mirrored pose far off the pattern, and the BA then fails.
    # The poses are those the `zhang` mode of `calibrate` hands `general_ba`.
    poses = []

    def recording_ba(observations, init):
        poses.append(init[2])
        return general_ba(observations, init)

    monkeypatch.setattr(pipeline, "general_ba", recording_ba)
    d = np.array(move)
    for trial in range(20):
        _, _, obs = scene(seed=0, trial=trial, pixel_noise_sigma=1.0)
        moved = ObservationSet(PlanarTarget(obs.target.ids, obs.target.xy + d), obs.ids,
                               obs.uv, obs.counts)
        pipeline.calibrate(obs, "zhang")
        pipeline.calibrate(moved, "zhang")
        (R0, t0), (R, t) = poses[-2:]
        assert np.max(np.abs(R - R0)) <= 1e-12
        expected = t0 - R0[:, :, :2] @ d
        assert np.max(np.linalg.norm(t - expected, axis=1)
                      / np.linalg.norm(expected, axis=1)) <= 1e-12


# ---------------------------------------------------------------------------
# calibrate and calibrate_all
# ---------------------------------------------------------------------------

def test_calibrate_takes_the_public_path_and_the_many_set_form_always_stacks(monkeypatch):
    # `calibrate` adjusts through the public function, which a tracer may
    # wrap; `calibrate_all` stacks, for one set as for two, and leaves out
    # a set whose start failed.
    sets = [scene(seed=0, trial=t, pixel_noise_sigma=1.0)[2] for t in range(2)]
    solve = pipeline.solve_closed_form
    stacked, public = [], []

    def first_fails(observations):
        if observations is sets[0]:
            raise errors.DegenerateConfiguration("refused")
        return solve(observations)

    def recording_stack(kind, observation_sets, inits):
        stacked.append(len(inits))
        return [spherical_ba(*pair) for pair in zip(observation_sets, inits)]

    def recording_ba(observations, init):
        public.append(1)
        return spherical_ba(observations, init)

    monkeypatch.setattr(pipeline, "solve_closed_form", first_fails)
    monkeypatch.setattr(pipeline, "bundle_adjustments", recording_stack)
    monkeypatch.setattr(pipeline, "spherical_ba", recording_ba)
    outcomes = pipeline.calibrate_all(sets, "nimg", refine=True, starts=[None, None])
    assert isinstance(outcomes[0][0], errors.DegenerateConfiguration)
    assert isinstance(outcomes[1][0], pipeline.Calibration)
    ((alone, _),) = pipeline.calibrate_all(sets[1:], "nimg", refine=True, starts=[None])
    assert (stacked, public) == ([1, 1], [])
    result = pipeline.calibrate(sets[1], "nimg")
    assert (stacked, public) == ([1, 1], [1])
    for other in (alone, outcomes[1][0]):
        assert (other.intrinsics, other.distortion, other.report) == \
            (result.intrinsics, result.distortion, result.report)


@pytest.mark.parametrize("mode", ["nimg", "zhang"])
def test_calibrate_all_gives_each_set_its_own_result_and_a_share_of_the_time(mode):
    # Each set's seconds are its start's time and an equal share of the
    # adjustments' time, so they sum to less than the call's; with the
    # starts given, only the shares remain.
    sets = [scene(seed=4, trial=t, pixel_noise_sigma=1.0)[2] for t in range(2)]
    for starts in ([None, None], [pipeline.calibrate(obs, mode).start for obs in sets]):
        began = time.perf_counter()
        outcomes = pipeline.calibrate_all(sets, mode, refine=True, starts=starts)
        elapsed = time.perf_counter() - began
        for obs, (result, seconds) in zip(sets, outcomes, strict=True):
            alone = pipeline.calibrate(obs, mode)
            assert (result.intrinsics, result.distortion, result.report) == \
                (alone.intrinsics, alone.distortion, alone.report)
            assert seconds > 0
        assert sum(seconds for _, seconds in outcomes) <= elapsed


def test_only_a_one_set_call_reports_an_unrefined_fit(monkeypatch):
    # The Monte Carlo arms' many-set form never builds the unrefined report.
    _, _, obs = scene(seed=0, trial=3, pixel_noise_sigma=1.0)
    result = pipeline.calibrate(obs, "nimg", refine=False)
    assert result.report.termination == "not_run" and result.report.iterations_used == 0
    assert pipeline.calibrate(obs, "zhang", refine=False).report is None

    def no_report(problem):
        raise AssertionError("an unrefined report was built")

    monkeypatch.setattr(pipeline, "unrefined_report", no_report)
    for mode in ("nimg", "zhang"):
        ((outcome, _),) = pipeline.calibrate_all([obs], mode, refine=False, starts=[None])
        assert outcome.report is None


@pytest.mark.parametrize("call", [
    lambda obs: pipeline.calibrate(obs, "bogus"),
    lambda obs: pipeline.calibrate_all([obs], "single", refine=False, starts=[None]),
], ids=["calibrate", "calibrate_all-single"])
def test_calibrate_refuses_an_unknown_mode(call):
    _, _, obs = scene(seed=0, trial=0)
    with pytest.raises(ValueError, match="unknown calibration mode '(bogus|single)'"):
        call(obs)


def test_a_refined_call_reuses_the_start_it_is_given(monkeypatch):
    _, _, obs = scene(seed=0, trial=2, pixel_noise_sigma=1.0)
    starts = {mode: pipeline.calibrate(obs, mode, refine=False).start
              for mode in ("nimg", "zhang")}
    expected = {mode: pipeline.calibrate(obs, mode) for mode in starts}

    def no_solve(*_):
        raise AssertionError("the start was solved again")

    for name in ("solve_closed_form", "solve_minimal", "conic_rows"):
        monkeypatch.setattr(pipeline, name, no_solve)
    for mode, start in starts.items():
        result = pipeline.calibrate(obs, mode, start=start)
        assert result.intrinsics == expected[mode].intrinsics
        assert result.distortion == expected[mode].distortion


# ---------------------------------------------------------------------------
# the single mode
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def single_inputs():
    """A ray database of the default camera, and one image to calibrate against it."""
    config, _, reference = scene(seed=1, image_count=1)
    database = build_ray_database(reference.ids, reference.uv, config.intrinsics,
                                  config.distortion)
    return database, scene(seed=2, image_count=1)[2], config.image_size


@pytest.mark.parametrize("refine", [True, False], ids=["refined", "init"])
def test_single_mode_is_the_single_image_pipeline(single_inputs, refine):
    database, obs, image_size = single_inputs
    result = pipeline.calibrate(obs, "single", refine=refine, database=database,
                                image_size=image_size)
    direct = calibrate_single_image(obs.ids, obs.uv, database, image_size=image_size,
                                    refine_distortion=refine)
    assert (result.intrinsics, result.distortion) == (direct.intrinsics, direct.distortion)
    assert result.extrinsics.shape == (1, 3, 3)
    assert result.extrinsics[0].tobytes() == direct.rotation.tobytes()
    assert result.report == direct.report
    assert (result.n_matched, result.n_dropped) == (direct.n_matched, direct.n_dropped)
    assert result.start is None
    assert (result.report.termination == "not_run") == (not refine)


@pytest.mark.parametrize("case, message", [
    ("two-images", "single mode needs exactly 1 image, got 2"),
    ("no-database", "single mode needs --reference <database>"),
    ("no-image-size", "single mode needs image_size in the observation file"),
])
def test_single_mode_refusals(single_inputs, case, message):
    database, obs, image_size = single_inputs
    if case == "two-images":
        obs = scene(seed=2, image_count=2)[2]
    arguments = {"database": None if case == "no-database" else database,
                 "image_size": None if case == "no-image-size" else image_size}
    with pytest.raises(ValueError) as refusal:
        pipeline.calibrate(obs, "single", **arguments)
    assert str(refusal.value) == message


# ---------------------------------------------------------------------------
# scoring against the truth
# ---------------------------------------------------------------------------

def test_error_row_leaves_out_what_an_estimate_lacks():
    # No distortion and no center (an unrefined baseline, a single-image
    # rotation) give NaN errors; the rest are estimate minus truth.
    truth_camera = CameraIntrinsics(1000.0, 990.0, 540.0, 480.0, 0.5)
    truth = pipeline.truth_row(truth_camera, Distortion(0.1, -0.2), [10.0, 20.0, -700.0])
    assert truth.tolist() == [1000.0, 990.0, 540.0, 480.0, 0.5, 0.1, -0.2, 10.0, 20.0, 700.0]
    estimate = CameraIntrinsics(1001.0, 988.0, 541.0, 477.0, 0.25)
    row = pipeline.error_row(estimate, None, np.eye(3)[None], truth)
    assert row[:5].tolist() == [1.0, -2.0, 1.0, -3.0, -0.25]
    assert np.isnan(row[5:]).all()
