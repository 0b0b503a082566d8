import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from collimcal import errors, refine
from collimcal.core_geom import (
    MIN_IMAGE_POINTS,
    CameraIntrinsics,
    Distortion,
    back_project,
    checked_rotations,
    project,
)
from collimcal.multi_solver import SphericalExtrinsics, solve_closed_form
from conftest import (
    identity_rotation,
    rotation_from_axis_angle,
    scene,
    split_images,
    stack_images,
)


def fd_jacobian(residual, plus, state, h=1e-6):
    """Independent central-difference Jacobian on the local parameterization."""
    r0 = residual(state)
    size = state.x.size
    J = np.empty((r0.size, size))
    for k in range(size):
        e = np.zeros(size)
        e[k] = h
        J[:, k] = (residual(plus(state, e)) - residual(plus(state, -e))) / (2.0 * h)
    return J


def max_relative_deviation(J_analytic, J_fd):
    return float(np.max(np.abs(J_analytic - J_fd) / np.maximum(1.0, np.abs(J_analytic))))


def vector_plus(x, d):
    return x + d


# ---------------------------------------------------------------------------
# LM engine
# ---------------------------------------------------------------------------

def test_lm_rosenbrock():
    def residual(x):
        return np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)])

    def jacobian(x):
        return np.array([[-1.0, 0.0], [-20.0 * x[0], 10.0]])

    x, report = refine.lm_minimize(residual, jacobian, np.array([-1.2, 1.0]))
    assert report.converged
    assert np.allclose(x, [1.0, 1.0], atol=1e-8)


def test_lm_zero_residual_start():
    def residual(x):
        return x - np.array([2.0, -3.0])

    x, report = refine.lm_minimize(residual, lambda x: np.eye(2), np.array([2.0, -3.0]))
    assert report.converged
    assert report.termination == "gradient"
    assert report.iterations_used == 0
    assert report.cost_trajectory == (0.0,)


def test_lm_cost_trajectory_monotone_with_robustifier():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(40, 3))
    b = A @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=40)
    b[5] += 30.0  # one gross outlier

    x, report = refine.lm_minimize(lambda x: A @ x - b, lambda x: A,
                                   np.zeros(3), robust_scale=1.0)
    traj = report.cost_trajectory
    assert all(a >= b_ - 1e-12 for a, b_ in zip(traj, traj[1:]))
    assert report.converged


def strict_lm(*args, **kwargs):
    """lm_minimize with every warning, numpy's division by zero too, raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return refine.lm_minimize(*args, **kwargs)


def test_lm_uncertainty_stop_skips_square_problems_and_exact_fits():
    # With m <= P or a zero cost there is no estimate of the noise, so the
    # stop on the parameters' standard deviations must stay silent: no
    # division by zero, and the run ends on a test that needs none.
    def square(x):
        return np.array([x[0] ** 2 + x[1] - 3.0, x[0] - x[1] ** 3 + 1.0])

    def square_jacobian(x):
        return np.array([[2.0 * x[0], 1.0], [1.0, -3.0 * x[1] ** 2]])

    rng = np.random.default_rng(2)
    A = rng.normal(size=(12, 3))
    b = A @ np.array([1.0, -2.0, 0.5])

    def exact(x):
        return np.concatenate([A @ x - b, [x[0] * x[1] + 2.0]])

    def exact_jacobian(x):
        return np.vstack([A, [x[1], x[0], 0.0]])

    def flat(x):
        return np.full(3, max(x[0] - 2.0, 0.0))

    def flat_jacobian(x):
        # Understates the slope, so that the first step overshoots into the
        # half-line where the residual, and so the cost, is exactly zero.
        return np.full((3, 1), 0.5)

    runs = [(square, square_jacobian, np.array([2.0, 2.0]), {}),
            (exact, exact_jacobian, np.zeros(3), {}),
            (exact, exact_jacobian, np.zeros(3), {"robust_scale": 1.0}),
            (lambda x: A @ x - b, lambda x: A, np.zeros(3), {}),
            (flat, flat_jacobian, np.array([3.0]), {}),
            (lambda x: np.array([x[0] * x[1] - 2.0]), lambda x: np.array([[x[1], x[0]]]),
             np.array([3.0, 3.0]), {})]
    for residual, jacobian, x0, kwargs in runs:
        x, report = strict_lm(residual, jacobian, x0, **kwargs)
        assert report.termination in ("gradient", "cost", "step")
        assert report.iterations_used > 0
        assert np.max(np.abs(residual(x))) < 1e-6


def test_lm_uncertainty_stop_needs_two_accepted_steps(monkeypatch):
    # A first accepted step far shorter than 0.01 standard deviations has no
    # step before it to give a rate, so it must not end the run.
    monkeypatch.setattr(refine, "_MAX_ITERATIONS", 1)
    rng = np.random.default_rng(3)
    A = rng.normal(size=(40, 3))
    b = A @ np.array([1.0, -2.0, 0.5]) + 0.1 * rng.normal(size=40)
    x_hat = np.linalg.lstsq(A, b, rcond=None)[0]
    residual = lambda x: A @ x - b
    sigma = 0.1 * np.sqrt(np.diag(np.linalg.inv(A.T @ A)))
    x0 = x_hat + 1e-3 * sigma
    spread = refine._step_spread(A.T @ A, x_hat - x0, float(np.sum(residual(x_hat) ** 2)), 40)
    assert spread < 1e-2
    _, report = strict_lm(residual, lambda x: A, x0)
    assert report.iterations_used == 1
    assert report.termination == "budget"


def test_lm_respects_iteration_budget(monkeypatch):
    monkeypatch.setattr(refine, "_MAX_ITERATIONS", 2)

    def residual(x):
        return np.array([np.exp(x[0]) - 5.0, x[0] ** 3])

    def jacobian(x):
        return np.array([[np.exp(x[0])], [3.0 * x[0] ** 2]])

    _, report = refine.lm_minimize(residual, jacobian, np.array([4.0]))
    assert report.iterations_used <= 2
    assert report.termination == "budget"


def test_lm_non_finite_jacobian_raises():
    with pytest.raises(errors.NormalEquationsFailed):
        refine.lm_minimize(lambda x: x - 1.0, lambda x: np.full((2, 2), np.nan),
                           np.zeros(2))


def test_lm_unsolvable_normal_equations_raise(monkeypatch):
    def singular(a, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    # Counted up by tens from the damping floor, where a run of accepted
    # steps leaves it, the damping never lands exactly on its ceiling.
    monkeypatch.setattr(refine, "_INITIAL_DAMPING", 1e-12)
    with pytest.raises(errors.NormalEquationsFailed):
        refine.lm_minimize(lambda x: x - 1.0, lambda x: np.eye(2), np.zeros(2))


def test_lm_rejecting_every_step_reports_damping():
    x0 = np.zeros(2)

    def residual(x):
        if not np.array_equal(x, x0):
            raise errors.PointBehindCamera("every step leaves the domain")
        return x - 1.0

    x, report = refine.lm_minimize(residual, lambda x: np.eye(2), x0)
    assert report.termination == "damping"
    assert not report.converged
    assert np.array_equal(x, x0)


# ---------------------------------------------------------------------------
# spherical bundle adjustment
# ---------------------------------------------------------------------------

def exact_init(poses, config):
    R, _ = poses
    ext = SphericalExtrinsics(x=config.target_offset[0], y=config.target_offset[1],
                              r=config.radius, rotations=R)
    return config.intrinsics, config.distortion, ext


def test_spherical_parameter_count(noiseless_scene):
    config, poses, obs = noiseless_scene
    init = exact_init(poses, config)
    _, _, _, x0, *_ = refine.spherical_problem(obs, init)
    assert x0.x.size == 10 + 3 * len(obs)


def test_spherical_ba_fixed_point(noiseless_scene, monkeypatch):
    config, poses, obs = noiseless_scene
    # Rendered pixels carry ~1e-13 px float noise relative to the refinement's
    # own chain; a gradient tolerance at that scale makes "already optimal"
    # exact: no step is accepted and the cost is untouched.
    monkeypatch.setattr(refine, "_GRADIENT_TOLERANCE", 1e-4)
    (intr, dist, ext), report = refine.spherical_ba(obs, exact_init(poses, config))
    assert report.iterations_used == 0
    assert len(report.cost_trajectory) == 1
    assert intr.fx == config.intrinsics.fx


def test_spherical_ba_recovers_from_perturbed_focal(noiseless_scene):
    config, poses, obs = noiseless_scene
    intr0, dist0, ext0 = exact_init(poses, config)
    bad = CameraIntrinsics(fx=intr0.fx * 1.01, fy=intr0.fy * 1.01,
                           cx=intr0.cx, cy=intr0.cy, gamma=intr0.gamma)
    (intr, dist, ext), report = refine.spherical_ba(obs, (bad, dist0, ext0))
    assert report.converged
    assert report.iterations_used < 20
    assert abs(intr.fx - intr0.fx) / intr0.fx < 1e-6
    assert abs(intr.fy - intr0.fy) / intr0.fy < 1e-6
    assert np.allclose(ext.t_cp, ext0.t_cp, atol=1e-4)


def test_spherical_ba_gauge_unique_minimum():
    # Zero-skew noiseless data: perturbing the init in 10 random directions
    # always returns to the generating parameters.
    config, poses, obs = scene(seed=21, intrinsics=CameraIntrinsics(1000.0, 1000.0,
                                                                    542.0, 478.0, 0.0))
    intr0, dist0, ext0 = exact_init(poses, config)
    rng = np.random.default_rng(3)
    for _ in range(10):
        bad = CameraIntrinsics(fx=intr0.fx + rng.normal() * 5.0,
                               fy=intr0.fy + rng.normal() * 5.0,
                               cx=intr0.cx + rng.normal() * 3.0,
                               cy=intr0.cy + rng.normal() * 3.0,
                               gamma=rng.normal() * 0.01)
        shifted = SphericalExtrinsics(x=ext0.x + rng.normal(), y=ext0.y + rng.normal(),
                                      r=ext0.r + rng.normal(), rotations=ext0.rotations)
        (intr, _, ext), report = refine.spherical_ba(obs, (bad, dist0, shifted))
        assert abs(intr.fx - intr0.fx) / intr0.fx < 1e-7
        assert abs(intr.gamma) < 1e-5
        assert np.allclose(ext.t_cp, ext0.t_cp, atol=1e-3)


def test_spherical_ba_improves_on_noisy_initialization():
    # Full synthetic configuration including the true radial distortion;
    # the linear initialization cannot model it, refinement must.
    from collimcal import synth
    cfg = synth.default_config(pixel_noise_sigma=0.5, trial_count=12,
                                     distortion=Distortion(0.1, -0.2))
    stats = synth.run_monte_carlo(cfg, "noise", [0.5], arms=("ours", "ours_ba"),
                                  workers=1)
    init, refined = stats
    assert np.nanmean(refined.focal_rel_errors()) < np.nanmean(init.focal_rel_errors())
    assert np.nanmean(refined.principal_point_errors()) < np.nanmean(init.principal_point_errors())
    assert np.nanmean(refined.center_errors()) < np.nanmean(init.center_errors())


def zhang_general_init(obs):
    from collimcal.core_geom import estimate_homography, decompose_homography
    from collimcal.synth import zhang_init
    intr = zhang_init(obs)
    H = np.array([estimate_homography(obs.target.xy_for(ids), uv)
                  for ids, uv in split_images(obs)])
    R, t, _ = decompose_homography(H, intr)
    return intr, Distortion(0.0, 0.0), (R, t)


@pytest.mark.parametrize("adjustment", ["spherical", "general"])
def test_ba_stops_converged_on_noisy_scenes(adjustment):
    # At 1 px the accepted steps shrink geometrically, and after about seven
    # the steps still to come add up to under 0.01 standard deviations of
    # every parameter (at most 9 over these 20 scenes); LM must stop there
    # and say it converged, not run on to the cost tolerance or the damping.
    for trial in range(20):
        _, _, obs = scene(seed=0, trial=trial, pixel_noise_sigma=1.0)
        if adjustment == "spherical":
            intr, ext = solve_closed_form(obs)
            _, report = refine.spherical_ba(obs, (intr, Distortion(0.0, 0.0), ext))
        else:
            _, report = refine.general_ba(obs, zhang_general_init(obs))
        assert report.converged
        assert report.termination == "uncertainty"
        assert report.iterations_used <= 10


def gauss_newton_step_in_sd(problem):
    """Largest |delta_i| / sigma_i of one undamped Gauss-Newton step from x0.

    delta = -A^-1 g with the Cauchy IRLS weights at x0, and sigma_i^2 =
    sigma^2 (A^-1)_ii with sigma^2 the robust cost over m - P, the
    covariance of the estimate.  A is Jacobi-scaled before it is inverted.
    """
    residual, jacobian, _, x0, *_ = problem
    r = residual(x0)
    squares = refine._block_squares(r, 2)
    weights = refine._block_weights(squares, 2, refine._CAUCHY_SCALE_PX)
    A, g = jacobian(x0).normal_equations(weights, r)
    scale = 1.0 / np.sqrt(np.diag(A))
    A_inv = scale[:, None] * np.linalg.inv(scale[:, None] * A * scale) * scale
    delta = -A_inv @ g
    sigma2 = refine._robust_cost(squares, refine._CAUCHY_SCALE_PX) / (r.size - x0.x.size)
    return float(np.max(np.abs(delta) / np.sqrt(sigma2 * np.diag(A_inv))))


@pytest.mark.parametrize("adjustment", ["spherical", "general"])
@pytest.mark.parametrize("noise", [1.0, 3.0])
def test_ba_stops_within_a_hundredth_of_a_standard_deviation(adjustment, noise):
    # The stop's contract: from the returned result, the Gauss-Newton step
    # to the optimum moves no parameter by more than 0.02 of its own
    # standard deviation.  A 3 px scene converges slowest.
    for trial in range(6):
        _, _, obs = scene(seed=2, trial=trial, pixel_noise_sigma=noise)
        if adjustment == "spherical":
            intr, ext = solve_closed_form(obs)
            result, report = refine.spherical_ba(obs, (intr, Distortion(0.0, 0.0), ext))
            problem = refine.spherical_problem(obs, result)
        else:
            result, report = refine.general_ba(obs, zhang_general_init(obs))
            problem = refine.general_problem(obs, result)
        assert report.converged, (trial, report.termination)
        assert gauss_newton_step_in_sd(problem) <= 0.02, trial


def test_spherical_ba_converges_at_an_exact_fit():
    # Noiseless scenes: the closed form already sits at the optimum, the cost
    # is rounding noise and no step lowers it.  LM must stop on the step
    # tolerance and say it converged, not run the damping out.
    for seed in range(30):
        _, _, obs = scene(seed=seed)
        intr, ext = solve_closed_form(obs)
        _, report = refine.spherical_ba(obs, (intr, Distortion(0.0, 0.0), ext))
        assert report.converged, (seed, report.termination)


# ---------------------------------------------------------------------------
# Jacobian correctness (independent finite differences)
# ---------------------------------------------------------------------------

def test_spherical_jacobian_matches_finite_differences():
    config, poses, obs = scene(seed=31, pixel_noise_sigma=0.5)
    intr, ext = solve_closed_form(obs)
    init = (intr, Distortion(0.0, 0.0), ext)
    residual, jacobian, plus, x0, *_ = refine.spherical_problem(obs, init)
    rng = np.random.default_rng(5)
    for _ in range(3):
        x = plus(x0, rng.normal(size=x0.x.size) * 1e-3)
        assert max_relative_deviation(jacobian(x).toarray(),
                                      fd_jacobian(residual, plus, x)) < 1e-5


def test_single_image_jacobian_matches_finite_differences():
    rng = np.random.default_rng(7)
    rays = rng.normal(size=(30, 3))
    rays[:, 2] = np.abs(rays[:, 2]) * 4.0 + 2.0
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    intr = CameraIntrinsics(1000.0, 1000.0, 540.0, 480.0, 0.01)
    rot = rotation_from_axis_angle([0.03, -0.06, 0.1])
    pixels = project(intr, Distortion(0.1, -0.2), rot, np.zeros(3), rays)
    init = (intr, Distortion(0.05, -0.1), rot)
    residual, jacobian, plus, x0, *_ = refine.single_image_problem(rays, pixels, init)
    for _ in range(3):
        x = plus(x0, rng.normal(size=x0.x.size) * 1e-3)
        assert max_relative_deviation(jacobian(x).toarray(),
                                      fd_jacobian(residual, plus, x)) < 1e-5


def test_general_jacobian_matches_finite_differences():
    config, poses, obs = scene(seed=33, image_count=4, pixel_noise_sigma=0.3)
    residual, jacobian, plus, x0, *_ = refine.general_problem(obs, zhang_general_init(obs))
    rng = np.random.default_rng(9)
    x = plus(x0, rng.normal(size=x0.x.size) * 1e-3)
    assert max_relative_deviation(jacobian(x).toarray(), fd_jacobian(residual, plus, x)) < 1e-5


@pytest.mark.parametrize("adjustment", ["spherical", "general"])
def test_multi_image_jacobian_with_distortion_and_skew_matches_finite_differences(adjustment):
    # The d1, d2 and gamma entries of the multi-image Jacobians, and the pose
    # columns they scale, vanish at d = 0 and gamma = 0.
    _, _, obs = scene(seed=35, image_count=4, pixel_noise_sigma=0.5)
    dist = Distortion(0.1, -0.2)
    if adjustment == "spherical":
        intr, ext = solve_closed_form(obs)
        intr = CameraIntrinsics(intr.fx, intr.fy, intr.cx, intr.cy, 0.8)
        problem = refine.spherical_problem(obs, (intr, dist, ext))
    else:
        intr, _, poses = zhang_general_init(obs)
        intr = CameraIntrinsics(intr.fx, intr.fy, intr.cx, intr.cy, 0.8)
        problem = refine.general_problem(obs, (intr, dist, poses))
    residual, jacobian, plus, x0, *_ = problem
    rng = np.random.default_rng(11)
    for _ in range(2):
        x = plus(x0, rng.normal(size=x0.x.size) * 1e-3)
        assert x.x[4] != 0.0 and x.x[5] != 0.0 and x.x[6] != 0.0
        assert max_relative_deviation(jacobian(x).toarray(),
                                      fd_jacobian(residual, plus, x)) < 1e-5


def test_residuals_reject_points_behind_camera():
    config, poses, obs = scene(seed=31, image_count=3)
    intr, ext = solve_closed_form(obs)
    dist = Distortion(0.0, 0.0)
    flip = rotation_from_axis_angle([np.pi, 0.0, 0.0])
    # A half turn about x sends every target point behind a camera that
    # sits in front of the target (and every forward ray backwards).
    spherical = refine.spherical_problem(
        obs, (intr, dist, SphericalExtrinsics(x=ext.x, y=ext.y, r=ext.r,
                                              rotations=np.array([flip] * len(obs)))))
    general = refine.general_problem(
        obs, (intr, dist, (np.array([identity_rotation()] * len(obs)),
                           np.tile([0.0, 0.0, -1e4], (len(obs), 1)))))
    rays = np.array([[0.1, 0.0, 1.0], [0.0, -0.1, 1.0], [0.05, 0.05, 1.0]])
    single = refine.single_image_problem(rays, np.zeros((3, 2)), (intr, dist, flip))
    for residual, jacobian, _, x0, *_ in (spherical, general, single):
        with pytest.raises(errors.PointBehindCamera):
            residual(x0)
        with pytest.raises(errors.PointBehindCamera):
            jacobian(x0)


@pytest.mark.parametrize("adjustment", ["spherical", "general", "single"])
@pytest.mark.parametrize("defect, message", [
    (np.diag([1.0, 1.0, 1.0 + 1e-9]), "matrix is not orthonormal"),
    (np.diag([1.0, 1.0, -1.0]), "matrix determinant is not +1"),
])
def test_ba_refuses_a_start_rotation_that_is_not_proper(adjustment, defect, message):
    # A caller's start rotations enter every bundle adjustment through one
    # check, which names the image of the first bad one.
    _, _, obs = scene(seed=31, image_count=3)
    intr, ext = solve_closed_form(obs)
    dist = Distortion(0.0, 0.0)
    R = ext.rotations.copy()
    R[-1] = R[-1] @ defect
    if adjustment == "spherical":
        image, run = 2, lambda: refine.spherical_ba(obs, (intr, dist, replace(ext, rotations=R)))
    elif adjustment == "general":
        image, run = 2, lambda: refine.general_ba(obs, (intr, dist, (R, -(R @ ext.t_cp))))
    else:
        rays = np.array([[0.1, 0.0, 1.0], [0.0, -0.1, 1.0], [0.05, 0.05, 1.0]] * 3)
        image, run = 0, lambda: refine.single_image_ba(rays, np.zeros((9, 2)),
                                                       (intr, dist, R[-1]))
    with pytest.raises(ValueError, match=rf"^rotation {image}: {re.escape(message)}"):
        run()


def noisy_problems():
    """Spherical, general and single-image closures on noisy scenes."""
    _, _, obs = scene(seed=41, pixel_noise_sigma=1.0)
    intr, ext = solve_closed_form(obs)
    spherical = refine.spherical_problem(obs, (intr, Distortion(0.0, 0.0), ext))
    general = refine.general_problem(obs, zhang_general_init(obs))
    rays, pixels, intr, _, rot = single_image_setup(
        np.random.default_rng(4), Distortion(0.1, -0.2), noise_sigma=1.0)
    single = refine.single_image_problem(rays, pixels, (intr, Distortion(0.0, 0.0), rot))
    return {"spherical": spherical, "general": general, "single": single}


def behind_camera(name, state, plus):
    """A state beside `state` that puts the first image's points behind its camera."""
    if name == "general":
        delta = np.zeros(state.x.size)
        delta[12] = -1e4 - state.x[12]   # t_z of image 0, after (K, d) and its rotation
        return plus(state, delta)
    R = state.rotations.copy()
    R[0] = rotation_from_axis_angle([np.pi, 0.0, 0.0])  # a half turn about x
    return refine.LMState(state.x.copy(), R)


@pytest.mark.parametrize("name", ["spherical", "general", "single"])
def test_jacobian_never_reuses_a_stale_evaluation(name):
    # The Jacobian reuses the evaluation stored on its state; it must equal a
    # freshly built problem's Jacobian at the same point however the calls
    # interleave.
    residual, jacobian, plus, x0, *_ = noisy_problems()[name]

    def fresh(state):
        copy = refine.LMState(state.x.copy(), state.rotations.copy())
        return noisy_problems()[name][1](copy).toarray()

    rng = np.random.default_rng(21)
    x = plus(x0, rng.normal(size=x0.x.size) * 1e-4)
    y = plus(x0, rng.normal(size=x0.x.size) * 1e-4)
    residual(x)
    assert np.array_equal(jacobian(x).toarray(), fresh(x))
    # after a residual at another point
    residual(x)
    residual(y)
    assert np.array_equal(jacobian(x).toarray(), fresh(x))
    # a state cannot change under its stored evaluation
    with pytest.raises(ValueError):
        x.x[0] += 1.0
    with pytest.raises(ValueError):
        x.rotations[0, 0, 0] = 1.0
    # after a residual that raised: it stores nothing, so y's evaluation
    # stays valid and the point that raised has none to reuse
    behind = behind_camera(name, x, plus)
    residual(y)
    with pytest.raises(errors.PointBehindCamera):
        residual(behind)
    assert behind.evaluation is None
    assert np.array_equal(jacobian(y).toarray(), fresh(y))
    with pytest.raises(errors.PointBehindCamera):
        residual(behind)
    with pytest.raises(errors.PointBehindCamera):
        jacobian(behind)
    assert np.array_equal(jacobian(x).toarray(), fresh(x))


def assert_normal_equations_match_dense(J, r):
    """J.normal_equations equals the dense JᵀWJ and JᵀWr within 1e-12."""
    weights = refine._block_weights(refine._block_squares(r, 2), 2, refine._CAUCHY_SCALE_PX)
    JtJ, g = J.normal_equations(weights, r)
    dense = J.toarray()
    dense_JtJ = dense.T @ (weights[:, None] * dense)
    dense_g = dense.T @ (weights * r)
    assert np.max(np.abs(JtJ - dense_JtJ)) <= 1e-12 * np.max(np.abs(dense_JtJ))
    assert np.max(np.abs(g - dense_g)) <= 1e-12 * np.max(np.abs(dense_g))


@pytest.mark.parametrize("name", ["spherical", "general", "single"])
def test_block_normal_equations_match_dense(name):
    residual, jacobian, _, x0, *_ = noisy_problems()[name]
    r = residual(x0)
    J = jacobian(x0)
    assert J.shape == (r.size, x0.x.size)
    assert_normal_equations_match_dense(J, r)


def thinned(observations, keep):
    """`observations` with image k cut to its first keep[k] points."""
    return stack_images(observations.target,
                        [(ids[:keep.get(k)], uv[:keep.get(k)])
                         for k, (ids, uv) in enumerate(split_images(observations))])


def uneven_problems():
    """Spherical and general closures on a noisy scene whose images differ in size.

    Three images are thinned, one of them to MIN_IMAGE_POINTS, so the
    normal equations gather the row blocks through a padded index.
    """
    _, _, obs = scene(seed=41, pixel_noise_sigma=1.0)
    intr, ext = solve_closed_form(obs)
    poses = zhang_general_init(obs)
    obs = thinned(obs, {0: MIN_IMAGE_POINTS, 6: 50, 11: 87})
    return {"spherical": refine.spherical_problem(obs, (intr, Distortion(0.0, 0.0), ext)),
            "general": refine.general_problem(obs, poses)}


@pytest.mark.parametrize("name", ["spherical", "general"])
def test_block_normal_equations_match_dense_with_uneven_images(name):
    residual, jacobian, _, x0, *_ = uneven_problems()[name]
    r = residual(x0)
    J = jacobian(x0)
    sizes = np.diff(J.starts) // 2
    assert sizes.min() == MIN_IMAGE_POINTS and len(set(sizes.tolist())) == 4
    assert_normal_equations_match_dense(J, r)


def test_dense_jacobian_normal_equations_match():
    # A dense Jacobian, as the single-image angle refinement passes, is one
    # group with stride 0.
    residual, jacobian, _, x0, *_ = noisy_problems()["spherical"]
    r = residual(x0)
    J = refine._row_blocks(jacobian(x0).toarray())
    assert J.stride == 0 and J.shape == (r.size, x0.x.size)
    assert_normal_equations_match_dense(J, r)


@pytest.mark.parametrize("adjustment", ["spherical", "general"])
def test_ba_converges_with_uneven_images(adjustment):
    *_, report = refine._adjusted(uneven_problems()[adjustment])
    assert report.converged


@pytest.mark.parametrize("name", ["spherical", "general", "single"])
def test_plus_keeps_rotations_proper_over_a_long_chain(name):
    # `plus` re-orthogonalizes with one polar step; 2,000 chained updates of
    # up to 0.3 rad must not let the rotations drift.
    _, _, plus, x0, unpack, _ = noisy_problems()[name]
    n = len(unpack(x0)[3])
    first = 10 if name == "spherical" else 7
    stride = 6 if name == "general" else 3
    rot_cols = first + stride * np.arange(n)[:, None] + np.arange(3)
    rng = np.random.default_rng(17)
    x, worst = x0, 0.0
    for _ in range(2000):
        axis = rng.normal(size=(n, 3))
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        delta = np.zeros(x.x.size)
        delta[rot_cols] = axis * rng.uniform(0.0, 0.3, size=(n, 1))
        x = plus(x, delta)
        R = checked_rotations(unpack(x)[3])
        worst = max(worst, np.max(np.abs(R.transpose(0, 2, 1) @ R - np.eye(3))),
                    np.max(np.abs(np.linalg.det(R) - 1.0)))
    print(f"{name}: worst rotation defect over 2,000 plus calls {worst:.2e}")
    # checked_rotations' 1e-12 holds; the defect also stays at rounding level,
    # where products without any re-orthogonalization drift past 1e-14.
    assert worst <= 4e-15


def test_lm_rejects_jacobian_of_wrong_shape():
    with pytest.raises(ValueError):
        refine.lm_minimize(lambda x: x - 1.0, lambda x: np.eye(3), np.zeros(2))
    with pytest.raises(ValueError):
        refine.lm_minimize(lambda x: x - 1.0, lambda x: np.ones(2), np.zeros(2))
    # The parameter count comes from the Jacobian: one row short is refused
    # by lm_minimize, one column too many by the state's `plus`.
    residual, jacobian, plus, x0, *_ = noisy_problems()["spherical"]
    with pytest.raises(ValueError):
        refine.lm_minimize(residual, lambda s: jacobian(s).toarray()[:-1], x0,
                           block_size=2, plus=plus)
    with pytest.raises(ValueError):
        refine.lm_minimize(residual, lambda s: np.column_stack(
            [jacobian(s).toarray(), np.zeros(residual(s).size)]), x0, block_size=2, plus=plus)


# ---------------------------------------------------------------------------
# single-image bundle adjustment
# ---------------------------------------------------------------------------

def single_image_setup(rng, dist_true, noise_sigma=0.0, n=88):
    ref_K = CameraIntrinsics(1200.0, 1200.0, 700.0, 500.0, 0.0)
    intr_true = CameraIntrinsics(1000.0, 1000.0, 542.0, 478.0, 0.01)
    rot_true = rotation_from_axis_angle([0.05, -0.08, 0.12])
    rays = rng.normal(size=(n, 3)) * np.array([0.25, 0.2, 0.0]) + np.array([0.0, 0.0, 1.0])
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    pixels = project(intr_true, dist_true, rot_true, np.zeros(3), rays)
    pixels = pixels + rng.normal(size=pixels.shape) * noise_sigma
    return rays, pixels, intr_true, dist_true, rot_true


def test_single_image_ba_zero_cost_at_truth():
    rays, pixels, intr, dist, rot = single_image_setup(np.random.default_rng(1),
                                                       Distortion(0.1, -0.2))
    (ri, rd, rr), report = refine.single_image_ba(rays, pixels, (intr, dist, rot))
    assert report.rms_reprojection < 1e-9
    assert report.cost_trajectory[-1] <= report.cost_trajectory[0]


def test_single_image_ba_recovers_distortion():
    rays, pixels, intr, dist, rot = single_image_setup(np.random.default_rng(2),
                                                       Distortion(0.1, -0.2))
    init = (intr, Distortion(0.0, 0.0), rot)
    (ri, rd, rr), report = refine.single_image_ba(rays, pixels, init)
    assert report.converged
    assert abs(rd.d1 - 0.1) < 1e-4
    assert abs(rd.d2 + 0.2) < 1e-4


def test_single_image_ba_rms_tracks_noise():
    rms_values = []
    for trial in range(5):
        rays, pixels, intr, dist, rot = single_image_setup(
            np.random.default_rng(100 + trial), Distortion(0.1, -0.2), noise_sigma=0.5)
        init = (intr, Distortion(0.0, 0.0), rot)
        _, report = refine.single_image_ba(rays, pixels, init)
        rms_values.append(report.rms_reprojection)
    assert 0.3 < np.mean(rms_values) < 0.7


def test_single_image_ba_needs_eight_points():
    rays, pixels, intr, dist, rot = single_image_setup(np.random.default_rng(3),
                                                       Distortion(), n=7)
    with pytest.raises(ValueError):
        refine.single_image_ba(rays, pixels, (intr, dist, rot))
