import numpy as np
import pytest

from collimcal import errors
from collimcal import multi_solver as ms
from collimcal.core_geom import (
    CameraIntrinsics,
    project,
)
from conftest import (
    first_images,
    homography_from_pose,
    motion_matrix,
    pick_images,
    rotation_from_axis_angle,
    scene,
    stack_images,
)

TRUE_K = CameraIntrinsics(fx=1000.0, fy=1000.0, cx=542.0, cy=478.0, gamma=0.01)
TRUE_TCP = np.array([150.0, 105.0, -700.0])


def spherical_homography(rot):
    return homography_from_pose(TRUE_K, rot, -rot @ TRUE_TCP)


def z_rotation(theta):
    return rotation_from_axis_angle([0.0, 0.0, theta])


def random_spherical_rotations(rng, count, max_angle=0.22):
    out = []
    for _ in range(count):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        out.append(rotation_from_axis_angle(axis * rng.uniform(0.03, max_angle)))
    return out


def assert_intrinsics_close(intr, ref, rel):
    assert abs(intr.fx - ref.fx) / ref.fx < rel
    assert abs(intr.fy - ref.fy) / ref.fy < rel
    assert abs(intr.cx - ref.cx) / ref.cx < rel
    assert abs(intr.cy - ref.cy) / ref.cy < rel


def z_rotated_observation_set(base_rotations, extra_pairs):
    """Observations for the given rotations plus z-rotated twins of image 0."""
    rotations = list(base_rotations)
    for theta in extra_pairs:
        rotations.append(base_rotations[0] @ z_rotation(theta))
    config, _, _ = scene(seed=0)
    target = config.target.planar_target()
    points = np.column_stack([target.xy, np.zeros(len(target.ids))])
    images = []
    for rot in rotations:
        uv = project(TRUE_K, config.distortion, rot, -rot @ TRUE_TCP, points)
        images.append((target.ids, uv))
    return stack_images(target, images)


# ---------------------------------------------------------------------------
# scale ratios
# ---------------------------------------------------------------------------

def ratio_to_base(H_i, H_base):
    """lambda_i / lambda_base of two homographies, from the solver's stacked ratios
    with H_base as image 0."""
    return float(ms._scale_ratios(np.array([H_base, H_i]))[1])


def test_scale_ratio_identity_and_doubling():
    H = spherical_homography(rotation_from_axis_angle([0.05, -0.1, 0.02]))
    assert ratio_to_base(H, H) == pytest.approx(1.0, abs=1e-12)
    assert ratio_to_base(2.0 * H, H) == pytest.approx(2.0, abs=1e-12)
    assert ratio_to_base(-H, H) == pytest.approx(-1.0, abs=1e-12)


def test_scale_ratio_matches_generator_scales():
    # With H = lam K [r1 r2 t], the third row of K is (0, 0, 1), so
    # lam = H[2,2] / t_z independently of the solver path.
    rng = np.random.default_rng(2)
    rots = random_spherical_rotations(rng, 4)
    lams, Hs = [], []
    for rot in rots:
        t = -rot @ TRUE_TCP
        H = spherical_homography(rot)
        lams.append(H[2, 2] / t[2])
        Hs.append(H)
    for i in range(1, 4):
        assert ratio_to_base(Hs[i], Hs[0]) == pytest.approx(lams[i] / lams[0], rel=1e-9)


# ---------------------------------------------------------------------------
# linear system
# ---------------------------------------------------------------------------

def normalized_unit_homographies(rng, count):
    """Exact homographies for an O(1)-unit replica of the reference scene."""
    K = CameraIntrinsics(fx=1.0, fy=1.0, cx=0.542, cy=0.478, gamma=1e-5)
    t_cp = np.array([0.5, 0.35, -7.0 / 3.0])
    rots = random_spherical_rotations(rng, count)
    Hs = np.array([homography_from_pose(K, rot, -rot @ t_cp) for rot in rots])
    return K, t_cp, Hs


def ground_truth_solution(K, t_cp, H_base):
    W = K.matrix @ K.matrix.T
    x, y, r = t_cp[0], t_cp[1], -t_cp[2]
    Ki = K.inverse
    lam1 = 0.5 * (np.linalg.norm(Ki @ H_base[:, 0]) + np.linalg.norm(Ki @ H_base[:, 1]))
    s = 1.0 / (lam1 * r) ** 2
    w = np.array([W[0, 0], W[0, 1], W[0, 2], W[1, 1], W[1, 2]])
    a = s * np.array([r * r + x * x, x * y, x, r * r + y * y, y, 1.0])
    return np.concatenate([w, a])


def test_linear_system_shape_and_ground_truth_residual():
    rng = np.random.default_rng(4)
    K, t_cp, Hs = normalized_unit_homographies(rng, 3)
    d, b = ms.build_linear_system(Hs)
    assert d.shape == (18, 11)  # six rows per image, eleven unknowns
    assert b.shape == (18,)
    wa = ground_truth_solution(K, t_cp, Hs[0])
    assert np.linalg.norm(d @ wa - b) < 1e-8


def test_linear_system_row_count_scales_with_images():
    rng = np.random.default_rng(5)
    _, _, Hs = normalized_unit_homographies(rng, 7)
    d, _ = ms.build_linear_system(Hs)
    assert d.shape == (6 * 7, 11)
    ratios = ms._scale_ratios(Hs)
    assert len(ratios) == 7
    assert ratios[0] == 1.0
    # Image 0's block carries -mu^2 = -1 on its A entries.
    assert np.array_equal(d[:6, 5:], -np.eye(6))


def test_conic_rows_are_the_column_products():
    # Row k of the table against h_m^T Q h_n computed directly, for the
    # k-th pair (m, n) of the symmetric entries, on one H and on a stack.
    rng = np.random.default_rng(29)
    pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    for H in (rng.normal(size=(3, 3)), rng.normal(size=(2, 4, 3, 3))):
        Q = rng.normal(size=(3, 3))
        Q = Q + Q.T
        q = Q[tuple(np.array(pairs).T)]
        direct = np.stack([np.einsum("...i,ij,...j->...", H[..., :, m], Q, H[..., :, n])
                           for m, n in pairs], axis=-1)
        table = ms.conic_rows(H)
        assert table.shape == H.shape[:-2] + (6, 6)
        np.testing.assert_allclose(table @ q, direct, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape, rule", [
    ((3, 3), r"have shape \(N, 3, 3\), got \(3, 3\)$"),
    ((0, 3, 3), r"hold at least one homography$"),
    ((2, 3, 4), r"have shape \(N, 3, 3\), got \(2, 3, 4\)$"),
    ((2, 9), r"have shape \(N, 3, 3\), got \(2, 9\)$"),
], ids=["one-matrix", "empty", "three-by-four", "flat"])
def test_linear_system_refuses_a_wrong_shape_by_name(shape, rule):
    # A single (3, 3) matrix used to fail with numpy's IndexError.
    with pytest.raises(ValueError, match=f"^H must {rule}"):
        ms.build_linear_system(np.ones(shape))


def reference_linear_system(homographies, base_index):
    """build_linear_system one image at a time, with its scale ratios taken to
    the image at `base_index`: six rows per homography."""
    det_base = np.linalg.det(homographies[base_index])
    rows, rhs, ratios = [], [], []
    for H in homographies:
        lam_ratio = float(np.cbrt(np.linalg.det(H) / det_base))
        ratios.append(lam_ratio)
        Hinv_t = np.linalg.inv(H).T
        for k, u in enumerate(ms.conic_rows(Hinv_t)):
            a_part = np.zeros(6)
            a_part[k] = -(1.0 / lam_ratio) ** 2
            rows.append(np.concatenate([u[:5], a_part]))
            rhs.append(-u[5])
    return np.array(rows), np.array(rhs), ratios


def test_linear_system_matches_per_image_reference():
    for seed in range(20):
        _, _, obs = scene(seed=seed, pixel_noise_sigma=0.5)
        H = obs.homography_fit.matrices
        d, b = ms.build_linear_system(H)
        d_ref, b_ref, ratios = reference_linear_system(H, 0)
        assert ms._scale_ratios(H).tolist() == ratios
        assert np.array_equal(b, b_ref)
        # The mu^2 entries are squared by a multiply, which rounds correctly;
        # Python's ** may differ from it in the last bit.
        np.testing.assert_allclose(d, d_ref, rtol=4.5e-16, atol=0.0)


def test_closed_form_base_invariance(noiseless_scene):
    # The solver takes its scale ratios to image 0; the reference system with
    # the ratios taken to another image must give the same camera.
    _, _, obs = noiseless_scene
    fit = obs.homography_fit
    ref_intr, ext = ms.solve_closed_form(obs)
    for base in (4, 9):
        d, b, _ = reference_linear_system(fit.matrices, base)
        solution, *_ = np.linalg.lstsq(d, b, rcond=None)
        intr = fit.intrinsics_to_raw(ms._decode_intrinsics(solution[:5]))
        center = np.array(fit.center_to_raw(*ms._decode_center(solution[5:])))
        assert abs(intr.fx - ref_intr.fx) / 1000.0 < 1e-8
        assert abs(intr.fy - ref_intr.fy) / 1000.0 < 1e-8
        assert abs(intr.cx - ref_intr.cx) < 1e-6
        assert np.allclose(center, [ext.x, ext.y, ext.r], atol=1e-6)


def test_linear_solution_scale_invariant():
    rng = np.random.default_rng(6)
    K, t_cp, Hs = normalized_unit_homographies(rng, 5)

    def decode(homographies):
        d, b = ms.build_linear_system(homographies)
        sol, *_ = np.linalg.lstsq(d, b, rcond=None)
        return ms._decode_intrinsics(sol[:5]).fx, np.array(ms._decode_center(sol[5:]))

    fx_a, center_a = decode(Hs)
    # Scaling image 0 rescales every ratio; a negative scale takes the
    # signed cube root.
    for image in range(len(Hs)):
        for factor in (3.7, -2.5):
            scaled = Hs.copy()
            scaled[image] *= factor
            fx_b, center_b = decode(scaled)
            assert abs(fx_a - fx_b) / fx_a < 1e-9
            assert np.max(np.abs(center_b - center_a)) / center_a[2] < 1e-9


# ---------------------------------------------------------------------------
# closed-form solver
# ---------------------------------------------------------------------------

def test_closed_form_exact_on_noiseless_scene(noiseless_scene):
    config, poses, obs = noiseless_scene
    intr, ext = ms.solve_closed_form(obs)
    assert_intrinsics_close(intr, TRUE_K, 1e-6)
    assert abs(intr.gamma - 0.01) < 1e-6
    assert np.allclose(ext.t_cp, TRUE_TCP, atol=1e-6)
    R_true, _ = poses
    assert np.max(np.abs(ext.rotations - R_true)) < 1e-8


def test_closed_form_rejects_too_few_images(noiseless_scene):
    _, _, obs = noiseless_scene
    with pytest.raises(ValueError):
        ms.solve_closed_form(first_images(obs, 2))


def test_closed_form_noise_statistics_small_sample():
    # Small-sample version of the initialization accuracy claim; the full
    # 200-trial run lives in the acceptance suite.
    from collimcal import synth
    cfg = synth.default_config(pixel_noise_sigma=0.5, trial_count=25)
    stats = synth.run_monte_carlo(cfg, "noise", [0.5], arms=("ours",), workers=1)[0]
    assert stats.fail_count == 0
    assert np.nanmean(stats.focal_rel_errors()) < 0.005


def test_closed_form_rank_deficient_system_rejected(noiseless_scene):
    # Three copies of one view stack three equal six-row blocks: rank 6 of 11.
    _, _, obs = noiseless_scene
    tripled = pick_images(obs, [0, 0, 0])
    with pytest.raises(errors.DegenerateConfiguration,
                       match=r"^stacked linear system is rank deficient \(sigma_min/sigma_max = "):
        ms.solve_closed_form(tripled)


def test_closed_form_refuses_a_system_past_the_rank_cutoff(monkeypatch):
    # Singular values 1e3 ... 1e-6: none is zero, but sigma_min/sigma_max =
    # 1e-9 lies below RANK_RATIO_CUTOFF.
    rng = np.random.default_rng(0)
    U, _ = np.linalg.qr(rng.normal(size=(66, 11)))
    V, _ = np.linalg.qr(rng.normal(size=(11, 11)))
    d = U @ np.diag(np.logspace(3, -6, 11)) @ V.T
    monkeypatch.setattr(ms, "build_linear_system", lambda H: (d, rng.normal(size=66)))
    _, _, obs = scene(seed=0, pixel_noise_sigma=0.5)
    with pytest.raises(errors.DegenerateConfiguration, match="rank deficient"):
        ms.solve_closed_form(obs)


def test_closed_form_degenerate_rotations_rejected():
    obs = z_rotated_observation_set(
        [rotation_from_axis_angle([0.12, -0.06, 0.03])], extra_pairs=(0.5, -0.8))
    with pytest.raises((errors.DegenerateConfiguration, errors.NegativeRadicand)):
        ms.solve_closed_form(obs)


# ---------------------------------------------------------------------------
# minimal solver
# ---------------------------------------------------------------------------

def test_minimal_solver_recovers_truth(noiseless_scene):
    _, _, obs = noiseless_scene
    candidates = ms.solve_minimal(first_images(obs, 2))
    intr, ext = candidates[0]
    assert_intrinsics_close(intr, TRUE_K, 1e-6)
    assert np.allclose(ext.t_cp, TRUE_TCP, atol=1e-3)


def test_minimal_solver_recovers_an_off_center_camera():
    # The default optical center sits over the target's centroid, which puts
    # it at x = y = 0 in fit units; here it is off the centroid.
    for trial in range(10):
        config, _, obs = scene(seed=5, trial=trial, target_offset=(60.0, 40.0))
        intr, ext = ms.solve_minimal(first_images(obs, 2))[0]
        assert_intrinsics_close(intr, config.intrinsics, 1e-6)
        assert np.linalg.norm(ext.t_cp - config.t_cp) < 1e-6 * np.linalg.norm(config.t_cp)


def test_minimal_solver_filters_spurious_root(noiseless_scene):
    # The determinant quadratic has two roots; on clean data only one
    # passes the positive-definite conic and positive-radius filters.
    _, _, obs = noiseless_scene
    candidates = ms.solve_minimal(first_images(obs, 2))
    assert len(candidates) == 1


@pytest.mark.parametrize("s", [1.0, 1e-3])
def test_hidden_variable_roots_drop_a_complex_pair(s):
    # B = E U puts U's rows in rows 2 and 5, so with A = I the eigenvalues
    # are those of U's columns 2 and 5: s (1 +- i), complex at every scale.
    U = np.zeros((2, 6))
    U[:, [2, 5]] = s * np.array([[1.0, -1.0], [1.0, 1.0]])
    with pytest.raises(errors.NoRealRoot, match="no real finite root"):
        ms._hidden_variable_roots(np.eye(6), np.eye(6)[:, 2::3] @ U)


@pytest.mark.parametrize("error", [0.0, 1e-6])
def test_hidden_variable_roots_newton_step_restores_the_eigenvalues(monkeypatch, error):
    # det(A + c E U) = det(A) det(I + c U A^-1 E), and U A^-1 E = M, whose
    # eigenvalues 2 and -0.5 put the roots at -1/lam = -0.5 and 2.  With the
    # eigenvalues off by `error`, relative, one Newton step restores the roots.
    A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    U = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 6))
    U[:, [2, 5]] = np.array([[2.0, 1.0], [0.0, -0.5]]) * [3.0, 6.0]
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) * (1.0 + error))
    roots = ms._hidden_variable_roots(A, np.eye(6)[:, 2::3] @ U)
    assert np.allclose(sorted(roots), [-0.5, 2.0], rtol=1e-10, atol=0.0)


def test_minimal_solver_arity():
    _, _, obs = scene(seed=3)
    with pytest.raises(ValueError):
        ms.solve_minimal(first_images(obs, 3))


def test_minimal_solver_pure_translation_pair_degenerate(noiseless_scene):
    _, _, obs = noiseless_scene
    duplicated = pick_images(obs, [0, 0])
    with pytest.raises(errors.DegenerateConfiguration, match="pure translation"):
        ms.solve_minimal(duplicated)


def test_minimal_matches_closed_form_through_ground_truth(noiseless_scene):
    # Both paths must land on the generating parameters; the two-image
    # linear system itself is rank deficient (rank 10 of 11), which is
    # exactly why the minimal solver exists.
    _, _, obs = noiseless_scene
    intr_min, ext_min = ms.solve_minimal(first_images(obs, 2))[0]
    intr_cf, ext_cf = ms.solve_closed_form(first_images(obs, 3))
    for intr in (intr_min, intr_cf):
        assert_intrinsics_close(intr, TRUE_K, 1e-6)
    assert np.allclose(ext_min.t_cp, ext_cf.t_cp, atol=1e-3)


# ---------------------------------------------------------------------------
# IAC decomposition
# ---------------------------------------------------------------------------

def iac_vector_from(intr):
    Q = np.linalg.inv(intr.matrix @ intr.matrix.T)
    return np.array([Q[0, 0], Q[0, 1], Q[0, 2], Q[1, 1], Q[1, 2], Q[2, 2]])


def test_decompose_iac_round_trip():
    q = iac_vector_from(TRUE_K)
    intr = ms.decompose_iac(q)
    assert_intrinsics_close(intr, TRUE_K, 1e-9)
    assert abs(intr.gamma - TRUE_K.gamma) < 1e-9


def test_decompose_iac_identity_and_sign():
    intr = ms.decompose_iac(np.array([1.0, 0.0, 0.0, 1.0, 0.0, 1.0]))
    assert (intr.fx, intr.fy, intr.cx, intr.cy, intr.gamma) == (1.0, 1.0, 0.0, 0.0, 0.0)
    q = iac_vector_from(TRUE_K)
    flipped = ms.decompose_iac(-q)
    assert flipped.fx == pytest.approx(ms.decompose_iac(q).fx, rel=1e-12)


def test_decompose_iac_rejects_indefinite():
    with pytest.raises(errors.NotPositiveDefinite):
        ms.decompose_iac(np.array([-1.0, 0.0, 0.0, -1.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# degeneracy detection
# ---------------------------------------------------------------------------

def test_detect_identical_images_flagged(noiseless_scene):
    _, _, obs = noiseless_scene
    duplicated = pick_images(obs, [0, 0, 1])
    report = ms.detect_degeneracy(duplicated)
    assert (0, 1) in report.pure_translation_pairs
    assert report.pure_translation_pairs or report.z_rotation_pairs or report.rank < 11


def test_detect_z_rotation_pair():
    base = random_spherical_rotations(np.random.default_rng(7), 3)
    obs = z_rotated_observation_set(base, extra_pairs=(0.7,))
    report = ms.detect_degeneracy(obs)
    assert (0, 3) in report.z_rotation_pairs
    assert not report.pure_translation_pairs


def test_pair_flags_divide_out_the_homography_scale():
    # A relative homography is known up to scale: 2 I is a pure translation
    # (and a rotation by 0 about z), 3 times a plane rotation a z-rotation.
    c, s = np.cos(0.3), np.sin(0.3)
    plane_rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    translation, z_rotation = ms._degenerate_pair_flags(
        np.stack([2.0 * np.eye(3), 3.0 * plane_rotation]))
    assert translation.tolist() == [True, False]
    assert z_rotation.tolist() == [True, True]


def test_degenerate_pairs_match_pairwise_reference():
    # Reference: each pair's relative homography built on its own and
    # checked entry by entry, as the batched flags must reproduce.
    base = random_spherical_rotations(np.random.default_rng(19), 4)
    twins = z_rotated_observation_set(base, extra_pairs=(0.6, -0.9))
    obs = pick_images(twins, list(range(len(twins))) + [2])
    H = obs.homography_fit.matrices
    translation, z_rotation = [], []
    for i in range(len(obs)):
        for j in range(i + 1, len(obs)):
            G = np.linalg.inv(H[i]) @ H[j]
            G = G / G[2, 2]
            if np.max(np.abs(G - np.eye(3))) < 1e-6:
                translation.append((i, j))
            if max(abs(G[2, 0]), abs(G[2, 1]), abs(G[0, 0] - G[1, 1]),
                   abs(G[0, 1] + G[1, 0]), abs(G[0, 0] ** 2 + G[1, 0] ** 2 - 1.0)) < 1e-6:
                z_rotation.append((i, j))
    report = ms.detect_degeneracy(obs)
    assert translation == [(2, 6)]
    assert {(0, 4), (0, 5), (4, 5), (2, 6)} <= set(z_rotation)
    assert list(report.pure_translation_pairs) == translation
    assert list(report.z_rotation_pairs) == z_rotation


def test_generic_poses_unflagged_and_rank_grows():
    _, _, obs = scene(seed=11)
    two = ms.detect_degeneracy(first_images(obs, 2))
    three = ms.detect_degeneracy(first_images(obs, 3))
    assert not two.pure_translation_pairs and not two.z_rotation_pairs
    assert two.rank == 10
    assert three.rank == 11  # full column rank once a third view arrives


def test_z_rotated_append_leaves_rank_unchanged():
    base = random_spherical_rotations(np.random.default_rng(13), 4)
    without = ms.detect_degeneracy(z_rotated_observation_set(base, extra_pairs=()))
    with_dup = ms.detect_degeneracy(z_rotated_observation_set(base, extra_pairs=(0.9,)))
    assert with_dup.rank == without.rank
    assert any(pair[0] == 0 for pair in with_dup.z_rotation_pairs)


def test_homographies_fitted_once_per_observation_set(monkeypatch):
    # Every DLT design matrix has nine columns; nothing else the solvers
    # decompose does.  Count the images whose design matrix is decomposed.
    from collimcal import pipeline
    svd = np.linalg.svd
    fitted = []

    def counting_svd(a, *args, **kwargs):
        a = np.asarray(a)
        if a.shape[-1] == 9:
            fitted.append(int(np.prod(a.shape[:-2])))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    _, _, obs = scene(seed=2, pixel_noise_sigma=0.5)
    ms.detect_degeneracy(obs)
    ms.solve_closed_form(obs)
    pipeline.zhang_init(obs)
    pipeline.calibrate(obs, "zhang")
    assert fitted == [len(obs)]


# ---------------------------------------------------------------------------
# spherical motion invariant
# ---------------------------------------------------------------------------

def test_motion_matrix_determinant_equals_radius():
    rng = np.random.default_rng(17)
    for _ in range(50):
        rot = random_spherical_rotations(rng, 1, max_angle=np.pi / 2)[0]
        r = rng.uniform(100.0, 2000.0)
        t_cp = np.array([rng.uniform(-300, 300), rng.uniform(-300, 300), -r])
        M = motion_matrix(rot, t_cp)
        assert abs(np.linalg.det(M) - r) < 1e-10 * max(1.0, r)
