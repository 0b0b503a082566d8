import copy
import dataclasses
import json
import os
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from collimcal import cli, fileio, pipeline, synth
from collimcal.cli import build_parser, main
from collimcal.core_geom import MIN_IMAGE_POINTS, CameraIntrinsics, Distortion, PlanarTarget
from collimcal.multi_solver import detect_degeneracy
from collimcal.single_calib import RayDatabase
from conftest import pick_images, rotation_from_axis_angle, scene, stack_images


def write_config(path, **overrides):
    payload = {"schema_version": 1, "rng_seed": 3, "image_count": 15,
               "pixel_noise_sigma": 0.0, "trial_count": 4}
    payload.update(overrides)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return str(path)


@pytest.fixture
def sim_file(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "obs.json"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    return out


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_paper_scene(sim_file):
    data = fileio.read_observation_file(sim_file)
    assert len(data.observations) == 15
    assert data.observations.counts.max() <= 88
    assert data.ground_truth.intrinsics.fx == 1000.0
    assert data.image_size == (1080, 960)


def test_simulate_deterministic(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["simulate", "--config", cfg, "--out", str(a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_bad_config_exit_2(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", radius=-5.0)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "x.json")]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["simulate", "--config", str(broken),
                 "--out", str(tmp_path / "y.json")]) == 2


def test_simulate_single_image_file(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", image_count=1)
    out = tmp_path / "one.json"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert len(fileio.read_observation_file(out).observations) == 1


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def test_calibrate_nimg_noiseless(sim_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["calibrate", "--in", str(sim_file), "--mode", "nimg",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["error_vs_truth"]["fx_err_rel"] < 1e-6
    assert report["error_vs_truth"]["tcp_err_mm"] < 1e-3
    assert report["stage"] == "refined"
    assert report["converged"]
    assert report["termination"] in ("gradient", "cost", "step", "uncertainty")
    assert report["degeneracy"]["rank"] == 11
    assert report["tool_version"]


def test_nimg_report_lists_a_duplicated_images_pair(sim_file, tmp_path):
    observations = fileio.read_observation_file(sim_file).observations
    n = len(observations)
    path = tmp_path / "duplicated.json"
    fileio.write_observation_file(path, pick_images(observations, [*range(n), 3]))
    out = tmp_path / "report.json"
    assert main(["calibrate", "--in", str(path), "--mode", "nimg", "--no-refine",
                 "--out", str(out)]) == 0
    block = json.loads(out.read_text())["degeneracy"]
    assert block["pure_translation_pairs"] == [[3, n]]
    expected = detect_degeneracy(fileio.read_observation_file(path).observations)
    assert block == json.loads(json.dumps(dataclasses.asdict(expected)))


def test_calibrate_no_refine_stage(sim_file, tmp_path):
    out = tmp_path / "report.json"
    assert main(["calibrate", "--in", str(sim_file), "--mode", "nimg",
                 "--no-refine", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["stage"] == "init"
    # The closed form is exact on the noiseless file, so are its reprojections.
    assert len(report["per_image_rms_px"]) == 15
    assert max(report["per_image_rms_px"]) < 1e-9
    assert report["rms_reprojection_px"] < 1e-9


@pytest.mark.parametrize("mode, images, extra", [
    ("nimg", None, ()), ("nimg", None, ("--no-refine",)), ("minimal", [0, 1], ()),
    ("single", [0], ()), ("single", [0], ("--no-refine",)),
], ids=["nimg", "nimg-no-refine", "minimal", "single", "single-no-refine"])
def test_calibrate_reports_the_pipelines_result(sim_file, reference_db, tmp_path, mode, images,
                                                extra):
    # The report's numbers are those of `pipeline.calibrate` on the same
    # observations, bit for bit (JSON floats round-trip exactly).
    path = sim_file
    if images is not None:
        path = tmp_path / "cut.json"
        data = fileio.read_observation_file(sim_file)
        fileio.write_observation_file(path, pick_images(data.observations, images),
                                      image_size=data.image_size)
    reference = ["--reference", str(reference_db)] if mode == "single" else []
    out = tmp_path / "report.json"
    assert main(["calibrate", "--in", str(path), "--mode", mode, "--out", str(out),
                 *reference, *extra]) == 0
    report = json.loads(out.read_text())
    data = fileio.read_observation_file(path)
    database = fileio.read_ray_database(reference_db) if reference else None
    result = pipeline.calibrate(data.observations, mode, refine=not extra, database=database,
                                image_size=data.image_size)
    assert report["intrinsics"] == dataclasses.asdict(result.intrinsics)
    assert report["distortion"] == [result.distortion.d1, result.distortion.d2]
    fit = result.report
    assert [report[key] for key in ("converged", "termination", "rms_reprojection_px")] == \
        [fit.converged, fit.termination, fit.rms_reprojection]
    assert report["per_image_rms_px"] == list(fit.per_image_rms)
    if mode == "single":
        assert report["rotation_axis_angle"] == fileio.rotations_payload(result.extrinsics[0])
        assert (report["n_matched"], report["n_dropped"]) == (result.n_matched,
                                                              result.n_dropped)
    else:
        assert report["t_cp_mm"] == result.extrinsics.t_cp.tolist()
    assert report.get("candidate_count") == (len(result.start) if mode == "minimal" else None)


@pytest.mark.parametrize("grid", [{}, {"target": {"rows": 4, "cols": 4}}],
                         ids=["default-grid", "4x4-grid"])
def test_report_errors_are_the_monte_carlo_trial_0_row(tmp_path, grid):
    # One synthetic protocol: `simulate` writes Monte Carlo trial 0's scene,
    # and `error_vs_truth` is that trial's error row of the same arm, bit for
    # bit.  A 4x4 grid keeps 16 points a view, which both paths accept.
    sigma = 0.5
    cfg = write_config(tmp_path / "cfg.json", pixel_noise_sigma=sigma, trial_count=1,
                       spherical_noise_sigma=10.0, distortion=[0.05, -0.1], **grid)
    obs = tmp_path / "obs.json"
    assert main(["simulate", "--config", cfg, "--out", str(obs)]) == 0
    config = fileio.read_synthetic_config(cfg)
    stats = synth.run_monte_carlo(config, "noise", [sigma], arms=("ours", "ours_ba"),
                                  workers=1)
    for stat, extra in zip(stats, (["--no-refine"], []), strict=True):
        out = tmp_path / f"report-{stat.stage}.json"
        assert main(["calibrate", "--in", str(obs), "--mode", "nimg", "--out", str(out),
                     *extra]) == 0
        block = json.loads(out.read_text())["error_vs_truth"]
        truth, row = stat.truth, stat.trials[0]
        assert block["fx_err_rel"] == abs(row[0]) / truth[0]
        assert block["fy_err_rel"] == abs(row[1]) / truth[1]
        assert [block[key] for key in ("cx_err_px", "cy_err_px", "gamma_err")] == \
            np.abs(row[2:5]).tolist()
        assert block["tcp_err_mm"] == np.linalg.norm(row[7:10]) == stat.center_errors()[0]
        # Unrefined, the report scores the start's zero distortion.
        d_errors = np.abs(truth[5:7] if extra else row[5:7]).tolist()
        assert [block["d1_err"], block["d2_err"]] == d_errors


def test_calibrate_minimal_mode(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", image_count=2)
    obs = tmp_path / "two.json"
    assert main(["simulate", "--config", cfg, "--out", str(obs)]) == 0
    out = tmp_path / "report.json"
    assert main(["calibrate", "--in", str(obs), "--mode", "minimal",
                 "--no-refine", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["candidate_count"] >= 1
    assert report["error_vs_truth"]["fx_err_rel"] < 1e-6


@pytest.mark.parametrize("images, mode, message", [
    (2, "nimg", "closed-form solver needs at least 3 images, got 2"),
    (3, "minimal", "minimal solver takes exactly 2 images, got 3"),
    (2, "single", "single mode needs exactly 1 image, got 2"),
], ids=["nimg", "minimal", "single"])
def test_calibrate_names_the_wrong_image_count_exit_2(tmp_path, capsys, images, mode, message):
    # The solvers own the image-count rule of the nimg and minimal modes; the
    # refusal names the file, which used to go unnamed.
    cfg = write_config(tmp_path / "cfg.json", image_count=images)
    obs = tmp_path / "obs.json"
    assert main(["simulate", "--config", cfg, "--out", str(obs)]) == 0
    assert main(["calibrate", "--in", str(obs), "--mode", mode,
                 "--out", str(tmp_path / "r.json")]) == 2
    assert f"error: {obs}: {message}" in capsys.readouterr().err


def test_calibrate_degenerate_exit_4(tmp_path):
    # All views relate by z-axis rotations: the stacked system stays rank
    # deficient and the solver must fail with the degeneracy exit code.
    from test_multi_solver import z_rotated_observation_set
    obs_set = z_rotated_observation_set(
        [rotation_from_axis_angle([0.1, -0.05, 0.02])], extra_pairs=(0.5, -0.7))
    path = tmp_path / "degenerate.json"
    fileio.write_observation_file(path, obs_set)
    code = main(["calibrate", "--in", str(path), "--mode", "nimg",
                 "--out", str(tmp_path / "r.json")])
    assert code in (3, 4)  # rank-deficiency detected, or radicand failure first
    assert code == 4 or not os.path.exists(tmp_path / "r.json")


@pytest.mark.parametrize("pair, motion", [("duplicated", "a pure translation"),
                                           ("z_rotated", "a rotation about a z-parallel axis")])
def test_calibrate_minimal_degenerate_pair_exit_4(pair, motion, tmp_path, capsys):
    # A pair that the degeneracy report flags is refused as a degeneracy
    # before the minimal solver looks for roots.
    from test_multi_solver import z_rotated_observation_set
    if pair == "duplicated":
        obs_set = pick_images(scene(seed=0)[2], [0, 0])
    else:
        obs_set = z_rotated_observation_set(
            [rotation_from_axis_angle([0.1, -0.05, 0.02])], extra_pairs=(0.5,))
    path = tmp_path / "pair.json"
    fileio.write_observation_file(path, obs_set)
    out = tmp_path / "r.json"
    assert main(["calibrate", "--in", str(path), "--mode", "minimal", "--out", str(out)]) == 4
    assert f"images 0 and 1 differ by {motion}" in capsys.readouterr().err
    assert not out.exists()


def test_calibrate_coincident_pixels_exit_4(sim_file, tmp_path, capsys):
    # Every pixel of every image at one point: no homography can be fitted.
    payload = json.loads(sim_file.read_text())
    for image in payload["images"]:
        for point in image["points"]:
            point[1:] = [500.0, 400.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["calibrate", "--in", str(bad), "--mode", "nimg",
                 "--out", str(tmp_path / "r.json")]) == 4
    assert "image 0" in capsys.readouterr().err


def test_calibrate_collinear_image_exit_4(sim_file, tmp_path, capsys):
    # One image's pixels on a line: its homography would have rank 2.
    payload = json.loads(sim_file.read_text())
    for point in payload["images"][2]["points"]:
        point[2] = 400.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["calibrate", "--in", str(bad), "--mode", "nimg",
                 "--out", str(tmp_path / "r.json")]) == 4
    assert "image 2" in capsys.readouterr().err


def edited_copy(path, out, keys, value):
    """Copy of a JSON file with the entry at the nested `keys` set to `value`."""
    payload = json.loads(path.read_text())
    block = payload
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    out.write_text(json.dumps(payload))
    return out


@pytest.mark.parametrize("kind, keys, value", [
    ("observations", ("ground_truth", "distortion"), [0.1]),
    ("observations", ("ground_truth", "t_cp"), None),
    ("observations", ("ground_truth", "t_cp"), [150.0, 105.0]),
    ("observations", ("ground_truth", "rotations_axis_angle"), [[1.0], [2.0, 3.0]]),
    ("observations", ("ground_truth", "rotations_axis_angle"), [[0.0, 0.0, 0.1]] * 14),
    ("observations", ("image_size",), [1]),
    ("observations", ("image_size",), [0, -5]),
    ("observations", ("image_size",), [1080.9, 960]),
    ("observations", ("images",), 5),
    ("observations", ("images",), {"image_000": []}),
    ("observations", ("images",), "image_000"),
    ("observations", ("images",), [1, 2, 3]),
    ("observations", ("target",), 5),
    ("observations", ("ground_truth",), [1]),
    ("config", ("distortion",), [0.1]),
    ("config", ("target",), 5),
    ("config", ("image_count",), 3.9),
    ("config", ("image_size",), [1080.9, 960]),
    ("config", ("image_size",), [10 ** 400, 960]),
    ("config", ("radius",), 10 ** 400),
    ("config", ("image_count",), True),
    ("config", ("rng_seed",), False),
    ("config", ("trial_count",), True),
    ("benchmark", ("sweep_values",), [0.5]),
    ("benchmark", ("sweep_values",), {"noise": []}),
    # Point k of every image, and ray k, carry id k: int() would have
    # truncated each of these ids back to the row's own.
    ("observations", ("images", 4, "points", 7, 0), 7.9),
    ("observations", ("images", 4, "points", 1, 0), True),
    ("observations", ("images", 4, "points", 7), [7, 500.0, 400.0, 1.0]),
    ("observations", ("images", 4, "points", 7, 1), "500.0"),
    ("observations", ("target", "points", 3, 0), 3.5),
    ("database", ("rays", 5, 0), 5.5),
    # A JSON boolean or string where a number belongs; float() takes both.
    ("config", ("pixel_noise_sigma",), True),
    ("config", ("pixel_noise_sigma",), "0.5"),
    ("config", ("radius",), "700"),
    ("config", ("distortion",), [True, 0]),
    ("config", ("target_offset",), ["150", 105]),
    ("config", ("intrinsics",), {"fx": "1000", "fy": 1000, "cx": 542, "cy": 478}),
    ("config", ("schema_version",), True),
    ("config", ("image_size",), [True, 960]),
    ("benchmark", ("sweep_values",), {"noise": [True, 0.5]}),
    ("observations", ("schema_version",), True),
    ("observations", ("image_size",), [True, 960]),
    ("observations", ("ground_truth", "intrinsics", "fx"), "1000"),
    ("observations", ("ground_truth", "t_cp"), ["150", 105, -700]),
    ("observations", ("ground_truth", "rotations_axis_angle"), [[True, 0, 0]] * 15),
    ("database", ("provenance", "distortion"), [False, 0]),
], ids=["truth-distortion", "truth-t_cp", "truth-t_cp-2", "truth-rotations-ragged",
        "truth-rotations-count", "image_size", "image_size-nonpositive",
        "image_size-fraction", "images", "images-object", "images-string",
        "images-numbers", "target", "truth", "config-distortion", "config-target",
        "config-image-count-fraction", "config-image_size-fraction",
        "config-image_size-overflow", "config-radius-overflow", "config-image-count-bool",
        "config-rng-seed-bool", "config-trial-count-bool", "sweep-values-list",
        "sweep-values-empty", "point-id-fraction",
        "point-id-bool", "point-extra-entry", "point-string-coordinate",
        "target-id-fraction", "database-id-fraction", "config-sigma-bool",
        "config-sigma-string", "config-radius-string", "config-distortion-bool",
        "config-offset-string", "config-fx-string",
        "config-schema-bool", "config-image_size-bool", "sweep-value-bool",
        "schema-bool", "image_size-bool", "truth-fx-string", "truth-t_cp-string",
        "truth-rotations-bool", "database-distortion-bool"])
def test_malformed_file_exit_2(sim_file, tmp_path, capsys, request, kind, keys, value):
    bad = tmp_path / "bad.json"
    if kind in ("config", "benchmark"):
        edited_copy(tmp_path / "cfg.json", bad, keys, value)
        command = "simulate" if kind == "config" else "benchmark"
        argv = [command, "--config", str(bad), "--out", str(tmp_path / "x.out")]
        if kind == "benchmark":
            argv += ["--sweep", "noise"]
    elif kind == "database":
        edited_copy(request.getfixturevalue("reference_db"), bad, keys, value)
        cal_obs = tmp_path / "cal_obs.json"
        cfg = write_config(tmp_path / "cal_cfg.json", image_count=1, rng_seed=12)
        assert main(["simulate", "--config", cfg, "--out", str(cal_obs)]) == 0
        argv = ["calibrate", "--in", str(cal_obs), "--mode", "single",
                "--reference", str(bad), "--out", str(tmp_path / "r.json")]
    else:
        edited_copy(sim_file, bad, keys, value)
        argv = ["calibrate", "--in", str(bad), "--mode", "nimg",
                "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    if keys[0] == "images" and len(keys) > 1:
        assert f"image {keys[1]} (image_{keys[1]:03d})" in err
    if keys in (("images",), ("target",), ("ground_truth",)):
        assert f"{keys[0]} must be {'a list of' if keys[0] == 'images' else 'an'} object" in err
    if keys == ("images",) and isinstance(value, list):
        assert "bad image 0 (image_000)" in err
    if keys == ("ground_truth", "rotations_axis_angle"):
        assert f"{bad}: ground truth rotations" in err


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_calibrate_non_finite_pixel_exit_2(sim_file, tmp_path, capsys, value):
    payload = json.loads(sim_file.read_text())
    payload["images"][3]["points"][0][1] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["calibrate", "--in", str(bad), "--mode", "nimg",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "image_003" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command, keys, value", [
    ("simulate", ("pixel_noise_sigma",), NAN),
    ("simulate", ("spherical_noise_sigma",), INF),
    ("simulate", ("radius",), NAN),
    ("simulate", ("radius",), INF),
    ("simulate", ("target_offset",), [NAN, 105.0]),
    ("simulate", ("intrinsics",), {"fx": 1000.0, "fy": 1000.0, "cx": NAN, "cy": 478.0}),
    ("simulate", ("distortion",), [INF, 0.0]),
    ("calibrate", ("ground_truth", "intrinsics", "gamma"), INF),
    ("calibrate", ("ground_truth", "distortion"), [0.0, NAN]),
    ("calibrate", ("ground_truth", "t_cp"), [150.0, NAN, -700.0]),
    ("calibrate", ("ground_truth", "rotations_axis_angle"), [[0.0, INF, 0.0]] * 15),
    ("build-db", ("intrinsics", "fx"), INF),
    ("build-db", ("intrinsics", "cx"), NAN),
    ("build-db", ("distortion",), [NAN, 0.0]),
    ("build-db", ("distortion",), [INF, 0.0]),
    ("benchmark", ("pixel_noise_sigma",), INF),
], ids=["simulate-pixel-sigma", "simulate-spherical-sigma", "simulate-radius-nan",
        "simulate-radius-inf", "simulate-offset", "simulate-cx", "simulate-distortion",
        "calibrate-truth-gamma", "calibrate-truth-distortion", "calibrate-truth-t_cp",
        "calibrate-truth-rotations", "build-db-fx", "build-db-cx",
        "build-db-distortion-nan", "build-db-distortion-inf", "benchmark-pixel-sigma"])
def test_non_finite_value_exit_2(sim_file, tmp_path, capsys, command, keys, value):
    # JSON readers accept NaN and Infinity; each must be refused as input.
    bad = tmp_path / "bad.json"
    out = str(tmp_path / "out.json")
    if command in ("simulate", "benchmark"):
        edited_copy(tmp_path / "cfg.json", bad, keys, value)
        argv = [command, "--config", str(bad), "--out", out]
        if command == "benchmark":
            argv += ["--sweep", "noise"]
    elif command == "calibrate":
        edited_copy(sim_file, bad, keys, value)
        argv = ["calibrate", "--in", str(bad), "--mode", "nimg", "--out", out]
    else:
        ref_obs = tmp_path / "ref_obs.json"
        cfg = write_config(tmp_path / "ref_cfg.json", image_count=1)
        assert main(["simulate", "--config", cfg, "--out", str(ref_obs)]) == 0
        cam = tmp_path / "cam.json"
        fileio.write_report(cam, fileio.camera_payload(
            CameraIntrinsics(1000.0, 1000.0, 542.0, 478.0), Distortion(0.0, 0.0)))
        edited_copy(cam, bad, keys, value)
        argv = ["build-db", "--ref-obs", str(ref_obs), "--ref-cam", str(bad), "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "must be finite" in err
    assert not os.path.exists(out)


def test_build_db_distortion_of_three_entries_exit_2(tmp_path, capsys):
    ref_obs = tmp_path / "ref_obs.json"
    cfg = write_config(tmp_path / "ref_cfg.json", image_count=1)
    assert main(["simulate", "--config", cfg, "--out", str(ref_obs)]) == 0
    cam = tmp_path / "cam.json"
    fileio.write_report(cam, fileio.camera_payload(CameraIntrinsics(1000.0, 1000.0, 542.0, 478.0),
                                                   Distortion()))
    bad = edited_copy(cam, tmp_path / "bad.json", ("distortion",), [0.1, 0.2, 0.3])
    out = tmp_path / "db.json"
    assert main(["build-db", "--ref-obs", str(ref_obs), "--ref-cam", str(bad),
                 "--out", str(out)]) == 2
    assert f"{bad}: distortion must have shape (2,), got (3,)" in capsys.readouterr().err
    assert not out.exists()


def test_build_db_overflowing_camera_names_both_files_exit_2(tmp_path, capsys):
    # Each file reads, but cx = 1e308 overflows the back-projected rays; the
    # refusal used to name neither file.
    ref_obs = tmp_path / "ref_obs.json"
    cfg = write_config(tmp_path / "ref_cfg.json", image_count=1)
    assert main(["simulate", "--config", cfg, "--out", str(ref_obs)]) == 0
    cam = tmp_path / "cam.json"
    fileio.write_report(cam, fileio.camera_payload(CameraIntrinsics(1000.0, 1000.0, 1e308, 478.0),
                                                   Distortion()))
    out = tmp_path / "db.json"
    with pytest.warns(RuntimeWarning):
        assert main(["build-db", "--ref-obs", str(ref_obs), "--ref-cam", str(cam),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{ref_obs} with {cam}: database rays must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("command, block, message", [
    ("benchmark", {"sweep_values": {"noise": [0.5, NAN]}}, "noise sweep values must be finite"),
    ("benchmark", {"sweep_values": {"images": [NAN]}}, "images sweep values must be finite"),
    ("benchmark", {"sweep_values": {"images": [5, 2.7]}}, "integers of at least 3"),
    ("benchmark", {"sweep_values": {"images": [2]}}, "integers of at least 3"),
    ("benchmark", {"sweep_values": {"spherical": [-5.0]}}, "must be finite and non-negative"),
    ("simulate", {"target": {"spacing_mm": NAN}}, "spacing must be finite"),
    ("simulate", {"target": {"spacing_mm": 0.0}}, "spacing must be finite and positive"),
    ("simulate", {"target": {"spacing_mm": "30"}}, "target spacing must be a number"),
    ("simulate", {"target": {"rows": 1}}, "rows and cols must be integers of at least 2"),
    ("simulate", {"target": {"cols": 2.7}}, "target cols must be an integer"),
    ("simulate", {"image_size": [0, -5]}, "image_size must be positive"),
    ("simulate", {"image_size": [1080.9, 960]}, "image_size must be positive integers"),
    ("simulate", {"image_size": [NAN, 960]}, "image_size must be positive integers"),
    ("simulate", {"image_count": 3.9}, "image_count must be an integer"),
    ("simulate", {"trial_count": 2.7}, "trial_count must be an integer"),
    ("simulate", {"rng_seed": 0.5}, "rng_seed must be an integer"),
], ids=["sweep-noise-nan", "sweep-images-nan", "sweep-images-fraction", "sweep-images-2",
        "sweep-spherical-negative", "grid-spacing-nan", "grid-spacing-zero",
        "grid-spacing-string", "grid-rows-1",
        "grid-cols-fraction", "image-size-nonpositive", "image-size-fraction",
        "image-size-nan", "image-count-fraction",
        "trial-count-fraction", "rng-seed-fraction"])
def test_bad_sweep_or_grid_value_exit_2(tmp_path, capsys, command, block, message):
    bad = write_config(tmp_path / "bad.json", **block)
    out = str(tmp_path / "out")
    argv = [command, "--config", bad, "--out", out]
    if command == "benchmark":
        argv += ["--sweep", next(iter(block["sweep_values"]))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert bad in err and message in err
    assert not os.path.exists(out)


# The protocol's sweeps, which a benchmark config without sweep_values runs.
DEFAULT_SWEEPS = {
    "noise": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
    "images": [3, 5, 10, 15, 20, 25, 30],
    "spherical": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
}


@pytest.mark.parametrize("sweep", synth.SWEEP_KINDS)
def test_sweep_values_default_to_the_protocol_table(tmp_path, sweep):
    # One table in synth names each kind's config field and default values.
    plain = write_config(tmp_path / "plain.json")
    custom = write_config(tmp_path / "custom.json", sweep_values={sweep: [4, 6.0]})
    defaults = fileio.read_sweep_values(plain, sweep)
    assert list(map(repr, defaults)) == list(map(repr, DEFAULT_SWEEPS[sweep]))
    assert fileio.read_sweep_values(custom, sweep) == [4.0, 6.0]
    other = next(kind for kind in synth.SWEEP_KINDS if kind != sweep)
    assert fileio.read_sweep_values(custom, other) == DEFAULT_SWEEPS[other]
    field, values = synth.SWEEPS[sweep]
    assert list(values) == defaults
    assert getattr(synth._config_for(synth.default_config(), sweep, 4), field) == 4


def test_custom_sweep_values_take_the_protocols_first_values(tmp_path):
    # 0 is every noise sweep's first value and 3 the closed form's fewest
    # images; just below each, a value is refused.
    path = write_config(tmp_path / "edges.json",
                        sweep_values={"noise": [0.0, 1.0], "images": [3, 5]})
    assert fileio.read_sweep_values(path, "noise") == [0.0, 1.0]
    assert fileio.read_sweep_values(path, "images") == [3.0, 5.0]
    for sweep, value, message in (("noise", -0.5, "finite and non-negative"),
                                  ("images", 2, "integers of at least 3")):
        refused = write_config(tmp_path / f"{sweep}.json", sweep_values={sweep: [value]})
        with pytest.raises(fileio.FileFormatError, match=message):
            fileio.read_sweep_values(refused, sweep)


def test_config_target_takes_the_grid_defaults_for_missing_keys(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", target={"rows": 5})
    assert fileio.read_synthetic_config(cfg).target == synth.TargetGrid(rows=5)
    cfg = write_config(tmp_path / "cfg.json", target={"spacing_mm": 12.5})
    assert fileio.read_synthetic_config(cfg).target == synth.TargetGrid(spacing=12.5)


def reader_file(tmp_path, reader):
    """(read, path) of a valid file for one of the five readers."""
    path = tmp_path / f"{reader}.json"
    intr = CameraIntrinsics(1000.0, 1000.0, 542.0, 478.0)
    if reader == "observations":
        _, obs = synth.make_scene(synth.default_config(image_count=3), np.random.default_rng(1))
        fileio.write_observation_file(path, obs)
        return fileio.read_observation_file, path
    if reader == "camera":
        fileio.write_report(path, fileio.camera_payload(intr, Distortion(0.0, 0.0)))
        return fileio.read_camera_file, path
    if reader == "database":
        rays = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, 0.6, 0.8]])
        fileio.write_ray_database(path, RayDatabase(np.arange(3), rays, intr, Distortion()))
        return fileio.read_ray_database, path
    write_config(path, sweep_values={"noise": [0.5]})
    if reader == "config":
        return fileio.read_synthetic_config, path
    return (lambda p: fileio.read_sweep_values(p, "noise")), path


# Per reader, its malformed files: the nested keys of an entry set to a
# value, or (None, bytes) for the whole file.
READER_FAULTS = {
    "observations": [(("images", 0), {"name": "first"}), (("images",), {}),
                     (("images", 0, "points", 0), [0, 1.0]),
                     (("images", 0, "points", 1, 0), 0)],
    "camera": [(("intrinsics",), {"fx": 1.0}), (("intrinsics",), []),
               (("intrinsics", "fx"), -1.0)],
    "database": [(("provenance",), {}), (("provenance",), []), (("rays", 1), [1, 0.6]),
                 (("rays", 1, 0), 0)],
    "config": [(("intrinsics",), {"fx": 1.0}), (("target",), 5), (("radius",), -1.0)],
    "sweep": [(("sweep_values",), []), (("sweep_values", "noise"), [-1.0])],
}
for faults in READER_FAULTS.values():
    faults += [(("schema_version",), 2), (None, b"{"), (None, b"\xff\xfe{")]


@pytest.mark.parametrize("reader, keys, value", [
    (reader, keys, value) for reader, faults in READER_FAULTS.items()
    for keys, value in faults])
def test_reader_errors_name_the_file_once(tmp_path, reader, keys, value):
    # The path is prefixed in one place, `fileio._reader`, to every error of
    # the load and the parse, the decoding error of a file that is not UTF-8
    # among them.
    read, path = reader_file(tmp_path, reader)
    if keys is None:
        path.write_bytes(value)
    else:
        edited_copy(path, path, keys, value)
    with pytest.raises(fileio.FileFormatError) as info:
        read(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    assert message.count(str(path)) == 1


# ---------------------------------------------------------------------------
# fuzzed input
# ---------------------------------------------------------------------------

# What a fuzzed leaf becomes: each kind of value a JSON reader hands a field,
# and numbers at the edges of float64 and int64.
FUZZ_LEAVES = [True, None, "1", [], {}, [[1.0, 2.0]], 0, -1, 1e308, -1e308, 2 ** 63, 2 ** 70,
               float("nan"), float("inf")]


def fuzz_mutate(payload, rng):
    """Apply one seeded mutation to a JSON payload in place; returns its description.

    The entry is found by descending from the root and stopping at each
    level with probability 1/3, so that the top-level keys are not drowned
    out by the point coordinates.
    """
    path, value = [], payload
    while isinstance(value, (dict, list)) and value and (not path or rng.random() > 1 / 3):
        path.append(rng.choice(list(value) if isinstance(value, dict) else range(len(value))))
        value = value[path[-1]]
    if not path:
        return "none"
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    kinds = ["leaf", "delete"]
    kinds += ["duplicate"] if isinstance(parent, list) else []
    kinds += ["truncate"] if isinstance(value, list) and value else []
    kinds += ["scale"] if type(value) in (int, float) else []
    kind = rng.choice(kinds)
    if kind == "leaf":
        parent[path[-1]] = copy.deepcopy(rng.choice(FUZZ_LEAVES))
    elif kind == "delete":
        del parent[path[-1]]
    elif kind == "duplicate":
        parent.insert(path[-1], copy.deepcopy(value))
    elif kind == "truncate":
        del value[rng.randrange(len(value)):]
    else:
        parent[path[-1]] = value * rng.choice([0, -1, 1e6])
    return f"{kind} {path}"


def test_fuzzed_input_exits_with_a_code_and_no_traceback(tmp_path, capsys):
    # Seeded mutations of valid inputs (a 4-image file, its 2- and 1-image
    # cuts, a camera file and the database built from the 1-image cut) go
    # through every command that reads them.  Each must end in exit 0, 2, 3
    # or 4: a typed refusal or a result, never an exception, and an exit 2
    # names one of the command's input files.  A coordinate
    # near 1e308 may overflow with a numpy RuntimeWarning on its way to its
    # typed exit, so RuntimeWarnings are ignored here.
    cfg = write_config(tmp_path / "cfg.json", image_count=4)
    full = tmp_path / "obs4.json"
    assert main(["simulate", "--config", cfg, "--out", str(full)]) == 0
    payloads = {"nimg": json.loads(full.read_text())}
    for mode, count in (("minimal", 2), ("single", 1)):
        cut = json.loads(full.read_text())
        cut["images"] = cut["images"][:count]
        cut["ground_truth"]["rotations_axis_angle"] = (
            cut["ground_truth"]["rotations_axis_angle"][:count])
        payloads[mode] = cut
    pristine = {name: tmp_path / f"{name}.json" for name in ("obs1", "cam", "db")}
    pristine["obs1"].write_text(json.dumps(payloads["single"]))
    truth = payloads["single"]["ground_truth"]["intrinsics"]
    fileio.write_report(pristine["cam"],
                        fileio.camera_payload(CameraIntrinsics(**truth), Distortion()))
    assert main(["build-db", "--ref-obs", str(pristine["obs1"]), "--ref-cam",
                 str(pristine["cam"]), "--out", str(pristine["db"])]) == 0
    payloads["cam"] = json.loads(pristine["cam"].read_text())
    payloads["db"] = json.loads(pristine["db"].read_text())

    bad, out = tmp_path / "bad.json", str(tmp_path / "out.json")
    # Per case: the payload mutated, and the command that reads it as `bad`.
    commands = [
        ("nimg", ["calibrate", "--in", bad, "--mode", "nimg", "--out", out]),
        ("minimal", ["calibrate", "--in", bad, "--mode", "minimal", "--out", out]),
        ("single", ["calibrate", "--in", bad, "--mode", "single",
                    "--reference", pristine["db"], "--out", out]),
        ("db", ["calibrate", "--in", pristine["obs1"], "--mode", "single",
                "--reference", bad, "--out", out]),
        ("single", ["build-db", "--ref-obs", bad, "--ref-cam", pristine["cam"], "--out", out]),
        ("cam", ["build-db", "--ref-obs", pristine["obs1"], "--ref-cam", bad, "--out", out]),
    ]
    rng = random.Random(0)
    codes = []
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for case in range(300):
            name, argv = rng.choice(commands)
            payload = copy.deepcopy(payloads[name])
            mutations = [fuzz_mutate(payload, rng) for _ in range(rng.randint(1, 3))]
            bad.write_text(json.dumps(payload))
            try:
                codes.append(main([str(arg) for arg in argv]))
            except Exception as exc:
                pytest.fail(f"case {case}, {argv[:4]} with {mutations}: {exc!r}")
            err = capsys.readouterr().err
            assert codes[-1] in (0, 2, 3, 4) and "Traceback" not in err, (case, mutations, err)
            inputs = [str(argv[k + 1]) for k, flag in enumerate(argv)
                      if flag in ("--in", "--reference", "--ref-obs", "--ref-cam")]
            assert codes[-1] != 2 or any(path in err for path in inputs), (case, mutations, err)
    # Most cases are refused, and some still calibrate.
    assert codes.count(2) > 150 and codes.count(0) > 10


# ---------------------------------------------------------------------------
# build-db + single-image flow
# ---------------------------------------------------------------------------

@pytest.fixture
def reference_db(tmp_path):
    ref_cam = CameraIntrinsics(1200.0, 1180.0, 700.0, 500.0, 0.0)
    cfg = write_config(tmp_path / "ref_cfg.json", image_count=1, rng_seed=11,
                       intrinsics={"fx": 1200.0, "fy": 1180.0, "cx": 700.0,
                                   "cy": 500.0, "gamma": 0.0},
                       image_size=[1400, 1000])
    ref_obs = tmp_path / "ref_obs.json"
    assert main(["simulate", "--config", cfg, "--out", str(ref_obs)]) == 0
    cam_file = tmp_path / "ref_cam.json"
    fileio.write_report(cam_file, fileio.camera_payload(ref_cam, Distortion(0.0, 0.0)))
    db_file = tmp_path / "rays.json"
    assert main(["build-db", "--ref-obs", str(ref_obs), "--ref-cam", str(cam_file),
                 "--out", str(db_file)]) == 0
    return db_file


def test_single_mode_names_a_file_whose_image_size_is_past_int64(reference_db, tmp_path,
                                                                 capsys):
    # A width of 1e308 used to pass the reader as a 309-digit int, which the
    # single-image pipeline refused as no number, naming no file.
    cfg = write_config(tmp_path / "cal_cfg.json", image_count=1, rng_seed=12)
    cal_obs = tmp_path / "cal_obs.json"
    assert main(["simulate", "--config", cfg, "--out", str(cal_obs)]) == 0
    bad = edited_copy(cal_obs, tmp_path / "bad.json", ("image_size",), [1e308, 960])
    assert main(["calibrate", "--in", str(bad), "--mode", "single",
                 "--reference", str(reference_db), "--out", str(tmp_path / "r.json")]) == 2
    assert f"error: {bad}: image_size must be positive integers" in capsys.readouterr().err


def test_build_db_and_single_calibration(reference_db, tmp_path):
    cfg = write_config(tmp_path / "cal_cfg.json", image_count=1, rng_seed=12)
    cal_obs = tmp_path / "cal_obs.json"
    assert main(["simulate", "--config", cfg, "--out", str(cal_obs)]) == 0
    out = tmp_path / "single_report.json"
    assert main(["calibrate", "--in", str(cal_obs), "--mode", "single",
                 "--reference", str(reference_db), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["error_vs_truth"]["fx_err_rel"] < 1e-6
    assert report["n_matched"] == 88


def test_a_calibrate_report_is_the_reference_camera_file(tmp_path):
    # The reference workflow: calibrate the reference camera from 15 views,
    # build the database from one more view with the report as the camera
    # file, then calibrate a new camera against it.
    camera = {"fx": 1200.0, "fy": 1180.0, "cx": 700.0, "cy": 500.0, "gamma": 0.0}
    files = {name: tmp_path / f"{name}.json" for name in (
        "views", "report", "ref_obs", "rays", "camera", "rays_from_camera", "cal_obs", "single")}
    for name, count, seed in (("views", 15, 10), ("ref_obs", 1, 11)):
        cfg = write_config(tmp_path / f"{name}_cfg.json", image_count=count, rng_seed=seed,
                           intrinsics=camera, image_size=[1400, 1000])
        assert main(["simulate", "--config", cfg, "--out", str(files[name])]) == 0
    assert main(["calibrate", "--in", str(files["views"]), "--mode", "nimg",
                 "--out", str(files["report"])]) == 0
    assert main(["build-db", "--ref-obs", str(files["ref_obs"]), "--ref-cam",
                 str(files["report"]), "--out", str(files["rays"])]) == 0
    # The same database as from a camera file of the report's K and d alone.
    report = json.loads(files["report"].read_text())
    fileio.write_report(files["camera"], fileio.camera_payload(
        CameraIntrinsics(**report["intrinsics"]), Distortion(*report["distortion"])))
    assert main(["build-db", "--ref-obs", str(files["ref_obs"]), "--ref-cam",
                 str(files["camera"]), "--out", str(files["rays_from_camera"])]) == 0
    assert files["rays"].read_bytes() == files["rays_from_camera"].read_bytes()
    cfg = write_config(tmp_path / "cal_cfg.json", image_count=1, rng_seed=12)
    assert main(["simulate", "--config", cfg, "--out", str(files["cal_obs"])]) == 0
    assert main(["calibrate", "--in", str(files["cal_obs"]), "--mode", "single",
                 "--reference", str(files["rays"]), "--out", str(files["single"])]) == 0
    assert json.loads(files["single"].read_text())["error_vs_truth"]["fx_err_rel"] < 1e-6


def strict_json(path):
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


def calibrate_each_mode(sim_file, reference_db, tmp_path, tag, *extra):
    """The report path of one `calibrate` per mode, on the noiseless nimg,
    minimal and single scenes."""
    inputs = {"nimg": sim_file}
    for mode, count, seed in (("minimal", 2, 3), ("single", 1, 12)):
        cfg = write_config(tmp_path / f"{mode}_cfg.json", image_count=count, rng_seed=seed)
        inputs[mode] = tmp_path / f"{mode}_obs.json"
        assert main(["simulate", "--config", cfg, "--out", str(inputs[mode])]) == 0
    reports = {}
    for mode, path in inputs.items():
        reports[mode] = tmp_path / f"{mode}_report_{tag}.json"
        reference = ["--reference", str(reference_db)] if mode == "single" else []
        assert main(["calibrate", "--in", str(path), "--mode", mode,
                     "--out", str(reports[mode]), *reference, *extra]) == 0
    return reports


def test_no_refine_reports_are_strict_json(sim_file, reference_db, tmp_path):
    for mode, out in calibrate_each_mode(sim_file, reference_db, tmp_path, "init",
                                         "--no-refine").items():
        report = strict_json(out)
        # Noiseless and undistorted, so the initial estimate reprojects exactly.
        assert 0.0 <= report["rms_reprojection_px"] < 1e-6, mode
        assert report["termination"] == "not_run", mode
        assert report["distortion"] == [0.0, 0.0], mode


REFINEMENT_BLOCK = ("stage", "converged", "termination", "rms_reprojection_px",
                    "per_image_rms_px")


@pytest.mark.parametrize("refine", [True, False], ids=["refined", "no_refine"])
def test_every_mode_writes_the_same_refinement_block(sim_file, reference_db, tmp_path,
                                                     refine):
    extra = () if refine else ("--no-refine",)
    for mode, out in calibrate_each_mode(sim_file, reference_db, tmp_path, "block",
                                         *extra).items():
        report = strict_json(out)
        assert all(key in report for key in REFINEMENT_BLOCK), (mode, sorted(report))
        images = 1 if mode == "single" else 2 if mode == "minimal" else 15
        assert len(report["per_image_rms_px"]) == images, mode
        assert max(report["per_image_rms_px"]) < 1e-6, mode
        if refine:
            assert report["stage"] == "refined", mode
            assert report["termination"] != "not_run", mode
        else:
            assert report["stage"] == "init", mode
            assert report["converged"] is False, mode
            assert report["termination"] == "not_run", mode


def test_every_writer_writes_one_compact_sorted_document(sim_file, reference_db, tmp_path):
    camera = tmp_path / "camera.json"
    fileio.write_report(camera, fileio.camera_payload(
        CameraIntrinsics(1000.0, 1000.0, 542.0, 478.0), Distortion(0.1, -0.2)))
    first = calibrate_each_mode(sim_file, reference_db, tmp_path, "first")
    second = calibrate_each_mode(sim_file, reference_db, tmp_path, "second")
    for path in (sim_file, reference_db, camera, *first.values()):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, allow_nan=False) + "\n"
        assert text.count("\n") == 1
    for mode in first:
        assert first[mode].read_bytes() == second[mode].read_bytes(), mode


def test_indented_files_read_and_calibrate_the_same(sim_file, reference_db, tmp_path):
    # Files written with indent=1, as earlier versions wrote them.
    obs = tmp_path / "indented_obs.json"
    obs.write_text(json.dumps(json.loads(sim_file.read_text()), indent=1, sort_keys=True))
    db = tmp_path / "indented_db.json"
    db.write_text(json.dumps(json.loads(reference_db.read_text()), indent=1, sort_keys=True))
    compact = fileio.read_observation_file(sim_file)
    indented = fileio.read_observation_file(obs)
    for name in ("ids", "uv", "counts", "xy"):
        assert np.array_equal(getattr(indented.observations, name),
                              getattr(compact.observations, name))
    assert indented.ground_truth.intrinsics == compact.ground_truth.intrinsics
    assert np.array_equal(fileio.read_ray_database(db).rays,
                          fileio.read_ray_database(reference_db).rays)
    reports = {}
    for tag, path in (("compact", sim_file), ("indented", obs)):
        reports[tag] = tmp_path / f"{tag}_report.json"
        assert main(["calibrate", "--in", str(path), "--mode", "nimg",
                     "--out", str(reports[tag])]) == 0
    reports = {tag: json.loads(path.read_text()) for tag, path in reports.items()}
    assert reports["indented"].pop("input") == str(obs)
    assert reports["compact"].pop("input") == str(sim_file)
    assert reports["indented"] == reports["compact"]


def test_one_parser_serves_every_call_without_leaking_arguments(sim_file, tmp_path,
                                                                 monkeypatch):
    assert build_parser() is build_parser()
    init, refined = tmp_path / "init.json", tmp_path / "refined.json"
    assert main(["calibrate", "--in", str(sim_file), "--mode", "nimg", "--no-refine",
                 "--out", str(init)]) == 0
    assert main(["calibrate", "--in", str(sim_file), "--mode", "nimg",
                 "--out", str(refined)]) == 0
    assert json.loads(init.read_text())["stage"] == "init"
    report = json.loads(refined.read_text())
    assert report["stage"] == "refined"
    assert report["config_echo"]["no_refine"] is False
    # A command wrapped after the parser was built is the one that runs.
    modes = []
    monkeypatch.setattr(cli, "cmd_calibrate", lambda args: modes.append(args.mode) or 0)
    assert main(["calibrate", "--in", str(sim_file), "--mode", "minimal",
                 "--out", str(refined)]) == 0
    assert modes == ["minimal"]


def test_report_that_cannot_be_written_leaves_the_file_unchanged(tmp_path):
    # The text is built before the file is opened: a value JSON cannot hold
    # raises without truncating what is already there.
    out = tmp_path / "report.json"
    fileio.write_report(out, {"rms_reprojection_px": 0.5})
    before = out.read_bytes()
    with pytest.raises(ValueError):
        fileio.write_report(out, {"rms_reprojection_px": float("nan")})
    assert out.read_bytes() == before


def test_database_round_trip_bit_identical(reference_db, tmp_path):
    db = fileio.read_ray_database(reference_db)
    copy = tmp_path / "copy.json"
    fileio.write_ray_database(copy, db)
    assert copy.read_bytes() == reference_db.read_bytes()


@st.composite
def observation_sets(draw):
    """A target of 4 to 12 points and up to 4 images of uneven, permuted subsets of it."""
    size = draw(st.integers(4, 12))
    ids = draw(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=size, max_size=size,
                        unique=True))
    mm = st.floats(-1e4, 1e4)
    try:
        target = PlanarTarget(ids, draw(st.lists(st.tuples(mm, mm), min_size=size,
                                                 max_size=size)))
    except ValueError:
        reject()  # collinear points
    pixel = st.floats(allow_nan=False, allow_infinity=False)
    images = []
    for _ in range(draw(st.integers(0, 4))):
        seen = draw(st.permutations(ids))[:draw(st.integers(MIN_IMAGE_POINTS, size))]
        uv = draw(st.lists(st.tuples(pixel, pixel), min_size=len(seen), max_size=len(seen)))
        images.append((np.array(seen), np.array(uv)))
    return stack_images(target, images)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(observation_sets())
def test_observation_file_round_trip_bit_identical(tmp_path_factory, obs):
    first = tmp_path_factory.mktemp("round_trip") / "first.json"
    fileio.write_observation_file(first, obs)
    back = fileio.read_observation_file(first).observations
    for a, b in ((back.target.ids, obs.target.ids), (back.target.xy, obs.target.xy),
                 (back.ids, obs.ids), (back.uv, obs.uv), (back.counts, obs.counts)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    second = first.with_name("second.json")
    fileio.write_observation_file(second, back)
    assert second.read_bytes() == first.read_bytes()


def test_tampered_database_rejected(reference_db, tmp_path):
    payload = json.loads(reference_db.read_text())
    payload["rays"][0][1] *= 1.5  # no longer unit norm
    bad = tmp_path / "bad_db.json"
    bad.write_text(json.dumps(payload))
    cfg = write_config(tmp_path / "cal_cfg.json", image_count=1, rng_seed=12)
    cal_obs = tmp_path / "cal_obs.json"
    main(["simulate", "--config", cfg, "--out", str(cal_obs)])
    assert main(["calibrate", "--in", str(cal_obs), "--mode", "single",
                 "--reference", str(bad), "--out", str(tmp_path / "r.json")]) == 2


def test_single_mode_requires_reference(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", image_count=1)
    obs = tmp_path / "one.json"
    main(["simulate", "--config", cfg, "--out", str(obs)])
    assert main(["calibrate", "--in", str(obs), "--mode", "single",
                 "--out", str(tmp_path / "r.json")]) == 2


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def test_benchmark_csv_contract(tmp_path, monkeypatch):
    monkeypatch.setenv("COLLIMCAL_THREADS", "2")
    cfg = write_config(tmp_path / "cfg.json", trial_count=3,
                       sweep_values={"noise": [0.5, 1.0]})
    out = tmp_path / "bench.csv"
    assert main(["benchmark", "--config", cfg, "--sweep", "noise",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header == ["sweep_value", "solver", "stage", "fx_err_rel_mean",
                      "fx_err_rel_std", "cxy_err_px_mean", "cxy_err_px_std",
                      "d1_err_mean", "d2_err_mean", "tcp_err_mm_mean",
                      "fail_count", "ms_per_trial"]
    assert len(lines) == 1 + 2 * 4  # two sweep points, four solver arms


@pytest.mark.parametrize("threads, rule", [("two", "an integer"), ("0", "at least 1"),
                                           ("-3", "at least 1")])
def test_benchmark_names_a_bad_thread_count(tmp_path, monkeypatch, capsys, threads, rule):
    # A count below 1 used to run one worker silently.
    monkeypatch.setenv("COLLIMCAL_THREADS", threads)
    cfg = write_config(tmp_path / "cfg.json", trial_count=2,
                       sweep_values={"noise": [0.5]})
    assert main(["benchmark", "--config", cfg, "--sweep", "noise",
                 "--out", str(tmp_path / "bench.csv")]) == 2
    assert f"COLLIMCAL_THREADS must be {rule}" in capsys.readouterr().err
    assert not (tmp_path / "bench.csv").exists()


def strip_timing(csv_text: str) -> str:
    # ms_per_trial is wall clock and varies run to run by nature; every
    # other column must be byte-identical for the same seed.
    return "\n".join(",".join(line.split(",")[:-1])
                     for line in csv_text.strip().split("\n"))


def test_benchmark_deterministic_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv("COLLIMCAL_THREADS", "2")
    cfg = write_config(tmp_path / "cfg.json", trial_count=2, pixel_noise_sigma=0.5,
                       sweep_values={"noise": [0.5]})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["benchmark", "--config", cfg, "--sweep", "noise", "--out", str(a)]) == 0
    monkeypatch.setenv("COLLIMCAL_THREADS", "1")
    assert main(["benchmark", "--config", cfg, "--sweep", "noise", "--out", str(b)]) == 0
    assert strip_timing(a.read_text()) == strip_timing(b.read_text())
