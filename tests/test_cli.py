import json
import os

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from collimcal import fileio, synth
from collimcal.cli import main
from collimcal.core_geom import MIN_IMAGE_POINTS, CameraIntrinsics, Distortion, PlanarTarget
from conftest import rotation_from_axis_angle, stack_images


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


def test_calibrate_wrong_arity_exit_2(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", image_count=2)
    obs = tmp_path / "two.json"
    main(["simulate", "--config", cfg, "--out", str(obs)])
    assert main(["calibrate", "--in", str(obs), "--mode", "nimg",
                 "--out", str(tmp_path / "r.json")]) == 2


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
], ids=["truth-distortion", "truth-t_cp", "truth-t_cp-2", "truth-rotations-ragged",
        "truth-rotations-count", "image_size", "image_size-nonpositive",
        "image_size-fraction", "images", "images-object", "images-string",
        "images-numbers", "target", "truth", "config-distortion", "config-target",
        "config-image-count-fraction", "config-image_size-fraction",
        "config-image_size-overflow", "config-radius-overflow", "config-image-count-bool",
        "config-rng-seed-bool", "config-trial-count-bool", "sweep-values-list",
        "sweep-values-empty", "point-id-fraction",
        "point-id-bool", "point-extra-entry", "point-string-coordinate",
        "target-id-fraction", "database-id-fraction"])
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
        fileio.write_camera_file(cam, CameraIntrinsics(1000.0, 1000.0, 542.0, 478.0),
                                 Distortion(0.0, 0.0))
        edited_copy(cam, bad, keys, value)
        argv = ["build-db", "--ref-obs", str(ref_obs), "--ref-cam", str(bad), "--out", out]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "must be finite" in err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, block, message", [
    ("benchmark", {"sweep_values": {"noise": [0.5, NAN]}}, "noise sweep values must be finite"),
    ("benchmark", {"sweep_values": {"images": [NAN]}}, "images sweep values must be finite"),
    ("benchmark", {"sweep_values": {"images": [5, 2.7]}}, "integers of at least 3"),
    ("benchmark", {"sweep_values": {"images": [2]}}, "integers of at least 3"),
    ("benchmark", {"sweep_values": {"spherical": [-5.0]}}, "must be finite and non-negative"),
    ("simulate", {"target": {"spacing_mm": NAN}}, "spacing must be finite"),
    ("simulate", {"target": {"spacing_mm": 0.0}}, "spacing must be finite and positive"),
    ("simulate", {"target": {"rows": 1}}, "rows and cols must be integers of at least 2"),
    ("simulate", {"target": {"cols": 2.7}}, "rows and cols must be integers of at least 2"),
    ("simulate", {"image_size": [0, -5]}, "image_size must be positive"),
    ("simulate", {"image_size": [1080.9, 960]}, "image_size must be positive integers"),
    ("simulate", {"image_size": [NAN, 960]}, "image_size must be positive integers"),
    ("simulate", {"image_count": 3.9}, "image_count must be an integer"),
    ("simulate", {"trial_count": 2.7}, "trial_count must be an integer"),
    ("simulate", {"rng_seed": 0.5}, "rng_seed must be an integer"),
], ids=["sweep-noise-nan", "sweep-images-nan", "sweep-images-fraction", "sweep-images-2",
        "sweep-spherical-negative", "grid-spacing-nan", "grid-spacing-zero", "grid-rows-1",
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
    fileio.write_camera_file(cam_file, ref_cam, Distortion(0.0, 0.0))
    db_file = tmp_path / "rays.json"
    assert main(["build-db", "--ref-obs", str(ref_obs), "--ref-cam", str(cam_file),
                 "--out", str(db_file)]) == 0
    return db_file


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


def strict_json(path):
    def reject(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    return json.loads(path.read_text(), parse_constant=reject)


def test_no_refine_reports_are_strict_json(sim_file, reference_db, tmp_path):
    inputs = {"nimg": sim_file}
    for mode, count, seed in (("minimal", 2, 3), ("single", 1, 12)):
        cfg = write_config(tmp_path / f"{mode}_cfg.json", image_count=count, rng_seed=seed)
        inputs[mode] = tmp_path / f"{mode}_obs.json"
        assert main(["simulate", "--config", cfg, "--out", str(inputs[mode])]) == 0
    for mode, path in inputs.items():
        out = tmp_path / f"{mode}_report.json"
        extra = ["--reference", str(reference_db)] if mode == "single" else []
        assert main(["calibrate", "--in", str(path), "--mode", mode, "--no-refine",
                     "--out", str(out)] + extra) == 0
        report = strict_json(out)
        # Noiseless and undistorted, so the initial estimate reprojects exactly.
        assert 0.0 <= report["rms_reprojection_px"] < 1e-6, mode
    assert report["termination"] == "not_run" and report["distortion"] == [0.0, 0.0]


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


def test_benchmark_names_a_bad_thread_count(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLLIMCAL_THREADS", "two")
    cfg = write_config(tmp_path / "cfg.json", trial_count=2,
                       sweep_values={"noise": [0.5]})
    assert main(["benchmark", "--config", cfg, "--sweep", "noise",
                 "--out", str(tmp_path / "bench.csv")]) == 2
    assert "COLLIMCAL_THREADS" in capsys.readouterr().err
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
