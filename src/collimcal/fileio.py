"""JSON file formats: observations, ray databases, camera files, reports, configs.

One human-readable JSON format covers everything except benchmark output,
which is CSV.  World coordinates are millimetres and image coordinates are
pixels throughout; every file carries a schema version.  Writing is
deterministic (sorted keys, shortest-roundtrip floats), so identical data
produces byte-identical files.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .core_geom import (
    CameraIntrinsics,
    Distortion,
    ObservationSet,
    PlanarTarget,
    axis_angle_from_rotation_matrix,
)
from .single_calib import RayDatabase
from .synth import SyntheticConfig, TargetGrid

SCHEMA_VERSION = 1


class FileFormatError(ValueError):
    """Malformed or semantically invalid input file."""


@dataclass(frozen=True)
class GroundTruth:
    intrinsics: CameraIntrinsics
    distortion: Distortion
    t_cp: np.ndarray
    rotations: np.ndarray | None  # per-image axis-angle vectors (N, 3), if known


@dataclass(frozen=True)
class ObservationFile:
    observations: ObservationSet
    image_names: tuple
    image_size: tuple | None
    ground_truth: GroundTruth | None


def _dump(path, payload) -> None:
    # Serialized before the file is opened, so that a payload JSON cannot
    # hold (a NaN, say) leaves any file at `path` as it was.
    text = json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc


def _require(payload, key, path, kind=None):
    """payload[key]; FileFormatError if it is missing or, given `kind`, not one."""
    if key not in payload:
        raise FileFormatError(f"{path}: missing required key '{key}'")
    if kind is not None and not isinstance(payload[key], kind):
        raise FileFormatError(f"{path}: {key} must be "
                              f"{'an object' if kind is dict else 'a list of objects'}")
    return payload[key]


def _reader(parse):
    """Reader of the file at `path` from parse(payload, path, *args).

    Checks the schema version first.  Invalid content, including entries
    of the wrong type or shape, raises FileFormatError naming the path.
    """
    @functools.wraps(parse)
    def read(path, *args):
        payload = _load(path)
        try:
            version = _require(payload, "schema_version", path)
            if version != SCHEMA_VERSION:
                raise FileFormatError(f"{path}: unsupported schema version {version!r}")
            return parse(payload, path, *args)
        except FileFormatError:
            raise
        except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
                ValueError) as exc:
            raise FileFormatError(f"{path}: {exc}") from exc
    return read


def _pair(value, cast, name, path):
    """The two entries of a two-element list, each passed through `cast`."""
    if not isinstance(value, list) or len(value) != 2:
        raise FileFormatError(f"{path}: {name} must be a two-element list")
    return cast(value[0]), cast(value[1])


def _point_rows(rows, fields, where):
    """Ids (n,) and coordinates (n, len(fields)) of the point rows [id, *fields].

    A row must be a list of an integer id (not a bool, a float or a string)
    and len(fields) finite numbers; anything else raises FileFormatError naming
    `where`.  Types are checked in bulk, and one flat list is converted.
    """
    width = 1 + len(fields)
    layout = f"[integer id, {', '.join(fields)}]"
    try:
        if type(rows) is not list or not set(map(len, rows)) <= {width}:
            raise TypeError
        flat = list(itertools.chain.from_iterable(rows))
    except TypeError:
        raise FileFormatError(f"{where}: every point must be a list {layout}") from None
    ids, *columns = (flat[k::width] for k in range(width))
    if not (set(map(type, ids)) <= {int}
            and all(set(map(type, column)) <= {int, float} for column in columns)):
        raise FileFormatError(f"{where}: every point must be {layout} with an integer "
                              f"id and numbers")
    try:
        ids, coordinates = (np.array(ids, dtype=int),
                            np.array(flat, dtype=float).reshape(-1, width)[:, 1:])
    except OverflowError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc
    if not np.isfinite(coordinates).all():
        raise FileFormatError(f"{where}: every coordinate must be finite")
    return ids, coordinates


def _image_size(value, path):
    """The (width, height) of an image_size entry: two positive integers."""
    size = _pair(value, float, "image_size", path)
    if not all(v.is_integer() and v > 0 for v in size):
        raise FileFormatError(f"{path}: image_size must be positive integers, got {value}")
    return int(size[0]), int(size[1])


def intrinsics_payload(intr: CameraIntrinsics) -> dict:
    """The JSON block of a camera's intrinsics."""
    return {"fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
            "gamma": intr.gamma}


def _intrinsics_from(payload, path) -> CameraIntrinsics:
    try:
        return CameraIntrinsics(fx=float(payload["fx"]), fy=float(payload["fy"]),
                                cx=float(payload["cx"]), cy=float(payload["cy"]),
                                gamma=float(payload.get("gamma", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"{path}: bad intrinsics block: {exc}") from exc


def _distortion_from(block, path) -> Distortion:
    """The block's "distortion" pair, (0, 0) when it has none."""
    return Distortion(*_pair(block.get("distortion", [0.0, 0.0]), float, "distortion", path))


# ---------------------------------------------------------------------------
# observation files
# ---------------------------------------------------------------------------

def write_observation_file(path, observations: ObservationSet, *,
                           image_names=None, image_size=None,
                           ground_truth: GroundTruth | None = None) -> None:
    names = list(image_names) if image_names is not None else [
        f"image_{k:03d}" for k in range(len(observations))]
    if len(names) != len(observations):
        raise ValueError("image_names length must match the image count")
    points = [[i, u, v] for i, (u, v) in zip(observations.ids.tolist(),
                                             observations.uv.tolist())]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "units": {"world": "mm", "image": "pixel"},
        "target": {"points": [[int(i), float(x), float(y)]
                              for i, (x, y) in zip(observations.target.ids,
                                                   observations.target.xy)]},
        "images": [{"name": name, "points": points[end - count:end]}
                   for name, count, end in zip(names, observations.counts.tolist(),
                                               np.cumsum(observations.counts).tolist())],
    }
    if image_size is not None:
        payload["image_size"] = [int(image_size[0]), int(image_size[1])]
    if ground_truth is not None:
        payload["ground_truth"] = {
            "intrinsics": intrinsics_payload(ground_truth.intrinsics),
            "distortion": [ground_truth.distortion.d1, ground_truth.distortion.d2],
            "t_cp": [float(v) for v in ground_truth.t_cp],
        }
        if ground_truth.rotations is not None:
            payload["ground_truth"]["rotations_axis_angle"] = np.asarray(
                ground_truth.rotations, dtype=float).tolist()
    _dump(path, payload)


@_reader
def read_observation_file(payload, path) -> ObservationFile:
    target_block = _require(payload, "target", path, dict)
    ids, xy = _point_rows(_require(target_block, "points", path), ("x", "y"),
                          f"{path}: bad target points")
    target = PlanarTarget(ids=ids, xy=xy)

    ids, uv, names = [np.zeros(0, dtype=int)], [np.zeros((0, 2))], []
    for k, block in enumerate(_require(payload, "images", path, list)):
        if not isinstance(block, dict):
            raise FileFormatError(f"{path}: bad image {k} (image_{k:03d}): "
                                  f"images must be a list of objects")
        names.append(str(block.get("name", f"image_{k:03d}")))
        rows = _point_rows(_require(block, "points", path), ("u", "v"),
                           f"{path}: bad points in image {k} ({names[-1]})")
        ids.append(rows[0])
        uv.append(rows[1])
    observations = ObservationSet(target, np.concatenate(ids), np.concatenate(uv),
                                  list(map(len, ids[1:])))

    image_size = None
    if "image_size" in payload:
        image_size = _image_size(payload["image_size"], path)

    ground_truth = None
    if "ground_truth" in payload:
        block = _require(payload, "ground_truth", path, dict)
        t_cp = np.array(_require(block, "t_cp", path), dtype=float)
        if t_cp.shape != (3,) or not np.all(np.isfinite(t_cp)):
            raise FileFormatError(f"{path}: ground truth t_cp must be finite and hold "
                                  f"3 numbers, got {t_cp.tolist()}")
        rotations = block.get("rotations_axis_angle")
        if rotations is not None:
            rotations = np.array(rotations, dtype=float)
            if rotations.shape != (len(observations), 3) or not np.all(np.isfinite(rotations)):
                raise FileFormatError(
                    f"{path}: ground truth rotations_axis_angle must be finite and hold "
                    f"one 3-vector per image ({len(observations)}), got shape {rotations.shape}")
        ground_truth = GroundTruth(
            intrinsics=_intrinsics_from(_require(block, "intrinsics", path, dict), path),
            distortion=_distortion_from(block, path), t_cp=t_cp, rotations=rotations)
    return ObservationFile(observations=observations, image_names=tuple(names),
                           image_size=image_size, ground_truth=ground_truth)


# ---------------------------------------------------------------------------
# camera and ray-database files
# ---------------------------------------------------------------------------

def write_camera_file(path, intrinsics: CameraIntrinsics, distortion: Distortion) -> None:
    _dump(path, {"schema_version": SCHEMA_VERSION,
                 "intrinsics": intrinsics_payload(intrinsics),
                 "distortion": [distortion.d1, distortion.d2]})


@_reader
def read_camera_file(payload, path):
    intr = _intrinsics_from(_require(payload, "intrinsics", path, dict), path)
    return intr, _distortion_from(payload, path)


def write_ray_database(path, database: RayDatabase) -> None:
    _dump(path, {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            "intrinsics": intrinsics_payload(database.ref_intrinsics),
            "distortion": [database.ref_distortion.d1, database.ref_distortion.d2],
        },
        "rays": [[int(i), float(x), float(y), float(z)]
                 for i, (x, y, z) in zip(database.ids, database.rays)],
    })


@_reader
def read_ray_database(payload, path) -> RayDatabase:
    provenance = _require(payload, "provenance", path, dict)
    intr = _intrinsics_from(_require(provenance, "intrinsics", path, dict), path)
    dist = _distortion_from(provenance, path)
    ids, rays = _point_rows(_require(payload, "rays", path), ("x", "y", "z"),
                            f"{path}: bad rays")
    return RayDatabase(ids=ids, rays=rays, ref_intrinsics=intr, ref_distortion=dist)


# ---------------------------------------------------------------------------
# synthetic configuration files
# ---------------------------------------------------------------------------

@_reader
def read_synthetic_config(payload, path) -> SyntheticConfig:
    kwargs = {}
    if "intrinsics" in payload:
        kwargs["intrinsics"] = _intrinsics_from(payload["intrinsics"], path)
    if "distortion" in payload:
        kwargs["distortion"] = _distortion_from(payload, path)
    if "image_size" in payload:
        kwargs["image_size"] = _image_size(payload["image_size"], path)
    if "target" in payload:
        t = _require(payload, "target", path, dict)
        kwargs["target"] = TargetGrid(rows=t.get("rows", 8), cols=t.get("cols", 11),
                                      spacing=float(t.get("spacing_mm", 30.0)))
    if "target_offset" in payload:
        kwargs["target_offset"] = _pair(payload["target_offset"], float,
                                        "target_offset", path)
    for key in ("radius", "pixel_noise_sigma", "spherical_noise_sigma"):
        if key in payload:
            kwargs[key] = float(payload[key])
    for key in ("image_count", "trial_count", "rng_seed"):
        if key in payload:
            kwargs[key] = payload[key]  # SyntheticConfig refuses a non-integer
    return SyntheticConfig(**kwargs)


@_reader
def read_sweep_values(payload, path, sweep: str):
    custom = _require(payload, "sweep_values", path, dict) if "sweep_values" in payload else {}
    if sweep in custom:
        if not isinstance(custom[sweep], list) or not custom[sweep]:
            raise FileFormatError(f"{path}: sweep_values {sweep} must be a non-empty list")
        values = [float(v) for v in custom[sweep]]
        if not all(np.isfinite(v) and v >= 0 for v in values):
            raise FileFormatError(f"{path}: {sweep} sweep values must be finite and "
                                  f"non-negative, got {values}")
        # Every sweep runs the closed form, which needs three images.
        if sweep == "images" and not all(v.is_integer() and v >= 3 for v in values):
            raise FileFormatError(f"{path}: images sweep values must be integers of "
                                  f"at least 3, got {values}")
        return values
    defaults = {
        "noise": [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0],
        "images": [3, 5, 10, 15, 20, 25, 30],
        "spherical": [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
    }
    return defaults[sweep]


# ---------------------------------------------------------------------------
# calibration reports
# ---------------------------------------------------------------------------

def rotations_payload(R: np.ndarray) -> list:
    """The JSON axis-angle vector of one rotation (3, 3), or the vectors of a stack."""
    return axis_angle_from_rotation_matrix(R).tolist()


def write_report(path, report: dict) -> None:
    payload = dict(report)
    payload["schema_version"] = SCHEMA_VERSION
    payload["tool_version"] = __version__
    _dump(path, payload)
