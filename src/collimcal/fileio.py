"""JSON file formats: observations, ray databases, camera files, reports, configs.

One JSON format covers everything except benchmark output, which is CSV.
World coordinates are millimetres and image coordinates are pixels
throughout; every file carries a schema version.  Files are written as
compact, strict JSON on one line (`python -m json.tool` pretty-prints one);
the readers ignore whitespace, so indented files read the same.  Writing
is deterministic (sorted keys, shortest-roundtrip floats), so identical
data produces byte-identical files.  The readers check keys, list shapes
and the schema version, and leave numbers to the checks of `core_geom`,
which the types they build apply: a JSON boolean or string where a
number belongs raises FileFormatError naming the file.  The file is named
in one place, `_reader`, which wraps every reader and prefixes the path
to any error of the load or the parse.

A camera is written as one block, `camera_payload`: an "intrinsics"
object and a "distortion" pair.  A camera file is any file of this
schema with that block at its top level, so a `calibrate` report is one:
the camera that a multi-image calibration finds is a reference camera
that `build-db --ref-cam` takes.
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
    checked_image_size,
    finite_array,
    integer_array,
    real_array,
    real_number,
)
from .single_calib import RayDatabase
from .synth import SWEEPS, SyntheticConfig, TargetGrid

SCHEMA_VERSION = 1


class FileFormatError(ValueError):
    """Malformed or semantically invalid input file."""


@dataclass(frozen=True)
class GroundTruth:
    """The true camera of a synthetic observation file.

    `t_cp` (3,) and `rotations`, the per-image axis-angle vectors (N, 3) or
    None if unknown, are taken as float arrays; ValueError names the field
    of an entry that is not a finite number, or of a wrong shape.
    """
    intrinsics: CameraIntrinsics
    distortion: Distortion
    t_cp: np.ndarray
    rotations: np.ndarray | None

    def __post_init__(self):
        object.__setattr__(self, "t_cp", finite_array(self.t_cp, "ground truth t_cp", (3,)))
        if self.rotations is not None:
            object.__setattr__(self, "rotations", finite_array(
                self.rotations, "ground truth rotations", (None, 3)))


@dataclass(frozen=True)
class ObservationFile:
    observations: ObservationSet
    image_size: tuple | None
    ground_truth: GroundTruth | None


def _dump(path, payload) -> None:
    # Serialized before the file is opened, so that a payload JSON cannot
    # hold (a NaN, say) leaves any file at `path` as it was.  No indent:
    # with one, json falls back from its C encoder to pure Python.
    text = json.dumps(payload, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"invalid JSON at line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc


def _require(payload, key, kind=None):
    """payload[key]; FileFormatError if it is missing or, given `kind`, not one."""
    if key not in payload:
        raise FileFormatError(f"missing required key '{key}'")
    if kind is not None and not isinstance(payload[key], kind):
        raise FileFormatError(f"{key} must be "
                              f"{'an object' if kind is dict else 'a list of objects'}")
    return payload[key]


def _reader(parse):
    """Reader of the file at `path` from parse(payload, *args).

    Checks the schema version first.  Invalid content, including text that
    is not UTF-8 JSON and entries of the wrong type or shape, raises
    FileFormatError whose message starts with the path; the parsers' own
    messages leave the path to this wrapper.
    """
    @functools.wraps(parse)
    def read(path, *args):
        try:
            payload = _load(path)
            version = _require(payload, "schema_version")
            if real_number(version, "schema_version") != SCHEMA_VERSION:
                raise FileFormatError(f"unsupported schema version {version!r}")
            return parse(payload, *args)
        except (AttributeError, IndexError, KeyError, OverflowError, TypeError,
                ValueError) as exc:
            raise FileFormatError(f"{path}: {exc}") from exc
    return read


def _point_rows(rows, fields, where):
    """Ids (n,) and coordinates (n, len(fields)) of the point rows [id, *fields].

    A row must be a list of an integer id (not a bool, a float or a string)
    and len(fields) finite numbers; anything else raises FileFormatError naming
    `where`.  One flat list is checked and converted.
    """
    width = 1 + len(fields)
    layout = f"[integer id, {', '.join(fields)}]"
    try:
        if type(rows) is not list or not set(map(len, rows)) <= {width}:
            raise TypeError
        flat = list(itertools.chain.from_iterable(rows))
        ids = integer_array(flat[::width], "point ids")
        coordinates = real_array(flat, "point coordinates").reshape(-1, width)[:, 1:]
    except (TypeError, ValueError):
        raise FileFormatError(f"{where}: every point must be a list {layout} of "
                              f"numbers") from None
    if not np.isfinite(coordinates).all():
        raise FileFormatError(f"{where}: every coordinate must be finite")
    return ids, coordinates


def camera_payload(intr: CameraIntrinsics, dist: Distortion) -> dict:
    """The JSON block of a camera, the one writer of every camera block."""
    return {"intrinsics": {"fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
                           "gamma": intr.gamma},
            "distortion": [dist.d1, dist.d2]}


def _intrinsics_from(parent) -> CameraIntrinsics:
    """The camera of the parent block's "intrinsics" object; gamma defaults to 0."""
    block = _require(parent, "intrinsics", dict)
    return CameraIntrinsics(*(_require(block, key) for key in ("fx", "fy", "cx", "cy")),
                            gamma=block.get("gamma", 0.0))


def _distortion_from(block) -> Distortion:
    """The block's "distortion" pair, (0, 0) when it has none."""
    return Distortion(*real_array(block.get("distortion", [0.0, 0.0]), "distortion", (2,)))


# ---------------------------------------------------------------------------
# observation files
# ---------------------------------------------------------------------------

def write_observation_file(path, observations: ObservationSet, *,
                           image_size=None,
                           ground_truth: GroundTruth | None = None) -> None:
    points = [[i, u, v] for i, (u, v) in zip(observations.ids.tolist(),
                                             observations.uv.tolist())]
    bounds = [0, *np.cumsum(observations.counts).tolist()]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "units": {"world": "mm", "image": "pixel"},
        "target": {"points": [[int(i), float(x), float(y)]
                              for i, (x, y) in zip(observations.target.ids,
                                                   observations.target.xy)]},
        "images": [{"name": f"image_{k:03d}", "points": points[bounds[k]:bounds[k + 1]]}
                   for k in range(len(observations))],
    }
    if image_size is not None:
        payload["image_size"] = [int(image_size[0]), int(image_size[1])]
    if ground_truth is not None:
        payload["ground_truth"] = {
            **camera_payload(ground_truth.intrinsics, ground_truth.distortion),
            "t_cp": ground_truth.t_cp.tolist(),
        }
        if ground_truth.rotations is not None:
            payload["ground_truth"]["rotations_axis_angle"] = ground_truth.rotations.tolist()
    _dump(path, payload)


@_reader
def read_observation_file(payload) -> ObservationFile:
    target_block = _require(payload, "target", dict)
    ids, xy = _point_rows(_require(target_block, "points"), ("x", "y"), "bad target points")
    target = PlanarTarget(ids=ids, xy=xy)

    ids, uv = [np.zeros(0, dtype=int)], [np.zeros((0, 2))]
    for k, block in enumerate(_require(payload, "images", list)):
        if not isinstance(block, dict):
            raise FileFormatError(f"bad image {k} (image_{k:03d}): "
                                  f"images must be a list of objects")
        name = str(block.get("name", f"image_{k:03d}"))
        rows = _point_rows(_require(block, "points"), ("u", "v"),
                           f"bad points in image {k} ({name})")
        ids.append(rows[0])
        uv.append(rows[1])
    observations = ObservationSet(target, np.concatenate(ids), np.concatenate(uv),
                                  list(map(len, ids[1:])))

    image_size = None
    if "image_size" in payload:
        image_size = checked_image_size(payload["image_size"])

    ground_truth = None
    if "ground_truth" in payload:
        block = _require(payload, "ground_truth", dict)
        ground_truth = GroundTruth(
            intrinsics=_intrinsics_from(block), distortion=_distortion_from(block),
            t_cp=_require(block, "t_cp"), rotations=block.get("rotations_axis_angle"))
        if ground_truth.rotations is not None:  # one axis-angle vector per image
            real_array(ground_truth.rotations, "ground truth rotations", (len(observations), 3))
    return ObservationFile(observations=observations, image_size=image_size,
                           ground_truth=ground_truth)


# ---------------------------------------------------------------------------
# camera and ray-database files
# ---------------------------------------------------------------------------

@_reader
def read_camera_file(payload):
    """The camera (intrinsics, distortion) of a file's top-level camera block.

    Any file of this schema that holds one is a camera file: one written
    as `write_report(path, camera_payload(K, d))`, and a `calibrate` report.
    """
    intr = _intrinsics_from(payload)
    return intr, _distortion_from(payload)


def write_ray_database(path, database: RayDatabase) -> None:
    _dump(path, {
        "schema_version": SCHEMA_VERSION,
        "provenance": camera_payload(database.ref_intrinsics, database.ref_distortion),
        "rays": [[int(i), float(x), float(y), float(z)]
                 for i, (x, y, z) in zip(database.ids, database.rays)],
    })


@_reader
def read_ray_database(payload) -> RayDatabase:
    provenance = _require(payload, "provenance", dict)
    intr = _intrinsics_from(provenance)
    dist = _distortion_from(provenance)
    ids, rays = _point_rows(_require(payload, "rays"), ("x", "y", "z"), "bad rays")
    return RayDatabase(ids=ids, rays=rays, ref_intrinsics=intr, ref_distortion=dist)


# ---------------------------------------------------------------------------
# synthetic configuration files
# ---------------------------------------------------------------------------

@_reader
def read_synthetic_config(payload) -> SyntheticConfig:
    kwargs = {key: payload[key] for key in (
        "image_size", "target_offset", "radius", "pixel_noise_sigma", "spherical_noise_sigma",
        "image_count", "trial_count", "rng_seed") if key in payload}
    if "intrinsics" in payload:
        kwargs["intrinsics"] = _intrinsics_from(payload)
    if "distortion" in payload:
        kwargs["distortion"] = _distortion_from(payload)
    if "target" in payload:
        t = _require(payload, "target", dict)
        kwargs["target"] = TargetGrid(**{name: t[key] for key, name in (
            ("rows", "rows"), ("cols", "cols"), ("spacing_mm", "spacing")) if key in t})
    return SyntheticConfig(**kwargs)


@_reader
def read_sweep_values(payload, sweep: str):
    custom = _require(payload, "sweep_values", dict) if "sweep_values" in payload else {}
    if sweep in custom:
        if not isinstance(custom[sweep], list) or not custom[sweep]:
            raise FileFormatError(f"sweep_values {sweep} must be a non-empty list")
        values = [real_number(v, f"{sweep} sweep values") for v in custom[sweep]]
        if not all(v >= 0 for v in values):
            raise FileFormatError(f"{sweep} sweep values must be finite and "
                                  f"non-negative, got {values}")
        # Every sweep runs the closed form, which needs three images.
        if sweep == "images" and not all(v.is_integer() and v >= 3 for v in values):
            raise FileFormatError("images sweep values must be integers of "
                                  f"at least 3, got {values}")
        return values
    return list(SWEEPS[sweep][1])


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
