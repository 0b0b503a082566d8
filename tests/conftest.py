import os
import tempfile

# One BLAS thread, set before numpy loads: the problems are small, and the
# Monte Carlo pool's workers oversubscribe the cores with more.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from collimcal import synth
from collimcal.core_geom import (
    ObservationSet,
    _with_scale_convention,
    rotation_matrix_from_axis_angle,
)

# Hypothesis caches the constants it reads from the tested source in its home
# directory, which defaults to the working one.
set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "collimcal-hypothesis"))


def scene(seed=0, trial=0, **overrides):
    """Poses and observations for one synthetic trial of the given config."""
    config = synth.default_config(**overrides)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
    poses, observations = synth.make_scene(config, rng)
    return config, poses, observations


def split_images(observations):
    """Every image's (ids (n,), pixels (n, 2)) of an observation set, in order."""
    ends = np.cumsum(observations.counts)
    return [(observations.ids[end - count:end], observations.uv[end - count:end])
            for count, end in zip(observations.counts, ends)]


def stack_images(target, images):
    """The ObservationSet of the images given as (ids, pixels) pairs."""
    images = list(images)
    ids = [np.zeros(0, dtype=int)] + [ids for ids, _ in images]
    uv = [np.zeros((0, 2))] + [uv for _, uv in images]
    return ObservationSet(target, np.concatenate(ids), np.concatenate(uv), list(map(len, ids[1:])))


def pick_images(observations, indices):
    """The set of the images of `observations` at `indices`, repeats allowed."""
    images = split_images(observations)
    return stack_images(observations.target, [images[k] for k in indices])


def first_images(observations, count):
    return pick_images(observations, range(count))


def motion_matrix(R, t_cp):
    """M = [r1 r2 -R t_cp]; its determinant equals the spherical radius."""
    return np.column_stack([R[:, 0], R[:, 1], -R @ np.asarray(t_cp, dtype=float)])


def rotation_from_axis_angle(v):
    """The rotation matrix (3, 3) of the axis-angle vector v (3,)."""
    return rotation_matrix_from_axis_angle(np.asarray(v, dtype=float))


def identity_rotation():
    return np.eye(3)


def angular_distance(v1, v2) -> float:
    """Angle in [0, pi] between two nonzero 3-vectors."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    n1 = np.linalg.norm(v1)
    n2 = np.linalg.norm(v2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("angular distance is undefined for a zero vector")
    c = np.dot(v1, v2) / (n1 * n2)
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def homography_from_pose(intr, R, t):
    """Exact H = K [r1 r2 t] (3, 3) under the package scale convention."""
    H = intr.matrix @ np.column_stack([R[:, 0], R[:, 1], np.asarray(t, dtype=float)])
    return _with_scale_convention(H[None])[0]


@pytest.fixture
def noiseless_scene():
    return scene(seed=0)
