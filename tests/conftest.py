import os

# One BLAS thread, set before numpy loads: the problems are small, and the
# Monte Carlo pool's workers oversubscribe the cores with more.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np
import pytest

from collimcal import synth
from collimcal.core_geom import ObservationSet, _with_scale_convention


def scene(seed=0, trial=0, **overrides):
    """Poses and observations for one synthetic trial of the given config."""
    config = synth.default_config(**overrides)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
    poses, observations = synth.make_scene(config, rng)
    return config, poses, observations


def first_images(observations, count):
    return ObservationSet(target=observations.target,
                          images=observations.images[:count])


def motion_matrix(rot, t_cp):
    """M = [r1 r2 -R t_cp]; its determinant equals the spherical radius."""
    R = rot.matrix
    return np.column_stack([R[:, 0], R[:, 1], -R @ np.asarray(t_cp, dtype=float)])


def homography_from_pose(intr, rot, t):
    """Exact H = K [r1 r2 t] (3, 3) under the package scale convention."""
    R = rot.matrix
    H = intr.matrix @ np.column_stack([R[:, 0], R[:, 1], np.asarray(t, dtype=float)])
    return _with_scale_convention(H[None])[0]


@pytest.fixture
def noiseless_scene():
    return scene(seed=0)
