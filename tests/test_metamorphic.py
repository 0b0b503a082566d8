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

from collimcal import errors
from collimcal.core_geom import Distortion, ObservationSet
from collimcal.multi_solver import solve_closed_form, solve_minimal
from collimcal.refine import spherical_ba
from conftest import first_images, pick_images, scene

BOUND = 1e-9
SHIFT = np.array([37.25, -11.5])
SCENES = [(5, trial) for trial in range(10)]


def noisy_scene(seed, trial):
    return scene(seed=seed, trial=trial, pixel_noise_sigma=1.0)[2]


def shifted(observations):
    """The observation set with every pixel moved by SHIFT."""
    return ObservationSet(observations.target, observations.ids, observations.uv + SHIFT,
                          observations.counts)


def assert_close(got, expected, scale):
    """|got - expected| within BOUND of `scale`, entry by entry."""
    deviation = np.max(np.abs(np.asarray(got, dtype=float) - expected)) / scale
    assert deviation < BOUND, deviation


def assert_same_camera(intr, ext, ref_intr, ref_ext, shift=(0.0, 0.0), order=None):
    """intr and ext match the reference camera with its principal point
    moved by `shift` and its rotations taken in `order`."""
    f = ref_intr.fx
    assert_close([intr.fx, intr.fy, intr.gamma], [f, ref_intr.fy, ref_intr.gamma], f)
    assert_close([intr.cx, intr.cy], [ref_intr.cx + shift[0], ref_intr.cy + shift[1]], f)
    assert_close(ext.t_cp, ref_ext.t_cp, ref_ext.r)
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


@pytest.mark.parametrize("seed, trial", SCENES)
def test_closed_form_ignores_the_image_order(seed, trial):
    observations = noisy_scene(seed, trial)
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
