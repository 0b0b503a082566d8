"""Collimator-based camera calibration under the spherical motion constraint.

The observed pattern sits at optical infinity, so viewing angles between
pattern points are pose invariant and the target-camera motion reduces to
a pure rotation about a fixed center.  This package provides the solvers
built on that constraint (closed-form multi-image, two-image minimal,
single-image against a reference ray database), robust bundle adjustment,
degeneracy detection, and a synthetic Monte Carlo benchmark harness.
"""

__version__ = "0.1.0"

from .core_geom import (
    CameraIntrinsics,
    Distortion,
    ObservationSet,
    PlanarTarget,
    back_project,
    decompose_homography,
    estimate_homography,
    project,
)
from .multi_solver import (
    DegeneracyReport,
    SphericalExtrinsics,
    build_linear_system,
    decompose_iac,
    detect_degeneracy,
    solve_closed_form,
    solve_minimal,
)
from .refine import (
    ResidualReport,
    general_ba,
    lm_minimize,
    single_image_ba,
    spherical_ba,
)
from .single_calib import (
    RayDatabase,
    SingleImageResult,
    build_ray_database,
    calibrate_single_image,
    estimate_rotation_kabsch,
    init_focal_quartic,
    refine_intrinsics_angle,
)
from .synth import (
    SyntheticConfig,
    TargetGrid,
    TrialStats,
    default_config,
    run_monte_carlo,
    zhang_init,
)

__all__ = [
    "CameraIntrinsics", "Distortion", "ObservationSet", "PlanarTarget",
    "back_project", "decompose_homography",
    "estimate_homography", "project",
    "DegeneracyReport", "SphericalExtrinsics",
    "build_linear_system", "decompose_iac", "detect_degeneracy",
    "solve_closed_form", "solve_minimal",
    "ResidualReport", "general_ba", "lm_minimize",
    "single_image_ba", "spherical_ba",
    "RayDatabase", "SingleImageResult", "build_ray_database",
    "calibrate_single_image", "estimate_rotation_kabsch",
    "init_focal_quartic", "refine_intrinsics_angle",
    "SyntheticConfig", "TargetGrid", "TrialStats",
    "default_config", "run_monte_carlo", "zhang_init",
]
