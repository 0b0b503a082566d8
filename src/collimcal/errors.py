"""Typed failure modes shared across the calibration pipeline."""


class CalibrationError(Exception):
    """Base class for all calibration failures."""


class PointBehindCamera(CalibrationError):
    """A point to be projected has non-positive depth in the camera frame."""


class UndistortionDiverged(CalibrationError):
    """The fixed-point undistortion iteration did not converge."""


class DegenerateConfiguration(CalibrationError):
    """Input geometry does not constrain the requested estimate."""


class NegativeRadicand(CalibrationError):
    """A square-root recovery produced a negative radicand.

    Signals noise-corrupted or degenerate input; values are not clamped
    because downstream refinement would start from a corrupt estimate.
    """


class NotPositiveDefinite(CalibrationError):
    """An estimated conic matrix is not positive definite."""


class NoRealRoot(CalibrationError):
    """A polynomial solve produced no admissible real root."""


class NoValidCandidate(CalibrationError):
    """All minimal-solver candidates were rejected by the physical filters."""


class NormalEquationsFailed(CalibrationError):
    """The damped normal equations could not be solved at maximum damping."""


class PoseSamplingFailed(CalibrationError):
    """Pose sampling could not keep the target visible within the retry budget."""


class PipelineStageError(CalibrationError):
    """A stage of the single-image pipeline failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


def attempt(fn, *args):
    """`fn(*args)`, or the CalibrationError it raised: the outcome of one item
    of a stacked call.  Any other exception is raised."""
    try:
        return fn(*args)
    except CalibrationError as exc:
        return exc


def raised(outcome):
    """An outcome's value, or, if it is an exception, that exception raised."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
