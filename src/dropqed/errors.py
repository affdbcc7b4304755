"""Exception types raised by dropqed solvers and the CLI."""


class DropQedError(Exception):
    """Base class for all dropqed errors."""


class ConfigError(DropQedError):
    """A run configuration (file or flags) could not be validated, or asks
    for a network too large for the dense-memory budget of the EoM routes."""


class SizeMismatchError(DropQedError):
    """Two spectra of different cardinality were compared."""


class MaxIterationsError(DropQedError):
    """A seeded pole search did not account for its poles.

    Raised when a refined pole fails the full-matrix singularity check or
    the found set breaks the trace rule; usually a bad seed.  Re-seed closer
    to the poles or use the dense eigensolve path instead.
    """


class ConditioningFailure(DropQedError):
    """Determinant interpolation could not recover trustworthy poles.

    Raised when the polynomial fit on the sampling circle has a large
    residual, or when recovered low-order coefficients sit below the
    determinant-evaluation noise floor (radius rescale needed), or when
    recovered poles fail the singularity check.
    """


class ThetaOutOfRange(DropQedError):
    """The propagation phase is outside the validity window of an analysis."""
