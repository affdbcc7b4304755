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

    Raised by ``find_pole`` when the pole nearest the seed fails its
    certificate on the full system at the given tolerance, and by
    ``all_poles_cnm`` when a seed's pole fails it or, in ``_finish``, when
    the poles break the trace rule.  A larger tolerance or
    ``all_poles_eig`` (which certifies at 1e-9) may pass.
    """


class ConditioningFailure(DropQedError):
    """A pole route returned poles that could not be certified.

    Raised in ``_finish``, the last step of every route, when a pole's
    certificate ``||A x|| / ||x|| / ||A||_F`` on the full system is above
    1e-9, or when the eigensolve's or the contour route's poles break the
    trace rule; and by ``all_poles_det_interp`` when a contour node is
    itself a pole (its sparse LU is singular).
    """


class ThetaOutOfRange(DropQedError):
    """The propagation phase is outside the validity window of an analysis."""
