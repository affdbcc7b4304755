"""Exception types raised by dropqed solvers and the CLI, and the memory
budget that every size check raises ConfigError against."""


class DropQedError(Exception):
    """Base class for all dropqed errors."""


class ConfigError(DropQedError):
    """A run configuration (file or flags) could not be validated, or asks
    for a network or chain too large for the memory budget."""


class SizeMismatchError(DropQedError):
    """Two spectra of different cardinality were compared."""


class MaxIterationsError(DropQedError):
    """A tolerance-bound pole search did not account for its poles.

    Raised by ``find_pole`` when the pole nearest the seed fails its
    certificate on the full system, and by ``all_poles_cnm``, in
    ``_finish``, when its poles break the trace rule or one fails the
    certificate.  Both certify at min(tol, 1e-9), the bound every route
    reports under, so a tolerance above 1e-9 passes no further pole.
    """


class ConditioningFailure(DropQedError):
    """A pole route returned poles that could not be certified.

    Raised in ``_finish``, the last step of every route, when a pole of
    ``all_poles_eig`` or ``all_poles_det_interp`` has a certificate
    ``||A x|| / ||x|| / ||A||_F`` on the full system above 1e-9, or when
    their poles break the trace rule.
    """


class ThetaOutOfRange(DropQedError):
    """The propagation phase is outside the validity window of an analysis."""


# Memory a computation may hold, in bytes.  Every route checks its own need
# against it before it allocates anything that scales with the network;
# past it a run would fail only at the allocation itself, or swap first.
_MEMORY_BUDGET = 2 * 2 ** 30


def _check_budget(need: int, what: str) -> None:
    """Raise ConfigError when ``what`` needs more than the budget (``need`` bytes)."""
    if need > _MEMORY_BUDGET:
        raise ConfigError(f"{what} need {need / 2 ** 30:.3g} GiB, over the "
                          f"{_MEMORY_BUDGET / 2 ** 30:g} GiB budget")


def _check_dense(rows: int, cols: int, what: str) -> None:
    """Raise ConfigError when four complex rows x cols arrays exceed the budget."""
    _check_budget(4 * 16 * rows * cols, f"{what} is {rows} x {cols}: its dense work arrays")
