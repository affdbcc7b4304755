"""Exception types raised by dropqed solvers and the CLI, and the memory
budget that every size check raises ConfigError against."""

import math


class DropQedError(Exception):
    """Base class for all dropqed errors."""


class ConfigError(DropQedError):
    """A run configuration (file or flags) could not be validated, or asks
    for a network or chain too large for the memory budget."""


class SizeMismatchError(DropQedError):
    """Two spectra of different cardinality were compared."""


class ConditioningFailure(DropQedError):
    """A pole route returned poles that could not be certified.

    Raised in ``_finish``, the last step of every all-poles route, when a
    pole has a certificate ``||A x|| / ||x|| / ||A||_F`` on the full system
    above 1e-10 (or NaN, from sums that overflowed), or when the poles
    break the trace rule; and by ``find_pole`` when the pole nearest its
    seed fails that certificate.
    """


class ThetaOutOfRange(DropQedError):
    """The propagation phase is outside the validity window of an analysis."""


# Memory a computation may hold, in bytes.  Every route checks its own need
# against it before it allocates anything that scales with the network;
# past it a run would fail only at the allocation itself, or swap first.
_MEMORY_BUDGET = 2 * 2 ** 30


def _decimal(n: int) -> str:
    """A count in full below 10^12, else as three digits and a power of ten,
    also past the float range and the 4300 digits Python writes in full."""
    if n < 10 ** 12:
        return str(n)
    power = int(math.log10(n))
    return f"{n / 10 ** power:.3g}e+{power}"


def _check_budget(need: int, what: str) -> None:
    """Raise ConfigError when ``what`` needs more than the budget (``need``
    bytes), written in GiB to three digits, or to 12 where those read as
    no more than the budget."""
    if need > _MEMORY_BUDGET:
        budget = _MEMORY_BUDGET / 2 ** 30
        gib = f"{need / 2 ** 30:.3g}" if need < 2 ** 1000 else _decimal(need >> 30)
        if float(gib) <= budget:
            gib = f"{need / 2 ** 30:.12g}"
        raise ConfigError(f"{what} need {gib} GiB, over the {budget:g} GiB budget")


def _check_dense(rows: int, cols: int, what: str) -> None:
    """Raise ConfigError when four complex rows x cols arrays exceed the budget."""
    _check_budget(4 * 16 * rows * cols,
                  f"{what} is {_decimal(rows)} x {_decimal(cols)}: its dense work arrays")
