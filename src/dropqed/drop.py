"""Cartesian-sum construction of d-dimensional spectra and spectrum matching.

Every collective decay rate of the d-dimensional network is a sum
``sum_n gamma_n * z_{s_n}^{(n)}`` of one dimensionless 1-D rate per axis;
the N index tuples ``s`` enumerate the full spectrum.  Retaining the tuple
on each rate is what later makes the superradiance-dimension
classification unambiguous.

The sum is exact for a symmetric network: there the effective Hamiltonian
of the equations of motion (:mod:`dropqed.eom`) is the Kronecker sum
``H = sum_n I x ... x (-(i/2) gamma_n K_n) x ... x I`` of the per-axis
chain kernels K_n, so its eigenvectors are tensor products of chain
eigenvectors and its eigenvalues are the Cartesian sums (Chang, Jiang,
Gorshkov & Kimble, NJP 14, 063003 (2012)).  Per-qubit rate noise breaks
that structure, because the rates along one line differ from qubit to
qubit; the sum over qubit-averaged rates is then only an estimate, which
the EoM routes refine.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .chain1d import chain_rates
from .errors import SizeMismatchError, _check_budget, _check_dense, _decimal
from .lattice import NetworkSpec


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A multiset of complex collective decay rates with provenance.

    Cartesian-sum spectra alone carry index tuples, as the product shape
    ``_shape = (N_1, ..., N_d)`` set by :func:`drop_spectrum`: entry k of
    ``index_tuples``, built and kept when first read, holds the 1-based
    per-axis choices ``(s_1, ..., s_d)`` summed into ``rates[k]``, in the
    product enumeration (last axis fastest).
    """

    rates: np.ndarray
    method: str
    _shape: Optional[tuple[int, ...]] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=complex)
        rates.setflags(write=False)
        object.__setattr__(self, "rates", rates)
        if self._shape is not None and math.prod(self._shape) != len(rates):
            raise ValueError("the product shape must hold one index tuple per rate")

    @functools.cached_property
    def index_tuples(self) -> Optional[tuple[tuple[int, ...], ...]]:
        if self._shape is None:
            return None
        return tuple(itertools.product(*[range(1, n + 1) for n in self._shape]))

    @property
    def has_tuples(self) -> bool:
        """Whether the rates carry index tuples, without building them."""
        return self._shape is not None

    def __len__(self) -> int:
        return len(self.rates)


@dataclass(frozen=True)
class MatchReport:
    """Optimal pairing of two equal-size spectra and its error statistics."""

    pairing: tuple[tuple[int, int], ...]
    max_abs_error: float
    mean_abs_error: float
    tol: float
    passed: bool


# Memory per Cartesian-sum rate: the heaviest command on these rates,
# ``classify`` with JSON and ``--svg``, peaked at 700 bytes per rate over the
# bare interpreter at 70x70x70 and theta = pi (675 at 0.98 pi), mostly the
# document's row texts; no index tuple is built on that path (750 and 730
# bytes when every rate's tuple was).  2-core Xeon VM, Python 3.11, numpy
# 2.4, peak RSS.  Rounded up, so the budget admits about 2.1 million rates.
_RATE_BYTES = 1024


def _check_rates(spec: NetworkSpec) -> None:
    """Raise ConfigError when the network's Cartesian sum and its output,
    or the chain eigensolve of its longest axis, would exceed the memory
    budget."""
    _check_budget(spec.n_qubits * _RATE_BYTES,
                  f"the Cartesian sum's {_decimal(spec.n_qubits)} rates")
    _check_dense(max(spec.dims), max(spec.dims), "the longest axis's chain kernel")


def drop_spectrum(spec: NetworkSpec) -> Spectrum:
    """All ``prod N_n`` Cartesian-sum rates of the network, with index tuples.

    For a symmetric network this uses the given per-axis rates.  With a noise
    field present the construction is an approximation seeded by the
    qubit-averaged rate of each axis.  The rates run last axis fastest, in
    the product enumeration of the index tuples, built when first read.  A
    network too large for the memory budget raises ConfigError first.
    """
    _check_rates(spec)
    # axes of equal length share one chain eigensolve
    per_length = {n: chain_rates(n, spec.theta).z for n in dict.fromkeys(spec.dims)}
    total = np.zeros(1, dtype=complex)
    for g, n in zip(spec.effective_gammas(), spec.dims):
        total = (total[:, None] + g * per_length[n][None, :]).ravel()
    return Spectrum(rates=total, method="drop", _shape=spec.dims)


def _index_columns(s: Spectrum, order: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per axis, the 0-based index in the tuple of each rate ``order[i]``
    of ``s``, which has tuples, unravelled by its product shape."""
    return np.unravel_index(order, s._shape)


def _distinct(values: np.ndarray) -> bool:
    """Whether the entries of a 1-D array are pairwise distinct, by one sort
    (np.unique loads numpy.ma, about 20 ms on a cold start)."""
    ordered = np.sort(values)
    return not (ordered[1:] == ordered[:-1]).any()


def match_spectra(a: Spectrum | Sequence[complex], b: Spectrum | Sequence[complex],
                  tol: float) -> MatchReport:
    """Optimally pair two spectra and report the worst pairwise distance.

    Pairs each a_i with its nearest b_j when those are all distinct: the
    sum of row minima bounds every pairing from below, so that one is
    optimal.  Otherwise (exact degeneracies, as at theta = m*pi or with
    equal rates) an exact assignment (scipy's Hungarian method) pairs them.
    """
    ra = a.rates if isinstance(a, Spectrum) else np.asarray(a, dtype=complex)
    rb = b.rates if isinstance(b, Spectrum) else np.asarray(b, dtype=complex)
    if len(ra) != len(rb):
        raise SizeMismatchError(f"spectra have sizes {len(ra)} and {len(rb)}")
    cost = np.abs(ra[:, None] - rb[None, :])
    rows = np.arange(len(ra))
    cols = cost.argmin(axis=1) if len(ra) else rows
    if not _distinct(cols) or not np.isfinite(cost).all():
        # imported here, so the nearest pairing never pays for scipy;
        # scipy also rejects NaN and inf
        from scipy.optimize import linear_sum_assignment

        rows, cols = linear_sum_assignment(cost)
    errors = cost[rows, cols]
    max_err = float(errors.max()) if len(errors) else 0.0
    mean_err = float(errors.mean()) if len(errors) else 0.0
    return MatchReport(
        pairing=tuple(zip(rows.tolist(), cols.tolist())),
        max_abs_error=max_err,
        mean_abs_error=mean_err,
        tol=float(tol),
        passed=bool(max_err <= tol),
    )
