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

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .chain1d import chain_rates
from .errors import SizeMismatchError, _check_budget, _check_dense
from .lattice import NetworkSpec


@dataclass(frozen=True, eq=False, init=False)
class Spectrum:
    """A multiset of complex collective decay rates with provenance.

    ``index_tuples`` is present only for Cartesian-sum spectra: entry k holds
    the 1-based per-axis choices ``(s_1, ..., s_d)`` selecting which 1-D rate
    each axis contributed to ``rates[k]``.  They must be distinct; only
    :func:`drop_spectrum` skips that check: it passes no tuples but the
    product shape ``_shape = (N_1, ..., N_d)``, whose enumeration (last axis
    fastest) the tuples are.  That enumeration is built, and kept, only
    when ``index_tuples`` is read; ``has_tuples`` and :func:`_index_columns`
    (which unravels a product's indices from the sort order) never build it.
    """

    rates: np.ndarray
    method: str
    _tuples: Optional[tuple[tuple[int, ...], ...]] = field(repr=False)
    _shape: Optional[tuple[int, ...]] = field(repr=False)

    def __init__(self, rates, method: str,
                 index_tuples: Optional[tuple[tuple[int, ...], ...]] = None,
                 _shape: Optional[tuple[int, ...]] = None) -> None:
        rates = np.asarray(rates, dtype=complex)
        rates.setflags(write=False)
        if _shape is not None and math.prod(_shape) != len(rates):
            raise ValueError("the product shape must hold one index tuple per rate")
        if index_tuples is not None:
            if len(index_tuples) != len(rates):
                raise ValueError("one index tuple per rate required")
            if len(set(index_tuples)) != len(index_tuples):
                raise ValueError("index tuples must be distinct")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "method", method)
        object.__setattr__(self, "_tuples", index_tuples)
        object.__setattr__(self, "_shape", _shape)

    @property
    def index_tuples(self) -> Optional[tuple[tuple[int, ...], ...]]:
        if self._tuples is None and self._shape is not None:
            object.__setattr__(self, "_tuples", tuple(
                itertools.product(*[range(1, n + 1) for n in self._shape])))
        return self._tuples

    @property
    def has_tuples(self) -> bool:
        """Whether the rates carry index tuples, without building them."""
        return self._shape is not None or self._tuples is not None

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
    _check_budget(spec.n_qubits * _RATE_BYTES, f"the Cartesian sum's {spec.n_qubits} rates")
    _check_dense(max(spec.dims), max(spec.dims), "the longest axis's chain kernel")


def _cartesian_rates(spec: NetworkSpec) -> np.ndarray:
    """The ``prod N_n`` Cartesian-sum rates of the network, last axis
    fastest (the order of :func:`itertools.product` over the axes)."""
    _check_rates(spec)
    gammas = spec.effective_gammas()
    # axes of equal length share one chain eigensolve
    per_length = {n: chain_rates(n, spec.theta).z for n in dict.fromkeys(spec.dims)}
    total = np.zeros(1, dtype=complex)
    for g, n in zip(gammas, spec.dims):
        total = (total[:, None] + g * per_length[n][None, :]).ravel()
    return total


def drop_spectrum(spec: NetworkSpec) -> Spectrum:
    """All ``prod N_n`` Cartesian-sum rates of the network, with index tuples.

    For a symmetric network this uses the given per-axis rates.  With a noise
    field present the construction is an approximation seeded by the
    qubit-averaged rate of each axis.  The index tuples are the product
    enumeration of the axes, built when first read.  A network too large
    for the memory budget raises ConfigError before any rate is built.
    """
    return Spectrum(rates=_cartesian_rates(spec), method="drop", _shape=spec.dims)


def _index_columns(s: Spectrum, order: np.ndarray, texts: bool = False) -> list[np.ndarray]:
    """One array per axis: entry i holds that axis's index in the tuple of
    rate ``order[i]`` of ``s``, which has tuples and at least one rate.
    A product enumeration is unravelled from ``order``, as ints or, with
    ``texts``, as the texts of 1..N_n gathered by the unravelled index (an
    object array, for the row writer: no int is built or formatted per
    rate); any other tuples are gathered as ints."""
    if s._shape is None:
        return list(np.array(s._tuples, dtype=np.int64).reshape(len(s), -1)[order].T)
    axes = np.unravel_index(order, s._shape)
    if not texts:
        return [axis + 1 for axis in axes]
    return [np.array([str(i) for i in range(1, n + 1)], dtype=object)[axis]
            for n, axis in zip(s._shape, axes)]


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
