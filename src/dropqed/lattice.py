"""Network geometry: qubit/line enumeration and per-qubit rate bookkeeping.

A network is a d-dimensional hyper-rectangular lattice of qubits sitting at
the intersections of one-dimensional waveguides.  Only the graph topology
matters: a qubit is addressed by its lattice coordinate (1-based along each
axis), and a "line" is the maximal 1-D chain of qubits a single waveguide
threads along one axis.

Conventions used throughout the package:

* axes (directions) are 0-based in code,
* qubit coordinates are 1-based lattice coordinates,
* qubits are numbered row-major with axis 0 slowest (:func:`enumerate_qubits`),
  and :func:`_lines` maps each line onto those numbers; every matrix
  row/column index downstream depends on this ordering.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

QubitIndex = tuple[int, ...]


@dataclass(frozen=True)
class NoiseField:
    """Per-qubit, per-axis decay rates after fabrication disorder.

    ``rates[i, n]`` is the rate of the qubit with linear index ``i`` along
    axis ``n``, in the same units as the symmetric rates it perturbs.
    All stored rates are strictly positive.
    """

    dims: tuple[int, ...]
    rates: np.ndarray
    epsilon_max: float
    rng_seed: int

    def __post_init__(self) -> None:
        rates = np.asarray(self.rates, dtype=float)
        object.__setattr__(self, "rates", rates)
        n_qubits = math.prod(self.dims)
        if rates.shape != (n_qubits, len(self.dims)):
            raise ValueError(
                f"rates shape {rates.shape} does not match "
                f"({n_qubits}, {len(self.dims)})"
            )
        if not np.all(rates > 0):
            raise ValueError("all per-qubit rates must be > 0")
        rates.setflags(write=False)

    def mean_rates(self) -> tuple[float, ...]:
        """Per axis, the rate averaged over every qubit."""
        return tuple(float(self.rates[:, n].mean()) for n in range(len(self.dims)))


@dataclass(frozen=True)
class NetworkSpec:
    """A d-dimensional qubit network.

    Parameters
    ----------
    dims : qubits per axis, all >= 1.
    gammas : single-emitter decay rate per axis (units of a reference rate).
    theta : dimensionless propagation phase accumulated between adjacent
        qubits, in radians.
    noise : optional per-qubit rate field; absent means a symmetric network.
    """

    dims: tuple[int, ...]
    gammas: tuple[float, ...]
    theta: float
    noise: Optional[NoiseField] = None

    def __post_init__(self) -> None:
        dims = tuple(int(n) for n in self.dims)
        gammas = tuple(float(g) for g in self.gammas)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "gammas", gammas)
        object.__setattr__(self, "theta", float(self.theta))
        if len(dims) < 1:
            raise ValueError("need at least one axis")
        if any(n < 1 for n in dims):
            raise ValueError("every axis must hold at least one qubit")
        if len(gammas) != len(dims):
            raise ValueError("gammas must have one entry per axis")
        if any(g <= 0 for g in gammas):
            raise ValueError("every rate must be > 0")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if self.noise is not None and self.noise.dims != dims:
            raise ValueError("noise field dims do not match network dims")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def n_qubits(self) -> int:
        # exact: np.prod wraps silently in int64 for huge dims
        return math.prod(self.dims)

    @property
    def rate_sum(self) -> float:
        """Sum_n N_n * gamma_n; bounds every collective rate's modulus."""
        return float(sum(n * g for n, g in zip(self.dims, self.gammas)))

    def with_noise(self, noise: Optional[NoiseField]) -> "NetworkSpec":
        return replace(self, noise=noise)

    def resolved_rates(self) -> np.ndarray:
        """(N, d) per-qubit rates: the noise field, or broadcast symmetric rates."""
        if self.noise is not None:
            return self.noise.rates
        return np.tile(np.asarray(self.gammas), (self.n_qubits, 1))

    def effective_gammas(self) -> tuple[float, ...]:
        """Per-axis rates for Cartesian-sum estimates: qubit-averaged under noise."""
        if self.noise is None:
            return self.gammas
        return self.noise.mean_rates()


@dataclass(frozen=True, order=True)
class LineId:
    """One waveguide: the chain along ``direction`` at fixed transverse coords."""

    direction: int
    transverse: tuple[int, ...] = field(default=())


def enumerate_qubits(spec: NetworkSpec) -> list[QubitIndex]:
    """All qubit coordinates in row-major order (axis 0 slowest)."""
    return list(itertools.product(*[range(1, n + 1) for n in spec.dims]))


def enumerate_lines(spec: NetworkSpec, axis: int) -> list[LineId]:
    """All waveguides along ``axis`` (0-based); there are prod_{j != axis} N_j."""
    if not 0 <= axis < spec.ndim:
        raise ValueError(f"axis {axis} out of range for {spec.ndim} axes")
    ranges = [range(1, n + 1) for j, n in enumerate(spec.dims) if j != axis]
    return [LineId(direction=axis, transverse=tv) for tv in itertools.product(*ranges)]


def _lines(spec: NetworkSpec) -> list[np.ndarray]:
    """The one table of line and qubit order: per axis, row l lists the
    linear indices of the qubits on line l of :func:`enumerate_lines`, by
    position along the axis."""
    grid = np.arange(spec.n_qubits).reshape(spec.dims)
    return [np.moveaxis(grid, axis, -1).reshape(-1, m) for axis, m in enumerate(spec.dims)]


def sample_noise(spec: NetworkSpec, epsilon_max: float, seed: int) -> NoiseField:
    """Draw one Gaussian rate perturbation per (qubit, axis).

    Each rate is ``gamma_n * (1 + N(0, epsilon_max^2))``.  Draws that would
    make a rate non-positive are rejected and resampled (vanishingly rare for
    epsilon_max <= 0.2).  Streams are keyed by (seed, qubit linear index,
    axis) with a splittable counter-based generator, so the field is
    reproducible and independent of sampling order.
    """
    if epsilon_max < 0:
        raise ValueError("epsilon_max must be >= 0")
    n_qubits, d = spec.n_qubits, spec.ndim
    rates = np.empty((n_qubits, d))
    for i in range(n_qubits):
        for n in range(d):
            if epsilon_max == 0.0:
                rates[i, n] = spec.gammas[n]
                continue
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i, n)))
            )
            while True:
                val = spec.gammas[n] * (1.0 + epsilon_max * rng.standard_normal())
                if val > 0.0:
                    rates[i, n] = val
                    break
    return NoiseField(dims=spec.dims, rates=rates, epsilon_max=float(epsilon_max), rng_seed=int(seed))
