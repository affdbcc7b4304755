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


@dataclass(frozen=True, eq=False)
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
    axes = range(spec.ndim)
    # each axis moved last, the others in order (np.moveaxis, without its checks)
    return [grid.transpose([k for k in axes if k != axis] + [axis]).reshape(-1, m)
            for axis, m in enumerate(spec.dims)]


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): its mixing
# constants, its pool size and the shift of its avalanche steps
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16


def _hashmix(const: int, mult: int):
    """numpy's SeedSequence hash step with its running multiplier, on
    Python ints and uint64 arrays of 32-bit words alike."""
    def step(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> _XSHIFT
    return step


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _stream_keys(seed: int, n_qubits: int, d: int) -> np.ndarray:
    """The Philox keys of every noise stream, row ``i * d + n`` for qubit i
    and axis n: ``SeedSequence(entropy=seed, spawn_key=(i, n))
    .generate_state(2, np.uint64)``, for all streams in one vectorized pass
    (qubit indices below 2^32).

    The entropy words are those of the seed, little-endian and padded with
    zeros to the pool size, then i and n.  They fill and mix a pool of four
    32-bit words, which is then hashed into the four halves of the key.
    The seed's part of the pool is the same for every stream, so it is
    mixed once, in Python ints.
    """
    seed = int(seed)
    words = [seed >> 32 * k & _MASK32 for k in range(max(1, -(-seed.bit_length() // 32)))]
    words += [0] * (_POOL_SIZE - len(words))
    qubit, axis = np.divmod(np.arange(n_qubits * d, dtype=np.uint64), d)
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:] + [qubit, axis]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    final = _hashmix(_INIT_B, _MULT_B)
    halves = [final(word) for word in pool]
    return np.stack([halves[0] | halves[1] << 32, halves[2] | halves[3] << 32], axis=1)


def sample_noise(spec: NetworkSpec, epsilon_max: float, seed: int) -> NoiseField:
    """Draw one Gaussian rate perturbation per (qubit, axis).

    Each rate is ``gamma_n * (1 + N(0, epsilon_max^2))``.  Draws that would
    make a rate non-positive are rejected and resampled (vanishingly rare for
    epsilon_max <= 0.2).  Streams are keyed by (seed, qubit linear index,
    axis) with a splittable counter-based generator, so the field is
    reproducible and independent of sampling order: stream (i, n) is
    ``Generator(Philox(SeedSequence(entropy=seed, spawn_key=(i, n))))``.
    All keys are hashed in one vectorized pass and loaded into one Philox
    in turn; the last key is checked against numpy's own SeedSequence on
    every call, and a mismatch raises RuntimeError.
    """
    if epsilon_max < 0:
        raise ValueError("epsilon_max must be >= 0")
    n_qubits, d = spec.n_qubits, spec.ndim
    if epsilon_max == 0.0:
        rates = spec.gammas * n_qubits
    else:
        # numpy's own hash of the last key; it also rejects a seed numpy
        # does not take
        last = np.random.SeedSequence(entropy=seed, spawn_key=(n_qubits - 1, d - 1))
        keys = _stream_keys(seed, n_qubits, d)
        if not np.array_equal(keys[-1], last.generate_state(2, np.uint64)):
            raise RuntimeError("noise stream keys differ from numpy's SeedSequence")
        bits = np.random.Philox(last)
        rng = np.random.Generator(bits)
        state = bits.state             # a fresh stream: zero counter, empty buffer
        rates = []
        for key, gamma in zip(keys, spec.gammas * n_qubits):
            state["state"]["key"] = key
            bits.state = state
            while True:
                val = gamma * (1.0 + epsilon_max * rng.standard_normal())
                if val > 0.0:
                    rates.append(val)
                    break
    return NoiseField(dims=spec.dims, rates=np.reshape(rates, (n_qubits, d)),
                      epsilon_max=float(epsilon_max), rng_seed=int(seed))
