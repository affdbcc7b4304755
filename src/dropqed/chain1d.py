"""Collective decay rates of a 1-D qubit chain coupled to one waveguide.

The dimensionless rates ``z_i = Gamma_i / gamma`` of an N-qubit chain are
the core ingredient of the Cartesian-sum construction for d-dimensional
networks.  They are the eigenvalues of the N x N qubit-qubit coupling kernel
``K[j, k] = exp(i * theta * |j - k|)``, obtained by eliminating the
waveguide field amplitudes from the chain's equations of motion.  The
eigensolve is backward-stable and resolves the near-degenerate subradiant
cluster at theta close to a multiple of pi down to real parts of order
1e-13.

The transfer-matrix characteristic polynomial and the Bloch-phase pole
system characterize the same rates independently; they live in the test
oracles (``tests/oracles.py``) as cross-checks of this route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class ChainSpectrum:
    """Dimensionless collective rates of one chain, sorted by (Re, Im).

    ``labels`` is filled by the analysis layer (subradiant/superradiant);
    it is None until classified.
    """

    n: int
    theta: float
    z: np.ndarray
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        z = np.asarray(self.z, dtype=complex)
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
        if z.shape != (self.n,):
            raise ValueError(f"expected {self.n} rates, got {z.shape}")


def _re_im_order(values: np.ndarray) -> np.ndarray:
    """Indices that sort complex values by (Re, Im): the library's one
    output ordering."""
    values = np.asarray(values, dtype=complex)
    return np.lexsort((values.imag, values.real))


def coupling_matrix(n: int, theta: float) -> np.ndarray:
    """N x N kernel ``exp(i * theta * |j - k|)`` coupling qubits on one line.

    Eliminating the right/left-moving amplitudes from the chain equations of
    motion leaves ``Delta e = -(i/2) gamma K e``, so the dimensionless rates
    are exactly the eigenvalues of K (via Gamma = 2i Delta).
    """
    j = np.arange(n)
    return np.exp(1j * theta * np.abs(j[:, None] - j[None, :]))


def chain_rates(n: int, theta: float) -> ChainSpectrum:
    """All N dimensionless collective decay rates of an N-qubit chain: the
    eigenvalues of :func:`coupling_matrix`, sorted by (Re, Im)."""
    if n < 1:
        raise ValueError("need n >= 1")
    z = np.array([1.0 + 0j]) if n == 1 else np.linalg.eigvals(coupling_matrix(n, theta))
    return ChainSpectrum(n=n, theta=theta, z=z[_re_im_order(z)])
