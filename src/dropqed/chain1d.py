"""Collective decay rates of a 1-D qubit chain coupled to one waveguide.

The dimensionless rates ``z_i = Gamma_i / gamma`` of an N-qubit chain are
the core ingredient of the Cartesian-sum construction for d-dimensional
networks.  They are the eigenvalues of the N x N qubit-qubit coupling kernel
``K[j, k] = exp(i * theta * |j - k|)``, obtained by eliminating the
waveguide field amplitudes from the chain's equations of motion.

K is symmetric Toeplitz, hence centrosymmetric: ``J K J = K`` with J the
exchange (reversal) matrix.  The orthogonal change of basis
``(1/sqrt 2) [[I, J], [J, -I]]`` (with a unit middle entry for odd N) maps
K onto two decoupled blocks, one for the chain modes that are even under
reversal and one for the odd ones, each of about half the size (Cantoni &
Butler, Linear Algebra Appl. 13, 275 (1976)).  The rates are the union of
the two blocks' eigenvalues, which takes about a quarter of the
arithmetic of one full eigensolve.  Because the transform is orthogonal
and exact, the split eigensolve is backward-stable like a dense one on K,
and resolves the near-degenerate subradiant cluster at theta close to a
multiple of pi down to real parts of order 1e-13.

The transfer-matrix characteristic polynomial, the Bloch-phase pole system
and the full-kernel eigensolve characterize the same rates independently;
they live in the test oracles (``tests/oracles.py``) as cross-checks of
this route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import _check_dense


@dataclass(frozen=True)
class ChainSpectrum:
    """Dimensionless collective rates of one chain, sorted by (Re, Im)."""

    n: int
    theta: float
    z: np.ndarray

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
    are exactly the eigenvalues of K (via Gamma = 2i Delta).  The entries
    are gathered from the N phases ``exp(i * theta * s)``, s = 0..N-1.
    """
    j = np.arange(n)
    phases = np.exp(1j * theta * j)
    return phases[np.abs(j[:, None] - j[None, :])]


def chain_rates(n: int, theta: float) -> ChainSpectrum:
    """All N dimensionless collective decay rates of an N-qubit chain: the
    eigenvalues of :func:`coupling_matrix`, sorted by (Re, Im).

    With ``m = N // 2``, ``A = K[:m, :m]`` and ``CJ = K[:m, N-m:]`` with its
    columns reversed, the reversal-odd modes see ``A - CJ`` and the
    reversal-even ones ``A + CJ``; for odd N the even block gains the
    middle qubit as one more row and column, ``sqrt(2) K[:m, m]`` and
    ``K[m, m]``.  Both blocks are complex symmetric and come from K by an
    exact orthogonal transform (centrosymmetric splitting, Cantoni & Butler
    1976), so their eigenvalues together are those of K to backward-stable
    accuracy, for about a quarter of the arithmetic of one N x N eigensolve.
    A chain whose kernel and eigensolver copies would exceed the memory
    budget raises ConfigError first: n <= 5792.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    # peak RSS is about 28 n^2 bytes (measured at n = 2000 and 4000), below
    # the 64 n^2 of four complex n x n arrays
    _check_dense(n, n, "the chain kernel")
    k = coupling_matrix(n, theta)
    m = n // 2
    a, cj = k[:m, :m], k[:m, n - m:][:, ::-1]
    even = a + cj
    if n % 2:
        edge = np.sqrt(2) * k[:m, m]
        even = np.block([[even, edge[:, None]], [edge[None, :], k[m:m + 1, m:m + 1]]])
    z = np.concatenate([np.linalg.eigvals(even), np.linalg.eigvals(a - cj)])
    return ChainSpectrum(n=n, theta=theta, z=z[_re_im_order(z)])
