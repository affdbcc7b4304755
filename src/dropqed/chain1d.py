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
the two blocks' eigenvalues.

Each block is ``i S + u u^T`` with S real symmetric: ``Im K = sin(theta
|j - k|)`` folds into S, and ``Re K = cos(theta (j - k))`` has rank two,
one reversal-even and one reversal-odd profile, so each block keeps one
of them as u.  Each block takes one real symmetric eigensolve of S, which
leaves the rank-one update ``i diag(lam) + v v^T`` (Golub, SIAM Rev. 15,
318 (1973)).  A block of at least ``_SECULAR_MIN`` = 40 rows finds its
eigenvalues as the roots of a secular equation by a handful of O(m^2)
Aberth-Ehrlich sweeps (Aberth, Math. Comp. 27, 339 (1973)), a smaller one
by one complex eigvals of the update: on one BLAS thread (2-core Xeon VM)
both took about 0.6 ms at 30 rows, and the sweeps half as long at 50-60.

Every rate is good to about eps N absolutely, and the small real parts of
the subradiant rates near theta = m pi far better: the eigensolve of S
gives the poles i lam_k to eps ||S||, of order eps |theta - m pi| N there.
Against a 50-digit eigensolve at 0.9999 pi the worst relative error of a
real part is 5e-9 at N = 12 and 1.3e-7 at N = 40, where one complex
eigvals of each kernel block gives 2.9e-6 and 1.6e-4 (and 9e-7 against
3.6e-3 at N = 120, against 60 digits).  At the floating-point theta = m pi
the kernel's own eigensolve leaves the N - 1 dark rates at round-off,
about 1e-14; here they are exactly 0 at theta = 0, and elsewhere mostly 0
and the rest below 1e-20 in the sweeps and at pi and 2 pi, below 1e-15 in
the eigvals of small blocks up to 5 pi.

The transfer-matrix characteristic polynomial, the Bloch-phase pole system
and the full-kernel eigensolve characterize the same rates independently;
they live in the test oracles (``tests/oracles.py``) as cross-checks of
this route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _check_dense

# Sectors of at least _SECULAR_MIN rows find their roots by Aberth's sweeps;
# below that one dense eigvals of the rank-one update is faster.
_SECULAR_MIN = 40
# Aberth sweeps after which a sector with roots still moving takes a dense
# eigvals; the most any sector took on N = 80-601 and 34 angles was 15
_MAX_SWEEPS = 50
_EPS = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
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
    """Indices that sort complex values by (Re, Im), ties in input order:
    the library's one output ordering.

    numpy orders complex values lexicographically, so one stable argsort
    gives it.  Only NaN parts order otherwise there (numpy puts R + nan j
    after every non-NaN value, a two-key sort among those of real part R),
    so a spectrum holding one takes the two-key sort.
    """
    values = np.asarray(values, dtype=complex)
    if np.isnan(values).any():
        return np.lexsort((values.imag, values.real))
    return np.argsort(values, kind="stable")


def _sectors(n: int, theta: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The two reversal sectors of the kernel, each as ``(S, u)`` with the
    sector block equal to ``i S + u u^T``.

    ``Im K = sin(theta |j - k|)`` folds into the real symmetric S of each
    sector, and ``Re K = cos(theta (j - k))`` has rank two: about the
    chain centre c = (N - 1) / 2 it is the sum of the outer products of the
    reversal-even profile ``cos theta (j - c)`` and the reversal-odd one
    ``sin theta (j - c)``, so each sector keeps one of them as u, scaled by
    sqrt(2) like the rows of the split (the middle qubit of odd N is a
    row of its own, ``u = 1``).  Even sector first.
    """
    m = n // 2
    sines = np.sin(theta * np.arange(n))
    j = np.arange(m)
    toeplitz, hankel = sines[np.abs(j[:, None] - j)], sines[n - 1 - j[:, None] - j]
    shift = theta * (j - (n - 1) / 2)
    even, u_even = np.zeros((n - m, n - m)), np.ones(n - m)
    np.add(toeplitz, hankel, out=even[:m, :m])
    u_even[:m] = np.sqrt(2) * np.cos(shift)
    if n % 2:
        even[m, :m] = even[:m, m] = np.sqrt(2) * sines[m - j]
    return (even, u_even), (toeplitz - hankel, np.sqrt(2) * np.sin(shift))


def _deflate(lam: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split ``i diag(lam) + v v^T`` (lam ascending, not empty) into its
    exact eigenvalues and the poles and weights left to the secular equation.

    As in LAPACK's divide and conquer (dlaed2), with tol = 8 eps times the
    larger of max|lam| and ||v||^2: a weight with ||v|| |v_k| <= tol is
    dropped, which leaves the exact eigenvalue i lam_k; and of two poles
    whose rotation onto one weight (a real Givens rotation of the pair)
    leaves an off-diagonal entry of at most tol, the first becomes exact.
    Returns the kept (lam, v) and the exact eigenvalues.
    """
    norm2 = v @ v
    tol = 8 * _EPS * max(-lam[0], lam[-1], norm2)
    keep = np.sqrt(norm2) * np.abs(v) > tol
    if keep.sum() > 1 and np.diff(lam[keep]).min() <= 2 * tol:
        kept = np.flatnonzero(keep)
        lam, v = lam.copy(), v.copy()
        prev = kept[0]
        for k in kept[1:]:
            r = np.hypot(v[prev], v[k])
            c, s = v[k] / r, v[prev] / r
            if abs(c * s * (lam[k] - lam[prev])) <= tol:
                lam[prev], lam[k] = (c * c * lam[prev] + s * s * lam[k],
                                     s * s * lam[prev] + c * c * lam[k])
                v[prev], v[k] = 0.0, r
                keep[prev] = False
            prev = k
    return lam[keep], v[keep], 1j * lam[~keep]


def _seeds(lam: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Starting points for the roots of ``f(z) = 1 + sum_k w_k / (i lam_k - z)``
    (lam ascending, w > 0): per pole, the one of two guesses with the
    smaller |f|.

    The first is the first-order root ``i lam_k + w_k / g_k``, with
    ``g_k = 1 + sum_{j != k} w_j / (i lam_j - i lam_k)`` (|g_k| >= 1), good
    where the weight is small against the gaps to the other poles.  The
    second holds where the real parts are small against the gaps, as near
    the band edge of the sine block: there ``Im f = 0`` puts the imaginary
    part near the zero y of ``h(y) = sum_k w_k / (lam_k - y)`` in the gap
    above the pole (one per gap, as h rises from -inf to +inf across it),
    and ``Re f = 0`` gives the real part ``1 / h'(y)``.  Each y solves h with
    the gap's two poles kept and the rest frozen at the gap's midpoint (a
    quadratic); the last pole's partner is the far root
    ``sum w + i sum(w lam) / sum w`` of the expansion of f in 1 / z.
    """
    poles = 1j * lam
    gaps = lam - lam[:, None]
    np.fill_diagonal(gaps, np.inf)
    first = poles + w / (1 - 1j * ((1 / gaps) @ w))
    low, gap = lam[:-1], np.diff(lam)
    mid = low + gap / 2
    # h at the midpoint less its two nearest terms, -2 w_low / gap + 2 w_high / gap
    rest = (w / (lam - mid[:, None])).sum(1) - 2 * (w[1:] - w[:-1]) / gap
    # with y = low + delta: rest delta^2 - b delta + c = 0, one root in (0, gap)
    b, c = w[:-1] + w[1:] + rest * gap, w[:-1] * gap
    root = np.sqrt(b * b - 4 * rest * c)
    total = w.sum()
    with np.errstate(divide="ignore", invalid="ignore"):
        y = low + np.where(b > 0, 2 * c / (b + root), (b - root) / (2 * rest))
        x = 1 / (w / (lam - y[:, None]) ** 2).sum(1)
        gapped = np.append(x + 1j * y, total + 1j * (w @ lam) / total)
        # a guess that lands on a pole has |f| inf or nan and loses
        better = np.abs(1 + (1 / (poles - gapped[:, None])) @ w) < np.abs(
            1 + (1 / (poles - first[:, None])) @ w)
    return np.where(better, gapped, first)


def _secular_rates(s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``i S + u u^T`` for real symmetric S and real u.

    With ``S = Q diag(lam) Q^T`` and ``v = Q^T u`` they are the eigenvalues
    of ``i diag(lam) + v v^T`` (Golub, SIAM Rev. 15, 318 (1973)): after
    :func:`_deflate`, the roots of ``f(z) = 1 + sum_k w_k / (i lam_k - z)``
    with ``w = v^2``, one per kept pole.  In a sector of at least
    ``_SECULAR_MIN`` rows (counted before deflation) they are found
    together by Aberth-Ehrlich sweeps (Aberth, Math. Comp. 27, 339 (1973))
    on the polynomial ``prod_k (i lam_k - z) f(z)`` from the :func:`_seeds`,
    each O(m^2) for m kept poles; a root is frozen once its step falls
    below 16 eps |z| or f below the rounding error of its sum.  A smaller
    sector, and one with roots still moving after ``_MAX_SWEEPS`` sweeps,
    takes one dense eigvals of its deflated matrix.
    """
    lam, q = np.linalg.eigh(s)
    lam, v, exact = _deflate(lam, q.T @ u)
    if not v.size:
        return exact
    poles = 1j * lam
    # a sector of fewer than _SECULAR_MIN rows goes straight to the eigvals
    active = np.arange(v.size)
    if len(u) >= _SECULAR_MIN:
        w = v * v
        z = _seeds(lam, w)
        for _ in range(_MAX_SWEEPS):
            if not active.size:
                break
            za = z[active]
            r = 1 / (poles - za[:, None])
            f = 1 + r @ w
            others = za[:, None] - z
            others[np.arange(active.size), active] = np.inf
            # Newton's step on the polynomial, f / (f' / f - sum_k 1 / (z - i lam_k))
            # in a form without 1 / f, less Aberth's sum over the other roots
            step = f / ((r * r) @ w - f * (r.sum(1) + (1 / others).sum(1)))
            z[active] = za - step
            # a root is done once its step is down to 16 eps |z|, or f to the
            # rounding error of its sum (the far roots of long chains)
            small_step = np.abs(step) <= 16 * _EPS * np.abs(za)
            active = active[~(small_step | (np.abs(f) <= 4 * _EPS * (1 + np.abs(r) @ w)))]
    if active.size:
        z = np.linalg.eigvals(np.diag(poles) + np.outer(v, v))
    return np.concatenate([z, exact])


def _check_chain(n: int) -> None:
    """Raise ValueError for n < 1, and ConfigError when the chain's kernel
    and eigensolver copies would exceed the memory budget (n > 5792)."""
    if n < 1:
        raise ValueError("need n >= 1")
    # peak RSS is about 25 n^2 bytes (24.7 and 24.3 n^2 above a warm process
    # at n = 2000 and 4000, theta = 0.65 pi; 28.5 and 28.4 for the dense
    # route that served them before), below the 64 n^2 of four complex
    # n x n arrays
    _check_dense(n, n, "the chain kernel")


def chain_rates(n: int, theta: float) -> ChainSpectrum:
    """All N dimensionless collective decay rates of an N-qubit chain: the
    eigenvalues of the kernel K (see the module notes), sorted by (Re, Im).

    The kernel splits into its reversal-even and reversal-odd blocks by an
    exact orthogonal transform (centrosymmetric splitting, Cantoni & Butler
    1976), each ``i S + u u^T`` (:func:`_sectors`), and each block takes one
    real symmetric eigensolve of S and a rank-one solve
    (:func:`_secular_rates`), which resolves the small real parts near
    theta = m pi relative to themselves (see the module notes).  A chain
    whose kernel and eigensolver copies would exceed the memory budget
    raises ConfigError first: n <= 5792.  A theta that is not finite
    raises ValueError.
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    _check_chain(n)
    # the odd sector of one qubit is empty
    z = np.concatenate([_secular_rates(s, u) for s, u in _sectors(n, theta) if u.size])
    return ChainSpectrum(n=n, theta=theta, z=z[_re_im_order(z)])
