"""Direct pole finding on the network's equations of motion.

For a network of N qubits in d dimensions the scattering parameters satisfy
(2d+1)N linear equations: per qubit and axis one right-mover and one
left-mover relation,

    t[sigma + n] * exp(-i theta) - t[sigma] + i sqrt(g/2) e[sigma] = 0
    r[sigma + n] * exp(+i theta) - r[sigma] - i sqrt(g/2) e[sigma] = 0

and per qubit one excitation relation,

    sum_n sqrt(g_n/2) (t[sigma] + r[sigma]) - Delta e[sigma] = 0,

where the amplitude with index sigma lives in the cell to the left of qubit
sigma along its line.  Collective decay rates are the Delta values where the
system matrix A(Delta) is singular, rotated by Gamma = 2i Delta.  Poles
admit nontrivial solutions with no incoming field, so the boundary inputs
(t_1 and r_{M+1} on every line) are eliminated, which makes A square.

Delta enters linearly on the N excitation rows only, so there are exactly
N poles (with multiplicity).  Eliminating the field amplitudes leaves
H e = Delta e with the N x N effective Hamiltonian
H[j, k] = -(i/2) sum_lines sqrt(g_j g_k) exp(i theta |j - k|), summed over
the lines through both qubits, with per-qubit rates g and |j - k| counted
in cells along the line (Chang, Jiang, Gorshkov & Kimble, NJP 14, 063003
(2012)).  H is built directly from the chain kernel, one block per line,
by :func:`_hamiltonian`; for a symmetric network it is the Kronecker sum
of the per-axis chain matrices (see :mod:`dropqed.drop`).  H is the one
matrix every route solves, so every route reports its eigenvalues.
:func:`all_poles_eig` diagonalizes H (the bulk method) by one eigensolve,
:func:`_eig`; :func:`all_poles_cnm` is that route certified at
min(tol, 1e-9), and :func:`all_poles_det_interp` is it under another
label, all three one body, :func:`_eigen_route`.  Without noise H commutes
with the reversal of every axis, so :func:`_eig` changes each axis to its
even/odd reflection basis and diagonalizes the 2^d parity sectors apart,
each about N / 2^d by one dense eig; a noisy H is one sector, one eig.
``_EomSystem`` applies the line relations above, without H and without
storing the system's nonzeros, and holds the certificate below.
Every route checks the memory budget of :mod:`dropqed.errors`, before
anything that scales with N, against the dense arrays it holds: four
N x N for the routes on H, eight for :func:`nullity_at`'s SVD, four of
the full (2d+1)N x (2d+1)N matrix for :func:`assemble`, and four N x N,
the limit of the routes on H, for :func:`sigma_min`.

Every route certifies each pole it reports once, and ends with the same
step: the trace rule (the poles sum to the total per-qubit rate within
1e-9 max(1, N S), S = sum_n N_n gamma_n), the (Re, Im) sort, and the
certificate bound.  For the pole's eigenvector e of H, x = (e, w) with
the field amplitudes w that solve the bulk (field) rows, which the line
recurrences give in closed form as two prefix sums per axis;
||A x|| / ||x|| / ||A||_F at the pole must be at most 1e-9.  That bounds
sigma_min(A)/||A||_F from above for any x, so no pole passes that an exact
SVD would fail (a wrong w can only fail a pole), and A x is applied
straight from the relations above over all (2d+1)N rows, never from H, so
a wrong H fails it.  One fused pass per axis and block of poles forms that
axis's fields, adds their squares to ||x||^2 and those of its mover rows
to ||A x||^2, and sums its terms of the excitation rows; no array of
(2d+1)N rows is formed.  The Lanczos :func:`sigma_min` and :func:`assemble`
(which returns A(Delta) as a dense array) take the explicit nonzeros, for
users and tests; no solve path calls them.

Seeded refinement (:func:`find_pole` and the noise study) is one call of
:func:`_refine` on the network: one eigensolve of H by :func:`_eig`, which
gives each seed its nearest eigenvalue not yet claimed by a seed closer to
its own, and one certificate per pole at min(tol, 1e-9).  It reports that
eigenvalue, never the seed itself.

Only :func:`sigma_min`, which factors the sparse pencil, imports scipy,
inside the function: every pole route and :func:`nullity_at` run on numpy
alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .chain1d import _re_im_order
from .drop import Spectrum
from .errors import ConditioningFailure, MaxIterationsError, _check_budget, _check_dense
from .lattice import NetworkSpec, _lines


@dataclass(frozen=True, eq=False)
class PoleSearchResult:
    """Poles found by one extraction route.

    ``residuals[k]`` is the certificate of pole k (see the module
    docstring), an upper bound on sigma_min(A)/||A||_F there, so it never
    understates how far A is from singular; NaN only with
    ``all_poles_eig(validate="none")``.
    """

    poles: Spectrum
    residuals: np.ndarray
    method: str


@dataclass(frozen=True, eq=False)
class NullSpaceResult:
    """Null space of A(Delta): dimension and qubit-excitation components.

    ``singular_values`` are those of the N x N matrix H - Delta I, whose
    null space is the excitation part of A's, not those of A itself.
    """

    nullity: int
    e_basis: np.ndarray          # shape (N, nullity), columns are unit vectors
    singular_values: np.ndarray
    rank_tol: float


# The H routes are counted as four complex N x N arrays.  They hold H, which
# is folded in place, and the eigenvector buffer, plus, one sector at a
# time, the sector's block, eig's copy of it and its eigenvectors, and half
# an array while a fold runs; the seeded routes add the claimed
# eigenvectors.  The single solve of a noisy spec holds H, eig's copy and
# its eigenvectors, then H, the eigenvectors and the buffer they are copied
# to.  Building H holds only H beside two arrays of at most _H_CHUNK
# entries.
# 2 GiB admits N <= 5792 for H (17 x 17 x 17).
def _check_h(spec: NetworkSpec) -> None:
    """Raise ConfigError when H and its eigensolve would exceed the budget."""
    _check_dense(spec.n_qubits, spec.n_qubits, "the effective Hamiltonian")


# nullity_at is counted as eight complex N x N arrays: H, shifted in place,
# and the full SVD (gesdd's copy, U, V^H and its real workspace).  Its peak
# RSS above a warm process read 7.6 of them at 12 x 12 x 12 (theta = pi, one
# BLAS thread).  2 GiB admits N <= 4096 (16 x 16 x 16).
def _check_svd(spec: NetworkSpec) -> None:
    """Raise ConfigError when H and its full SVD would exceed the budget."""
    n = spec.n_qubits
    _check_budget(8 * 16 * n * n, f"the effective Hamiltonian is {n} x {n}: its SVD's work arrays")


# entries of one slice of an axis's line blocks while its rate products
# and terms are formed: at most two such arrays (about 1.5 MB) beside H
_H_CHUNK = 1 << 16


def _hamiltonian(spec: NetworkSpec) -> np.ndarray:
    """The N x N effective Hamiltonian H, whose eigenvalues are the poles.

    Each line adds -(i/2) sqrt(g_j g_k) K[j, k] over its own qubits, with K
    the chain kernel exp(i theta |j - k|) of :mod:`dropqed.chain1d` and g
    the per-qubit rates along the line.  The line blocks of one axis are one
    strided view of H, (transverse axes..., M, M), and take their terms in
    place, a slice of rows at a time; K is a read-only Toeplitz view of
    2M - 1 phases.  The budget is checked first.
    """
    _check_h(spec)
    rates = spec.resolved_rates()
    dims, n = spec.dims, spec.n_qubits
    h = np.zeros((n, n), dtype=complex)
    # bytes between the qubits j and j + 1 along each axis
    steps = [math.prod(dims[axis + 1:]) * h.itemsize for axis in range(spec.ndim)]
    for axis, lines in enumerate(_lines(spec)):
        m, step = dims[axis], steps[axis]
        # the lines of one axis are disjoint, so no entry is added twice; a
        # transverse step moves both qubits of an entry
        others = [k for k in range(spec.ndim) if k != axis]
        blocks = np.ndarray([dims[k] for k in others] + [m, m], complex, h, 0,
                            [steps[k] * (n + 1) for k in others] + [step * n, step])
        root = np.sqrt(rates[lines, axis]).reshape(blocks.shape[:-1])
        phases = -0.5j * np.exp(1j * spec.theta * np.arange(m))
        # kernel[j, k] = phases[|j - k|] = -(i/2) K[j, k], read backwards
        # from phases[0] where k < j
        both = np.concatenate([phases[:0:-1], phases])
        kernel = np.ndarray((m, m), complex, both, (m - 1) * both.itemsize,
                            (-both.itemsize, both.itemsize))
        rows = max(1, _H_CHUNK // (len(lines) * m))
        for i in range(0, m, rows):
            part = slice(i, i + rows)
            blocks[..., part, :] += root[..., part, None] * root[..., None, :] * kernel[part]
    return h


def _fold(a: np.ndarray, axis: int) -> None:
    """Change one axis of ``a`` to the reflection basis, in place.

    With m = n // 2 along the axis, position j < m takes the even
    combination (a_j + a_{n-1-j}) / sqrt 2 and its mirror n-1-j the odd one
    (a_j - a_{n-1-j}) / sqrt 2; a middle entry (odd n) stays.  The even
    modes then fill positions [0, n - m) and the odd ones [n - m, n).  The
    map is orthogonal and symmetric, so it is its own inverse.
    """
    v = np.moveaxis(a, axis, 0)
    m = len(v) // 2
    low, high = v[:m], v[::-1][:m]
    odd = low - high
    low += high
    low *= np.sqrt(0.5)
    np.multiply(odd, np.sqrt(0.5), out=high)


def _eig(spec: NetworkSpec, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit eigenvectors of H, one dense eig per
    reflection-parity sector; ``h`` is overwritten.

    Without noise H commutes with the reversal of every axis, so
    :func:`_fold` on both index sides of every axis makes it block-diagonal:
    a mode is even or odd along each axis, which gives 2^d sectors of about
    N / 2^d (Cantoni & Butler, Linear Algebra Appl. 13, 275 (1976), per
    axis).  Each sector takes one np.linalg.eig call, in product order; its
    values and vectors go to the next columns of the result, its vectors at
    its own rows, and the vectors are then folded back.  A spec with a
    noise field folds no axis: its one sector is a view of H, and the call
    is np.linalg.eig(h) itself.
    """
    dims, n = spec.dims, spec.n_qubits
    grid = h.reshape(dims + dims)
    if spec.noise is None:
        halves = [(slice(0, m - m // 2), slice(m - m // 2, m)) for m in dims]
        for axis in range(2 * len(dims)):
            _fold(grid, axis)
    else:
        halves = [(slice(0, m),) for m in dims]
    values = np.empty(n, dtype=complex)
    vectors = np.zeros((n, n), dtype=complex)
    rows = vectors.reshape(dims + (n,))
    start = 0
    for sector in itertools.product(*halves):
        shape = tuple(s.stop - s.start for s in sector)
        size = math.prod(shape)
        if size:                 # an empty sector is odd along an axis of one qubit
            cols = slice(start, start + size)
            values[cols], block = np.linalg.eig(grid[sector + sector].reshape(size, size))
            rows[sector + (cols,)] = block.reshape(shape + (size,))
            start += size
    if spec.noise is None:
        for axis in range(len(dims)):
            _fold(rows, axis)
    return values, vectors


class _Axis(NamedTuple):
    """One axis's tables, in its (m, lines, columns) layout: entry [j, l]
    belongs to position j on line l."""

    sites: np.ndarray       # the qubit there
    order: tuple            # the qubit grid's axes, then the columns', in this layout
    coup: np.ndarray        # c = sqrt(g/2), as every table below of shape (m, lines, 1)
    i_coup: np.ndarray      # i c
    to_t: np.ndarray        # -i c e^{-i theta j}: weights of the t prefix sums
    to_r: np.ndarray        # -i c e^{i theta j}: weights of the r prefix sums
    t_phase: np.ndarray     # e^{i theta (j+1)}, shape (m, 1, 1)
    r_phase: np.ndarray     # e^{-i theta j}, shape (m, 1, 1)


class _EomSystem:
    """The pencil A(Delta) = A0 - Delta * E (E selects the excitation rows)
    and the pole certificate on it, in numpy alone, without storing A0.

    Each axis keeps the tables of :class:`_Axis`: its sites, c = sqrt(g/2)
    on them and the phases of the field prefix sums.  A0 is applied
    straight from the line relations, on each axis's (m, lines, columns)
    layout by slicing along the positions: t_{j+1} e^{-i theta} - t_j +
    i c_j e_j on the right-mover rows, r_{j+1} e^{i theta} - r_j - i c_j e_j
    on the left-mover rows, and sum_n c_j (t_j + r_j) on the excitation
    rows.  :meth:`entries` builds A0's nonzeros on request, for
    :func:`assemble`, :func:`sigma_min` (:meth:`pencil`) and the tests,
    which check the certificates' A x against them.  No dense array, so
    no budget check of its own (each route checks the arrays it holds).
    """

    def __init__(self, spec: NetworkSpec):
        n_qubits, d = spec.n_qubits, spec.ndim
        rates = spec.resolved_rates()
        self._dims = spec.dims
        self._em, self._ep = np.exp(-1j * spec.theta), np.exp(1j * spec.theta)
        self._axes = []
        a0_sq = 0.0
        for axis, lines in enumerate(_lines(spec)):
            n_lines, m = lines.shape
            sites = np.ascontiguousarray(lines.T)
            coup_sq = rates[sites, axis] / 2
            coup = np.sqrt(coup_sq)[:, :, None]
            phase = np.exp(1j * spec.theta * np.arange(m + 1))[:, None, None]
            back = phase[:m].conj()
            self._axes.append(_Axis(
                sites=sites, order=(axis, *(k for k in range(d) if k != axis), d),
                coup=coup, i_coup=1j * coup, to_t=-1j * coup * back, to_r=-1j * coup * phase[:m],
                t_phase=phase[1:], r_phase=back))
            # unit moduli on 2(2N - L) slots of the mover rows; c on three
            # slots per qubit and a fourth past each line's first qubit
            a0_sq += 2 * (2 * n_qubits - n_lines) + 3 * coup_sq.sum() + coup_sq[1:].sum()
        self._a0_sq = float(a0_sq)
        self.n_poles = n_qubits
        self.size = (2 * d + 1) * n_qubits

    def entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A0's nonzeros as one (rows, cols, values) triple of arrays, built
        from the line relations on each call."""
        n_qubits, d = self.n_poles, len(self._axes)
        parts = []

        def put(row, col, value):
            parts.append((row.ravel(), col.ravel(), np.broadcast_to(value, col.shape).ravel()))

        # rows: all right-mover relations, all left-mover ones, then one
        # excitation relation per qubit; columns: e, then per axis and line
        # t_2..t_{M+1} and r_1..r_M.  Entry [l, j] below is the qubit at
        # position j + 1 on line l of the axis.
        for axis, tables in enumerate(self._axes):
            lines, coup = tables.sites.T, tables.coup[:, :, 0].T
            n_lines, m = lines.shape
            first = n_qubits * (1 + 2 * axis) + 2 * m * np.arange(n_lines)[:, None]
            t_next = first + np.arange(m)        # column of t_{j+1}
            r_here = t_next + m                  # column of r_j
            right = axis * n_qubits + np.arange(n_qubits).reshape(n_lines, m)
            left = right + d * n_qubits
            excite = 2 * d * n_qubits + lines
            # right movers: t_{j+1} e^{-i theta} - t_j + i sqrt(g/2) e = 0
            put(right, t_next, self._em)
            put(right[:, 1:], t_next[:, :-1], -1.0)
            put(right, lines, 1j * coup)
            # left movers: r_{j+1} e^{+i theta} - r_j - i sqrt(g/2) e = 0
            put(left[:, :-1], r_here[:, 1:], self._ep)
            put(left, r_here, -1.0)
            put(left, lines, -1j * coup)
            # excitation (row per qubit): sum_n sqrt(g/2) (t_j + r_j) - Delta e = 0
            put(excite[:, 1:], t_next[:, :-1], coup[:, 1:])
            put(excite, r_here, coup)
        return tuple(np.concatenate(part) for part in zip(*parts))

    def pencil(self):
        """(A0, E) as scipy CSC matrices, for the factorizations of A(Delta)."""
        import scipy.sparse as sp

        rows, cols, vals = self.entries()
        n, shape = self.n_poles, (self.size, self.size)
        e = sp.csc_matrix((np.ones(n), (np.arange(self.size - n, self.size), np.arange(n))),
                          shape=shape)
        return sp.csc_matrix((vals, (rows, cols)), shape=shape), e

    def frobenius(self, delta):
        """||A(Delta)||_F, elementwise over an array of detunings."""
        # the Delta-bearing slots hold exactly -Delta (A0 is zero there)
        return np.sqrt(self._a0_sq + self.n_poles * np.abs(delta) ** 2)

    def _fields(self, tables: _Axis, e: np.ndarray, on: np.ndarray, t: np.ndarray,
                r: np.ndarray) -> None:
        """Fill ``on`` with a block of excitation vectors e on one axis's
        sites, and ``t`` and ``r`` with the field amplitudes that solve the
        axis's bulk (field) rows, all in its (m, lines, columns) layout.

        With c = sqrt(g/2) and positions j along a line, the relations with
        no incoming field give t_{j+1} = -i e^{i theta (j+1)} sum_{k<=j}
        e^{-i theta k} c_k e_k and r_j = -i e^{-i theta j} sum_{k>=j}
        e^{i theta k} c_k e_k: two prefix sums, O(N) per column.
        """
        np.take(e, tables.sites, axis=0, out=on, mode="clip")   # "clip" writes unbuffered
        np.multiply(tables.to_t, on, out=t)
        np.cumsum(t, axis=0, out=t)
        t *= tables.t_phase
        np.multiply(tables.to_r, on, out=r)
        np.cumsum(r[::-1], axis=0, out=r[::-1])     # from each line's far end
        r *= tables.r_phase

    def _mover_rows(self, t: np.ndarray, r: np.ndarray, i_on: np.ndarray,
                    right: np.ndarray, left: np.ndarray) -> None:
        """Write one axis's right- and left-mover rows of A0 x to ``right``
        and ``left``, from x's fields t and r and i c e (``i_on``), all in
        the axis's (m, lines, columns) layout."""
        np.multiply(t, self._em, out=right)
        right[1:] -= t[:-1]
        right += i_on
        np.multiply(r[1:], self._ep, out=left[:-1])
        left[:-1] -= r[:-1]
        np.multiply(r[-1], -1.0, out=left[-1])
        left -= i_on

    def _add_excitation_rows(self, tables: _Axis, t: np.ndarray, r: np.ndarray,
                             out: np.ndarray, scratch: np.ndarray) -> None:
        """Add one axis's part of the excitation rows of A0 x to the N rows
        of ``out``: c_j t_j past each line's first qubit, then c_j r_j.
        ``out`` must be a view whose rows reshape to the qubit grid without
        a copy; ``scratch`` (the layout's shape) is overwritten."""
        grid = out.reshape(self._dims + out.shape[1:]).transpose(tables.order)
        np.multiply(tables.coup[1:], t[:-1], out=scratch[1:])
        grid[1:] += scratch[1:].reshape(grid[1:].shape)
        np.multiply(tables.coup, r, out=scratch)
        grid += scratch.reshape(grid.shape)

    def certificates(self, deltas: np.ndarray, vecs: np.ndarray) -> np.ndarray:
        """||A(Delta_k) x_k|| / ||x_k|| / ||A(Delta_k)||_F for every column
        e_k of ``vecs``, with x_k = (e_k, w_k) from :meth:`_fields`: the pole
        certificate of the module docstring, a block of columns at a time."""
        deltas = np.asarray(deltas, dtype=complex)
        out = np.empty(len(deltas))
        for k in range(0, len(deltas), _CERT_BLOCK):
            part = slice(k, k + _CERT_BLOCK)
            out[part] = self._certify_block(deltas[part], vecs[:, part])
        return out

    def _certify_block(self, deltas: np.ndarray, e: np.ndarray) -> np.ndarray:
        """The certificates of one block of columns, by one fused pass per
        axis: the axis's fields add their squares to ||x||^2 and its mover
        rows theirs to ||A x||^2, and its terms of the excitation rows are
        summed in an N-row block, whose squares are added last.  It holds
        six arrays of the block's shape and never one of (2d+1)N rows; at
        its peak numpy adds one transient block (np.take's contiguous copy
        of ``e``) or its ufunc buffers (two of 8192 entries at most, which
        span a whole block below N = 128): seven blocks traced at N >= 256,
        up to 8.1 below."""
        work = np.empty((5,) + e.shape, dtype=complex)
        excite = np.zeros(e.shape, dtype=complex)
        x_sq = ax_sq = 0.0
        for axis, tables in enumerate(self._axes):
            on, t, r, right, left = work.reshape((5,) + tables.sites.shape + (-1,))
            self._fields(tables, e, on, t, r)
            if not axis:            # every qubit sits on one line of an axis
                x_sq += _square_sums(on)
            x_sq += _square_sums(work[1:3])
            self._mover_rows(t, r, np.multiply(tables.i_coup, on, out=on), right, left)
            ax_sq += _square_sums(work[3:5])
            self._add_excitation_rows(tables, t, r, excite, on)
        excite -= np.multiply(e, deltas, out=work[0])
        ax_sq += _square_sums(excite)
        # the real and imaginary parts of each column are adjacent
        ax_sq, x_sq = ax_sq.reshape(-1, 2).sum(axis=1), x_sq.reshape(-1, 2).sum(axis=1)
        # an overflowed sum read 0 or NaN here: NaN, which fails every bound,
        # so the overflow and the NaN it makes need no warning
        with np.errstate(over="ignore", invalid="ignore"):
            frobenius = self.frobenius(deltas)
            finite = np.isfinite(ax_sq) & np.isfinite(x_sq) & np.isfinite(frobenius)
            return np.where(finite, np.sqrt(ax_sq / x_sq) / frobenius, np.nan)


def _square_sums(a: np.ndarray) -> np.ndarray:
    """Sums of squares of the real and imaginary parts of each column (last
    axis) of a complex array over all its other axes, in (re, im) pairs; its
    last axis must be contiguous."""
    parts = a.reshape(-1, a.shape[-1]).view(float)
    return np.einsum("ij,ij->j", parts, parts)


def assemble(spec: NetworkSpec, delta: complex) -> np.ndarray:
    """The (2d+1)N system matrix A(Delta) at one detuning, as a dense array.

    In the layout of ``_EomSystem.entries``: rows are the right-mover, then
    the left-mover, then the N excitation relations; columns are e in qubit
    order, then per axis and line t_2..t_{M+1} and r_1..r_M."""
    size = (2 * spec.ndim + 1) * spec.n_qubits
    _check_dense(size, size, "the dense full system")
    system = _EomSystem(spec)
    a = np.zeros((size, size), dtype=complex)
    rows, cols, vals = system.entries()
    a[rows, cols] = vals
    a[np.arange(size - system.n_poles, size), np.arange(system.n_poles)] -= delta
    return a


def sigma_min(spec: NetworkSpec, delta: complex) -> float:
    """Smallest singular value of A(Delta); zero exactly at the poles.

    Computed by one sparse LU of A and Lanczos on (A^H A)^{-1} from a fixed
    start vector, so repeated calls return identical bits.  The value is
    ||A v|| / ||v|| for the computed singular vector v: a certified upper
    bound on the true sigma_min, equal to it up to about 1e-9 relative off
    the poles and within round-off of zero on them.

    It is the singularity check for users and tests; the solvers certify
    their poles with eigenvectors of H instead and never call it.
    """
    # the H routes' N x N limit: the sparse LU's fill has no rule of its own
    _check_dense(spec.n_qubits, spec.n_qubits, "the excitation block")
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

    a0, e = _EomSystem(spec).pencil()
    a = a0 - delta * e
    try:
        lu = splu(a)
    except RuntimeError as exc:
        if "singular" not in str(exc):
            raise
        return 0.0
    # structured start vectors (all ones, say) can be orthogonal to the
    # wanted one on symmetric lattices
    v0 = np.random.default_rng(0).standard_normal(a.shape[0]).astype(complex)
    op = LinearOperator(a.shape, dtype=complex,
                        matvec=lambda y: lu.solve(lu.solve(y, trans="H")))
    try:
        _, vecs = eigsh(op, k=1, which="LM", v0=v0)
    except ArpackNoConvergence as exc:
        # any vector still gives an upper bound; a poor one only fails
        # the singularity check
        vecs = exc.eigenvectors
    v = vecs[:, 0] if vecs.shape[1] else op.matvec(v0)
    return float(np.linalg.norm(a @ v) / np.linalg.norm(v))


_CHECK_TOL = 1e-9        # certificate of every reported pole, at most


def _check_tol(tol: float, name: str = "tol") -> None:
    """Raise ValueError unless ``tol`` is finite and positive: a NaN bound
    would pass every certificate, since no residual compares above it."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be finite and > 0, got {tol!r}")


# columns per block of the fused pass of the certificates: they hold six
# arrays of N x 64 (its fields, mover rows and excitation rows) and peak at
# seven to eight with numpy's transients, never one of (2d+1)N rows
_CERT_BLOCK = 64


def find_pole(spec: NetworkSpec, seed: complex, tol: float = 1e-10) -> complex:
    """The pole of A(Delta) nearest a seed.

    Takes the eigenvalue of H nearest the seed, and requires its
    certificate on the full system (see the module docstring) to be at most
    min(tol, 1e-9).

    Raises MaxIterationsError when the pole fails the certificate, and
    ValueError when ``tol`` is not finite and positive.
    """
    _check_tol(tol)
    seed = complex(seed)
    poles, _ = _refine(spec, [seed], tol)
    pole = complex(poles[0])
    if np.isnan(pole):
        raise MaxIterationsError(f"the pole nearest seed {seed} fails the certificate "
                                 f"<= {min(tol, _CHECK_TOL):g}")
    return pole


def _refine(spec: NetworkSpec, seeds: Sequence[complex],
            tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Give each of at most N seeds its own pole of the network; NaN where
    it fails the certificate at min(tol, 1e-9).  The one seeded entry:
    it builds H, which checks the budget first.

    The poles are the eigenvalues of H, one slot per eigenvalue as often as
    its algebraic multiplicity, so a pole of multiplicity m goes to exactly
    m seeds.  Seeds go closest to their nearest eigenvalue first (a stable
    sort); each claims its nearest slot while it is free.  The seeds that
    find it taken then go in the same order, each to the nearest slot still
    unclaimed.

    Each claimed eigenvalue is certified once and reported if it passes,
    else NaN.  Returns the reported poles and their certificates.
    """
    seeds = np.asarray(seeds, dtype=complex)
    if not np.all(np.isfinite(seeds)):
        raise ValueError("seeds must be finite")
    # H, folded by _eig, is freed before the claimed vectors are copied
    values, vectors = _eig(spec, _hamiltonian(spec))
    dist = np.abs(seeds[:, None] - values)
    slot = dist.argmin(axis=1)        # each seed's nearest eigenvalue
    order = np.argsort(dist[np.arange(len(seeds)), slot], kind="stable")
    free = np.ones(len(values), dtype=bool)
    taken = []
    for i in order:
        if free[slot[i]]:
            free[slot[i]] = False
        else:
            taken.append(i)
    for i in taken:
        slot[i] = np.flatnonzero(free)[dist[i, free].argmin()]
        free[slot[i]] = False
    poles = values[slot]
    residuals = _EomSystem(spec).certificates(poles, vectors[:, slot])
    return np.where(residuals <= min(tol, _CHECK_TOL), poles, complex(np.nan, np.nan)), residuals


def _finish(spec: NetworkSpec, gammas: np.ndarray, residuals: np.ndarray,
            method: str, error: type[Exception],
            bound: Optional[float] = _CHECK_TOL) -> PoleSearchResult:
    """The last step of every route: trace rule, (Re, Im) order, certificate.

    The poles must sum to the total per-qubit rate within 1e-9 max(1, N S),
    S = sum_n N_n gamma_n, and every certificate must be at most ``bound``
    (NaN fails), else ``error`` is raised; the trace rule is checked first.
    A ``bound`` of None, only for ``validate="none"``, certifies nothing.
    """
    expected = float(spec.resolved_rates().sum())     # exact: the total per-qubit rate
    if not abs(gammas.sum() - expected) <= 1e-9 * max(1.0, spec.n_qubits * spec.rate_sum):
        raise error(
            f"{method} pole multiset violates the trace rule: sum {gammas.sum():.6g} "
            f"vs expected {expected:.6g}; duplicates or missed poles likely"
        )
    order = _re_im_order(gammas)
    gammas, residuals = gammas[order], residuals[order]
    failed = 0 if bound is None else int(np.count_nonzero(~(residuals <= bound)))
    if failed:
        worst = int(np.argmax(np.nan_to_num(residuals, nan=np.inf)))
        raise error(
            f"{failed} of {len(gammas)} poles fail the certificate <= {bound:g}: reported "
            f"pole {gammas[worst]} fails the singularity check with certificate "
            f"{residuals[worst]:.3e}"
        )
    return PoleSearchResult(poles=Spectrum(rates=gammas, method=method),
                            residuals=residuals, method=method)


def all_poles_eig(spec: NetworkSpec, validate: str = "sample") -> PoleSearchResult:
    """All N poles as the eigenvalues of H, by dense eigensolves.

    Without noise H splits into 2^d reflection-parity sectors, one dense
    eig each (:func:`_eig`): at 8 x 8 x 8 that takes about a quarter of the
    time of one eig of all of H, and exact degeneracies that fall in
    different sectors never meet in one non-normal eigensolve.  A noisy
    network takes one eig of H.  Needs no seeds, resolves multiplicities
    exactly, and is robust in the clustered near-resonant regime.  The
    poles must pass the trace rule.
    "sample" (the default) and "all" both certify every pole with its
    eigenvector on the full system; "none" skips the certificate.
    """
    if validate not in ("sample", "all", "none"):
        raise ValueError(
            f"validate must be 'sample', 'all' or 'none', got {validate!r}")
    return _eigen_route(spec, "eigen", ConditioningFailure,
                        None if validate == "none" else _CHECK_TOL)


def all_poles_cnm(spec: NetworkSpec, tol: float = 1e-10) -> PoleSearchResult:
    """All N poles as the eigenvalues of H, certified at min(tol, 1e-9).

    The route of :func:`all_poles_eig`, one eigensolve of H and one
    certificate per pole, reported under the "cnm" label: a run whose poles
    break the trace rule, or fail the certificate at min(tol, 1e-9), raises
    MaxIterationsError; a ``tol`` that is not finite and positive raises
    ValueError.  Its name and label are kept because the ``eom-cnm``
    command and ``--eom-method cnm`` select it.
    """
    _check_tol(tol)
    return _eigen_route(spec, "cnm", MaxIterationsError, min(tol, _CHECK_TOL))


def _eigen_route(spec: NetworkSpec, method: str, error: type[Exception],
                 bound: Optional[float] = _CHECK_TOL) -> PoleSearchResult:
    """The body of the three all-poles routes: one eigensolve of H (which
    checks the budget first), one certificate pass over its N eigenvectors
    (NaN, uncertified, when ``bound`` is None), and :func:`_finish` under
    ``method``, raising ``error`` past ``bound``."""
    values, vecs = _eig(spec, _hamiltonian(spec))
    residuals = (np.full(len(values), np.nan) if bound is None
                 else _EomSystem(spec).certificates(values, vecs))
    return _finish(spec, 2j * values, residuals, method, error, bound)


def all_poles_det_interp(spec: NetworkSpec) -> PoleSearchResult:
    """All N poles as the eigenvalues of H, under the "det-interp" label.

    The route of :func:`all_poles_eig`: one eigensolve of H, one certificate
    per pole, and a run whose poles break the trace rule or fail the
    certificate raises ConditioningFailure.  The name and the "det-interp"
    method string are those of the determinant fit and the contour integral
    this route was before, kept because the ``eom-det`` command and
    ``--eom-method det-interp`` select it.
    """
    return _eigen_route(spec, "det-interp", ConditioningFailure)


def nullity_at(spec: NetworkSpec, delta: complex, rank_tol: float = 1e-8) -> NullSpaceResult:
    """Null-space dimension of A(Delta) and the excitation parts of its basis.

    Bound states live at Delta = 0 when theta is a multiple of pi; their
    count is prod_n (N_n - 1).  The field block is invertible, so the null
    space of A(Delta) is that of H - Delta I, extended by the field: this
    takes the SVD of the N x N matrix H - Delta I, counting singular values
    below ``rank_tol`` times the largest.  The basis columns are unit null
    vectors of H - Delta I, the excitation components of A's null vectors,
    which is what the bound-state sign-sum condition constrains.  A
    ``rank_tol`` that is not finite and positive raises ValueError.
    """
    _check_tol(rank_tol, "rank_tol")
    _check_svd(spec)
    h = _hamiltonian(spec)
    n = len(h)
    h.flat[::n + 1] -= complex(delta)
    _, svals, vh = np.linalg.svd(h)
    nullity = int((svals < rank_tol * svals[0]).sum())
    basis = vh[n - nullity:].conj().T
    return NullSpaceResult(nullity=nullity, e_basis=basis, singular_values=svals,
                           rank_tol=float(rank_tol))
