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

Delta enters linearly on the N excitation rows only, hence det A is a
degree-N polynomial in Delta and there are exactly N poles (with
multiplicity).  Three extraction routes are provided:

* :func:`all_poles_eig` - eliminate the field amplitudes with one Schur
  complement and diagonalize the resulting N x N matrix.  Backward-stable,
  multiplicity-exact, and the recommended bulk method.
* :func:`all_poles_cnm` - seeded local refinement of one pole per seed:
  shift-invert and Rayleigh-quotient iteration on the same N x N matrix,
  each seed claiming its own eigenvector direction; handles per-qubit
  noisy rates and refines external estimates.
* :func:`all_poles_det_interp` - fit the degree-N determinant polynomial on
  two sampling circles, take companion-matrix roots and polish each on the
  N x N matrix.  Limited by the determinant's dynamic range; reliable for
  small networks only and raises
  :class:`~dropqed.errors.ConditioningFailure` when its own checks fail.

Every route ends with the same step: the poles must obey the trace rule
(their sum equals the total per-qubit rate within 1e-9 max(1, N S),
S = sum_n N_n gamma_n), are sorted by (Re, Im), and pass the singularity
check sigma_min(A) <= 1e-9 ||A||_F on the full system (all of them, or a
sample in :func:`all_poles_eig`).  A0 is kept sparse only; dense copies
are made for the Schur complement and the determinant and null-space
routes, which need them.  A has about three nonzeros per row, so
sigma_min comes from one sparse LU of A and Lanczos on (A^H A)^{-1}; the
value reported is ||A v|| / ||v|| for the computed singular vector v, a
certified upper bound on the true sigma_min, so no check passes that an
exact SVD would fail.  At N = 216 (6x6x6) one call of :func:`sigma_min`
takes 0.06 s, against 2.19 s with the dense SVD it replaced (one BLAS
thread, 2-core Xeon VM).  The check is memoized per detuning, so a pole
is factored once however many routes ask about it.

Seeded refinement (:func:`find_pole`, :func:`all_poles_cnm`, the noise
study and the det-interp polish) works on the N x N matrix H whose
eigenvalues are the poles: fixed-shift inverse iteration from the seed
identifies the eigenvector of the pole nearest it, and Rayleigh-quotient
iteration polishes the pair (Saad, Numerical Methods for Large Eigenvalue
Problems, SIAM 2011, ch. 4).  Each step is one N x N LU solve: on the
noisy 3x2x6 network (N = 36) the 36 eigenpairs take 13 ms together and
their full-matrix checks 120 ms (one BLAS thread, 2-core Xeon VM).

scipy is imported inside the functions that use it, so importing this
module loads none of it: the Cartesian-sum commands never need it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .chain1d import _re_im_order
from .drop import Spectrum, drop_spectrum
from .errors import ConditioningFailure, MaxIterationsError
from .lattice import NetworkSpec, enumerate_lines, enumerate_qubits, linearize


@dataclass(frozen=True)
class EomMatrix:
    """The assembled square system at one detuning.

    ``index_map`` sends each unknown to its column: ``("e", coords)`` for
    excitation amplitudes, ``("t", axis, transverse, j)`` and
    ``("r", axis, transverse, j)`` for the surviving field amplitudes on the
    line identified by its axis and transverse coordinates (t carries
    j = 2..M+1, r carries j = 1..M, after the zero-input boundary
    elimination).  ``rates[i, n]`` is the per-qubit rate actually used.
    """

    a: np.ndarray
    index_map: dict
    delta: complex
    rates: np.ndarray


@dataclass(frozen=True)
class PoleSearchResult:
    """Poles found by one extraction route.

    ``residuals[k]`` is sigma_min(A) at pole k divided by the Frobenius norm
    of A there; NaN where validation was sampled out.  The sigma_min used
    is the certified upper bound of :func:`sigma_min`, so a residual never
    understates how far A is from singular.
    """

    poles: Spectrum
    seeds_used: tuple[complex, ...]
    residuals: np.ndarray
    method: str


@dataclass(frozen=True)
class NullSpaceResult:
    """Null space of A(Delta): dimension and qubit-excitation components."""

    nullity: int
    e_basis: np.ndarray          # shape (N, nullity), columns are unit vectors
    singular_values: np.ndarray
    rank_tol: float


class _EomSystem:
    """A(Delta) = A0 - Delta * E assembled once, sparse; E selects excitation rows."""

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        d, dims = spec.ndim, spec.dims
        n_qubits = spec.n_qubits
        size = (2 * d + 1) * n_qubits
        rates = spec.resolved_rates()
        qubits = enumerate_qubits(spec)
        qpos = {q: linearize(dims, q) for q in qubits}

        index_map: dict = {("e", q): qpos[q] for q in qubits}
        col = n_qubits
        lines = {n: enumerate_lines(spec, n) for n in range(d)}
        tcol: dict = {}
        rcol: dict = {}
        for n in range(d):
            for line in lines[n]:
                m = dims[n]
                for j in range(2, m + 2):
                    tcol[(n, line.transverse, j)] = col
                    index_map[("t", n, line.transverse, j)] = col
                    col += 1
                for j in range(1, m + 1):
                    rcol[(n, line.transverse, j)] = col
                    index_map[("r", n, line.transverse, j)] = col
                    col += 1
        assert col == size

        # A0 as (row, col, value) triplets, each slot filled at most once
        entries: list[tuple[int, int, complex]] = []
        put = entries.append
        em, ep = np.exp(-1j * spec.theta), np.exp(1j * spec.theta)
        row = 0
        # right-mover rows: t_{j+1} e^{-i theta} - t_j + i sqrt(g/2) e = 0
        for n in range(d):
            for line in lines[n]:
                for pos, q in enumerate(line.qubits(dims), start=1):
                    g = rates[qpos[q], n]
                    put((row, tcol[(n, line.transverse, pos + 1)], em))
                    if pos >= 2:
                        put((row, tcol[(n, line.transverse, pos)], -1.0))
                    put((row, qpos[q], 1j * np.sqrt(g / 2)))
                    row += 1
        # left-mover rows: r_{j+1} e^{+i theta} - r_j - i sqrt(g/2) e = 0
        for n in range(d):
            for line in lines[n]:
                m = dims[n]
                for pos, q in enumerate(line.qubits(dims), start=1):
                    g = rates[qpos[q], n]
                    if pos <= m - 1:
                        put((row, rcol[(n, line.transverse, pos + 1)], ep))
                    put((row, rcol[(n, line.transverse, pos)], -1.0))
                    put((row, qpos[q], -1j * np.sqrt(g / 2)))
                    row += 1
        # excitation rows: sum_n sqrt(g/2)(t_sigma + r_sigma) - Delta e = 0
        self._e_rows = np.empty(n_qubits, dtype=int)
        for q in qubits:
            for n in range(d):
                g = rates[qpos[q], n]
                coup = np.sqrt(g / 2)
                pos = q[n]
                transverse = tuple(c for j, c in enumerate(q) if j != n)
                if pos >= 2:
                    put((row, tcol[(n, transverse, pos)], coup))
                put((row, rcol[(n, transverse, pos)], coup))
            self._e_rows[qpos[q]] = row
            row += 1
        assert row == size

        import scipy.sparse as sp

        rows, cols, vals = zip(*entries)
        vals = np.array(vals, dtype=complex)
        self._a0 = sp.csc_matrix((vals, (rows, cols)), shape=(size, size))
        self._a0_sq = float(np.linalg.norm(vals) ** 2)
        self._e_sparse = sp.csc_matrix(
            (np.ones(n_qubits), (self._e_rows, np.arange(n_qubits))), shape=(size, size))
        # fixed pseudo-random Lanczos start: on symmetric lattices structured
        # vectors (all ones, say) can be orthogonal to the wanted one
        self._v0 = np.random.default_rng(0).standard_normal(size).astype(complex)
        self.size = size
        self.n_poles = n_qubits
        self.index_map = index_map
        self.rates = rates
        self._n_bulk = size - n_qubits
        self._reduced: Optional[np.ndarray] = None
        self._residuals: dict[complex, float] = {}

    def matrix(self, delta: complex) -> np.ndarray:
        """Dense A(Delta), for the determinant and null-space routes."""
        a = self._a0.toarray()
        a[self._e_rows, np.arange(self.n_poles)] -= delta
        return a

    def reduced(self) -> np.ndarray:
        """N x N matrix whose eigenvalues are the poles (Schur complement).

        Bulk rows give w = -B_w^{-1} B_e e, so the excitation rows become
        (C_e - C_w B_w^{-1} B_e) e = Delta e.  B_w is triangular up to row
        ordering and always invertible.
        """
        if self._reduced is None:
            import scipy.linalg as sla

            nb, nq = self._n_bulk, self.n_poles
            cols_e, cols_w = self._a0[:, :nq], self._a0[:, nq:]
            # both blocks are fresh dense copies, so LAPACK may overwrite them
            x = sla.solve(cols_w[:nb].toarray(), cols_e[:nb].toarray(),
                          overwrite_a=True, overwrite_b=True)
            self._reduced = cols_e[nb:].toarray() - cols_w[nb:].toarray() @ x
        return self._reduced

    def pole_sum(self) -> float:
        """Exact sum of all poles' Gamma values: total of per-qubit rates."""
        return float(self.rates.sum())

    def sigma_min(self, delta: complex) -> float:
        """Certified upper bound on the smallest singular value of A(Delta).

        Lanczos finds the dominant eigenvector v of (A^H A)^{-1}, applied as
        two triangular solves with one sparse LU of A, and the return value
        is ||A v|| / ||v||, which no vector can push below the true sigma_min.
        """
        from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

        a = self._a0 - delta * self._e_sparse
        try:
            lu = splu(a)
        except RuntimeError as exc:
            if "singular" not in str(exc):
                raise
            return 0.0
        op = LinearOperator(a.shape, dtype=complex,
                            matvec=lambda y: lu.solve(lu.solve(y, trans="H")))
        try:
            _, vecs = eigsh(op, k=1, which="LM", v0=self._v0)
        except ArpackNoConvergence as exc:
            # any vector still gives an upper bound; a poor one only fails
            # the singularity check
            vecs = exc.eigenvectors
        v = vecs[:, 0] if vecs.shape[1] else op.matvec(self._v0)
        return float(np.linalg.norm(a @ v) / np.linalg.norm(v))

    def frobenius(self, delta: complex) -> float:
        # the Delta-bearing slots hold exactly -Delta (A0 is zero there)
        return float(np.sqrt(self._a0_sq + self.n_poles * abs(delta) ** 2))

    def residual(self, delta: complex) -> float:
        """sigma_min(A) / ||A||_F at delta; one sparse factorization per
        distinct delta, however often it is asked for."""
        delta = complex(delta)
        if delta not in self._residuals:
            self._residuals[delta] = self.sigma_min(delta) / self.frobenius(delta)
        return self._residuals[delta]


def assemble(spec: NetworkSpec, delta: complex) -> EomMatrix:
    """Build the (2d+1)N system matrix at one complex detuning."""
    system = _EomSystem(spec)
    return EomMatrix(
        a=system.matrix(delta),
        index_map=system.index_map,
        delta=complex(delta),
        rates=system.rates,
    )


def det_at(spec: NetworkSpec, delta: complex) -> complex:
    """Determinant of A(Delta) by pivoted LU.

    May overflow to inf for large systems; use :func:`logdet_at` then.
    """
    phase, logabs = logdet_at(spec, delta)
    with np.errstate(over="ignore"):
        return phase * np.exp(logabs)


def logdet_at(spec: NetworkSpec, delta: complex) -> tuple[complex, float]:
    """(unit-modulus phase, log|det|) of A(Delta); overflow-safe."""
    system = _EomSystem(spec)
    phase, logabs = np.linalg.slogdet(system.matrix(delta))
    return complex(phase), float(logabs)


def sigma_min(spec: NetworkSpec, delta: complex) -> float:
    """Smallest singular value of A(Delta); zero exactly at the poles.

    Computed by one sparse LU of A and Lanczos on (A^H A)^{-1} from a fixed
    start vector, so repeated calls return identical bits.  The value is
    ||A v|| / ||v|| for the computed singular vector v: a certified upper
    bound on the true sigma_min, equal to it up to about 1e-9 relative off
    the poles and within round-off of zero on them.

    Maximizing the condition number is equivalent up to the slowly varying
    largest singular value, so this is the canonical singularity check.
    """
    return _EomSystem(spec).sigma_min(delta)


_SHIFT_STEPS = 30        # fixed-shift inverse-iteration steps, at most
_RQI_STEPS = 30          # Rayleigh-quotient steps, at most; a few are typical
# fixed-shift residual (times ||H||_F) that identifies the eigenvector of the
# eigenvalue nearest the shift; RQI before that point can jump to another pole
_IDENTIFY_TOL = 1e-8
_CONVERGED_TOL = 1e-14   # residual (times ||H||_F) of a converged eigenpair
# new-direction norm that separates a distinct eigenvector from a re-found
# one; on noisy and near-resonant networks the former are >= 1e-3 and the
# latter <= 1e-8
_SPAN_TOL = 1e-6
# a seed this close to its refined pole (times ||H||_F) is kept as given;
# Cartesian-sum seeds of symmetric networks lie within a few eps
_KEEP_SEED_TOL = 1e-12
_CHECK_TOL = 1e-9        # sigma_min/||A||_F of every reported pole, at most


def _shifted_lu(h: np.ndarray, shift: complex, norm_h: float):
    """LU factors of H - shift I.

    A shift that is an eigenvalue to working precision (an exactly zero
    pivot) is nudged by eps ||H||_F, as LAPACK's inverse iteration does.
    """
    import scipy.linalg as sla

    eye = np.eye(len(h))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu = sla.lu_factor(h - shift * eye)
        if not np.all(np.diagonal(lu[0])):
            lu = sla.lu_factor(h - (shift + np.finfo(float).eps * norm_h) * eye)
    return lu


def _rayleigh(h: np.ndarray, v: np.ndarray) -> tuple[complex, float]:
    """Rayleigh quotient of unit v and the residual ||H v - mu v||."""
    hv = h @ v
    mu = complex(np.vdot(v, hv))
    return mu, float(np.linalg.norm(hv - mu * v))


def _eigenpair(h: np.ndarray, shift: complex,
               v: np.ndarray) -> tuple[complex, np.ndarray, bool]:
    """Eigenpair of H nearest ``shift``, iterated from ``v``.

    Fixed-shift inverse iteration on one LU of H - shift I runs until the
    residual reaches 1e-8 ||H||_F, which identifies the eigenvector of the
    eigenvalue nearest the shift; Rayleigh-quotient iteration then polishes
    the pair to 1e-14 ||H||_F.  When the fixed shift identifies nothing
    (a seed exactly between degenerate poles, say) RQI runs anyway.
    Returns (mu, unit v, converged).
    """
    from scipy.linalg import lu_solve

    norm_h = float(np.linalg.norm(h))
    lu = _shifted_lu(h, shift, norm_h)
    for _ in range(_SHIFT_STEPS):
        v = lu_solve(lu, v)
        v = v / np.linalg.norm(v)
        mu, resid = _rayleigh(h, v)
        if resid <= _IDENTIFY_TOL * norm_h:
            break
    for _ in range(_RQI_STEPS):
        if resid <= _CONVERGED_TOL * norm_h:
            return mu, v, True
        v = lu_solve(_shifted_lu(h, mu, norm_h), v)
        v = v / np.linalg.norm(v)
        mu, resid = _rayleigh(h, v)
    return mu, v, resid <= _CONVERGED_TOL * norm_h


def _start_vector(n: int) -> np.ndarray:
    # fixed and pseudo-random: all-ones is orthogonal to the antisymmetric
    # modes of symmetric lattices, so inverse iteration could never reach them
    rng = np.random.default_rng(0)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _extend(basis: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, bool]:
    """Append v's component orthogonal to span(basis) if it is a new direction."""
    for _ in range(2):          # Gram-Schmidt twice is enough
        v = v - basis @ (basis.conj().T @ v)
    norm = np.linalg.norm(v)
    if norm <= _SPAN_TOL:
        return basis, False
    return np.column_stack([basis, v / norm]), True


def _settle(system: _EomSystem, seed: complex, pole: complex, tol: float) -> complex:
    """The reported pole for ``seed``: the seed itself when it lies within
    1e-12 ||H||_F of the refined pole and passes the full-matrix check, else
    the refined pole if it passes, else NaN.

    Passing the check alone is not enough to keep a seed: with noise at
    theta = m*pi a seed on the dark poles at Delta = 0 passes it even when
    its own pole was lifted to about 1e-9 by the noise.
    """
    keep = _KEEP_SEED_TOL * np.linalg.norm(system.reduced())
    if abs(seed - pole) <= keep and system.residual(seed) <= tol:
        return seed
    return pole if system.residual(pole) <= tol else complex(np.nan, np.nan)


def _find_pole(system: _EomSystem, seed: complex, tol: float,
               start: Optional[np.ndarray] = None) -> tuple[complex, np.ndarray]:
    """The refined pole for ``seed`` and its unit eigenvector of H."""
    seed = complex(seed)
    if not (np.isfinite(seed.real) and np.isfinite(seed.imag)):
        raise ValueError("seed must be finite")
    h = system.reduced()
    if start is None:
        start = _start_vector(len(h))
    mu, v, _ = _eigenpair(h, seed, start)
    pole = _settle(system, seed, mu, tol)
    if np.isnan(pole):
        raise MaxIterationsError(
            f"pole refinement from seed {seed} did not reach sigma_min <= "
            f"{tol:g}*||A||; nearest eigenvalue estimate {mu}"
        )
    return pole, v


def find_pole(spec: NetworkSpec, seed: complex, tol: float = 1e-10) -> complex:
    """Refine one pole of A(Delta) from a seed.

    Runs shift-invert inverse iteration from the seed, then Rayleigh-quotient
    iteration, on the N x N matrix of :func:`all_poles_eig` (its eigenvalues
    are the poles), and verifies sigma_min(A) <= tol * ||A||_F on the full
    matrix, with the certified upper bound of :func:`sigma_min` (sparse LU
    plus Lanczos).  A seed within 1e-12 ||H||_F of its refined pole that
    satisfies the criterion is returned unchanged.

    Raises MaxIterationsError when the refined value fails that check.
    """
    return _find_pole(_EomSystem(spec), seed, tol)[0]


def _refine(system: _EomSystem, seeds: Sequence[complex], tol: float) -> np.ndarray:
    """Refine every seed into its own pole; NaN where a seed found none.

    Each seed gets an eigenpair of H by :func:`_eigenpair`.  Converged pairs
    are accepted closest seed first, each only while its eigenvector adds a
    new direction to the span Q already accepted, so a pole of multiplicity
    m is claimed by exactly m seeds.  A rejected seed searches again on
    Q_perp^H H Q_perp: span Q is invariant, so that matrix holds exactly the
    unclaimed poles; the result is polished on H.  Every pole is then
    settled by :func:`_settle`.
    """
    seeds = np.asarray(seeds, dtype=complex)
    if not np.all(np.isfinite(seeds)):
        raise ValueError("seeds must be finite")
    h = system.reduced()
    n = len(h)
    start = _start_vector(n)
    pairs = [_eigenpair(h, s, start) for s in seeds]
    order = np.argsort([abs(mu - s) for (mu, _, _), s in zip(pairs, seeds)], kind="stable")
    basis = np.zeros((n, 0), dtype=complex)
    poles = np.full(len(seeds), np.nan, dtype=complex)

    def claim(i: int, mu: complex, v: np.ndarray, converged: bool) -> bool:
        nonlocal basis
        new = False
        if converged:
            basis, new = _extend(basis, v)
        if new:
            poles[i] = mu
        return new

    rejected = [i for i in order if not claim(i, *pairs[i])]
    for i in rejected:
        perp = np.linalg.qr(basis, mode="complete")[0][:, basis.shape[1]:]
        mu, y, _ = _eigenpair(perp.conj().T @ h @ perp, seeds[i], perp.conj().T @ start)
        claim(i, *_eigenpair(h, mu, perp @ y))
    for i, pole in enumerate(poles):
        if not np.isnan(pole):
            poles[i] = _settle(system, seeds[i], pole, tol)
    return poles


def _finish(system: _EomSystem, gammas: np.ndarray, method: str,
            seeds: Sequence[complex], error: type[Exception],
            sample: Optional[int] = None) -> PoleSearchResult:
    """The last step of every route: trace rule, (Re, Im) order, validation.

    The poles must sum to the total per-qubit rate within 1e-9 max(1, N S),
    S = sum_n N_n gamma_n, else ``error`` is raised.  ``sample`` evenly
    spaced poles (all when None) then get the full-matrix check
    sigma_min/||A||_F <= 1e-9, which raises ConditioningFailure.
    """
    n = system.n_poles
    expected = system.pole_sum()
    if abs(gammas.sum() - expected) > 1e-9 * max(1.0, n * system.spec.rate_sum):
        raise error(
            f"{method} pole multiset violates the trace rule: sum {gammas.sum():.6g} "
            f"vs expected {expected:.6g}; duplicates or missed poles likely"
        )
    gammas = gammas[_re_im_order(gammas)]
    residuals = np.full(n, np.nan)
    if sample is None or sample >= n:
        idx = np.arange(n)
    else:
        idx = np.unique(np.linspace(0, n - 1, sample).astype(int))
    for k in idx:
        residuals[k] = system.residual(gammas[k] / 2j)
        if residuals[k] > _CHECK_TOL:
            raise ConditioningFailure(
                f"reported pole {gammas[k]} fails the singularity check: "
                f"sigma_min/||A|| = {residuals[k]:.3e} > {_CHECK_TOL:g}"
            )
    return PoleSearchResult(
        poles=Spectrum(rates=gammas, method=method),
        seeds_used=tuple(seeds),
        residuals=residuals,
        method=method,
    )


def all_poles_eig(spec: NetworkSpec, validate: str = "sample") -> PoleSearchResult:
    """All N poles via Schur-complement reduction and a dense eigensolve.

    Needs no seeds, resolves multiplicities exactly, and is robust in the
    clustered near-resonant regime.  The poles must pass the trace rule;
    ``validate`` controls how many of them get the full-matrix singularity
    check: "sample" (six), "all", or "none".
    """
    samples = {"sample": 6, "all": None, "none": 0}
    if validate not in samples:
        raise ValueError(
            f"validate must be 'sample', 'all' or 'none', got {validate!r}")
    system = _EomSystem(spec)
    gammas = 2j * np.linalg.eigvals(system.reduced())
    return _finish(system, gammas, "eigen", (), ConditioningFailure, samples[validate])


def all_poles_cnm(spec: NetworkSpec, seeds: Optional[Sequence[complex]] = None,
                  tol: float = 1e-10) -> PoleSearchResult:
    """All N poles by seeded local refinement, one pole per seed.

    Seeds default to the Cartesian-sum estimates (qubit-averaged rates when
    a noise field is present), expressed in the Delta plane; exactly N seeds
    are required.  Each seed is refined by shift-invert and Rayleigh-quotient
    iteration on the N x N matrix of :func:`all_poles_eig`.  Two seeds that
    reach the same eigenvector are told apart by the span of the eigenvectors
    already claimed: the one farther from its pole searches again among the
    unclaimed poles only, so exact multiplicities carry over.  Every pole
    passes the full-matrix check sigma_min <= tol * ||A||_F; a run that
    cannot account for all N poles, or whose poles break the trace rule,
    raises MaxIterationsError.
    """
    system = _EomSystem(spec)
    n = system.n_poles
    if seeds is None:
        seeds = tuple(drop_spectrum(spec).rates / 2j)
    else:
        seeds = tuple(complex(s) for s in seeds)
        if len(seeds) != n:
            raise ValueError(f"all_poles_cnm needs exactly {n} seeds, got {len(seeds)}")
    gammas = 2j * _refine(system, seeds, tol)
    found = int(np.count_nonzero(~np.isnan(gammas)))
    if found < n:
        raise MaxIterationsError(
            f"seeded refinement located {found} of {n} poles; "
            "re-seed or use all_poles_eig"
        )
    return _finish(system, gammas, "cnm", seeds, MaxIterationsError)


def _second_eigenvector(system: _EomSystem, root: complex, pole: complex,
                        basis: np.ndarray) -> tuple[complex, np.ndarray]:
    """Tell a multiple pole from two roots polished onto one simple pole.

    ``root`` reached the eigenvector of an earlier root.  It is refined again
    from the start vector with span(basis) projected out: at a multiple pole
    that reaches an independent eigenvector of the same pole, which is then
    accepted.  Anything else (the old direction again, or a different pole)
    means the fit lost a pole, and raises ConditioningFailure.
    """
    start = _start_vector(len(basis))
    start = start - basis @ (basis.conj().T @ start)
    again, v = _find_pole(system, root, 1e-10, start)
    basis, new = _extend(basis, v)
    if new and abs(again - pole) <= _IDENTIFY_TOL * np.linalg.norm(system.reduced()):
        return again, basis
    raise ConditioningFailure(
        f"det-interp root {2j * root} polishes onto the eigenvector of an "
        f"earlier root (pole {2j * pole}); the fit is unreliable here and a "
        "pole is missing"
    )


_RADIUS_FACTOR = 1.5     # first sampling radius, times S: encloses every pole
_OVERSAMPLE = 4          # circle nodes per polynomial coefficient
_FIT_TOL = 1e-6          # relative residual of an accepted circle fit


def _circle_fit(system: _EomSystem, radius: float) -> tuple[np.ndarray, float]:
    """Fit det(A) / det(A(iR)) by a degree-N polynomial on |Delta| = R;
    returns the coefficients and the relative fit residual."""
    n = system.n_poles
    m = max(_OVERSAMPLE * (n + 1), 16)
    nodes = radius * np.exp(2j * np.pi * np.arange(m) / m)
    ref_phase, ref_log = np.linalg.slogdet(system.matrix(1j * radius))
    values = np.empty(m, dtype=complex)
    for k in range(m):
        phase, logabs = np.linalg.slogdet(system.matrix(nodes[k]))
        values[k] = phase / ref_phase * np.exp(logabs - ref_log)
    # roots-of-unity least squares == truncated inverse DFT
    coeffs = np.fft.fft(values)[: n + 1] / m
    fitted = np.polynomial.polynomial.polyval(nodes / radius, coeffs)
    return coeffs, float(np.abs(fitted - values).max() / np.abs(values).max())


def all_poles_det_interp(spec: NetworkSpec) -> PoleSearchResult:
    """All N poles from the degree-N determinant polynomial.

    Samples det(A) on scaled roots of unity of radius 1.5 S, S = sum_n N_n
    gamma_n (enclosing every pole), recovers the polynomial by least squares
    on the circle, and takes companion-matrix roots, capturing
    multiplicities.  A second pass on a circle just enclosing the first-pass
    roots keeps the low-order coefficients above the determinant noise
    floor.  Every root is then refined by :func:`find_pole` on its own, and
    each refined eigenvector of the N x N matrix H must add a new direction
    to those of the roots before it: two roots on one eigenvector are kept
    only at a multiple pole, where a second, independent eigenvector exists;
    otherwise the fit has lost a pole (this happens in clustered near-dark
    spectra, where the lost pole can leave the sum unchanged) and
    ConditioningFailure is raised.

    The determinant's dynamic range limits this route: once the product of
    |pole|/R factors falls below roughly 1e-16 the small-modulus poles are
    unrecoverable.  A fit residual above 1e-6, a root that cannot be
    polished, a broken trace rule or a failed singularity check raises
    ConditioningFailure (the eigensolve route is then needed).
    """
    system = _EomSystem(spec)
    n = system.n_poles
    scale = spec.rate_sum
    radius = _RADIUS_FACTOR * scale

    coeffs, resid = _circle_fit(system, radius)
    if resid > _FIT_TOL:
        raise ConditioningFailure(
            f"polynomial fit residual {resid:.3e} exceeds {_FIT_TOL:g} on the "
            f"sampling circle R = {radius:.3g}"
        )
    roots = radius * np.polynomial.polynomial.polyroots(coeffs)
    r2 = min(max(1.3 * float(np.abs(roots).max()), 0.02 * scale), radius)
    if r2 < 0.95 * radius:
        coeffs2, resid2 = _circle_fit(system, r2)
        if resid2 <= _FIT_TOL:
            roots = r2 * np.polynomial.polynomial.polyroots(coeffs2)

    polished = []
    basis = np.zeros((n, 0), dtype=complex)
    for root in roots:
        try:
            pole, v = _find_pole(system, root, 1e-10)
            basis, new = _extend(basis, v)
            if not new:
                pole, basis = _second_eigenvector(system, root, pole, basis)
        except MaxIterationsError as exc:
            raise ConditioningFailure(
                f"det-interp root {2j * root} could not be polished onto a "
                f"pole; the fit is unreliable at this size ({exc})"
            ) from exc
        polished.append(pole)
    return _finish(system, 2j * np.array(polished), "det-interp",
                   roots[_re_im_order(roots)], ConditioningFailure)


def nullity_at(spec: NetworkSpec, delta: complex, rank_tol: float = 1e-8) -> NullSpaceResult:
    """Null-space dimension of A(Delta) and the excitation parts of its basis.

    Bound states live at Delta = 0 when theta is a multiple of pi; their
    count is prod_n (N_n - 1).  The returned basis columns are the
    e-components of the full null vectors (not renormalized), which is what
    the bound-state sign-sum condition constrains.
    """
    system = _EomSystem(spec)
    a = system.matrix(delta)
    _, svals, vh = np.linalg.svd(a)
    null_mask = svals < rank_tol * svals[0]
    nullity = int(null_mask.sum())
    basis = vh[len(svals) - nullity:].conj().T[: system.n_poles, :] if nullity else \
        np.zeros((system.n_poles, 0))
    return NullSpaceResult(
        nullity=nullity,
        e_basis=basis,
        singular_values=svals,
        rank_tol=float(rank_tol),
    )
