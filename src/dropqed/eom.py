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
* :func:`all_poles_cnm` - seeded local searches that minimize the smallest
  singular value of A(Delta) (the condition-number method's objective with
  a cleaner zero); handles per-qubit noisy rates and refines external
  estimates.
* :func:`all_poles_det_interp` - fit the degree-N determinant polynomial on
  a sampling circle and take companion-matrix roots.  Limited by the
  determinant's dynamic range; reliable for small networks only and raises
  :class:`~dropqed.errors.ConditioningFailure` when its own checks fail.

Every reported pole passes the singularity check sigma_min(A) <= 1e-9
||A||_F on the full system.  A has about three nonzeros per row, so
sigma_min comes from one sparse LU of A and Lanczos on (A^H A)^{-1}; the
value reported is ||A v|| / ||v|| for the computed singular vector v, a
certified upper bound on the true sigma_min, so no check passes that an
exact SVD would fail.  At N = 216 (6x6x6) one call of :func:`sigma_min`
takes 0.06 s, against 2.19 s with the dense SVD it replaced (one BLAS
thread, 2-core Xeon VM).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.optimize import minimize
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .drop import Spectrum, drop_spectrum
from .errors import ConditioningFailure, ConfigError, MaxIterationsError
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
    """A(Delta) = A0 - Delta * E assembled once; E selects excitation rows."""

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

        # A0 as (row, col, value) triplets: the dense copy serves the Schur
        # step and the determinant routes, the sparse one sigma_min
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

        rows, cols, vals = zip(*entries)
        a0 = sp.coo_matrix((np.array(vals, dtype=complex), (rows, cols)), shape=(size, size))
        self.a0 = a0.toarray()
        # built eagerly: all_poles_cnm shares one system across threads
        self._a0_sparse = a0.tocsc()
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
        self._a0_sq: Optional[float] = None

    def matrix(self, delta: complex) -> np.ndarray:
        a = self.a0.copy()
        a[self._e_rows, np.arange(self.n_poles)] -= delta
        return a

    def reduced(self) -> np.ndarray:
        """N x N matrix whose eigenvalues are the poles (Schur complement).

        Bulk rows give w = -B_w^{-1} B_e e, so the excitation rows become
        (C_e - C_w B_w^{-1} B_e) e = Delta e.  B_w is triangular up to row
        ordering and always invertible.
        """
        if self._reduced is None:
            nb, nq = self._n_bulk, self.n_poles
            b_e, b_w = self.a0[:nb, :nq], self.a0[:nb, nq:]
            c_e, c_w = self.a0[nb:, :nq], self.a0[nb:, nq:]
            x = sla.solve(b_w, b_e)
            self._reduced = c_e - c_w @ x
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
        a = self._a0_sparse - delta * self._e_sparse
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

    def sigma_min_reduced(self, delta: complex) -> float:
        h = self.reduced() - delta * np.eye(self.n_poles)
        return float(np.linalg.svd(h, compute_uv=False)[-1])

    def frobenius(self, delta: complex) -> float:
        # the Delta-bearing slots hold exactly -Delta (A0 is zero there)
        if self._a0_sq is None:
            self._a0_sq = float(np.linalg.norm(self.a0) ** 2)
        return float(np.sqrt(self._a0_sq + self.n_poles * abs(delta) ** 2))


def _sorted_complex(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=complex)
    order = np.lexsort((values.imag, values.real))
    return values[order]


def _n_workers() -> int:
    raw = os.environ.get("DROPQED_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"DROPQED_THREADS must be a positive integer, got {raw!r}")
    return workers


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
    largest singular value, so this is the canonical search objective.
    """
    return _EomSystem(spec).sigma_min(delta)


def _objective(system: _EomSystem, name: str) -> Callable[[np.ndarray], float]:
    if name == "auto":
        return lambda xy: system.sigma_min_reduced(complex(xy[0], xy[1]))
    if name == "sigma-min":
        return lambda xy: system.sigma_min(complex(xy[0], xy[1]))
    if name == "eig":
        def smallest_eig(xy: np.ndarray) -> float:
            a = system.matrix(complex(xy[0], xy[1]))
            return float(np.abs(np.linalg.eigvals(a)).min())
        return smallest_eig
    raise ValueError(f"unknown objective {name!r}")


def _find_pole(system: _EomSystem, seed: complex, tol: float, step: Optional[float],
               maxfev: int, objective: str) -> complex:
    seed = complex(seed)
    if not (np.isfinite(seed.real) and np.isfinite(seed.imag)):
        raise ValueError("seed must be finite")
    norm_a = system.frobenius(seed)
    if system.sigma_min(seed) <= tol * norm_a:
        return seed
    if step is None:
        # small relative to typical pole spacing; the simplex expands on its
        # own when the seed is far, but an oversized start hops basins
        step = 0.01 * sum(system.spec.gammas)
    fun = _objective(system, objective)
    x0 = np.array([seed.real, seed.imag])
    simplex = np.array([x0, x0 + [step, 0.0], x0 + [0.0, step]])
    res = minimize(
        fun,
        x0,
        method="Nelder-Mead",
        options=dict(initial_simplex=simplex, xatol=1e-12, fatol=np.inf,
                     maxfev=maxfev, maxiter=maxfev),
    )
    pole = complex(res.x[0], res.x[1])
    if system.sigma_min(pole) > tol * system.frobenius(pole):
        raise MaxIterationsError(
            f"pole search from seed {seed} did not reach sigma_min <= "
            f"{tol:g}*||A|| within {res.nfev} evaluations"
        )
    return pole


def find_pole(spec: NetworkSpec, seed: complex, tol: float = 1e-10,
              step: Optional[float] = None, maxfev: int = 10000,
              objective: str = "auto") -> complex:
    """Refine one pole of A(Delta) from a seed by simplex descent.

    Runs derivative-free Nelder-Mead on the singularity objective over
    (Re Delta, Im Delta) until the simplex collapses below 1e-12, then
    verifies sigma_min(A) <= tol * ||A||_F on the full matrix, with the
    certified upper bound of :func:`sigma_min` (sparse LU plus Lanczos).
    A seed already satisfying the criterion is returned unchanged.

    ``objective`` selects the quantity minimized during the search:
    ``"auto"`` (smallest singular value of the N x N reduced pencil, shares
    the full system's singular points, much cheaper), ``"sigma-min"``
    (smallest singular value of the full matrix), or ``"eig"`` (smallest
    eigenvalue modulus, the literature's eigenvalue method; slow).
    Convergence is always judged on the full matrix.

    Raises MaxIterationsError when the evaluation budget is exhausted
    without meeting the criterion (usually a bad seed).
    """
    return _find_pole(_EomSystem(spec), seed, tol, step, maxfev, objective)


def _dedup(values: Sequence[complex], tol: float) -> list[complex]:
    unique: list[complex] = []
    for v in sorted(values, key=lambda w: (w.real, w.imag)):
        if not any(abs(v - u) <= tol for u in unique):
            unique.append(v)
    return unique


def _grid_seeds(system: _EomSystem, side: int = 20) -> np.ndarray:
    s = system.spec.rate_sum
    re = np.linspace(0.0, 1.2 * s, side)
    im = np.linspace(-s, s, side)
    gammas = (re[:, None] + 1j * im[None, :]).ravel()
    return gammas / 2j


def _validated_residuals(system: _EomSystem, gammas: np.ndarray,
                         sample: Optional[int], invariant_tol: float = 1e-9) -> np.ndarray:
    """sigma_min/||A|| at (all or sampled) poles; raises if the check fails."""
    res = np.full(len(gammas), np.nan)
    if sample is None or sample >= len(gammas):
        idx = np.arange(len(gammas))
    else:
        idx = np.unique(np.linspace(0, len(gammas) - 1, sample).astype(int))
    for k in idx:
        delta = gammas[k] / 2j
        res[k] = system.sigma_min(delta) / system.frobenius(delta)
        if res[k] > invariant_tol:
            raise ConditioningFailure(
                f"reported pole {gammas[k]} fails the singularity check: "
                f"sigma_min/||A|| = {res[k]:.3e} > {invariant_tol:g}"
            )
    return res


def all_poles_eig(spec: NetworkSpec, validate: str = "sample") -> PoleSearchResult:
    """All N poles via Schur-complement reduction and a dense eigensolve.

    Needs no seeds, resolves multiplicities exactly, and is robust in the
    clustered near-resonant regime.  ``validate`` controls how many of the
    returned poles get the full-matrix singularity check: "sample" (six),
    "all", or "none".
    """
    samples = {"sample": 6, "all": None, "none": 0}
    if validate not in samples:
        raise ValueError(
            f"validate must be 'sample', 'all' or 'none', got {validate!r}")
    system = _EomSystem(spec)
    gammas = _sorted_complex(2j * np.linalg.eigvals(system.reduced()))
    sample = samples[validate]
    if sample == 0:
        residuals = np.full(len(gammas), np.nan)
    else:
        residuals = _validated_residuals(system, gammas, sample)
    return PoleSearchResult(
        poles=Spectrum(rates=gammas, method="eigen"),
        seeds_used=(),
        residuals=residuals,
        method="eigen",
    )


def all_poles_cnm(spec: NetworkSpec, seeds: Optional[Sequence[complex]] = None,
                  tol: float = 1e-10, step: Optional[float] = None,
                  maxfev: int = 10000) -> PoleSearchResult:
    """All N poles by seeded singularity searches (condition-number method).

    Seeds default to the Cartesian-sum estimates (qubit-averaged rates when
    a noise field is present), expressed in the Delta plane.  Every seed is
    refined independently; when N seeds are given, each contributes one pole
    so exact multiplicities carry over.  Missing poles (failed searches or
    short seed lists) are re-sought from a 20x20 grid over the physical
    rectangle [0, 1.2*S] x [-S, S] in the Gamma plane, S = sum_n N_n g_n.
    Completeness is enforced by the pole count and the trace rule; a run
    that cannot account for all N poles raises MaxIterationsError.
    """
    system = _EomSystem(spec)
    n = system.n_poles
    scale = spec.rate_sum
    dedup_tol = 1e-7 * scale
    if seeds is None:
        seeds = tuple(drop_spectrum(spec).rates / 2j)
    else:
        seeds = tuple(complex(s) for s in seeds)

    def search(sd: complex) -> Optional[complex]:
        try:
            return _find_pole(system, sd, tol, step, maxfev, "auto")
        except MaxIterationsError:
            return None

    workers = _n_workers()
    if workers > 1 and len(seeds) > 1:
        with ThreadPoolExecutor(workers) as pool:
            found = list(pool.map(search, seeds))
    else:
        found = [search(sd) for sd in seeds]

    converged = [p for p in found if p is not None]
    unique = _dedup([2j * p for p in converged], dedup_tol)

    complete = len(seeds) == n and len(converged) == n
    if not complete:
        # grid rescue: visit candidate seeds in ascending objective order
        grid = _grid_seeds(system)
        order = np.argsort([system.sigma_min_reduced(d) for d in grid])
        budget = 4 * n
        for k in order[:budget]:
            if len(unique) >= n:
                break
            delta = complex(grid[k])
            if any(abs(2j * delta - u) <= 10 * dedup_tol for u in unique):
                continue
            p = search(delta)
            if p is not None:
                g = 2j * p
                if not any(abs(g - u) <= dedup_tol for u in unique):
                    unique.append(g)

    if complete:
        # one pole per seed, snapped to its dedup representative
        gammas = []
        for p in converged:
            g = 2j * p
            reps = [u for u in unique if abs(g - u) <= dedup_tol]
            gammas.append(reps[0] if reps else g)
        gammas = np.array(gammas)
    else:
        if len(unique) < n:
            raise MaxIterationsError(
                f"condition-number search located {len(unique)} of {n} poles; "
                "re-seed or use all_poles_eig"
            )
        gammas = np.array(unique[:n])

    expected = system.pole_sum()
    if abs(gammas.sum() - expected) > 1e-6 * max(1.0, n * scale):
        raise MaxIterationsError(
            f"pole multiset violates the trace rule: sum {gammas.sum():.6g} "
            f"vs expected {expected:.6g}; duplicates or missed poles likely"
        )
    gammas = _sorted_complex(gammas)
    residuals = _validated_residuals(system, gammas, None)
    return PoleSearchResult(
        poles=Spectrum(rates=gammas, method="cnm"),
        seeds_used=seeds,
        residuals=residuals,
        method="cnm",
    )


def _circle_fit(system: _EomSystem, radius: float, oversample: int):
    """Fit det(A) / det(A(iR)) by a degree-N polynomial on |Delta| = R."""
    n = system.n_poles
    m = max(oversample * (n + 1), 16)
    nodes = radius * np.exp(2j * np.pi * np.arange(m) / m)
    ref_phase, ref_log = np.linalg.slogdet(system.matrix(1j * radius))
    values = np.empty(m, dtype=complex)
    for k in range(m):
        phase, logabs = np.linalg.slogdet(system.matrix(nodes[k]))
        values[k] = phase / ref_phase * np.exp(logabs - ref_log)
    # roots-of-unity least squares == truncated inverse DFT
    coeffs = np.fft.fft(values)[: n + 1] / m
    fitted = np.polynomial.polynomial.polyval(nodes / radius, coeffs)
    resid = float(np.abs(fitted - values).max() / np.abs(values).max())
    floor = 32 * np.finfo(float).eps * np.abs(values).max() / np.sqrt(m)
    return coeffs, resid, floor


def all_poles_det_interp(spec: NetworkSpec, radius_factor: float = 1.5,
                         oversample: int = 4, adapt: bool = True,
                         polish: bool = True, fit_tol: float = 1e-6) -> PoleSearchResult:
    """All N poles from the degree-N determinant polynomial.

    Samples det(A) on scaled roots of unity of radius
    ``radius_factor * sum_n N_n gamma_n`` (enclosing every pole), recovers
    the polynomial by least squares on the circle, and takes companion-matrix
    roots, capturing multiplicities.  With ``adapt`` a second pass shrinks
    the circle to just enclose the first-pass roots, which extends the range
    over which the low-order coefficients stay above the determinant noise
    floor.  With ``polish`` each root is refined by :func:`find_pole`.

    The determinant's dynamic range limits this route: once the product of
    |pole|/R factors falls below roughly 1e-16 the small-modulus poles are
    unrecoverable.  All returned poles are checked against
    sigma_min <= 1e-9 ||A||, and the trace rule is enforced; violations
    raise ConditioningFailure (a radius rescale or the eigensolve route is
    then needed).
    """
    system = _EomSystem(spec)
    n = system.n_poles
    scale = spec.rate_sum
    radius = radius_factor * scale

    coeffs, resid, floor = _circle_fit(system, radius, oversample)
    if resid > fit_tol:
        raise ConditioningFailure(
            f"polynomial fit residual {resid:.3e} exceeds {fit_tol:g} on the "
            f"sampling circle R = {radius:.3g}; rescale the radius"
        )
    roots = radius * np.polynomial.polynomial.polyroots(coeffs)

    if adapt:
        r2 = 1.3 * float(np.abs(roots).max())
        r2 = min(max(r2, 0.02 * scale), radius)
        if r2 < 0.95 * radius:
            coeffs2, resid2, floor2 = _circle_fit(system, r2, oversample)
            if resid2 <= fit_tol:
                coeffs, resid, floor, radius = coeffs2, resid2, floor2, r2
                roots = radius * np.polynomial.polynomial.polyroots(coeffs)

    unpolished = tuple(np.sort_complex(roots))
    if polish:
        polished = []
        for root in roots:
            try:
                polished.append(_find_pole(system, complex(root), 1e-10, None, 10000, "auto"))
            except MaxIterationsError as exc:
                raise ConditioningFailure(
                    f"det-interp root {2j * root} could not be polished onto a "
                    f"pole; the fit is unreliable at this size ({exc})"
                ) from exc
        gammas = np.array([2j * p for p in polished])
    else:
        if np.abs(coeffs).min() < floor:
            raise ConditioningFailure(
                "recovered polynomial coefficients fall below the determinant "
                "noise floor; poles near the origin are unreliable "
                "(radius rescale needed)"
            )
        gammas = 2j * roots

    expected = system.pole_sum()
    if abs(gammas.sum() - expected) > 1e-6 * max(1.0, n * scale):
        raise ConditioningFailure(
            f"det-interp pole multiset violates the trace rule "
            f"({gammas.sum():.6g} vs {expected:.6g})"
        )
    gammas = _sorted_complex(gammas)
    residuals = _validated_residuals(system, gammas, None)
    return PoleSearchResult(
        poles=Spectrum(rates=gammas, method="det-interp"),
        seeds_used=unpolished,
        residuals=residuals,
        method="det-interp",
    )


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
