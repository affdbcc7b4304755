"""Independent closed-form oracles and comparison helpers for the tests.

The chain and small-lattice rate formulas here are transcribed directly
from the closed-form results they validate against and are kept free of
any library code paths they are used to check.

``plain_eig`` is the library's earlier eigensolve of H, one dense eig of
all of it, the reference for the reflection-parity sectors.

``det_at`` and ``logdet_at`` take the determinant of the library's dense
assembled system; the tests check its degree and its zeros.

``splu_certificates`` and ``loop_noise`` are the library's earlier pole
certificate (field amplitudes by a sparse LU of the field block) and noise
draw (one SeedSequence, Philox and Generator per stream), the references
for the prefix-sum certificate and the vectorized stream keys.

``loop_bic_report`` is the bound-state check as one loop over (line, rule),
the largest |signed line sum| over unit null vectors as the norm of the
rule's weights against the line's rows of the null basis, the reference
for the per-axis contraction of ``analysis.bic_condition_check``.

``gather_hamiltonian`` and ``loop_classify`` are the library's earlier
build of H (per axis, the whole kernel scaled by every rate product and
added through one fancy-index gather) and superradiance classification
(one Python pass over the rates, a list per cluster), the bit-for-bit
references for the in-place line blocks and the vectorized labels.

``loop_render`` is the library's earlier SVG writer, one Python pass over
the rates with ``float()`` per coordinate, the byte-for-byte reference
for the whole-spectrum glyph coordinates of ``render.render_scatter``.

``cartesian_min_rate`` is the library's earlier subradiance minimum, the
smallest real part over the whole Cartesian sum with the dark sums masked
out at resonance, the bit-for-bit reference for the per-axis minimum of
``analysis.subradiance_scaling``.

``reference_emit`` is the CLI document writer the library used before its
fixed-template emitter: ``json.dumps(indent=2)`` over one dict per rate, and
``csv.writer``.  It is the byte-for-byte reference for ``cli._emit``.
"""

import csv
import io
import itertools
import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment

from dropqed import analysis, assemble, drop_spectrum, eom, lattice
from dropqed.render import _HEIGHT, _K_PALETTE, _SERIES_PALETTE, _WIDTH, _fmt


def multiset_max_err(a, b) -> float:
    """Max pairwise distance under the optimal assignment of two multisets."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.shape == b.shape
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if len(a) else 0.0


def dense_sigma_min(a) -> float:
    """Smallest singular value of a dense matrix by a full SVD."""
    return float(np.linalg.svd(np.asarray(a), compute_uv=False)[-1])


def reduced(system) -> np.ndarray:
    """N x N matrix whose eigenvalues are the poles, by the Schur complement
    of an ``eom._EomSystem``'s sparse (2d+1)N system: the reference for the
    library's direct build of H from the line kernels.

    Bulk rows give w = -B_w^{-1} B_e e, so the excitation rows become
    (C_e - C_w B_w^{-1} B_e) e = Delta e.  B_w is triangular up to row
    ordering and always invertible.
    """
    import scipy.linalg as sla

    nq = system.n_poles
    nb = system.size - nq
    a0 = system.pencil()[0]
    cols_e, cols_w = a0[:, :nq], a0[:, nq:]
    x = sla.solve(cols_w[:nb].toarray(), cols_e[:nb].toarray(),
                  overwrite_a=True, overwrite_b=True)
    return cols_e[nb:].toarray() - cols_w[nb:].toarray() @ x


def plain_eig(spec) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and unit eigenvectors of H by one dense eig of all of it."""
    return tuple(np.linalg.eig(eom._hamiltonian(spec)))


def loop_noise(spec, epsilon_max, seed) -> np.ndarray:
    """(N, d) noisy rates with one SeedSequence, Philox and Generator per
    (qubit, axis) stream: the reference for the library's vectorized keys."""
    rates = np.empty((spec.n_qubits, spec.ndim))
    for i in range(spec.n_qubits):
        for n in range(spec.ndim):
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
    return rates


def splu_certificates(system, deltas, vecs) -> np.ndarray:
    """The pole certificate of an ``eom._EomSystem`` with the field part
    of x = (e, w) from one sparse LU of the field block:
    w = -B_w^{-1} B_e e.  The reference for the library's prefix-sum fields.
    """
    from scipy.sparse.linalg import splu

    nq = system.n_poles
    nb = system.size - nq
    a0, e_sparse = system.pencil()
    lu = splu(a0[:nb, nq:])
    deltas = np.asarray(deltas, dtype=complex)
    x = np.vstack([vecs, -lu.solve(np.asarray(a0[:nb, :nq] @ vecs))])
    ax = a0 @ x - e_sparse @ x * deltas
    return (np.linalg.norm(ax, axis=0) / np.linalg.norm(x, axis=0)
            / system.frobenius(deltas))


def gather_hamiltonian(spec) -> np.ndarray:
    """H, each axis's line blocks added through one fancy-index gather."""
    rates = spec.resolved_rates()
    h = np.zeros((spec.n_qubits, spec.n_qubits), dtype=complex)
    for axis, lines in enumerate(lattice._lines(spec)):
        root = np.sqrt(rates[lines, axis])
        kernel = -0.5j * exp_kernel(lines.shape[1], spec.theta)
        h[lines[:, :, None], lines[:, None, :]] += root[:, :, None] * root[:, None, :] * kernel
    return h


def loop_classify(spec, drop_spec):
    """(k labels, cluster counts, cluster centers) of a Cartesian-sum
    spectrum, one Python pass over its rates."""
    super_index = drop_spec.index_tuples[int(np.argmax(drop_spec.rates.real))]
    k_labels = []
    clusters = {}
    for rate, tup in zip(drop_spec.rates, drop_spec.index_tuples):
        axes = tuple(n for n in range(spec.ndim) if tup[n] == super_index[n])
        k_labels.append(len(axes))
        clusters.setdefault(axes, []).append(rate)
    counts = {k: k_labels.count(k) for k in range(spec.ndim + 1)}
    centers = {axes: complex(np.mean(vals)) for axes, vals in sorted(clusters.items())}
    return tuple(k_labels), counts, centers


def loop_bic_report(spec, m: int = 1, rank_tol: float = 1e-8):
    """``analysis.bic_condition_check`` as one loop over (line, rule),
    building the rule's weights inside it."""
    null = eom.nullity_at(spec, 0.0, rank_tol=rank_tol)
    expected = int(np.prod([n - 1 for n in spec.dims]))
    rules = ("plain", "alternating", "qubit-parity", "phase-parity")
    max_violation = {rule: 0.0 for rule in rules}
    violations = []
    for axis, lines in enumerate(lattice._lines(spec)):
        for line, idx in zip(lattice.enumerate_lines(spec, axis), lines):
            for rule in rules:
                alternate = {"plain": False, "alternating": True,
                             "qubit-parity": len(idx) % 2 == 1, "phase-parity": m % 2 == 1}[rule]
                weights = np.array([(-1.0) ** j if alternate else 1.0 for j in range(len(idx))])
                # the line sum of unit null vector B c is (w^T B[idx]) c,
                # largest at c along w^T B[idx]
                s = float(np.linalg.norm(weights @ null.e_basis[idx]))
                max_violation[rule] = max(max_violation[rule], s)
                if s > 1e-8:
                    violations.append(analysis.BicViolation(rule=rule, line=line, value=s))
    return analysis.BicReport(m=m, nullity=null.nullity, expected_nullity=expected,
                              rank_tol=rank_tol, max_violation=max_violation,
                              violations=tuple(violations))


def logdet_at(spec, delta) -> tuple[complex, float]:
    """(unit-modulus phase, log|det|) of the dense assembled A(Delta) by
    pivoted LU; overflow-safe."""
    phase, logabs = np.linalg.slogdet(assemble(spec, delta))
    return complex(phase), float(logabs)


def det_at(spec, delta) -> complex:
    """Determinant of A(Delta); may overflow to inf for large systems."""
    phase, logabs = logdet_at(spec, delta)
    with np.errstate(over="ignore"):
        return phase * np.exp(logabs)


def exp_kernel(n: int, theta: float) -> np.ndarray:
    """The chain kernel ``exp(i theta |j - k|)`` by one complex exponential
    per entry: the reference for the kernel ``eom._hamiltonian`` reads from
    N phases."""
    j = np.arange(n)
    return np.exp(1j * theta * np.abs(j[:, None] - j[None, :]))


def dense_chain_rates(n: int, theta: float) -> np.ndarray:
    """Chain rates by one dense eigensolve of the full N x N kernel: the
    reference for the library's centrosymmetric split."""
    return np.linalg.eigvals(exp_kernel(n, theta))


def chain2_rates(theta: float) -> np.ndarray:
    """Two-qubit chain: z = 1 -/+ exp(i theta)."""
    e = np.exp(1j * theta)
    return np.array([1 - e, 1 + e])


def chain3_rates(theta: float) -> np.ndarray:
    """Three-qubit chain closed forms."""
    e1, e2 = np.exp(1j * theta), np.exp(2j * theta)
    root = np.sqrt(8 + e2)
    return np.array([
        0.5 * (2 + e2 + e1 * root),
        0.5 * (2 + e2 - e1 * root),
        1 - e2,
    ])


def transfer_matrix(chi: complex, theta: float) -> np.ndarray:
    """2x2 map of (t, r) field amplitudes across one qubit plus one cell,
    with chi = gamma / (2 Delta); its determinant is exactly 1."""
    chi = complex(chi)
    if not (np.isfinite(chi.real) and np.isfinite(chi.imag) and np.isfinite(theta)):
        raise ValueError("transfer_matrix requires finite chi and theta")
    em, ep = np.exp(-1j * theta), np.exp(1j * theta)
    return np.array([
        [(1 + 1j * chi) * em, 1j * chi * ep],
        [-1j * chi * em, (1 - 1j * chi) * ep],
    ])


def char_poly(n: int, theta: float) -> np.ndarray:
    """Coefficients c_0..c_N (ascending in chi) of (S^N)_11: the transfer
    matrix raised to the N-th power with its entries kept as chi
    polynomials.  The leading coefficient vanishes at theta = m*pi, where
    the missing chi-roots sit at infinity (exact zero rates)."""
    if n < 1:
        raise ValueError("need n >= 1")
    em, ep = np.exp(-1j * theta), np.exp(1j * theta)
    s = [[np.array([em, 1j * em]), np.array([0j, 1j * ep])],
         [np.array([0j, -1j * em]), np.array([ep, -1j * ep])]]
    p = s
    for _ in range(n - 1):
        p = [[np.convolve(p[i][0], s[0][j]) + np.convolve(p[i][1], s[1][j])
              for j in range(2)] for i in range(2)]
    return p[0][0]


def companion_rates(n: int, theta: float) -> np.ndarray:
    """Chain rates z = i / chi from the roots of :func:`char_poly`, by a
    scale-equilibrated companion eigensolve.  Coefficient round-off limits
    this route to small N (it loses the subradiant cluster already around
    N = 10 near theta = pi)."""
    c = char_poly(n, theta)
    # exact-zero leading coefficients (analytic zeros at theta = m*pi, or
    # underflow of (2 sin theta)^(N-1)) map to chi -> inf, i.e. z = 0
    deg = len(c) - 1
    while deg > 0 and c[deg] == 0:
        deg -= 1
    if deg == 0:
        return np.zeros(n, dtype=complex)
    cc = c[: deg + 1]
    # equilibrate chi = scale * w so the end coefficients have equal magnitude
    scale = (abs(cc[0]) / abs(cc[deg])) ** (1.0 / deg)
    chi = scale * np.polynomial.polynomial.polyroots(cc * scale ** np.arange(deg + 1))
    if np.any(np.abs(chi) < 1e-14):
        raise ArithmeticError("chi-root at 0; the constant coefficient has unit modulus")
    return np.concatenate([1j / chi, np.zeros(n - deg, dtype=complex)])


def lambda_residual(n: int, theta: float, z: complex) -> float:
    """Residual of the two-equation Bloch-phase pole system at candidate z.

    lam = arccos(cos theta + chi sin theta) with chi = i / z, and
    (Delta + i/2) sin(N lam) = sin((N-1) lam) Delta e^(i theta) with
    Delta = z / 2i (gamma = 1); both follow from expanding (S^N)_11 in
    Chebyshev polynomials of cos lam.  The defect is normalized by the
    larger side (floored at 1) and minimized over lam -> -lam, 2 pi - lam,
    so true poles give round-off and non-poles order-one values.
    """
    z = complex(z)
    if z == 0:
        raise ValueError("z = 0 is not a valid pole candidate for the phase system")
    delta = z / 2j
    lam0 = np.arccos(complex(np.cos(theta) + 1j / z * np.sin(theta)))
    best = np.inf
    for lam in (lam0, -lam0, 2 * np.pi - lam0):
        lhs = (delta + 0.5j) * np.sin(n * lam)
        rhs = np.sin((n - 1) * lam) * delta * np.exp(1j * theta)
        best = min(best, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1.0))
    return float(best)


def lattice_2x2_rates(g1: float, g2: float, theta: float) -> np.ndarray:
    """All four rates of the 2 x 2 network: every sign combination of
    g1 (1 -/+ e^{i theta}) + g2 (1 -/+ e^{i theta})."""
    e = np.exp(1j * theta)
    return np.array([
        g1 * (1 + s1 * e) + g2 * (1 + s2 * e)
        for s1 in (-1, +1)
        for s2 in (-1, +1)
    ])


def lattice_3x3_rates(g1: float, g2: float, theta: float) -> np.ndarray:
    """All nine rates of the 3 x 3 network: z_a * g1 + z_b * g2 over the
    three-qubit chain rates."""
    z = chain3_rates(theta)
    return np.array([za * g1 + zb * g2 for za in z for zb in z])


def cartesian_min_rate(d: int, m: int, theta: float) -> float:
    """The smallest real part of the Cartesian sum of [m]*d unit-rate
    chains, with the dark sums left out at theta = m*pi (within 8 ulps)."""
    spec = lattice.NetworkSpec(dims=(m,) * d, gammas=(1.0,) * d, theta=theta)
    rates = drop_spectrum(spec).rates.real
    if abs(math.remainder(theta, math.pi)) <= 8 * np.finfo(float).eps * max(1.0, abs(theta)):
        # each axis's top rate is the last of its chain's (Re, Im) order,
        # so the dark sums fill the leading (m - 1)^d block
        lit = np.ones((m,) * d, dtype=bool)
        lit[(slice(0, m - 1),) * d] = False
        rates = rates[lit.ravel()]
    return float(rates.min())


def cartesian_rate_multiset(per_axis_rates, gammas) -> np.ndarray:
    """Brute-force enumeration of all Cartesian sums (independent of the
    library's broadcasting construction)."""
    import itertools

    out = []
    for combo in itertools.product(*per_axis_rates):
        out.append(sum(g * z for g, z in zip(gammas, combo)))
    return np.array(out)


def _sig12(x):
    """Round to 12 significant digits, passing None and non-finite values."""
    if x is None or not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def _reference_rows(s, k_labels):
    rows = []
    rates = np.asarray(s.rates, dtype=complex)
    tuples = s.index_tuples
    for i in np.lexsort((rates.imag, rates.real)):
        rows.append({
            "re": _sig12(float(rates[i].real)),
            "im": _sig12(float(rates[i].imag)),
            "tuple": list(tuples[i]) if tuples is not None else None,
            "k": int(k_labels[i]) if k_labels is not None else None,
        })
    return rows


def reference_emit(config, spectra, report) -> str:
    """The CLI document for ``config`` (its ``as_dict()`` and
    ``out_format``), ``spectra`` as (spectrum, k labels or None) pairs and
    ``report``, written by the json and csv modules."""
    if config.out_format == "json":
        doc = {
            "config": config.as_dict(),
            "spectra": [{"method": s.method, "rates": _reference_rows(s, k)}
                        for s, k in spectra],
            "report": report,
        }
        return json.dumps(doc, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["method", "re", "im", "tuple", "k"])
    for s, k in spectra:
        for row in _reference_rows(s, k):
            tup = " ".join(str(v) for v in row["tuple"]) if row["tuple"] else ""
            writer.writerow([s.method, f"{row['re']:.12g}", f"{row['im']:.12g}",
                             tup, "" if row["k"] is None else row["k"]])
    return buf.getvalue()


def _loop_bounds(spectra):
    xs = [float(r.real) for s in spectra for r in s.rates]
    ys = [float(r.imag) for s in spectra for r in s.rates]
    if not xs:
        return -1.0, 1.0, -1.0, 1.0
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    dx = (x1 - x0) or max(abs(x0), 1.0)
    dy = (y1 - y0) or max(abs(y0), 1.0)
    return x0 - 0.06 * dx, x1 + 0.06 * dx, y0 - 0.06 * dy, y1 + 0.06 * dy


def loop_render(spectra, report=None) -> str:
    """``render.render_scatter`` as one Python pass over the rates, each
    rate's coordinates through ``float()`` and the scalar maps sx, sy."""
    if len(spectra) == 0:
        raise ValueError("need at least one spectrum")
    left, right, top, bottom = 64.0, _WIDTH - 24.0, 28.0, _HEIGHT - 52.0
    x0, x1, y0, y1 = _loop_bounds(spectra)

    def sx(x: float) -> float:
        return left + (x - x0) / (x1 - x0) * (right - left)

    def sy(y: float) -> float:
        return bottom - (y - y0) / (y1 - y0) * (bottom - top)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    out.append(
        f'<rect x="{_fmt(left)}" y="{_fmt(top)}" width="{_fmt(right - left)}" '
        f'height="{_fmt(bottom - top)}" fill="none" stroke="#444444" stroke-width="1"/>'
    )
    # ticks
    for i in range(5):
        fx = x0 + (x1 - x0) * i / 4
        px = sx(fx)
        out.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(bottom)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(bottom + 5)}" stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(px)}" y="{_fmt(bottom + 18)}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{_fmt(fx)}</text>'
        )
        fy = y0 + (y1 - y0) * i / 4
        py = sy(fy)
        out.append(
            f'<line x1="{_fmt(left - 5)}" y1="{_fmt(py)}" x2="{_fmt(left)}" '
            f'y2="{_fmt(py)}" stroke="#444444" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(left - 8)}" y="{_fmt(py + 4)}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{_fmt(fy)}</text>'
        )
    out.append(
        f'<text x="{_fmt((left + right) / 2)}" y="{_fmt(_HEIGHT - 12.0)}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">Re &#915;</text>'
    )
    out.append(
        f'<text x="14" y="{_fmt((top + bottom) / 2)}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 14 {_fmt((top + bottom) / 2)})">Im &#915;</text>'
    )

    k_colored = None
    if report is not None:
        for s in spectra:
            if s.index_tuples is not None and len(report.k_labels) == len(s):
                k_colored = s
                break

    for si, s in enumerate(spectra):
        color = _SERIES_PALETTE[si % len(_SERIES_PALETTE)]
        for ri, rate in enumerate(s.rates):
            px, py = sx(float(rate.real)), sy(float(rate.imag))
            if s.method == "drop" or s.index_tuples is not None:
                c = color
                if s is k_colored:
                    c = _K_PALETTE[report.k_labels[ri] % len(_K_PALETTE)]
                out.append(
                    f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="none" '
                    f'stroke="{c}" stroke-width="1.5"/>'
                )
            else:
                out.append(
                    f'<path d="M {_fmt(px - 4)} {_fmt(py - 4)} L {_fmt(px + 4)} {_fmt(py + 4)} '
                    f'M {_fmt(px - 4)} {_fmt(py + 4)} L {_fmt(px + 4)} {_fmt(py - 4)}" '
                    f'stroke="{color}" stroke-width="1.5" fill="none"/>'
                )
        out.append(
            f'<text x="{_fmt(right - 6)}" y="{_fmt(top + 16 + 14 * si)}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif" fill="{color}">{s.method}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
