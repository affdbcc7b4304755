import itertools
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

from dropqed import (
    ConditioningFailure,
    ConfigError,
    MaxIterationsError,
    NetworkSpec,
    all_poles_cnm,
    all_poles_det_interp,
    all_poles_eig,
    assemble,
    chain_rates,
    drop_spectrum,
    find_pole,
    noise_study,
    nullity_at,
    sample_noise,
    sigma_min,
)
from dropqed import analysis, chain1d, cli, drop, eom, lattice
from dropqed.chain1d import _re_im_order
from oracles import (dense_sigma_min, det_at, gather_hamiltonian, logdet_at, multiset_max_err,
                     plain_eig, reduced, splu_certificates)


def spec_of(dims, gammas=None, theta=0.5 * np.pi):
    gammas = gammas or (1.0,) * len(dims)
    return NetworkSpec(dims=tuple(dims), gammas=tuple(gammas), theta=theta)


# ---------------------------------------------------------------- assembly

def _layout_pattern(spec):
    """Where A(Delta) may be nonzero, from the layout arithmetic of
    ``_EomSystem.entries``: rows are the right-mover, then the left-mover,
    then the N excitation relations; columns are e in qubit order, then per
    axis and line (in enumerate_lines order) t_2..t_{M+1} and r_1..r_M."""
    n, d = spec.n_qubits, spec.ndim
    want = np.zeros(((2 * d + 1) * n,) * 2, dtype=bool)
    want[2 * d * n + np.arange(n), np.arange(n)] = True     # -Delta e
    for axis, m in enumerate(spec.dims):
        for k, line in enumerate(lattice.enumerate_lines(spec, axis)):
            first = n * (1 + 2 * axis) + 2 * m * k
            for j in range(m):
                coords = [c - 1 for c in line.transverse]
                q = np.ravel_multi_index(coords[:axis] + [j] + coords[axis:], spec.dims)
                right, left = axis * n + k * m + j, (d + axis) * n + k * m + j
                t_next, r_here = first + j, first + m + j
                want[right, [q, t_next]] = True
                want[left, [q, r_here]] = True
                want[2 * d * n + q, r_here] = True
                if j:
                    want[right, t_next - 1] = True
                    want[left - 1, r_here] = True
                    want[2 * d * n + q, t_next - 1] = True
    return want


@pytest.mark.parametrize("dims, size", [
    ([1], 3),
    ([2, 2], 20),
    ([5, 3, 4], 420),
])
def test_system_size(dims, size):
    spec = spec_of(dims)
    a = assemble(spec, delta=0.1 + 0.2j)
    assert a.shape == (size, size) and a.dtype == complex
    assert np.array_equal(a != 0, _layout_pattern(spec))


def test_single_qubit_matrix_entries():
    theta, gamma = 0.7, 1.3
    delta = 0.2 - 0.4j
    a = assemble(spec_of([1], [gamma], theta), delta)
    q = np.sqrt(gamma / 2)
    # columns e, t_2, r_1; rows right mover, left mover, excitation
    col_e, col_t, col_r = 0, 1, 2
    expected = np.zeros((3, 3), complex)
    expected[0, col_t] = np.exp(-1j * theta)
    expected[0, col_e] = 1j * q
    expected[1, col_r] = -1.0
    expected[1, col_e] = -1j * q
    expected[2, col_r] = q
    expected[2, col_e] = -delta
    assert np.array_equal(a != 0, expected != 0)
    assert np.allclose(a, expected, atol=1e-15)


def test_delta_enters_linearly_on_excitation_rows():
    spec = spec_of([2, 3])
    a0 = assemble(spec, 0.0)
    a1 = assemble(spec, 1.0)
    diff = a1 - a0
    assert np.count_nonzero(diff) == spec.n_qubits
    assert np.allclose(diff[diff != 0], -1.0)


@pytest.mark.parametrize("dims", [[2, 3], [2, 2, 3]])
def test_each_line_takes_consecutive_columns(dims):
    # the N excitation columns in qubit order, then per axis and line, in
    # enumerate_lines order, t_2..t_{M+1} and r_1..r_M
    spec = spec_of(dims, [1.0 + axis for axis in range(len(dims))], theta=0.3 * np.pi)
    assert np.array_equal(assemble(spec, 0.1) != 0, _layout_pattern(spec))


@pytest.mark.parametrize("case", ["5x3x4", "3x2x6-noisy"])
def test_assemble_is_the_dense_fill_of_the_entries(case):
    spec = PENCIL_CASES[case]()
    n, delta = spec.n_qubits, 0.3 - 0.7j
    size = (2 * spec.ndim + 1) * n
    want = np.zeros((size, size), dtype=complex)
    rows, cols, vals = eom._EomSystem(spec).entries()
    np.add.at(want, (rows, cols), vals)
    want[size - n + np.arange(n), np.arange(n)] -= delta
    assert np.array_equal(assemble(spec, delta), want)


def test_noise_aware_assembly():
    spec = spec_of([2, 2])
    noisy = spec.with_noise(sample_noise(spec, 0.1, seed=3))
    a_sym = assemble(spec, 0.3)
    a_noisy = assemble(noisy, 0.3)
    assert not np.allclose(a_sym, a_noisy)


# ------------------------------------------------------------- determinant

def test_single_qubit_pole_location():
    spec = spec_of([1], [1.0], theta=0.7)
    assert abs(det_at(spec, -0.5j)) < 1e-12
    assert abs(det_at(spec, 1.0)) > 1e-3


def test_logdet_matches_det():
    spec = spec_of([2, 2])
    phase, logabs = logdet_at(spec, 0.4 - 0.1j)
    assert np.isclose(phase * np.exp(logabs), det_at(spec, 0.4 - 0.1j))


def test_det_degree_equals_qubit_count():
    # det(A) is a polynomial of degree N in Delta: N+1 samples determine it,
    # and the recovered leading coefficient is nonzero
    spec = spec_of([2, 3], theta=0.3 * np.pi)
    n = spec.n_qubits
    nodes = 3.0 * np.exp(2j * np.pi * np.arange(2 * (n + 2)) / (2 * (n + 2)))
    vals = np.array([det_at(spec, d) for d in nodes])
    coeffs = np.fft.fft(vals)[: n + 3] / len(nodes)
    scale = np.abs(coeffs).max()
    assert abs(coeffs[n]) > 1e-8 * scale          # degree N present
    assert abs(coeffs[n + 1]) < 1e-10 * scale     # nothing above N
    assert abs(coeffs[n + 2]) < 1e-10 * scale


def test_log_det_landscape_dips_at_every_pole():
    # the log|det| surface over the Delta plane has a deep basin at each of
    # the N poles (landscape-style check on a 2x3x4 network)
    spec = spec_of([2, 3, 4], theta=0.65 * np.pi)
    poles = drop_spectrum(spec).rates / 2j
    ring = 0.05 * np.exp(2j * np.pi * np.arange(8) / 8)
    for delta in poles:
        center = logdet_at(spec, delta)[1]
        around = min(logdet_at(spec, delta + r)[1] for r in ring)
        assert center < around - 4.0   # several orders of magnitude deep


# --------------------------------------------------------------- sigma_min

def test_sigma_min_vanishes_at_pole():
    # theta = pi, Delta = 0 is a bound-state pole: A is exactly singular
    spec = spec_of([2, 2], theta=np.pi)
    a = assemble(spec, 0.0)
    assert sigma_min(spec, 0.0) <= 1e-10 * np.linalg.norm(a)
    assert sigma_min(spec, 0.0) >= dense_sigma_min(a) - 1e-12 * np.linalg.norm(a)


def test_sigma_min_far_from_poles():
    spec = spec_of([2, 2])
    far = 10j * spec.rate_sum
    assert sigma_min(spec, far) > 0.1


def test_sigma_min_at_drop_poles():
    spec = spec_of([2, 3], [1.0, 0.4], theta=0.65 * np.pi)
    for gamma in drop_spectrum(spec).rates:
        assert sigma_min(spec, gamma / 2j) < 1e-10 * spec.n_qubits


def _noisy_acceptance_7():
    spec = spec_of([3, 2, 6], (1.0, 3.0, 2.0), theta=0.65 * np.pi)
    return spec.with_noise(sample_noise(spec, 0.05, seed=7))


SIGMA_MIN_CASES = {
    "n1": lambda: spec_of([1], [1.3], theta=0.7),
    "2x2-pi": lambda: spec_of([2, 2], theta=np.pi),
    "4x4-clustered": lambda: spec_of([4, 4], (1.0, 0.4), theta=0.9999 * np.pi),
    "3x2x6-noisy": _noisy_acceptance_7,
    "5x5x5": lambda: spec_of([5, 5, 5], (1.0, 4.0, 2.0)),
}
OFF_POLE = (0.123 + 0.456j, -0.3 - 0.2j, 0.05j, 2.0 - 1.0j)


@pytest.mark.parametrize("case", sorted(SIGMA_MIN_CASES))
def test_sigma_min_matches_dense_svd_off_poles(case):
    spec = SIGMA_MIN_CASES[case]()
    for delta in OFF_POLE:
        a = assemble(spec, delta)
        want = dense_sigma_min(a)
        got = sigma_min(spec, delta)
        assert abs(got - want) <= 1e-8 * want, (delta, got, want)
        assert got >= want - 1e-12 * np.linalg.norm(a)


@pytest.mark.parametrize("case", sorted(SIGMA_MIN_CASES))
def test_sigma_min_vanishes_at_every_eig_pole(case):
    spec = SIGMA_MIN_CASES[case]()
    system = eom._EomSystem(spec)
    for gamma in all_poles_eig(spec, validate="none").poles.rates:
        delta = gamma / 2j
        assert sigma_min(spec, delta) <= 1e-9 * system.frobenius(delta), gamma


def test_sigma_min_is_bit_identical_on_repeat():
    spec = SIGMA_MIN_CASES["3x2x6-noisy"]()
    first = sigma_min(spec, 0.123 + 0.456j)
    assert all(sigma_min(spec, 0.123 + 0.456j) == first for _ in range(3))


def test_sigma_min_singular_factor_reports_zero(monkeypatch):
    def singular(_):
        raise RuntimeError("Factor is exactly singular")
    monkeypatch.setattr("scipy.sparse.linalg.splu", singular)
    assert sigma_min(spec_of([2, 2]), 0.3) == 0.0


@pytest.mark.parametrize("converged", [0, 1])
def test_sigma_min_unconverged_lanczos_stays_an_upper_bound(monkeypatch, converged):
    spec = spec_of([2, 3], (1.0, 0.4), theta=0.65 * np.pi)
    delta = 0.123 + 0.456j
    a = assemble(spec, delta)
    rough = np.random.default_rng(1).standard_normal((len(a), converged)) + 0j

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.ones(converged), rough)
    monkeypatch.setattr("scipy.sparse.linalg.eigsh", no_convergence)
    assert sigma_min(spec, delta) >= dense_sigma_min(a) - 1e-12 * np.linalg.norm(a)


# ------------------------------------------------- effective Hamiltonian H

H_CASES = {
    "5x3x4": lambda: spec_of([5, 3, 4], (1.0, 4.0, 2.0)),
    "3x2x6-noisy": _noisy_acceptance_7,
    "4x4-clustered": SIGMA_MIN_CASES["4x4-clustered"],
    "2x2-pi": SIGMA_MIN_CASES["2x2-pi"],
    "8x8x8": lambda: spec_of([8, 8, 8], (1.0, 4.0, 2.0)),
}


def _noisy_3x1x2():
    spec = spec_of([3, 1, 2], (1.0, 4.0, 2.0), theta=0.65 * np.pi)
    return spec.with_noise(sample_noise(spec, 0.05, seed=3))


# the H cases, axes of one qubit, N = 1, theta = m pi and noise
PENCIL_CASES = {
    **H_CASES,
    "1x4": lambda: spec_of([1, 4], (1.0, 0.4), theta=0.3 * np.pi),
    "3x1x2-noisy": _noisy_3x1x2,
    "n1": SIGMA_MIN_CASES["n1"],
    "3x3-2pi": lambda: spec_of([3, 3], (1.0, 0.4), theta=2 * np.pi),
    "2x3x4-pi": lambda: spec_of([2, 3, 4], (1.0, 4.0, 2.0), theta=np.pi),
}


@pytest.mark.parametrize("case", sorted(PENCIL_CASES))
def test_closed_form_frobenius_matches_the_entries(case):
    spec = PENCIL_CASES[case]()
    system = eom._EomSystem(spec)
    vals = system.entries()[2]
    assert system.frobenius(0.0) ** 2 == pytest.approx(np.vdot(vals, vals).real, rel=1e-15)
    delta = 0.3 - 0.7j
    assert system.frobenius(delta) == pytest.approx(np.linalg.norm(assemble(spec, delta)),
                                                    rel=1e-15)


@pytest.mark.parametrize("case", sorted(PENCIL_CASES))
def test_direct_h_matches_schur_complement(case):
    spec = PENCIL_CASES[case]()
    system = eom._EomSystem(spec)
    want = reduced(system)
    h = eom._hamiltonian(spec)
    assert np.linalg.norm(h - want) <= 1e-14 * np.linalg.norm(want)


def _noisy(dims, gammas, frac):
    spec = spec_of(dims, gammas, theta=frac * np.pi)
    return spec.with_noise(sample_noise(spec, 0.05, seed=5))


# the pencil cases and lines long enough to take their terms in several
# slices of rows
BUILD_CASES = {**PENCIL_CASES,
               "chain-1000-noisy": lambda: _noisy([1000], None, 0.65),
               "40x30-noisy": lambda: _noisy([40, 30], (1.0, 0.4), 0.9999)}


@pytest.mark.parametrize("case", sorted(BUILD_CASES))
def test_hamiltonian_is_bit_identical_to_the_gathered_build(case):
    # H's bits fix every EoM route's output
    spec = BUILD_CASES[case]()
    assert eom._hamiltonian(spec).tobytes() == gather_hamiltonian(spec).tobytes()


@pytest.mark.parametrize("noisy", [False, True])
def test_hamiltonian_of_a_chain_holds_at_most_two_n_by_n(noisy):
    # a chain is one line block of N x N, built in place beside two slices
    # of its rows (the gathered build peaked at 4.5 N x N)
    spec = _noisy([1000], None, 0.65) if noisy else spec_of([1000], theta=0.65 * np.pi)
    n = spec.n_qubits
    assert _traced_peak(lambda: eom._hamiltonian(spec)) <= 2 * 16 * n * n


@pytest.mark.parametrize("dims, gammas, frac", [
    ([5, 3, 4], (1.0, 4.0, 2.0), 0.5),
    ([4, 4], (1.0, 0.4), 1.0),
])
def test_symmetric_h_is_kronecker_sum_of_chain_kernels(dims, gammas, frac):
    # H = sum_n I x ... x (-(i/2) g_n K_n) x ... x I: why the Cartesian sum
    # is exact for symmetric networks
    theta = frac * np.pi
    want = np.zeros((int(np.prod(dims)),) * 2, dtype=complex)
    for axis, (m, g) in enumerate(zip(dims, gammas)):
        j = np.arange(m)
        kernel = -0.5j * g * np.exp(1j * theta * np.abs(j[:, None] - j[None, :]))
        term = np.ones((1, 1))
        for other, size in enumerate(dims):
            term = np.kron(term, kernel if other == axis else np.eye(size))
        want += term
    h = eom._hamiltonian(spec_of(dims, gammas, theta))
    assert np.linalg.norm(h - want) <= 1e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("case", sorted(set(SIGMA_MIN_CASES) - {"5x5x5"}))
def test_certificate_never_undercuts_dense_sigma_min(case):
    spec = SIGMA_MIN_CASES[case]()
    result = all_poles_eig(spec)
    for gamma, resid in zip(result.poles.rates, result.residuals):
        a = assemble(spec, gamma / 2j)
        norm = np.linalg.norm(a)
        assert resid <= 1e-9
        assert resid * norm >= dense_sigma_min(a) - 1e-12 * norm, gamma


CERT_CASES = {**PENCIL_CASES,
              "chain-1000-clustered": lambda: spec_of([1000], theta=0.9999 * np.pi)}


@pytest.mark.parametrize("case", sorted(CERT_CASES))
def test_prefix_sum_certificates_match_the_sparse_lu(case):
    # fields from the line recurrences against w = -B_w^{-1} B_e e
    spec = CERT_CASES[case]()
    values, vecs = plain_eig(spec)
    system = eom._EomSystem(spec)
    got = system.certificates(values, vecs)
    assert np.max(np.abs(got - splu_certificates(system, values, vecs))) <= 1e-12
    assert np.all(got <= 1e-9)
    # off the pole the same vectors fail, by the same margin either way
    off = values + 1e-3 * spec.rate_sum
    got = system.certificates(off, vecs)
    assert np.all(got > 1e-9)
    assert np.allclose(got, splu_certificates(system, off, vecs), rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("case", sorted(PENCIL_CASES))
def test_certificate_counts_every_row_of_the_x_it_forms(case, monkeypatch):
    # fields that miss the bulk rows: the fused pass must still give
    # ||A x|| / ||x|| / ||A||_F of the x it formed, with every row counted,
    # against the sparse A0 that entries() builds
    spec = PENCIL_CASES[case]()
    system = eom._EomSystem(spec)
    values, vecs = plain_eig(spec)
    n = spec.n_qubits
    fields = eom._EomSystem._fields

    def off_by_a_little(self, tables, e, on, t, r):
        fields(self, tables, e, on, t, r)
        t += 1e-3
        r -= 2e-3j
    monkeypatch.setattr(eom._EomSystem, "_fields", off_by_a_little)
    got = system.certificates(values, vecs)
    # the same x in the full system's columns: per axis and line, t then r
    x = np.zeros((system.size, n), dtype=complex)
    x[:n] = vecs
    for axis, tables in enumerate(system._axes):
        m, n_lines = tables.sites.shape
        on, t, r = np.empty((3, m, n_lines, n), dtype=complex)
        off_by_a_little(system, tables, vecs, on, t, r)
        block = x[n * (1 + 2 * axis):n * (3 + 2 * axis)].reshape(n_lines, 2, m, n)
        block[:, 0], block[:, 1] = t.transpose(1, 0, 2), r.transpose(1, 0, 2)
    a0, e = system.pencil()
    ax = a0 @ x - (e @ x) * values
    want = np.linalg.norm(ax, axis=0) / np.linalg.norm(x, axis=0) / system.frobenius(values)
    assert np.all(want > 1e-5)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dims", [[8, 8, 8], [24, 24], [1000], [5, 3, 4]])
def test_certificates_hold_a_few_blocks_of_n_by_64(dims):
    # one fused pass per axis forms no array of (2d+1)N rows, over three
    # blocks of poles (one partial): six N x 64 arrays held, one transient
    # copy of the vectors in np.take, and numpy's ufunc buffers (two of
    # np.getbufsize() entries at most, each a whole block below N = 128)
    spec = spec_of(dims, theta=0.65 * np.pi)
    n = spec.n_qubits
    rng = np.random.default_rng(4)
    vecs = rng.standard_normal((n, 150)) + 1j * rng.standard_normal((n, 150))
    deltas = rng.standard_normal(150) + 0j
    system = eom._EomSystem(spec)
    peak = _traced_peak(lambda: system.certificates(deltas, vecs))
    assert peak <= 16 * (7 * n * 64 + 2 * np.getbufsize())


def _traced_peak(call) -> int:
    """Bytes that ``call()`` holds at its peak, as tracemalloc counts them."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


# (dims, gammas or equal rates, theta / pi): odd and even axes in one, two
# and three dimensions, an axis of one qubit, N = 1, equal rates and the
# dark clusters at theta = m pi
SECTOR_CASES = [
    ([1], None, 0.3), ([5], None, 0.3), ([6], None, 0.65), ([7], None, 1.0),
    ([1, 5], (1.0, 0.4), 0.5), ([4, 5], (1.0, 0.4), 0.65), ([3, 3], None, 0.5),
    ([4, 4], (1.0, 0.4), 1.0), ([2, 3, 4], (1.0, 4.0, 2.0), 0.3), ([3, 3, 3], None, 1.0),
    ([2, 2, 3], (1.0, 4.0, 2.0), 2.0), ([5, 3, 4], (1.0, 4.0, 2.0), 0.9999),
]


@pytest.mark.parametrize("dims, gammas, frac", SECTOR_CASES)
def test_parity_sectors_match_one_eigensolve(dims, gammas, frac):
    spec = spec_of(dims, gammas, theta=frac * np.pi)
    values, vecs = eom._eig(spec, eom._hamiltonian(spec))
    want = plain_eig(spec)[0]
    scale = spec.rate_sum
    assert multiset_max_err(2j * values, 2j * want) <= 1e-12 * scale
    assert np.all(eom._EomSystem(spec).certificates(values, vecs) <= 1e-9)
    if frac == int(frac):
        # the dark cluster at Delta = 0 keeps its size, prod_n (N_n - 1)
        dark = np.prod([n - 1 for n in dims])
        assert np.count_nonzero(np.abs(values) <= 1e-12 * scale) == dark
    result = all_poles_eig(spec)
    assert multiset_max_err(result.poles.rates, 2j * want) <= 1e-12 * scale
    assert np.all(result.residuals <= 1e-9)


@pytest.mark.parametrize("dims, gammas, frac", SECTOR_CASES + [
    ([2, 2, 2], (1.0, 4.0, 2.0), 0.5), ([4, 4, 4], None, 0.65), ([6, 6], (1.0, 0.4), 0.3),
])
def test_sector_eigensolves_fill_the_columns_in_product_order(dims, gammas, frac):
    # the sectors' values and vectors take their columns in product order,
    # each axis even before odd: a swap of two sectors' columns, which
    # moves values and vectors alike, passes every other test.  Each
    # sector's columns hold vectors of its parity and the eigenvalues of
    # H projected on its reflection modes, built here without eom._fold.
    spec = spec_of(dims, gammas, theta=frac * np.pi)
    h = eom._hamiltonian(spec)
    values, vecs = eom._eig(spec, h.copy())
    grid = vecs.reshape(tuple(dims) + (-1,))
    start = 0
    for parities in itertools.product((0, 1), repeat=len(dims)):
        basis = reduce(np.kron, [_reflection_modes(m)[p] for m, p in zip(dims, parities)])
        cols = slice(start, start + basis.shape[1])
        start = cols.stop
        want = np.linalg.eigvals(basis.T @ h @ basis)
        assert multiset_max_err(values[cols], want) <= 1e-12 * spec.rate_sum
        for axis, parity in enumerate(parities):
            mirrored = np.flip(grid[..., cols], axis)
            defect = np.abs(mirrored - (-1) ** parity * grid[..., cols])
            assert defect.max(initial=0.0) <= 1e-12
    assert start == spec.n_qubits


def _reflection_modes(m):
    """The even reflection modes (x_j + x_{m-1-j}) / sqrt 2 of an axis of m
    qubits, with its middle qubit when m is odd, and its odd modes, as two
    blocks of columns."""
    eye, half = np.eye(m), m // 2
    even = [(eye[j] + eye[m - 1 - j]) / np.sqrt(2) for j in range(half)] + list(eye[half:m - half])
    odd = [(eye[j] - eye[m - 1 - j]) / np.sqrt(2) for j in range(half)]
    return np.reshape(even, (-1, m)).T, np.reshape(odd, (-1, m)).T


def test_noisy_networks_take_one_eigensolve():
    # no axis folds under noise: the one sector is H itself, bit for bit
    noisy = _noisy_acceptance_7()
    want_values, want_vecs = plain_eig(noisy)
    values, vecs = eom._eig(noisy, eom._hamiltonian(noisy))
    assert np.array_equal(values, want_values)
    assert np.array_equal(vecs, want_vecs)
    want = 2j * want_values
    assert np.array_equal(all_poles_eig(noisy).poles.rates, want[_re_im_order(want)])


@pytest.mark.parametrize("dims, gammas, frac", [
    ([3, 4], (1.0, 0.4), 0.3), ([2, 3, 4], (1.0, 4.0, 2.0), 0.65), ([3, 3, 3], None, 0.5),
    ([6], None, 0.9999),
])
def test_find_pole_at_cartesian_seeds_returns_eigenvalues_of_h(dims, gammas, frac):
    # a Cartesian-sum seed lies within a few eps of its pole, yet the pole
    # reported is H's nearest eigenvalue, never the seed
    spec = spec_of(dims, gammas, theta=frac * np.pi)
    values = eom._eig(spec, eom._hamiltonian(spec))[0]
    for seed in drop_spectrum(spec).rates[:4] / 2j:
        assert find_pole(spec, seed) == values[np.abs(values - seed).argmin()]


@pytest.mark.parametrize("case", sorted(PENCIL_CASES))
def test_all_poles_cnm_is_the_eigensolve(case):
    # the same eigensolve under another bound and label: the bulk route's
    # poles bit for bit, with or without noise
    spec = PENCIL_CASES[case]()
    want = all_poles_eig(spec).poles.rates
    assert np.array_equal(all_poles_cnm(spec).poles.rates, want)


def test_array_holding_results_compare_by_identity_and_hash():
    # frozen dataclasses holding arrays: == is identity, a bool (not numpy's
    # ambiguous truth value), and hash() works; a noisy spec compares its
    # noise field by identity
    spec = spec_of([2, 3], (1.0, 0.4), theta=0.3 * np.pi)

    def build():
        noise = sample_noise(spec, 0.05, seed=1)
        return [drop_spectrum(spec), chain_rates(3, spec.theta), all_poles_eig(spec),
                nullity_at(spec_of([2, 3], theta=np.pi), 0.0), noise,
                noise_study(spec, 0.05, seed=1), spec.with_noise(noise)]
    for a, b in zip(build(), build()):
        assert (a == a) is True and (a == b) is False and (a != b) is True, type(a)
        assert hash(a) == hash(a), type(a)
        assert len({a, b}) == 2, type(a)


def test_oversized_network_fails_before_any_allocation(monkeypatch):
    def allocates(self):
        raise AssertionError("rates resolved before the size check")
    monkeypatch.setattr(NetworkSpec, "resolved_rates", allocates)
    huge = spec_of([100, 100, 100])
    for route in (all_poles_eig, all_poles_cnm, all_poles_det_interp,
                  lambda spec: nullity_at(spec, 0.0), lambda spec: sigma_min(spec, 0.3),
                  lambda spec: assemble(spec, 0.3)):
        with pytest.raises(ConfigError, match="budget"):
            route(huge)
    monkeypatch.undo()
    assert eom._hamiltonian(spec_of([10, 10, 10])).shape == (1000, 1000)


class _NoiseDrawn(Exception):
    """Raised in place of drawing a noise field: the budget check passed."""


def _draws_noise(*args):
    raise _NoiseDrawn


def test_eom_det_budget_is_the_hamiltonians(monkeypatch, capsys):
    # eom-det holds what every route on H holds: 17x17x17 (N = 4913) passes
    # the check and reaches the rates, 18x18x18 (N = 5832) is refused first,
    # in the route and in the CLI's check before noise is drawn
    def allocates(self):
        raise AssertionError("rates resolved")
    monkeypatch.setattr(NetworkSpec, "resolved_rates", allocates)
    admitted, refused = spec_of([17, 17, 17]), spec_of([18, 18, 18])
    with pytest.raises(AssertionError, match="rates resolved"):
        all_poles_det_interp(admitted)
    with pytest.raises(ConfigError, match="budget"):
        all_poles_det_interp(refused)
    monkeypatch.setattr(cli, "sample_noise", _draws_noise)
    for command in (["eom-det"], ["compare", "--eom-method", "det-interp"]):
        noisy = [*command, "--epsilon-max", "0.05", "--dims"]
        with pytest.raises(_NoiseDrawn):
            cli.main(noisy + ["17,17,17"])
        assert cli.main(noisy + ["18,18,18"]) == 1
        assert "budget" in capsys.readouterr().err


def test_bic_budget_is_the_svds(monkeypatch, capsys):
    # nullity_at holds H and its full SVD, eight N x N arrays: 16x16x16
    # (N = 4096) passes the check and reaches the rates, 17x17x17 (N = 4913),
    # which H alone would admit, is refused before any N x N array, in the
    # route and in the CLI's check before noise is drawn
    def allocates(self):
        raise AssertionError("rates resolved")
    monkeypatch.setattr(NetworkSpec, "resolved_rates", allocates)
    admitted = spec_of([16, 16, 16], theta=np.pi)
    refused = spec_of([17, 17, 17], theta=np.pi)
    with pytest.raises(AssertionError, match="rates resolved"):
        analysis.bic_condition_check(admitted)
    with pytest.raises(ConfigError, match="budget"):
        analysis.bic_condition_check(refused)
    monkeypatch.setattr(cli, "sample_noise", _draws_noise)
    noisy = ["bic", "--theta-over-pi", "1", "--epsilon-max", "0.05", "--dims"]
    with pytest.raises(_NoiseDrawn):
        cli.main(noisy + ["16,16,16"])
    assert cli.main(noisy + ["17,17,17"]) == 1
    assert "budget" in capsys.readouterr().err


def test_sparse_routes_never_build_h(monkeypatch):
    def builds_h(spec):
        raise AssertionError("H built")
    monkeypatch.setattr(eom, "_hamiltonian", builds_h)
    spec = spec_of([2, 3], (1.0, 0.4), theta=0.3 * np.pi)
    assert sigma_min(spec, 0.123 + 0.456j) > 0.0
    assert assemble(spec, 0.1).shape == (30, 30)


# --------------------------------------------------------------- find_pole

def test_find_pole_2x2_superradiant():
    spec = spec_of([2, 2], (1.0, 1.0), theta=np.pi / 2)
    target = 2.0 - 2.0j   # gamma1 (1 - e^{i pi/2}) + gamma2 (1 - e^{i pi/2})
    pole = find_pole(spec, seed=target / 2j + 0.03 + 0.02j)
    assert abs(2j * pole - target) < 1e-8


def test_find_pole_at_an_exact_seed_returns_its_eigenvalue():
    # the closed-form pole as seed: the eigenvalue of H comes back, within
    # round-off of it
    spec = spec_of([2], theta=0.3 * np.pi)
    exact = (1 - np.exp(0.3j * np.pi)) / 2j
    values = eom._eig(spec, eom._hamiltonian(spec))[0]
    pole = find_pole(spec, exact)
    assert pole == values[np.abs(values - exact).argmin()]
    assert abs(pole - exact) <= 1e-15


def test_find_pole_far_seed_reaches_a_pole():
    spec = spec_of([2, 2])
    seed = 50.0 + 50.0j
    poles = all_poles_eig(spec, validate="none").poles.rates / 2j
    assert np.abs(poles - find_pole(spec, seed)).min() <= 1e-10
    # a refined pole that cannot pass the full-matrix check is an error
    # (a bound of 0 is refused as a tol, so the bound is the least normal)
    with pytest.raises(MaxIterationsError):
        find_pole(spec, seed, tol=np.finfo(float).tiny)


@pytest.mark.parametrize("case, frac", [
    pytest.param(case, frac, id=case if frac == 0.3 else f"{case}-{frac}")
    for frac in (0.3, 0.49) for case in ("4x4-clustered", "3x2x6-noisy")])
def test_find_pole_returns_the_nearest_pole(case, frac):
    # a seed a fraction frac < 1/2 of the way to its pole's nearest
    # neighbour must come back to that pole, also inside the near-dark
    # cluster at 0.9999 pi
    spec = SIGMA_MIN_CASES[case]()
    poles = all_poles_eig(spec, validate="none").poles.rates / 2j
    for k, pole in enumerate(poles):
        gaps = np.abs(poles - pole)
        gaps[k] = np.inf
        seed = pole + frac * gaps.min() * np.exp(1.9j)
        assert abs(find_pole(spec, seed) - pole) <= 1e-3 * gaps.min(), k


def test_find_pole_rejects_nonfinite_seed():
    with pytest.raises(ValueError):
        find_pole(spec_of([2]), seed=complex(np.nan, 0))


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_find_pole_rejects_a_tol_that_is_not_finite_and_positive(tol):
    # no certificate compares above a NaN bound, so it would pass them all
    with pytest.raises(ValueError, match="tol"):
        find_pole(spec_of([2, 3], (1.0, 0.4)), seed=0.5j, tol=tol)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_all_poles_cnm_rejects_a_tol_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol"):
        all_poles_cnm(spec_of([2, 3], (1.0, 0.4)), tol=tol)


@pytest.mark.parametrize("rank_tol", [np.nan, np.inf, 0.0, -1.0])
def test_null_space_rejects_a_rank_tol_that_is_not_finite_and_positive(rank_tol):
    # NaN and -1 counted no singular value as small: nullity 0 where 2 is right
    spec = spec_of([2, 3], theta=np.pi)
    with pytest.raises(ValueError, match="rank_tol"):
        nullity_at(spec, 0.0, rank_tol=rank_tol)
    with pytest.raises(ValueError, match="rank_tol"):
        analysis.bic_condition_check(spec, rank_tol=rank_tol)


# ----------------------------------------------------------- full spectra

@pytest.mark.parametrize("dims, gammas, frac", [
    ([4], None, 0.3),
    ([2, 2], (1.0, 0.4), 0.5),
    ([3, 3], (1.0, 0.4), 0.65),
    ([2, 3, 4], (1.0, 4.0, 2.0), 0.5),
    ([4, 4], (1.0, 0.4), 0.9999),
])
def test_all_poles_eig_matches_drop(dims, gammas, frac):
    spec = spec_of(dims, gammas, theta=frac * np.pi)
    result = all_poles_eig(spec)
    assert len(result.poles.rates) == spec.n_qubits
    err = multiset_max_err(result.poles.rates, drop_spectrum(spec).rates)
    assert err < 1e-8 * spec.rate_sum
    assert np.all(result.residuals <= 1e-9)


@pytest.mark.parametrize("dims, gammas", [
    ([2, 2], (1.0, 1.0)),
    ([2, 3, 4], (1.0, 1.0, 1.0)),
    ([3, 3], (1.0, 0.4)),
    ([4, 4, 4], (1.0, 4.0, 2.0)),
])
def test_all_poles_eig_matches_drop_at_exact_resonance(dims, gammas):
    # theta = pi produces exactly degenerate dark poles; the dense
    # eigensolve must reproduce the full multiset anyway
    spec = spec_of(dims, gammas, theta=np.pi)
    err = multiset_max_err(all_poles_eig(spec, validate="none").poles.rates,
                           drop_spectrum(spec).rates)
    assert err < 1e-8 * spec.rate_sum


def test_all_poles_eig_d1_equals_chain():
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        for frac in (0.3, 0.65, 0.9999):
            gamma = 1.7
            spec = spec_of([n], [gamma], theta=frac * np.pi)
            got = all_poles_eig(spec, validate="none").poles.rates
            want = gamma * chain_rates(n, frac * np.pi).z
            assert multiset_max_err(got, want) < 1e-9


def test_pole_sum_rule():
    for dims, gammas in [([3, 2], (1.0, 3.0)), ([2, 2, 2], (1.0, 4.0, 2.0))]:
        spec = spec_of(dims, gammas, theta=0.37 * np.pi)
        rates = all_poles_eig(spec, validate="none").poles.rates
        expected = spec.n_qubits * sum(spec.gammas)
        assert abs(rates.sum() - expected) <= 1e-8 * expected


def test_poles_conjugate_under_theta_flip():
    spec_p = spec_of([3, 2], (1.0, 0.4), theta=0.37 * np.pi)
    spec_m = spec_of([3, 2], (1.0, 0.4), theta=-0.37 * np.pi)
    a = all_poles_eig(spec_p, validate="none").poles.rates
    b = all_poles_eig(spec_m, validate="none").poles.rates
    assert multiset_max_err(np.conj(a), b) < 1e-9


def test_all_poles_cnm_with_default_seeds():
    spec = spec_of([2, 3], (1.0, 4.0), theta=0.65 * np.pi)
    result = all_poles_cnm(spec)
    assert result.method == "cnm"
    assert len(result.poles.rates) == 6
    err = multiset_max_err(result.poles.rates,
                           all_poles_eig(spec).poles.rates)
    assert err < 1e-8 * spec.rate_sum
    assert np.all(result.residuals <= 1e-9)


def test_all_poles_cnm_is_bit_identical_on_repeat():
    spec = _noisy_acceptance_7()
    runs = [all_poles_cnm(spec) for _ in range(2)]
    assert np.array_equal(runs[0].poles.rates, runs[1].poles.rates)
    assert np.array_equal(runs[0].residuals, runs[1].residuals)


def test_all_poles_cnm_poles_are_eigenvalues_of_h():
    spec = _noisy_acceptance_7()
    eigs = 2j * np.linalg.eigvals(reduced(eom._EomSystem(spec)))
    for gamma in all_poles_cnm(spec).poles.rates:
        assert np.abs(eigs - gamma).min() <= 1e-10 * spec.rate_sum, gamma


def test_solve_paths_certify_every_pole_without_lanczos(monkeypatch):
    # every route certifies its poles with eigenvectors of H; the Lanczos
    # sigma_min is for users and tests only
    calls = []
    monkeypatch.setattr("scipy.sparse.linalg.eigsh",
                        lambda *args, **kwargs: calls.append(args) or (None, None))
    noisy = _noisy_acceptance_7()
    results = [
        all_poles_eig(noisy),
        all_poles_eig(noisy, validate="all"),
        all_poles_cnm(noisy),
        all_poles_det_interp(spec_of([2, 3], (1.0, 0.4), theta=0.3 * np.pi)),
    ]
    for result in results:
        assert np.all(result.residuals <= 1e-9), result.method
    find_pole(noisy, drop_spectrum(noisy).rates[0] / 2j)
    noise_study(spec_of([3, 2, 6], (1.0, 3.0, 2.0), theta=0.65 * np.pi), 0.05, seed=0)
    nullity_at(spec_of([2, 3], theta=np.pi), 0.0)
    assert calls == []


@pytest.mark.parametrize("case", ["5x3x4", "3x2x6-noisy"])
def test_all_poles_cnm_certifies_each_pole_once(monkeypatch, case):
    # one eig of H and one certificate pass over its N columns: no
    # Cartesian seeds (drop_spectrum and its chain eigensolves), no claims;
    # the same for all_poles_det_interp, and no dense solve
    def forbidden(*args, **kwargs):
        raise AssertionError("a route built seeds, claimed poles or solved")
    for target, name in ((drop, "drop_spectrum"), (drop, "chain_rates"),
                         (chain1d, "chain_rates"), (eom, "_refine")):
        monkeypatch.setattr(target, name, forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    calls = []
    eig, certify = eom._eig, eom._EomSystem.certificates
    monkeypatch.setattr(eom, "_eig", lambda spec, h: calls.append("eig") or eig(spec, h))
    monkeypatch.setattr(eom._EomSystem, "certificates", lambda self, deltas, vecs: (
        calls.append(len(deltas)) or certify(self, deltas, vecs)))
    spec = H_CASES[case]()
    assert np.all(all_poles_cnm(spec).residuals <= 1e-9)
    assert np.all(all_poles_det_interp(spec).residuals <= 1e-9)
    assert calls == ["eig", spec.n_qubits] * 2
    assert not hasattr(eom, "drop_spectrum")


def test_finish_rejects_failed_certificates_and_nan_poles(monkeypatch):
    # NaN marks an uncertified pole; it must not hide a failed one
    spec = spec_of([2, 2])
    monkeypatch.setattr(eom._EomSystem, "certificates", lambda self, deltas, vecs: np.where(
        np.arange(len(deltas)) == 1, 1e-6, np.nan))
    with pytest.raises(ConditioningFailure, match="singularity check"):
        all_poles_eig(spec)
    with pytest.raises(ConditioningFailure, match="trace rule"):
        eom._finish(spec, np.full(4, complex(np.nan, 0.0)), np.zeros(4),
                    "eigen", ConditioningFailure)
    # a run that breaks both is reported for the trace rule
    with pytest.raises(MaxIterationsError, match="trace rule"):
        eom._finish(spec, np.zeros(4, dtype=complex), np.ones(4), "cnm", MaxIterationsError)


def test_seeded_routes_certify_at_the_routes_bound(monkeypatch):
    # a pole whose certificate lies between 1e-9 and tol fails noise and
    # eom-cnm alike: it is no recovered pole, and no ConditioningFailure
    certify = eom._EomSystem.certificates

    def first_column_at_5e9(self, deltas, vecs):
        out = certify(self, deltas, vecs)
        out[:1] = 5e-9
        return out
    monkeypatch.setattr(eom._EomSystem, "certificates", first_column_at_5e9)
    spec = spec_of([2, 3], (1.0, 0.4), theta=0.3 * np.pi)
    assert noise_study(spec, 0.05, seed=1, tol=1e-6).unconverged == (0,)
    with pytest.raises(MaxIterationsError, match="1e-09"):
        all_poles_cnm(spec.with_noise(sample_noise(spec, 0.05, seed=1)), tol=1e-6)


def test_eom_binds_neither_enumerator():
    # the column layout is defined once, by _EomSystem.entries; no named
    # column map is built from the qubit or line enumerations
    assert not hasattr(eom, "enumerate_qubits") and not hasattr(eom, "enumerate_lines")


def test_noise_study_checks_the_budget_before_drawing_noise(monkeypatch):
    def draws(*args):
        raise AssertionError("noise drawn before the size check")
    monkeypatch.setattr(analysis, "sample_noise", draws)
    with pytest.raises(ConfigError, match="budget"):
        noise_study(spec_of([100, 100, 100]), 0.05, seed=0)


@pytest.mark.parametrize("epsilon, seed", [(0.05, 0), (0.02, 1)])
def test_all_poles_cnm_equal_rate_3x3x3(epsilon, seed):
    # equal rates make the poles of the noise-free network highly degenerate
    spec = spec_of([3, 3, 3], (1.0, 1.0, 1.0), theta=0.65 * np.pi)
    noisy = spec.with_noise(sample_noise(spec, epsilon, seed))
    want = all_poles_eig(noisy, validate="none").poles.rates
    got = all_poles_cnm(noisy).poles.rates
    assert len(got) == 27
    assert multiset_max_err(got, want) <= 1e-10 * noisy.rate_sum


def test_all_poles_eig_rejects_unknown_validate():
    with pytest.raises(ValueError, match="'sample', 'all' or 'none'"):
        all_poles_eig(spec_of([2, 2]), validate="bogus")


def test_all_poles_cnm_resolves_exact_degeneracy():
    # equal rates on a square lattice give a doubly degenerate pole
    spec = spec_of([2, 2], (1.0, 1.0), theta=0.5 * np.pi)
    result = all_poles_cnm(spec)
    assert multiset_max_err(result.poles.rates, drop_spectrum(spec).rates) \
        < 1e-8 * spec.rate_sum


def test_det_interp_2x2_at_pi():
    g1, g2 = 1.0, 0.4
    spec = spec_of([2, 2], (g1, g2), theta=np.pi)
    result = all_poles_det_interp(spec)
    want = [0.0, 2 * g1, 2 * g2, 2 * g1 + 2 * g2]
    assert multiset_max_err(result.poles.rates, want) < 1e-8 * spec.rate_sum


def test_det_interp_single_qubit():
    spec = spec_of([1], [2.3], theta=0.9)
    result = all_poles_det_interp(spec)
    assert multiset_max_err(result.poles.rates, [2.3]) < 1e-9


@pytest.mark.parametrize("frac", [0.3, 0.5, 0.65, 0.75])
def test_det_interp_4x4_matches_drop(frac):
    spec = spec_of([4, 4], (1.0, 0.4), theta=frac * np.pi)
    result = all_poles_det_interp(spec)
    err = multiset_max_err(result.poles.rates, drop_spectrum(spec).rates)
    assert err < 1e-8 * spec.rate_sum


def test_det_interp_polished_poles_obey_trace_rule():
    spec = spec_of([4, 4], (1.0, 4.0), theta=0.3 * np.pi)
    rates = all_poles_det_interp(spec).poles.rates
    assert abs(rates.sum() - spec.n_qubits * 5.0) <= 1e-9 * spec.rate_sum


def _det_matches_eig(spec):
    # the eigensolve route under another label: its poles and certificates
    # bit for bit
    got, want = all_poles_det_interp(spec), all_poles_eig(spec)
    assert got.method == got.poles.method == "det-interp"
    assert np.array_equal(got.poles.rates, want.poles.rates)
    assert np.array_equal(got.residuals, want.residuals)


def test_det_interp_matches_eig_under_noise():
    _det_matches_eig(_noisy_acceptance_7())


@pytest.mark.parametrize("gammas", [(1.0, 0.4), (0.5, 2.0)])
def test_det_interp_rejects_duplicated_near_dark_pole(gammas):
    # near resonance the dark poles cluster: each is found once, no raise
    _det_matches_eig(spec_of([4, 3], gammas, theta=0.9999 * np.pi))


@pytest.mark.parametrize("gammas", [(0.5, 2.0), (1.0, 4.0)])
def test_det_interp_3x3_near_dark_raises_or_is_right(gammas):
    # the near-dark cluster is a Cartesian sum a+c, a+d, b+c, b+d: poles on
    # a+c and b+d alone, missing a+d and b+c, would keep the trace rule
    _det_matches_eig(spec_of([3, 3], gammas, theta=0.9999 * np.pi))


# (rates, theta / pi) of the networks below that are not equal-rate at 0.3 pi
_MULTIPLICITY_CASES = {(5, 3, 4): ((1.0, 4.0, 2.0), 0.5), (8, 8): (None, 1.0),
                       (3, 3, 3): (None, 0.65)}


@pytest.mark.parametrize("dims", [[2, 2], [3, 3], [4, 4], [2, 2, 2], [5, 3, 4], [8, 8],
                                  [3, 3, 3]])
def test_det_interp_keeps_exact_multiplicities(dims):
    # equal rates give multiple poles, each with independent eigenvectors;
    # 8x8 at theta = pi has a 49-fold dark pole at Delta = 0
    gammas, frac = _MULTIPLICITY_CASES.get(tuple(dims), (None, 0.3))
    _det_matches_eig(spec_of(dims, gammas, theta=frac * np.pi))


def test_det_interp_never_returns_silently_wrong_poles():
    # deep in the clustered regime
    _det_matches_eig(spec_of([4, 4], (1.0, 0.4), theta=0.9 * np.pi))


def test_det_interp_is_bit_identical_on_repeat():
    spec = spec_of([3, 3], (0.5, 2.0), theta=0.9999 * np.pi)
    runs = [all_poles_det_interp(spec) for _ in range(2)]
    assert np.array_equal(runs[0].poles.rates, runs[1].poles.rates)
    assert np.array_equal(runs[0].residuals, runs[1].residuals)


@pytest.mark.parametrize("dims, gammas, frac", [
    ([2, 3], (1.0, 0.4), 0.3),
    ([3, 3], (1.0, 0.4), 0.5),
    ([2, 2, 3], (1.0, 4.0, 2.0), 0.65),
    ([12], (1.0,), 0.5),
    ([5, 3, 4], (1.0, 4.0, 2.0), 0.5),
    ([8, 8], (1.0, 1.0), 1.0),
    ([3, 3, 3], (1.0, 1.0, 1.0), 0.65),
])
def test_det_interp_agrees_with_cnm(dims, gammas, frac):
    spec = spec_of(dims, gammas, theta=frac * np.pi)
    a = all_poles_det_interp(spec).poles.rates
    b = all_poles_cnm(spec).poles.rates
    assert multiset_max_err(a, b) <= 1e-8 * spec.rate_sum


# ----------------------------------------------------------------- nullity

@pytest.mark.parametrize("dims, expected", [
    ([2, 3, 4], 6),
    ([4], 3),
    ([2, 2], 1),
    ([2, 3], 2),
])
def test_nullity_at_resonance(dims, expected):
    spec = spec_of(dims, theta=np.pi)
    result = nullity_at(spec, 0.0)
    assert result.nullity == expected
    assert result.e_basis.shape == (spec.n_qubits, expected)


def test_nullity_off_resonance_is_zero():
    spec = spec_of([2, 2], theta=0.5 * np.pi)
    assert nullity_at(spec, 0.0).nullity == 0


def test_nullity_product_rule_sample():
    cases = [((n,), n - 1) for n in (2, 3, 5, 8)]
    cases += [((a, b), (a - 1) * (b - 1)) for a in (1, 2, 3) for b in (2, 4)]
    cases += [((2, 2, 3), 2), ((3, 3, 3), 8), ((1, 4, 2), 0)]
    for m in (1, 2):
        for dims, expected in cases:
            spec = spec_of(dims, theta=m * np.pi)
            assert nullity_at(spec, 0.0).nullity == expected, (dims, m)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gammas", [(1e160, 1.0), (1e300, 1.0)])
def test_overflowed_certificates_certify_no_pole(gammas):
    # ||A||_F overflows: the certificate read exactly 0 at 1e160 and NaN at
    # 1e300, and every route reported the poles as certified; the overflow
    # then warned twice before each route's own error
    spec = spec_of([2, 2], gammas, theta=0.3 * np.pi)
    values, vecs = eom._eig(spec, eom._hamiltonian(spec))
    assert np.isnan(eom._EomSystem(spec).certificates(values, vecs)).all()
    for route in (all_poles_eig, all_poles_det_interp):
        with pytest.raises(ConditioningFailure, match="certificate nan"):
            route(spec)
    with pytest.raises(MaxIterationsError, match="certificate nan"):
        all_poles_cnm(spec)
    with pytest.raises(MaxIterationsError):
        find_pole(spec, values[0])
    # validate="none" certifies nothing, so it still reports
    assert np.isnan(all_poles_eig(spec, validate="none").residuals).all()
