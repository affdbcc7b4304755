import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropqed import chain1d, chain_rates, coupling_matrix
from oracles import (
    chain2_rates,
    chain3_rates,
    char_poly,
    companion_rates,
    dense_chain_rates,
    exp_kernel,
    lambda_residual,
    multiset_max_err,
    transfer_matrix,
)

THETAS_50 = np.linspace(0.01, 1.99, 50) * np.pi
# theta = 0, pi, 2 pi give the rank-1 kernel; 0.9999 pi the subradiant cluster
SPLIT_FRACS = (0.0, 0.3, 0.5, 0.9999, 1.0, 1.02, 2.0)


def test_transfer_matrix_identity_at_chi_zero():
    assert np.allclose(transfer_matrix(0.0, 0.0), np.eye(2))


def test_transfer_matrix_single_pole_entry():
    # chi = i makes 1 + i*chi vanish: the one-qubit pole
    s = transfer_matrix(1j, 0.7)
    assert abs(s[0, 0]) < 1e-15


def test_transfer_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        transfer_matrix(complex(np.inf, 0), 0.1)
    with pytest.raises(ValueError):
        transfer_matrix(1.0, np.nan)


def test_transfer_matrix_unit_determinant_bulk():
    rng = np.random.default_rng(7)
    chis = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
    thetas = rng.uniform(0, 2 * np.pi, 10_000)
    worst = max(
        abs(np.linalg.det(transfer_matrix(c, t)) - 1.0)
        for c, t in zip(chis, thetas)
    )
    assert worst <= 1e-12


@given(st.complex_numbers(max_magnitude=50, allow_nan=False, allow_infinity=False),
       st.floats(-10, 10))
@settings(max_examples=200)
def test_transfer_matrix_unit_determinant_property(chi, theta):
    s = transfer_matrix(chi, theta)
    assert abs(np.linalg.det(s) - 1.0) <= 1e-10 * max(1.0, abs(chi) ** 2)


def test_char_poly_n1():
    theta = 0.37
    c = char_poly(1, theta)
    expected = np.exp(-1j * theta) * np.array([1.0, 1j])
    assert np.allclose(c, expected, atol=1e-15)


def test_char_poly_n2():
    theta = 0.81
    c = char_poly(2, theta)
    # (1 + i chi)^2 e^{-2 i theta} + chi^2
    e = np.exp(-2j * theta)
    expected = np.array([e, 2j * e, 1.0 - e])
    assert np.allclose(c, expected, atol=1e-14)


def test_char_poly_n2_roots_map_to_rates():
    theta = 0.81
    chi_roots = np.polynomial.polynomial.polyroots(char_poly(2, theta))
    z = np.sort_complex(1j / chi_roots)
    assert multiset_max_err(z, chain2_rates(theta)) < 1e-12


def test_chain_single_qubit():
    for theta in (0.0, 0.3, np.pi, 5.1):
        assert np.allclose(chain_rates(1, theta).z, [1.0])


def test_chain_examples_from_closed_forms():
    z = chain_rates(2, np.pi / 2).z
    assert multiset_max_err(z, [1 - 1j, 1 + 1j]) < 1e-12
    z = chain_rates(3, np.pi).z
    assert multiset_max_err(z, [3.0, 0.0, 0.0]) < 1e-12
    z = chain_rates(3, np.pi / 2).z
    expected = [(1 + 1j * np.sqrt(7)) / 2, (1 - 1j * np.sqrt(7)) / 2, 2.0]
    assert multiset_max_err(z, expected) < 1e-12


def test_analytic_values_at_theta_0_and_pi():
    assert multiset_max_err(chain2_rates(0.0), [0.0, 2.0]) < 1e-15
    assert multiset_max_err(chain2_rates(np.pi), [2.0, 0.0]) < 1e-12
    assert multiset_max_err(chain3_rates(np.pi), [0.0, 3.0, 0.0]) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_equivalence_50_thetas(n):
    oracle = chain2_rates if n == 2 else chain3_rates
    for theta in THETAS_50:
        err = multiset_max_err(chain_rates(n, theta).z, oracle(theta))
        assert err < 1e-10, f"n={n} theta={theta}"


@pytest.mark.parametrize("method", ["auto", "companion"])
def test_methods_agree_small_n(method):
    # the library's eigensolve and the companion oracle, each against the
    # 30-digit eigenvalues of the coupling kernel
    mp = pytest.importorskip("mpmath")
    route = {"auto": lambda n, t: chain_rates(n, t).z, "companion": companion_rates}[method]
    with mp.workdps(30):
        for n in (1, 2, 3, 5, 8):
            for theta in (0.3 * np.pi, 0.65 * np.pi, 1.3 * np.pi):
                k = mp.matrix([[mp.expj(mp.mpf(theta) * abs(i - j)) for j in range(n)]
                               for i in range(n)])
                oracle = [complex(v) for v in mp.eig(k)[0]]
                assert multiset_max_err(route(n, theta), oracle) < 1e-9


def test_companion_handles_resonant_theta():
    # at theta = m*pi the leading coefficients degenerate; missing chi-roots
    # are exact dark rates
    z = companion_rates(4, np.pi)
    assert multiset_max_err(z, [0, 0, 0, 4]) < 1e-9


def test_trace_sum_rule_up_to_100():
    for n in range(1, 101):
        for frac in (0.1, 0.25, 0.5, 0.75, 0.9, 0.9999):
            z = chain_rates(n, frac * np.pi).z
            assert abs(z.sum() - n) <= 1e-9 * n


def test_passivity():
    for n in (2, 5, 20, 60, 100):
        for frac in (0.1, 0.5, 0.9, 0.9999, 1.0):
            z = chain_rates(n, frac * np.pi).z
            assert z.real.min() >= -1e-9


def test_conjugation_under_theta_flip():
    for n in (2, 7, 23):
        for frac in (0.2, 0.37, 0.9):
            theta = frac * np.pi
            a = chain_rates(n, -theta).z
            b = np.conj(chain_rates(n, theta).z)
            assert multiset_max_err(a, b) < 1e-9


def test_superradiance_limit_at_pi():
    for n in (2, 5, 17, 40):
        z = chain_rates(n, np.pi).z
        near_n = np.abs(z - n) < 1e-8
        near_0 = np.abs(z) < 1e-8
        assert near_n.sum() == 1
        assert near_0.sum() == n - 1


def test_coupling_matrix_matches_char_poly_roots():
    # two independent constructions of the same spectrum
    for n in (4, 7):
        theta = 0.42 * np.pi
        z_eig = np.linalg.eigvals(coupling_matrix(n, theta))
        chi = np.polynomial.polynomial.polyroots(char_poly(n, theta))
        assert multiset_max_err(z_eig, 1j / chi) < 1e-9


def test_chain_rates_against_multiprecision_oracle():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    n, theta = 12, 0.7 * np.pi
    k = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            k[i, j] = mp.e ** (1j * mp.mpf(theta) * abs(i - j))
    eigs, _ = mp.eig(k)
    oracle = [complex(v) for v in eigs]
    assert multiset_max_err(chain_rates(n, theta).z, oracle) < 1e-11


def test_lambda_residual_vanishes_at_poles():
    for n in range(1, 21):
        for frac in (0.3, 0.5, 0.65, 0.9999):
            for z in chain_rates(n, frac * np.pi).z:
                if abs(z) < 1e-12:
                    continue
                res = lambda_residual(n, frac * np.pi, z)
                assert res < 1e-8, f"n={n} frac={frac} z={z} res={res}"


def test_lambda_residual_single_qubit():
    assert lambda_residual(1, 0.77, 1.0) < 1e-10


def test_lambda_residual_rejects_non_poles():
    assert lambda_residual(2, np.pi / 2, 10 + 10j) > 1e-3
    assert lambda_residual(5, 0.3 * np.pi, 0.5 - 2.0j) > 1e-3


def test_lambda_residual_rejects_zero():
    with pytest.raises(ValueError):
        lambda_residual(3, np.pi, 0.0)


@pytest.mark.parametrize("frac", SPLIT_FRACS)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 50, 51, 513, 1000])
def test_coupling_matrix_is_bit_identical_to_exp_formula(n, frac):
    assert np.array_equal(coupling_matrix(n, frac * np.pi), exp_kernel(n, frac * np.pi))


@pytest.mark.parametrize("frac", SPLIT_FRACS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 50, 51, 200, 201])
def test_split_matches_full_kernel_eigensolve(n, frac):
    # both parities, and the rank-1 kernel at theta = m*pi, whose N - 1 zero
    # rates are split between the two blocks
    z = chain_rates(n, frac * np.pi).z
    assert multiset_max_err(z, dense_chain_rates(n, frac * np.pi)) <= 1e-12 * n
    assert abs(z.sum() - n) <= 1e-12 * n


# both sides of the crossover to Aberth's sweeps in the larger sector, odd
# and even
CROSSOVER_NS = [2 * chain1d._SECULAR_MIN + k for k in (-2, -1, 0, 1)] + [7, 257]
SECULAR_FRACS = (0.0, 1e-6, 0.3, 0.9999, 1 - 1e-8, 1.0, 1 + 1e-8, 2.0, 3.3, -0.4)


@pytest.mark.parametrize("frac", SECULAR_FRACS)
@pytest.mark.parametrize("n", CROSSOVER_NS)
def test_secular_route_matches_dense_oracle(n, frac):
    z = chain_rates(n, frac * np.pi).z
    assert multiset_max_err(z, dense_chain_rates(n, frac * np.pi)) <= 1e-12 * n
    assert abs(z.sum() - n) <= 1e-12 * n


def test_secular_route_is_taken_from_the_crossover_on(monkeypatch):
    # every chain solves both of its sectors by _secular_rates; the seeds
    # and Aberth's sweeps run only in sectors of at least _SECULAR_MIN rows
    sizes, seeded = [], []
    solve, seeds = chain1d._secular_rates, chain1d._seeds
    monkeypatch.setattr(chain1d, "_secular_rates", lambda s, u: sizes.append(len(u)) or solve(s, u))
    monkeypatch.setattr(chain1d, "_seeds", lambda lam, w: seeded.append(sizes[-1]) or seeds(lam, w))
    for n in CROSSOVER_NS:
        chain_rates(n, 0.3 * np.pi)
    assert sizes == [size for n in CROSSOVER_NS for size in (n - n // 2, n // 2)]
    assert seeded == [size for size in sizes if size >= chain1d._SECULAR_MIN]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 100, 101])
def test_sectors_are_the_split_blocks(n):
    # i S + u u^T is the reversal-even block A + CJ (bordered for odd n)
    # and the reversal-odd block A - CJ of the kernel
    for frac in (0.0, 0.37, 0.9999, 2.6):
        k = coupling_matrix(n, frac * np.pi)
        m = n // 2
        a, cj = k[:m, :m], k[:m, n - m:][:, ::-1]
        even = a + cj
        if n % 2:
            edge = np.sqrt(2) * k[:m, m]
            even = np.block([[even, edge[:, None]], [edge[None, :], k[m:m + 1, m:m + 1]]])
        for block, (s, u) in zip((even, a - cj), chain1d._sectors(n, frac * np.pi)):
            # one qubit's odd sector is empty
            assert np.abs(block - (1j * s + np.outer(u, u))).max(initial=0.0) <= 1e-14 * n


@pytest.mark.parametrize("n", [2, 3, 7, 12, 40, 100, 101, 160])
def test_dark_rates_at_resonance_above_crossover(n):
    # at theta = 0 the sine block is exactly zero and every dark rate is
    # deflated to exactly 0; at the floating-point m * pi it is not quite
    # zero, and the dark rates of that kernel are below 1e-20 on both sides
    # of the crossover (an eigensolve of the kernel leaves them at
    # round-off, about 1e-14)
    for m in (0, 1, 2, 3):
        z = chain_rates(n, m * np.pi).z
        assert abs(z[-1] - n) <= 1e-12 * n
        dark = z[:-1]
        assert np.all(dark.real >= 0)
        if m == 0:
            assert np.all(dark == 0)
        assert np.abs(dark.real).max() <= 1e-20
        assert np.abs(dark).max() <= 1e-12 * n


def test_secular_route_rates_are_passive():
    for n in (100, 151, 300):
        for frac in (0.05, 0.3, 0.5, 0.9, 0.9999, 1.0001, 1.7, 2.2):
            assert chain_rates(n, frac * np.pi).z.real.min() >= 0


@pytest.mark.parametrize("cap", [0, 1, 2])
@pytest.mark.parametrize("n", [100, 151])
def test_sweep_cap_falls_back_to_dense_eigensolve(monkeypatch, n, cap):
    # a sector with roots still moving after the cap takes np.linalg.eigvals
    # of its deflated matrix
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(chain1d, "_MAX_SWEEPS", cap)
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a.shape) or eigvals(a))
    for frac in (0.0, 0.3, 0.9999, 1.0, 3.3):
        z = chain_rates(n, frac * np.pi).z
        assert multiset_max_err(z, dense_chain_rates(n, frac * np.pi)) <= 1e-12 * n
        assert abs(z.sum() - n) <= 1e-12 * n
    assert calls


def test_secular_solver_resolves_subradiant_real_parts():
    # every real part near theta = m pi to 1e-6 relative error against a
    # 50-digit eigensolve of the two reversal blocks A + CJ (bordered for
    # odd n) and A - CJ, on both sides of the crossover to Aberth's sweeps;
    # one dense eigvals of each block reached 2.0e-6 at n = 6, 1.6e-4 at
    # n = 40 and 7.1e-4 at n = 79
    mp = pytest.importorskip("mpmath")
    for n, frac in ((3, 0.99999), (6, 0.99999), (7, 0.9999), (12, 0.9999), (40, 0.9999),
                    (79, 0.9999)):
        theta, m = frac * np.pi, n // 2
        want = []
        with mp.workdps(50):
            phase = [mp.expj(mp.mpf(theta) * s) for s in range(n)]
            for sign, size in ((1, n - m), (-1, m)):
                block = mp.matrix(size, size)
                for j in range(m):
                    for k in range(m):
                        block[j, k] = phase[abs(j - k)] + sign * phase[n - 1 - j - k]
                if size > m:
                    for j in range(m):
                        block[j, m] = block[m, j] = mp.sqrt(2) * phase[m - j]
                    block[m, m] = phase[0]
                # mpmath's eig ignores left=False, right=False on a 1 x 1 matrix
                values = [block[0, 0]] if size == 1 else mp.eig(block, left=False, right=False)
                want += [complex(v) for v in values]
        want = np.array(want)
        got = chain_rates(n, theta).z
        nearest = np.abs(got[:, None] - want[None, :]).argmin(1)
        assert sorted(nearest) == list(range(n)), n
        rel = np.abs(got.real - want[nearest].real) / want[nearest].real
        assert rel.max() <= 1e-6, (n, frac, rel.max())


def test_secular_solver_deflates_exact_roots():
    # zero weights and repeated poles away from zero: the deflated roots
    # i lam_k are exact, the rest match one dense eigensolve
    rng = np.random.default_rng(3)
    m = 60
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    lam = np.sort(rng.uniform(-3, 3, m))
    lam[10:13] = lam[10]                 # a triple pole, merged by rotations
    v = rng.standard_normal(m)
    v[[5, 20, 40]] = 0.0                 # zero weights
    s = (q * lam) @ q.T
    s = (s + s.T) / 2
    u = q @ v
    got = chain1d._secular_rates(s, u)
    want = np.linalg.eigvals(1j * s + np.outer(u, u))
    assert multiset_max_err(got, want) <= 1e-12 * m
    for k in (5, 10, 11, 20, 40):
        assert np.abs(got - 1j * lam[k]).min() <= 1e-13 * m


_SORT_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, float("inf"), float("-inf"), float("nan")]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(parts=st.lists(st.tuples(_SORT_PARTS, _SORT_PARTS), max_size=40), repeat=st.integers(0, 3))
def test_re_im_order_is_the_two_key_sort(parts, repeat):
    # one stable argsort of the complex values, or the two-key sort where
    # a part is NaN: either way exactly the (Re, Im) lexsort, ties in
    # input order (repeated values and -0.0 beside 0.0 included)
    values = np.array([complex(re, im) for re, im in parts] * (repeat + 1), dtype=complex)
    got = chain1d._re_im_order(values)
    assert np.array_equal(got, np.lexsort((values.imag, values.real)))
