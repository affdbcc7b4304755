import itertools

import numpy as np
import pytest

from dropqed import (
    ConfigError,
    NetworkSpec,
    Spectrum,
    ThetaOutOfRange,
    all_poles_eig,
    bic_condition_check,
    chain_rates,
    classify_superradiance,
    drop,
    drop_spectrum,
    expected_cluster_counts,
    noise_study,
    sample_noise,
    subradiance_scaling,
)

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dropqed import analysis, eom
from dropqed.chain1d import ChainSpectrum
from oracles import cartesian_min_rate, loop_bic_report, loop_classify, multiset_max_err


def spec_of(dims, gammas=None, frac=1.0):
    gammas = gammas or (1.0,) * len(dims)
    return NetworkSpec(dims=tuple(dims), gammas=tuple(gammas), theta=frac * np.pi)


# ------------------------------------------------------- classification

def test_expected_counts_closed_form_small():
    assert expected_cluster_counts([2, 3, 4]) == {0: 6, 1: 11, 2: 6, 3: 1}
    assert expected_cluster_counts([2, 2]) == {0: 1, 1: 2, 2: 1}
    assert expected_cluster_counts([7]) == {0: 6, 1: 1}


def test_expected_counts_are_exact_past_int64():
    # (2^32 - 1)^2 wraps in a fixed-width product
    big = 2 ** 32
    assert expected_cluster_counts((big, big)) == {0: (big - 1) ** 2, 1: 2 * (big - 1), 2: 1}


def test_expected_counts_sum_to_n_up_to_100():
    for dims in itertools.chain(
        [(n,) for n in range(1, 101)],
        itertools.product(range(1, 7), repeat=2),
        itertools.product(range(1, 5), repeat=3),
    ):
        if np.prod(dims) > 100:
            continue
        counts = expected_cluster_counts(dims)
        assert sum(counts.values()) == int(np.prod(dims))


def test_classify_2x3x4():
    spec = spec_of([2, 3, 4], frac=0.9999)
    report = classify_superradiance(spec, drop_spectrum(spec))
    assert report.cluster_counts == {0: 6, 1: 11, 2: 6, 3: 1}


def test_classify_chain_limit():
    for n in (3, 9):
        spec = spec_of([n], frac=1.0)
        report = classify_superradiance(spec, drop_spectrum(spec))
        assert report.cluster_counts == {0: n - 1, 1: 1}


def test_classify_2x2_counts_and_centers():
    g1, g2 = 1.0, 0.4
    spec = spec_of([2, 2], (g1, g2), frac=1.0)
    report = classify_superradiance(spec, drop_spectrum(spec))
    assert report.cluster_counts == {0: 1, 1: 2, 2: 1}
    centers = report.cluster_centers
    assert abs(centers[()]) < 1e-12
    assert abs(centers[(0,)] - 2 * g1) < 1e-12
    assert abs(centers[(1,)] - 2 * g2) < 1e-12
    assert abs(centers[(0, 1)] - (2 * g1 + 2 * g2)) < 1e-12


def test_classify_counts_match_formula_generic():
    for dims in [(2, 2), (3, 4), (2, 3, 4), (4, 4, 2)]:
        spec = spec_of(list(dims), frac=0.9999)
        report = classify_superradiance(spec, drop_spectrum(spec))
        assert report.cluster_counts == expected_cluster_counts(dims)
        assert sum(report.cluster_counts.values()) == spec.n_qubits


def test_classify_theta_window():
    spec = spec_of([2, 2], frac=0.7)
    with pytest.raises(ThetaOutOfRange):
        classify_superradiance(spec, drop_spectrum(spec))


def test_classify_requires_index_tuples():
    spec = spec_of([2, 2], frac=1.0)
    from dropqed import Spectrum
    bare = Spectrum(rates=drop_spectrum(spec).rates, method="eigen")
    with pytest.raises(ValueError):
        classify_superradiance(spec, bare)


def test_classify_at_exact_resonance_limits():
    spec = spec_of([2, 3, 4], frac=1.0)
    s = drop_spectrum(spec)
    report = classify_superradiance(spec, s)
    gammas_sum = spec.rate_sum
    for rate, k in zip(s.rates, report.k_labels):
        if k == 0:
            assert abs(rate) <= 1e-9 * gammas_sum
        if k == spec.ndim:
            assert abs(rate - gammas_sum) <= 1e-9 * gammas_sum


def test_classify_solves_each_axis_length_once(monkeypatch):
    calls = []
    original = drop.chain_rates

    def counted(n, theta):
        calls.append(n)
        return original(n, theta)
    for dims, solves in (([12, 12, 12], 1), ([6, 8, 10], 3)):
        spec = spec_of(dims, frac=0.9999)
        calls.clear()
        monkeypatch.setattr(drop, "chain_rates", counted)
        s = drop_spectrum(spec)
        report = classify_superradiance(spec, s)
        monkeypatch.undo()
        assert len(calls) == solves
        top = [int(np.argmax(original(n, spec.theta).z.real)) + 1 for n in dims]
        assert report.k_labels == tuple(
            sum(t == best for t, best in zip(tup, top)) for tup in s.index_tuples)
        assert report.cluster_counts == expected_cluster_counts(dims)


@pytest.mark.parametrize("dims, gammas, frac, noisy, read_tuples", [
    ([40, 40], None, 0.9999, False, False),
    ([12, 12, 12], (1.0, 4.0, 2.0), 0.9999, False, False),
    ([2, 3, 4], None, 1.0, False, False),
    ([3, 1, 4], (1.0, 4.0, 2.0), 2.0, True, False),
    ([5], None, 1.02, False, False),
    ([2, 2, 3, 2], (1.0, 0.4, 2.0, 3.0), 0.97, True, False),
    ([4, 5], (1.0, 0.4), 0.9999, False, True),
    ([2, 3, 4], None, 1.0, True, True),
])
def test_classify_is_bit_identical_to_a_loop_over_rates(dims, gammas, frac, noisy, read_tuples):
    # classification reads the product shape alone: tuples built and kept
    # on the spectrum beforehand change nothing
    spec = spec_of(dims, gammas, frac)
    if noisy:
        spec = spec.with_noise(sample_noise(spec, 0.05, seed=2))
    s = drop_spectrum(spec)
    if read_tuples:
        assert len(s.index_tuples) == len(s)
    report = classify_superradiance(spec, s)
    k_labels, counts, centers = loop_classify(spec, s)
    assert report.k_labels == k_labels
    assert report.cluster_counts == counts
    assert list(report.cluster_centers) == list(centers)
    assert (np.array(list(report.cluster_centers.values())).tobytes()
            == np.array(list(centers.values())).tobytes())


# ----------------------------------------------------------- scaling fits

def test_scaling_d2_slope_window():
    fit = subradiance_scaling(2, m_range=range(4, 11))
    assert -1.7 < fit.slope < -1.3
    assert len(fit.sizes) == 7


def test_scaling_needs_five_points():
    with pytest.raises(ValueError):
        subradiance_scaling(1, m_range=[10, 20, 30, 40])


def test_scaling_monotone_decreasing():
    fit = subradiance_scaling(3, m_range=range(2, 7))
    assert all(a > b for a, b in zip(fit.min_rates, fit.min_rates[1:]))


def test_scaling_1d_near_resonance_fits_the_chain_law():
    # past M = 105 the chain minimum at 0.9999 pi falls below 1e-13; it is
    # a physical rate, so the fit keeps it and reads the N^-3 law
    fit = subradiance_scaling(1, 0.9999 * np.pi, range(10, 301, 10))
    assert min(fit.min_rates) < 1e-14
    assert abs(fit.slope + 3) <= 0.05


@pytest.mark.parametrize("frac", [0, 1, -1, 2, 3])
def test_scaling_1d_at_resonance_leaves_out_the_dark_rates(frac):
    # at theta = m pi every chain rate but the top one, M, is dark
    sizes = list(range(1, 10)) + [79, 80, 81, 150]
    fit = subradiance_scaling(1, frac * np.pi, sizes)
    assert np.allclose(fit.min_rates, sizes, rtol=1e-12, atol=0)


def test_scaling_rejects_a_rate_that_is_not_positive(monkeypatch):
    monkeypatch.setattr(analysis, "chain_rates",
                        lambda n, theta: ChainSpectrum(n=2, theta=theta, z=[0.0, 1.0]))
    with pytest.raises(ValueError, match="not positive"):
        subradiance_scaling(1, 0.5 * np.pi, range(2, 7))


@pytest.mark.parametrize("frac", [0.5, 0.65, 0.9999, 0.99999, 1, 2, -1])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("sweep", ["default", "from-one"])
def test_scaling_minimum_is_the_cartesian_minimum(d, frac, sweep):
    # the per-axis minimum equals that over the whole Cartesian sum, with
    # the dark sums left out at resonance, bit for bit
    m_range = analysis._DEFAULT_SWEEPS[d] if sweep == "default" else range(1, 7)
    fit = subradiance_scaling(d, frac * np.pi, m_range)
    assert fit.min_rates == tuple(cartesian_min_rate(d, m, frac * np.pi) for m in m_range)


def test_scaling_3d_past_the_cartesian_budget():
    # 3,375,000 rates at M = 150 would need 3.2 GiB as a Cartesian sum;
    # one chain eigensolve per point reads the N^-1 law
    fit = subradiance_scaling(3, 0.9999 * np.pi, range(100, 301, 50))
    assert abs(fit.slope + 1) <= 0.01


@pytest.mark.parametrize("d, theta, m_range", [
    (0, 0.5 * np.pi, range(3, 8)),
    (1, np.nan, range(3, 8)),
    (400, 0.5 * np.pi, range(10, 15)),
], ids=["d-zero", "theta-nan", "n-past-float"])
def test_scaling_refuses_before_any_chain_is_solved(monkeypatch, d, theta, m_range):
    def solves(n, theta):
        raise AssertionError("a chain was solved")
    monkeypatch.setattr(analysis, "chain_rates", solves)
    with pytest.raises(ValueError):
        subradiance_scaling(d, theta, m_range)


def test_scaling_refuses_an_m_past_the_chain_budget_as_it_is_read():
    # the sweep was listed whole first: range(6000, 2000001) took 167 MB
    # of peak RSS before its first chain was refused
    read = []

    def sweep():
        for m in range(6000, 2_000_001):
            read.append(m)
            yield m
    with pytest.raises(ConfigError, match="budget"):
        subradiance_scaling(1, 0.5 * np.pi, sweep())
    assert read == [6000]


# ------------------------------------------------------------ bound states

def _null_basis(basis):
    """A stand-in for eom.nullity_at that returns ``basis`` as the null basis."""
    def nullity_at(spec, delta, rank_tol=1e-8):
        return eom.NullSpaceResult(nullity=basis.shape[1], e_basis=basis,
                                   singular_values=np.ones(len(basis)), rank_tol=rank_tol)
    return nullity_at


def test_line_weight_rules(monkeypatch):
    # the uniform vector on a chain: plain sum sqrt(n), alternating sum
    # 0 for even n and 1 / sqrt(n) for odd n
    cases = [
        (4, 1, {"plain": 2.0, "alternating": 0.0, "qubit-parity": 2.0, "phase-parity": 0.0}),
        (4, 2, {"plain": 2.0, "alternating": 0.0, "qubit-parity": 2.0, "phase-parity": 2.0}),
        (3, 1, {"plain": 3 ** 0.5, "alternating": 3 ** -0.5, "qubit-parity": 3 ** -0.5,
                "phase-parity": 3 ** -0.5}),
        (3, 2, {"plain": 3 ** 0.5, "alternating": 3 ** -0.5, "qubit-parity": 3 ** -0.5,
                "phase-parity": 3 ** 0.5}),
    ]
    for n, m, values in cases:
        monkeypatch.setattr(eom, "nullity_at", _null_basis(np.full((n, 1), n ** -0.5, complex)))
        report = bic_condition_check(spec_of([n], frac=m), m=m)
        assert report.max_violation == pytest.approx(values, abs=1e-15)
        assert [(v.rule, v.value) for v in report.violations] == [
            (rule, pytest.approx(value, abs=1e-15))
            for rule, value in values.items() if value > 1e-8]


@pytest.mark.parametrize("dims, m", [([2], 1), ([3], 2), ([2, 3], 1), ([3, 4], 2), ([3, 3, 3], 1)])
def test_bic_report_does_not_depend_on_the_null_basis(monkeypatch, dims, m):
    # every orthonormal basis of the null space, the SVD's turned by a
    # random unitary Q, gives the same rows and values
    spec = spec_of(dims, tuple(0.5 + i for i in range(len(dims))), frac=m)
    report = bic_condition_check(spec, m=m)
    null = eom.nullity_at(spec, 0.0)
    k = null.nullity
    rng = np.random.default_rng(k)
    q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    monkeypatch.setattr(eom, "nullity_at", _null_basis(null.e_basis @ q))
    turned = bic_condition_check(spec, m=m)
    assert [(v.rule, v.line) for v in turned.violations] == [
        (v.rule, v.line) for v in report.violations]
    assert np.allclose([v.value for v in turned.violations],
                       [v.value for v in report.violations], rtol=0, atol=1e-12)
    assert turned.max_violation == pytest.approx(report.max_violation, rel=0, abs=1e-12)
    # the failing rules' values are those of a unit null vector
    assert max(report.max_violation.values()) > 0.1


def test_bic_two_qubit_chain():
    # null vector is symmetric: the alternating sum e1 - e2 vanishes, the
    # plain sum does not -- so the stated even-count rule is violated and
    # must be reported
    report = bic_condition_check(spec_of([2], frac=1.0), m=1)
    assert report.nullity == 1 == report.expected_nullity
    assert report.max_violation["alternating"] < 1e-8
    assert report.max_violation["phase-parity"] < 1e-8
    assert report.max_violation["qubit-parity"] > 0.1
    assert any(v.rule == "qubit-parity" for v in report.violations)


def test_bic_three_qubit_chain():
    # odd count: alternating rule, where stated and empirical rules agree
    report = bic_condition_check(spec_of([3], frac=1.0), m=1)
    assert report.nullity == 2 == report.expected_nullity
    assert report.max_violation["alternating"] < 1e-8
    assert report.max_violation["qubit-parity"] < 1e-8


def test_bic_2x3_nullity():
    report = bic_condition_check(spec_of([2, 3], frac=1.0), m=1)
    assert report.nullity == 2 == report.expected_nullity
    assert report.max_violation["phase-parity"] < 1e-8


def test_bic_even_m_uses_plain_sums():
    report = bic_condition_check(spec_of([3], frac=2.0), m=2)
    assert report.nullity == 2
    assert report.max_violation["plain"] < 1e-8
    assert report.max_violation["phase-parity"] < 1e-8
    # m even + odd count: the stated rule picks alternating and fails
    assert report.max_violation["qubit-parity"] > 0.1


@pytest.mark.parametrize("dims, m", [
    ([2], 1), ([3], 2), ([2, 3], 1), ([3, 4], 2), ([4, 5], 1), ([1, 4], 1),
    ([2, 2, 3], 2), ([3, 3, 3], 1), ([3, 3, 3], 2),
])
def test_bic_report_matches_the_per_line_loop(dims, m):
    # one contraction per axis gives the rows of the (line, rule) loop, in
    # its order, and its values
    spec = spec_of(dims, tuple(0.5 + i for i in range(len(dims))), frac=m)
    report, loop = bic_condition_check(spec, m=m), loop_bic_report(spec, m=m)
    assert [(v.rule, v.line) for v in report.violations] == [
        (v.rule, v.line) for v in loop.violations]
    assert np.allclose([v.value for v in report.violations],
                       [v.value for v in loop.violations], rtol=0, atol=1e-12)
    assert report.max_violation == pytest.approx(loop.max_violation, rel=0, abs=1e-12)
    assert (report.m, report.nullity, report.expected_nullity, report.rank_tol) == (
        loop.m, loop.nullity, loop.expected_nullity, loop.rank_tol)


def test_bic_requires_resonant_theta():
    with pytest.raises(ThetaOutOfRange):
        bic_condition_check(spec_of([2], frac=0.5), m=1)


# ------------------------------------------------------------ noise study

@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_noise_study_rejects_a_tol_that_is_not_finite_and_positive(tol):
    # noise_study takes no tol: its one certificate bound is fixed, so a
    # bad tol is refused as a keyword it does not take
    with pytest.raises(TypeError, match="tol"):
        noise_study(spec_of([2, 2], (1.0, 0.4), frac=0.65), 0.05, seed=1, tol=tol)


def test_noise_study_zero_epsilon_is_exact():
    spec = spec_of([2, 2], (1.0, 0.4), frac=0.65)
    result = noise_study(spec, 0.0, seed=0)
    assert result.recovered_count == 4
    assert result.unconverged == ()
    assert result.max_displacement < 1e-9


def test_noise_study_small_network():
    spec = spec_of([2, 2, 2], (1.0, 4.0, 2.0), frac=0.65)
    result = noise_study(spec, 0.05, seed=1)
    assert result.recovered_count == 8
    assert result.unconverged == ()
    assert result.max_displacement < 0.5 * spec.rate_sum
    assert np.all(np.isfinite(result.displacements))


@pytest.mark.parametrize("epsilon, seed", [(0.05, 0), (0.02, 1)])
def test_noise_study_equal_rate_3x3x3(epsilon, seed):
    spec = spec_of([3, 3, 3], (1.0, 1.0, 1.0), frac=0.65)
    result = noise_study(spec, epsilon, seed=seed)
    assert result.recovered_count == 27
    assert result.unconverged == ()
    noisy = spec.with_noise(sample_noise(spec, epsilon, seed))
    want = all_poles_eig(noisy, validate="none").poles.rates
    assert multiset_max_err(result.refined_poles.rates, want) <= 1e-10 * noisy.rate_sum


def test_noise_study_claim_order_is_pinned():
    # seeds claim poles closest first, and a seed that finds its nearest
    # pole taken gets the nearest unclaimed one; an optimal assignment
    # (least total displacement) moves max_displacement to 0.12998
    spec = spec_of([3, 3, 3], (1.0, 1.0, 1.0), frac=0.65)
    result = noise_study(spec, 0.05, seed=0)
    assert result.max_displacement == pytest.approx(0.128703567377, rel=1e-9)
    assert result.median_displacement == pytest.approx(0.0302363818156, rel=1e-9)


_displacements = st.lists(st.one_of(st.floats(0.0, 10.0), st.sampled_from([0.0, 1.5, np.nan])),
                          min_size=1, max_size=15)


@given(_displacements.filter(lambda v: not np.isnan(v).all()))
@settings(max_examples=300)
@example([np.nan, 2.0, 1.0])                       # odd count after a NaN
@example([3.0, np.nan, 1.0, 2.0, np.nan, 0.25])    # even count after NaNs
@example([0.1, 0.7])                               # (a + b) / 2 rounds
@example([5.0])
def test_nan_median_is_numpys_bit_for_bit(values):
    values = np.array(values)
    assert np.float64(analysis._nan_median(values)).tobytes() == np.nanmedian(values).tobytes()


def test_noise_study_seed_dependence():
    spec = spec_of([2, 2], (1.0, 2.0), frac=0.65)
    a = noise_study(spec, 0.05, seed=1)
    b = noise_study(spec, 0.05, seed=2)
    assert a.recovered_count == b.recovered_count == 4
    assert not np.allclose(a.refined_poles.rates, b.refined_poles.rates)
    again = noise_study(spec, 0.05, seed=1)
    assert np.array_equal(a.refined_poles.rates, again.refined_poles.rates)
