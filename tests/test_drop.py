import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from dropqed import drop, errors
from dropqed import (
    ConfigError,
    NetworkSpec,
    SizeMismatchError,
    Spectrum,
    chain_rates,
    drop_spectrum,
    match_spectra,
    sample_noise,
)
from oracles import (
    cartesian_rate_multiset,
    chain3_rates,
    lattice_2x2_rates,
    lattice_3x3_rates,
    multiset_max_err,
)


def spec_of(dims, gammas, frac):
    return NetworkSpec(dims=tuple(dims), gammas=tuple(gammas), theta=frac * np.pi)


def test_2x2_all_sign_combinations():
    for g2 in (1.0, 0.4, 4.0):
        for frac in (0.0, 0.3, 0.5, 0.9999, 1.0):
            spec = spec_of([2, 2], (1.0, g2), frac)
            got = drop_spectrum(spec).rates
            want = lattice_2x2_rates(1.0, g2, spec.theta)
            assert multiset_max_err(got, want) < 1e-10


def test_3x3_closed_forms():
    for g2 in (0.4, 1.0, 2.7):
        for frac in (0.3, 0.5, 0.65, 0.9999):
            spec = spec_of([3, 3], (1.0, g2), frac)
            got = drop_spectrum(spec).rates
            want = lattice_3x3_rates(1.0, g2, spec.theta)
            assert multiset_max_err(got, want) < 1e-10


def test_2x3x4_at_pi_frozen_multiset():
    # per-axis rates at theta=pi are {0, N}; enumerate the sums by hand
    spec = spec_of([2, 3, 4], (1.0, 1.0, 1.0), 1.0)
    got = np.sort(drop_spectrum(spec).rates.real.round(9))
    want = np.sort([a + b + c
                    for a in (0, 2) for b in (0, 0, 3) for c in (0, 0, 0, 4)])
    assert np.allclose(got, want, atol=1e-9)
    values, counts = np.unique(want, return_counts=True)
    assert dict(zip(values.tolist(), counts.tolist())) == {
        0.0: 6, 2.0: 6, 3.0: 3, 4.0: 2, 5.0: 3, 6.0: 2, 7.0: 1, 9.0: 1,
    }


def test_d1_reduces_to_scaled_chain():
    gamma = 2.2
    spec = spec_of([5], (gamma,), 0.41)
    got = drop_spectrum(spec).rates
    want = gamma * chain_rates(5, spec.theta).z
    assert multiset_max_err(got, want) < 1e-12


def test_matches_bruteforce_enumeration():
    spec = spec_of([2, 3, 4], (1.0, 4.0, 2.0), 0.37)
    per_axis = [chain_rates(n, spec.theta).z for n in spec.dims]
    want = cartesian_rate_multiset(per_axis, spec.gammas)
    assert multiset_max_err(drop_spectrum(spec).rates, want) < 1e-12


def test_index_tuples_are_exhaustive_and_consistent():
    spec = spec_of([2, 3], (1.0, 0.4), 0.37)
    s = drop_spectrum(spec)
    assert s.index_tuples is not None
    assert len(set(s.index_tuples)) == 6
    assert set(s.index_tuples) == set(itertools.product((1, 2), (1, 2, 3)))
    per_axis = [chain_rates(n, spec.theta).z for n in spec.dims]
    for rate, tup in zip(s.rates, s.index_tuples):
        rebuilt = sum(g * per_axis[n][tup[n] - 1]
                      for n, g in enumerate(spec.gammas))
        assert abs(rate - rebuilt) < 1e-12


def test_trace_rule_exact():
    for dims, gammas in [([2, 2], (1.0, 0.4)), ([2, 3, 4], (1.0, 4.0, 2.0))]:
        spec = spec_of(dims, gammas, 0.63)
        total = drop_spectrum(spec).rates.sum()
        expected = spec.n_qubits * sum(spec.gammas)
        assert abs(total - expected) < 1e-10 * expected


def test_joint_permutation_invariance():
    base = spec_of([2, 3, 4], (1.0, 4.0, 2.0), 0.5)
    permuted = spec_of([4, 2, 3], (2.0, 1.0, 4.0), 0.5)
    a = drop_spectrum(base).rates
    b = drop_spectrum(permuted).rates
    assert multiset_max_err(a, b) < 1e-10


def test_scaling_covariance():
    spec = spec_of([3, 2], (1.0, 0.7), 0.44)
    c = 3.5
    scaled = spec_of([3, 2], (c * 1.0, c * 0.7), 0.44)
    a = drop_spectrum(spec).rates
    b = drop_spectrum(scaled).rates
    assert multiset_max_err(c * a, b) < 1e-10 * c


def test_noisy_spec_uses_averaged_rates():
    spec = spec_of([3, 2], (1.0, 3.0), 0.44)
    noisy = spec.with_noise(sample_noise(spec, 0.05, seed=9))
    got = drop_spectrum(noisy).rates
    eff = noisy.effective_gammas()
    want = drop_spectrum(spec_of([3, 2], eff, 0.44)).rates
    assert multiset_max_err(got, want) < 1e-12


def test_match_identical():
    s = drop_spectrum(spec_of([2, 3], (1.0, 0.4), 0.3))
    report = match_spectra(s, s, tol=1e-12)
    assert report.max_abs_error == 0.0
    assert report.mean_abs_error == 0.0
    assert report.passed
    assert sorted(i for i, _ in report.pairing) == list(range(6))
    assert sorted(j for _, j in report.pairing) == list(range(6))


def test_match_is_permutation_invariant():
    rates = np.array([1 + 1j, 1 + 1.0000001j, 5.0, -2j])
    a = Spectrum(rates=rates, method="x")
    b = Spectrum(rates=rates[::-1].copy(), method="y")
    report = match_spectra(a, b, tol=1e-12)
    assert report.max_abs_error == 0.0


def test_match_size_mismatch():
    a = Spectrum(rates=np.array([1.0 + 0j]), method="x")
    b = Spectrum(rates=np.array([1.0 + 0j, 2.0 + 0j]), method="y")
    with pytest.raises(SizeMismatchError):
        match_spectra(a, b, tol=1.0)


@given(st.lists(st.complex_numbers(max_magnitude=100, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=12),
       st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_match_any_permutation_is_exact(values, rnd):
    perm = values[:]
    rnd.shuffle(perm)
    report = match_spectra(np.array(values), np.array(perm), tol=0.0)
    assert report.max_abs_error <= 1e-9 * max(1.0, max(abs(v) for v in values))


# complex rates on a few centres, offset by whole multiples of a tight
# spacing: repeated values and clusters, where two rates can share a nearest
# partner and the matching needs the assignment solver
_CENTRES = (0.0, 1.0, 1.0 + 2.0j, -0.5j)
_clustered = st.builds(
    lambda centre, step, k, l: _CENTRES[centre] + step * (k + 1j * l),
    st.integers(0, len(_CENTRES) - 1), st.sampled_from((0.0, 1e-15, 1e-9, 0.3)),
    st.integers(-2, 2), st.integers(-2, 2))


@given(st.integers(1, 10).flatmap(
    lambda n: st.tuples(*[st.lists(_clustered, min_size=n, max_size=n)] * 2)))
@settings(max_examples=300)
@example(([0.0, 1.0], [1.0, 1e-9]))          # distinct nearest partners
@example(([0.0, 1e-15], [5e-16, 3.0]))       # both want the same partner
def test_match_agrees_with_the_assignment_solver(pair):
    a, b = (np.array(v, dtype=complex) for v in pair)
    report = match_spectra(a, b, tol=0.0)
    n = len(a)
    assert sorted(i for i, _ in report.pairing) == list(range(n))
    assert sorted(j for _, j in report.pairing) == list(range(n))
    cost = np.abs(a[:, None] - b[None, :])
    want = cost[linear_sum_assignment(cost)]
    assert report.max_abs_error == float(want.max())
    assert report.mean_abs_error == float(want.mean())


@given(st.lists(st.integers(-3, 12), max_size=14))
@settings(max_examples=300)
@example([])
@example([4])
@example([2, 0, 2])
def test_sort_distinctness_agrees_with_unique(values):
    # match_spectra's test on its nearest columns, without numpy.ma
    cols = np.array(values, dtype=np.intp)
    assert drop._distinct(cols) == (len(np.unique(cols)) == len(cols))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_match_rejects_non_finite_rates(bad):
    # distinct nearest partners, yet no pairing is reported
    with pytest.raises(ValueError):
        match_spectra(np.array([bad, 1.0]), np.array([0.0, 1.0]), tol=1.0)


def test_spectrum_validates_tuples():
    with pytest.raises(ValueError):
        Spectrum(rates=np.array([1.0 + 0j, 2.0 + 0j]), method="drop",
                 index_tuples=((1,),))
    with pytest.raises(ValueError):
        Spectrum(rates=np.array([1.0 + 0j, 2.0 + 0j]), method="drop",
                 index_tuples=((1,), (1,)))


def test_drop_spectrum_solves_each_axis_length_once(monkeypatch):
    calls = []
    original = drop.chain_rates

    def counted(n, theta):
        calls.append(n)
        return original(n, theta)
    monkeypatch.setattr(drop, "chain_rates", counted)
    spec = spec_of([5, 5, 5], (1.0, 4.0, 2.0), 0.65)
    got = drop_spectrum(spec).rates
    assert calls == [5]
    z = original(5, spec.theta).z
    # the same sums in the same order as one eigensolve per axis: equal bits
    assert np.array_equal(got, cartesian_rate_multiset([z, z, z], spec.gammas))
    calls.clear()
    drop_spectrum(spec_of([4, 2, 4, 2], (1.0, 2.0, 3.0, 4.0), 0.3))
    assert calls == [4, 2]


def test_cartesian_sum_and_chain_refuse_past_the_budget(monkeypatch):
    # a 50 kB budget stands in for an oversized network: 100 rates or a
    # 40 x 40 chain kernel exceed it
    monkeypatch.setattr(errors, "_MEMORY_BUDGET", 50_000)
    with pytest.raises(ConfigError, match="budget"):
        drop_spectrum(spec_of([10, 10], (1.0, 1.0), 0.5))
    with pytest.raises(ConfigError, match="budget"):
        chain_rates(40, 0.5 * np.pi)


def test_memory_budget_admits_the_benchmark_sizes():
    # drop 30^3, classify 40x40, chains and scaling sweeps up to 400 qubits
    for dims in ([30, 30, 30], [40, 40], [400]):
        drop._check_rates(spec_of(dims, (1.0,) * len(dims), 0.5))
    errors._check_dense(400, 400, "the chain kernel")
    # 2 GiB at 1 KiB per rate: 128^3 rates fit, one more row does not
    drop._check_rates(spec_of([128, 128, 128], (1.0,) * 3, 0.5))
    with pytest.raises(ConfigError, match="budget"):
        drop._check_rates(spec_of([128, 128, 129], (1.0,) * 3, 0.5))
    # the longest axis's chain kernel: 5792 qubits fit, 5793 do not
    drop._check_rates(spec_of([5792, 2], (1.0, 1.0), 0.5))
    with pytest.raises(ConfigError, match="chain kernel"):
        drop._check_rates(spec_of([5793, 2], (1.0, 1.0), 0.5))


def test_index_tuples_from_outside_must_be_distinct():
    with pytest.raises(ValueError, match="distinct"):
        Spectrum(rates=[1.0, 2.0], method="drop", index_tuples=((1,), (1,)))
    with pytest.raises(ValueError, match="one index tuple"):
        Spectrum(rates=[1.0, 2.0], method="drop", index_tuples=((1,),))


def test_drop_spectrum_builds_no_set_of_its_tuples(monkeypatch):
    # itertools.product yields distinct tuples; hashing them all proves nothing
    def hashes(*args):
        raise AssertionError("index tuples hashed into a set")
    monkeypatch.setattr(drop, "set", hashes, raising=False)
    spectrum = drop_spectrum(spec_of([3, 2, 4], (1.0, 4.0, 2.0), 0.65))
    assert spectrum.index_tuples == tuple(itertools.product(range(1, 4), range(1, 3), range(1, 5)))


def test_product_tuples_are_built_on_first_read_and_kept(monkeypatch):
    calls = []
    original = drop.itertools.product

    def counted(*ranges):
        calls.append(len(ranges))
        return original(*ranges)
    monkeypatch.setattr(drop.itertools, "product", counted)
    spectrum = drop_spectrum(spec_of([3, 1, 4], (1.0, 4.0, 2.0), 0.65))
    assert spectrum.has_tuples and calls == []
    first = spectrum.index_tuples
    assert first is spectrum.index_tuples and calls == [3]
    assert first == tuple(original(range(1, 4), range(1, 2), range(1, 5)))
    assert not Spectrum(rates=[1.0], method="eigen").has_tuples
    assert Spectrum(rates=[1.0], method="eigen", index_tuples=((2,),)).has_tuples
