import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropqed import (
    ConfigError,
    NetworkSpec,
    enumerate_lines,
    enumerate_qubits,
    sample_noise,
)
from dropqed import errors, lattice
from dropqed.lattice import _lines
from oracles import loop_noise

dims_strategy = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4)


def make_spec(dims, theta=0.5 * np.pi):
    return NetworkSpec(dims=tuple(dims), gammas=(1.0,) * len(dims), theta=theta)


def test_enumerate_qubits_2x2_order():
    spec = make_spec([2, 2])
    assert enumerate_qubits(spec) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_enumerate_qubits_1d():
    assert enumerate_qubits(make_spec([3])) == [(1,), (2,), (3,)]


def test_enumerate_qubits_count():
    assert len(enumerate_qubits(make_spec([2, 3, 4]))) == 24


@pytest.mark.parametrize("dims, axis, expected", [
    ([2, 3], 0, 3),
    ([2, 3], 1, 2),
    ([5, 3, 4], 1, 20),
])
def test_enumerate_lines_count(dims, axis, expected):
    assert len(enumerate_lines(make_spec(dims), axis)) == expected


@given(dims_strategy)
@settings(max_examples=40)
def test_lines_partition_qubits(dims):
    # row l of an axis's table is line l of enumerate_lines, its qubits in
    # position order, and the rows hold every qubit exactly once
    spec = make_spec(dims)
    qubits = enumerate_qubits(spec)
    for axis, table in enumerate(_lines(spec)):
        lines = enumerate_lines(spec, axis)
        assert table.shape == (len(lines), dims[axis])
        for line, row in zip(lines, table):
            coords = [qubits[i] for i in row]
            assert [c[axis] for c in coords] == list(range(1, dims[axis] + 1))
            assert all(c[:axis] + c[axis + 1:] == line.transverse for c in coords)
        assert sorted(table.ravel().tolist()) == list(range(spec.n_qubits))


def test_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(dims=(0, 2), gammas=(1.0, 1.0), theta=0.3)
    with pytest.raises(ValueError):
        NetworkSpec(dims=(2,), gammas=(-1.0,), theta=0.3)
    with pytest.raises(ValueError):
        NetworkSpec(dims=(2,), gammas=(1.0, 2.0), theta=0.3)
    with pytest.raises(ValueError):
        NetworkSpec(dims=(2,), gammas=(1.0,), theta=np.inf)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spec_rejects_a_rate_that_is_not_finite(bad):
    # NaN passed the old g <= 0 test
    with pytest.raises(ValueError, match="finite and > 0"):
        NetworkSpec(dims=(2, 3), gammas=(bad, 1.0), theta=0.3)


@pytest.mark.filterwarnings("error")
def test_spec_rejects_rates_whose_total_overflows():
    # each rate is finite, but not their total over qubits and axes: drop
    # wrote inf and -inf rates, after numpy's RuntimeWarnings
    with pytest.raises(ValueError, match="total rate"):
        NetworkSpec(dims=(2, 2), gammas=(1e308, 1e308), theta=0.3)
    with pytest.raises(ValueError, match="total rate"):
        NetworkSpec(dims=(10 ** 300,), gammas=(1e10,), theta=0.3)
    spec = NetworkSpec(dims=(2, 2), gammas=(1.0, 1.0), theta=0.3)
    field = lattice.NoiseField(dims=(2, 2), rates=np.full((4, 2), 1e308), epsilon_max=0.1,
                               rng_seed=0)
    with pytest.raises(ValueError, match="total rate"):
        spec.with_noise(field)
    # a total within the float range is kept, to fail the certificates
    assert NetworkSpec(dims=(2, 2), gammas=(1e300, 1.0), theta=0.3).rate_sum == 2e300 + 2


def test_noise_zero_epsilon_is_symmetric():
    spec = NetworkSpec(dims=(3, 2), gammas=(1.0, 2.5), theta=0.4)
    field = sample_noise(spec, 0.0, seed=11)
    assert np.array_equal(field.rates, spec.resolved_rates())


def test_noise_shape_and_count():
    spec = NetworkSpec(dims=(3, 2, 6), gammas=(1.0, 3.0, 2.0), theta=0.4)
    field = sample_noise(spec, 0.05, seed=3)
    assert field.rates.shape == (36, 3)
    assert field.rates.size == 36 * 3


def test_noise_deterministic_and_seed_sensitive():
    spec = NetworkSpec(dims=(2, 3), gammas=(1.0, 2.0), theta=0.4)
    a = sample_noise(spec, 0.05, seed=42)
    b = sample_noise(spec, 0.05, seed=42)
    c = sample_noise(spec, 0.05, seed=43)
    assert np.array_equal(a.rates, b.rates)
    assert not np.array_equal(a.rates, c.rates)


# (dims, gammas, epsilon, seed): up to epsilon 1.5, where draws are
# rejected, and seeds of one to three 32-bit words and more
NOISE_CASES = [
    ((3, 2, 6), (1.0, 3.0, 2.0), 0.05, 7),
    ((3, 3, 3), (1.0, 1.0, 1.0), 0.02, 1),
    ((3, 3, 3), (1.0, 1.0, 1.0), 0.05, 0),
    ((2, 2), (1.0, 2.0), 0.05, 7),
    ((4, 4), (1.0, 0.1), 0.9, 0),
    ((2, 3), (1.0, 2.0), 0.9, 2 ** 32 - 1),
    ((5,), (1.0,), 0.9, 2 ** 32),
    ((4, 5), (0.5, 2.0), 0.7, 2 ** 64 - 1),
    ((2, 2, 3), (1.0, 4.0, 2.0), 0.9, 2 ** 73),
    ((1,), (2.0,), 0.3, 2 ** 73 + 12345),
    ((1, 1, 1, 1), (1.0, 2.0, 3.0, 4.0), 0.5, 99),
    ((6, 6), (1.0, 3.0), 0.05, 5),
    ((2, 1, 3), (1.0, 1.0, 1.0), 0.2, 123456789),
    ((7,), (0.3,), 0.8, 2 ** 128 + 5),
    ((3, 4), (1.0, 1.0), 1.5, 3),
    ((3, 2), (1.0, 2.5), 0.0, 11),
]


@pytest.mark.parametrize("dims, gammas, epsilon, seed", NOISE_CASES)
def test_noise_matches_one_stream_per_qubit_and_axis(dims, gammas, epsilon, seed):
    spec = NetworkSpec(dims=dims, gammas=gammas, theta=0.4)
    field = sample_noise(spec, epsilon, seed)
    assert np.array_equal(field.rates, loop_noise(spec, epsilon, seed))
    assert field.rng_seed == seed


def test_noise_keys_are_checked_against_numpy(monkeypatch):
    spec = NetworkSpec(dims=(2, 3), gammas=(1.0, 2.0), theta=0.4)
    keys = lattice._stream_keys(5, spec.n_qubits, spec.ndim)
    want = [np.random.SeedSequence(entropy=5, spawn_key=(i, n)).generate_state(2, np.uint64)
            for i in range(spec.n_qubits) for n in range(spec.ndim)]
    assert np.array_equal(keys, want)
    monkeypatch.setattr(lattice, "_MULT_B", lattice._MULT_B + 2)
    with pytest.raises(RuntimeError, match="SeedSequence"):
        sample_noise(spec, 0.05, seed=5)


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
def test_noise_rejects_seeds_numpy_rejects(seed, error):
    spec = NetworkSpec(dims=(2, 3), gammas=(1.0, 2.0), theta=0.4)
    with pytest.raises(error):
        sample_noise(spec, 0.05, seed)


@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError)])
def test_noise_at_zero_epsilon_rejects_what_a_draw_rejects(seed, error):
    # epsilon_max = 0 once returned the rates without reading the seed
    spec = NetworkSpec(dims=(2, 3), gammas=(1.0, 2.0), theta=0.4)
    with pytest.raises(error) as noisy:
        sample_noise(spec, 0.05, seed)
    with pytest.raises(error) as zero:
        sample_noise(spec, 0.0, seed)
    assert str(zero.value) == str(noisy.value)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf, -np.inf, -0.1])
def test_noise_rejects_an_epsilon_that_is_not_finite_and_nonnegative(epsilon):
    # a NaN epsilon used to pass the check and never leave the rejection loop
    spec = NetworkSpec(dims=(2, 3), gammas=(1.0, 2.0), theta=0.4)
    with pytest.raises(ValueError, match="epsilon_max"):
        sample_noise(spec, epsilon, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
def test_noise_field_rates_must_be_finite_and_positive(bad):
    rates = np.ones((6, 2))
    rates[3, 1] = bad
    with pytest.raises(ValueError, match="finite and > 0"):
        lattice.NoiseField(dims=(2, 3), rates=rates, epsilon_max=0.1, rng_seed=0)


def test_noise_positive_even_at_large_epsilon():
    spec = NetworkSpec(dims=(4, 4), gammas=(1.0, 0.1), theta=0.4)
    field = sample_noise(spec, 1.5, seed=0)
    assert np.all(field.rates > 0)


def test_noise_mean_rates_close_to_symmetric():
    spec = NetworkSpec(dims=(6, 6), gammas=(1.0, 3.0), theta=0.4)
    field = sample_noise(spec, 0.05, seed=5)
    means = field.mean_rates()
    assert abs(means[0] - 1.0) < 0.1
    assert abs(means[1] - 3.0) < 0.3


def test_effective_gammas_with_and_without_noise():
    spec = NetworkSpec(dims=(3, 3), gammas=(1.0, 2.0), theta=0.4)
    assert spec.effective_gammas() == (1.0, 2.0)
    noisy = spec.with_noise(sample_noise(spec, 0.05, seed=1))
    eff = noisy.effective_gammas()
    assert eff != (1.0, 2.0)
    assert abs(eff[0] - 1.0) < 0.2 and abs(eff[1] - 2.0) < 0.4


def test_n_qubits_is_exact_for_huge_dims():
    # int64 products wrap: (2**32, 2**32) gave 0 qubits
    assert NetworkSpec((2 ** 32, 2 ** 32), (1.0, 1.0), 0.5).n_qubits == 2 ** 64
    assert NetworkSpec((10 ** 7,) * 3, (1.0,) * 3, 0.5).n_qubits == 10 ** 21


def test_noise_is_refused_past_the_budget(monkeypatch):
    # (10^6, 10^6) asked numpy for 14.6 TiB of stream keys
    def keys(*args, **kwargs):
        raise AssertionError("streams keyed before the size check")
    monkeypatch.setattr(lattice, "_stream_keys", keys)
    monkeypatch.setattr(lattice.np.random, "SeedSequence", keys)
    with pytest.raises(ConfigError, match="budget"):
        sample_noise(make_spec([10 ** 6, 10 ** 6]), 0.05, seed=0)
    # a 50 kB budget stands in: one stream more than it admits is refused
    monkeypatch.setattr(errors, "_MEMORY_BUDGET", 50_000)
    admitted = 50_000 // lattice._STREAM_BYTES
    with pytest.raises(ConfigError, match="budget"):
        sample_noise(make_spec([admitted + 1]), 0.05, seed=0)
    monkeypatch.undo()
    monkeypatch.setattr(errors, "_MEMORY_BUDGET", 50_000)
    assert sample_noise(make_spec([admitted]), 0.05, seed=0).rates.shape == (admitted, 1)


@pytest.mark.parametrize("dims", [[60, 60], [20, 20, 20]])
def test_noise_stays_within_its_per_stream_budget(dims):
    spec = make_spec(dims)
    sample_noise(make_spec([2, 2]), 0.05, seed=0)     # numpy's first-call allocations
    tracemalloc.start()
    try:
        sample_noise(spec, 0.05, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= spec.n_qubits * spec.ndim * lattice._STREAM_BYTES
