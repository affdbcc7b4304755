"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""

import itertools
import time

import numpy as np
import pytest

from dropqed import (
    NetworkSpec,
    all_poles_eig,
    bic_condition_check,
    chain_rates,
    classify_superradiance,
    drop_spectrum,
    find_pole,
    match_spectra,
    noise_study,
    nullity_at,
    subradiance_scaling,
)
from oracles import (
    chain2_rates,
    chain3_rates,
    lambda_residual,
    lattice_2x2_rates,
    lattice_3x3_rates,
    multiset_max_err,
    transfer_matrix,
)

THETAS_50 = np.linspace(0.01, 1.99, 50) * np.pi


def _report(number: int, name: str, ok: bool, elapsed: float, cap: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}  "
          f"[{elapsed:.2f}s / cap {cap:.0f}s] {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"
    assert elapsed < cap, f"criterion {number} exceeded its runtime cap"


def validation_matrix():
    """dims with every N_n <= 4 and d <= 3, with the per-d rate sets."""
    gamma_sets = [(1.0, 1.0), (1.0, 0.4), (1.0, 4.0, 2.0)]
    for d in (1, 2, 3):
        rate_choices = sorted({g[:d] for g in gamma_sets if len(g) >= d})
        for dims in itertools.product((1, 2, 3, 4), repeat=d):
            for gammas in rate_choices:
                yield dims, gammas


def test_acceptance_1_closed_forms():
    t0 = time.monotonic()
    worst = 0.0
    for theta in THETAS_50:
        worst = max(worst, multiset_max_err(chain_rates(2, theta).z, chain2_rates(theta)))
        worst = max(worst, multiset_max_err(chain_rates(3, theta).z, chain3_rates(theta)))
        for g2 in (1.0, 0.4):
            spec22 = NetworkSpec(dims=(2, 2), gammas=(1.0, g2), theta=theta)
            worst = max(worst, multiset_max_err(
                drop_spectrum(spec22).rates, lattice_2x2_rates(1.0, g2, theta)))
            spec33 = NetworkSpec(dims=(3, 3), gammas=(1.0, g2), theta=theta)
            worst = max(worst, multiset_max_err(
                drop_spectrum(spec33).rates, lattice_3x3_rates(1.0, g2, theta)))
    elapsed = time.monotonic() - t0
    _report(1, "closed-form reproduction", worst <= 1e-10, elapsed, 1.0,
            f"worst error {worst:.2e} (tol 1e-10)")


def test_acceptance_2_drop_eom_validation_matrix():
    t0 = time.monotonic()
    fractions = (0.3, 0.5, 0.65, 0.9999)
    worst, worst_case = 0.0, None
    runs = 0
    for dims, gammas in validation_matrix():
        for frac in fractions:
            spec = NetworkSpec(dims=dims, gammas=gammas, theta=frac * np.pi)
            drop = drop_spectrum(spec)
            eom = all_poles_eig(spec).poles
            tol = 1e-8 * spec.rate_sum
            report = match_spectra(drop, eom, tol)
            runs += 1
            rel = report.max_abs_error / spec.rate_sum
            if rel > worst:
                worst, worst_case = rel, (dims, gammas, frac)
            assert report.passed, (dims, gammas, frac, report.max_abs_error)
    elapsed = time.monotonic() - t0
    _report(2, "Cartesian-sum vs EoM validation matrix", worst <= 1e-8,
            elapsed, 300.0,
            f"{runs} configurations, worst relative error {worst:.2e} at {worst_case}")


def test_acceptance_3_5x3x4_sixty_poles():
    t0 = time.monotonic()
    spec = NetworkSpec(dims=(5, 3, 4), gammas=(1.0, 4.0, 2.0), theta=0.5 * np.pi)
    result = all_poles_eig(spec, validate="all")
    n_poles = len(result.poles.rates)
    err = multiset_max_err(result.poles.rates, drop_spectrum(spec).rates)
    ok = n_poles == 60 and err <= 1e-8 and bool(np.all(result.residuals <= 1e-9))
    elapsed = time.monotonic() - t0
    _report(3, "5x3x4 sixty-pole reproduction", ok, elapsed, 60.0,
            f"{n_poles} poles, max |drop - eom| = {err:.2e}, "
            f"worst sigma_min/||A|| = {np.nanmax(result.residuals):.2e}")


def test_acceptance_4_superradiance_structure():
    t0 = time.monotonic()
    spec = NetworkSpec(dims=(2, 3, 4), gammas=(1.0, 1.0, 1.0), theta=0.9999 * np.pi)
    report = classify_superradiance(spec, drop_spectrum(spec))
    counts_ok = report.cluster_counts == {0: 6, 1: 11, 2: 6, 3: 1}

    exact = NetworkSpec(dims=(2, 3, 4), gammas=(1.0, 1.0, 1.0), theta=np.pi)
    s = drop_spectrum(exact)
    cls = classify_superradiance(exact, s)
    dark_ok = all(abs(rate) <= 1e-9 for rate, k in zip(s.rates, cls.k_labels) if k == 0)
    top = [rate for rate, k in zip(s.rates, cls.k_labels) if k == 3]
    top_ok = len(top) == 1 and abs(top[0] - 9.0) <= 1e-9
    elapsed = time.monotonic() - t0
    _report(4, "superradiance cluster structure", counts_ok and dark_ok and top_ok,
            elapsed, 10.0,
            f"counts {report.cluster_counts}, fully-dark rates <= 1e-9: {dark_ok}, "
            f"top rate {top[0]:.12g}")


def test_acceptance_5_subradiance_scaling():
    t0 = time.monotonic()
    windows = {1: (-3.3, -2.7), 2: (-1.65, -1.35), 3: (-1.2, -0.8)}
    sweeps = {1: range(10, 61, 5), 2: range(4, 13), 3: range(3, 8)}
    slopes = {}
    ok = True
    for d, (lo, hi) in windows.items():
        fit = subradiance_scaling(d, theta=0.9999 * np.pi, m_range=sweeps[d])
        slopes[d] = fit.slope
        ok = ok and lo <= fit.slope <= hi
    # consistency: d-dimensional slope tracks (d=1 slope)/d
    for d in (2, 3):
        ok = ok and abs(slopes[d] - slopes[1] / d) <= 0.15
    elapsed = time.monotonic() - t0
    _report(5, "subradiance scaling laws", ok, elapsed, 120.0,
            "slopes " + ", ".join(f"d={d}: {s:.3f}" for d, s in slopes.items()))


def _bic_nullity_cases():
    for n in (2, 3, 4, 5, 6, 8, 10, 20, 40, 60):
        yield (n,)
    for a in range(1, 6):
        for b in range(1, 6):
            yield (a, b)
    yield from [(10, 6), (12, 5), (30, 2)]
    for dims in itertools.product((1, 2, 3), repeat=3):
        yield dims
    yield from [(2, 3, 10), (4, 3, 5), (2, 2, 15), (1, 5, 12)]


def test_acceptance_6_bic_counting_and_sign_sums():
    t0 = time.monotonic()
    ok = True
    detail = []
    for dims in _bic_nullity_cases():
        spec = NetworkSpec(dims=dims, gammas=(1.0,) * len(dims), theta=np.pi)
        expected = int(np.prod([n - 1 for n in dims]))
        got = nullity_at(spec, 0.0, rank_tol=1e-8).nullity
        if got != expected:
            ok = False
            detail.append(f"nullity {dims}: {got} != {expected}")
    # sign-sum condition on the computed null bases, d = 1, N <= 6
    printed = []
    for m in (1, 2):
        for n in range(2, 7):
            spec = NetworkSpec(dims=(n,), gammas=(1.0,), theta=m * np.pi)
            report = bic_condition_check(spec, m=m)
            if report.nullity != n - 1:
                ok = False
                detail.append(f"chain {n} m={m}: nullity {report.nullity}")
            # the parity-of-m rule must hold on every computed null vector
            if report.max_violation["phase-parity"] > 1e-8:
                ok = False
                detail.append(
                    f"chain {n} m={m}: phase-parity sum "
                    f"{report.max_violation['phase-parity']:.2e}"
                )
            # the stated qubit-count rule's violations are reported verbatim
            for v in report.violations:
                if v.rule == "qubit-parity":
                    printed.append(
                        f"    reported violation: chain N={n}, m={m}, "
                        f"null vector {v.vector}: |qubit-parity signed sum| = {v.value:.6f}"
                    )
    for line in printed:
        print(line)
    elapsed = time.monotonic() - t0
    _report(6, "bound-state counting and sign sums", ok, elapsed, 120.0,
            f"{len(printed)} stated-rule violations reported; " + "; ".join(detail[:3]))


def test_acceptance_7_noise_robustness():
    t0 = time.monotonic()
    spec = NetworkSpec(dims=(3, 2, 6), gammas=(1.0, 3.0, 2.0), theta=0.65 * np.pi)
    ok = True
    recovered = []
    for seed in range(10):
        result = noise_study(spec, 0.05, seed=seed)
        recovered.append(result.recovered_count)
        ok = ok and result.recovered_count == 36 and not result.unconverged
    clean = noise_study(spec, 0.0, seed=0)
    ok = ok and clean.max_displacement < 1e-9
    elapsed = time.monotonic() - t0
    _report(7, "noise robustness", ok, elapsed, 120.0,
            f"recovered {recovered} of 36 across 10 seeds; "
            f"eps=0 max displacement {clean.max_displacement:.2e}")


def test_acceptance_8_property_suite():
    t0 = time.monotonic()
    ok = True
    detail = []

    # trace sum rule on Cartesian-sum spectra
    for dims, gammas in [((4, 4), (1.0, 0.4)), ((2, 3, 4), (1.0, 4.0, 2.0)),
                         ((30,), (1.7,))]:
        spec = NetworkSpec(dims=dims, gammas=gammas, theta=0.37 * np.pi)
        total = drop_spectrum(spec).rates.sum()
        expected = spec.n_qubits * sum(gammas)
        if abs(total - expected) > 1e-8 * expected:
            ok, _ = False, detail.append(f"trace {dims}")

    # conjugation under theta -> -theta
    for n in (7, 19):
        a = np.conj(chain_rates(n, 0.41 * np.pi).z)
        b = chain_rates(n, -0.41 * np.pi).z
        if multiset_max_err(a, b) > 1e-9:
            ok, _ = False, detail.append(f"conjugation n={n}")

    # passivity
    for n in (5, 40, 100):
        for frac in (0.2, 0.65, 0.9999, 1.0):
            if chain_rates(n, frac * np.pi).z.real.min() < -1e-9:
                ok, _ = False, detail.append(f"passivity n={n}")

    # transfer-matrix determinant
    rng = np.random.default_rng(3)
    for _ in range(10_000):
        chi = complex(rng.standard_normal(), rng.standard_normal())
        if abs(np.linalg.det(transfer_matrix(chi, rng.uniform(0, 2 * np.pi))) - 1) > 1e-12:
            ok, _ = False, detail.append("det S")
            break

    # d=1 equations of motion match the chain construction
    for n in (1, 4, 9, 17, 30):
        for frac in (0.3, 0.9999):
            spec = NetworkSpec(dims=(n,), gammas=(1.0,), theta=frac * np.pi)
            got = all_poles_eig(spec, validate="none").poles.rates
            want = chain_rates(n, frac * np.pi).z
            if multiset_max_err(got, want) > 1e-9:
                ok, _ = False, detail.append(f"d=1 equivalence n={n}")

    # Bloch-phase residuals at every chain pole
    worst_res = 0.0
    for n in range(1, 21):
        for frac in (0.25, 0.5, 0.8):
            for z in chain_rates(n, frac * np.pi).z:
                if abs(z) > 1e-12:
                    worst_res = max(worst_res, lambda_residual(n, frac * np.pi, z))
    if worst_res > 1e-8:
        ok, _ = False, detail.append(f"lambda residual {worst_res:.2e}")

    elapsed = time.monotonic() - t0
    _report(8, "property suite", ok, elapsed, 60.0,
            f"worst phase residual {worst_res:.2e}; " + "; ".join(detail[:3]))
