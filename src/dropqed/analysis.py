"""Physics analyses on network spectra.

Near the resonance condition theta = m*pi the spectrum organizes into
clusters labelled by how many axes contribute their superradiant 1-D rate;
this module classifies and counts those clusters, fits the size scaling of
the most subradiant rate, checks the bound-state sign-sum condition on
computed null spaces, and quantifies how well the Cartesian-sum estimates
survive per-qubit rate disorder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import eom
from .drop import Spectrum, _cartesian_rates, _index_columns, drop_spectrum
from .errors import ThetaOutOfRange
from .lattice import LineId, NetworkSpec, _lines, enumerate_lines, sample_noise


@dataclass(frozen=True)
class SuperradianceReport:
    """Superradiance dimension k of every rate plus cluster statistics.

    ``k_labels[i]`` counts how many axes of rate i picked their axis's
    superradiant 1-D rate.  ``cluster_centers`` is keyed by the sorted tuple
    of those axes.
    """

    k_labels: tuple[int, ...]
    cluster_counts: dict[int, int]
    cluster_centers: dict[tuple[int, ...], complex]


@dataclass(frozen=True)
class ScalingFit:
    """Log-log fit of the most subradiant rate against qubit count."""

    sizes: tuple[int, ...]
    min_rates: tuple[float, ...]
    slope: float
    intercept: float


@dataclass(frozen=True)
class BicViolation:
    rule: str
    line: LineId
    vector: int
    value: float


@dataclass(frozen=True)
class BicReport:
    """Signed line sums of bound-state excitation amplitudes, per sign rule.

    Sign rules evaluated on every line and null vector:

    * ``"plain"``: all weights +1,
    * ``"alternating"``: +1, -1, ... anchored at the line's first qubit,
    * ``"qubit-parity"``: plain for an even qubit count, alternating for odd
      (the stated rule of the source analysis),
    * ``"phase-parity"``: plain for even m, alternating for odd m (the rule
      the computed null spaces actually satisfy).

    ``max_violation[rule]`` is the largest |sum| observed; ``violations``
    lists every (rule, line, vector) whose sum exceeded 1e-8.  The sums
    are taken over the orthonormal null basis the SVD returns.  Only
    ``nullity`` and the round-off-level sums of a rule the null space
    satisfies are properties of the network; for a rule it does not
    satisfy, ``max_violation`` and ``violations`` depend on that basis.
    """

    m: int
    nullity: int
    expected_nullity: int
    rank_tol: float
    max_violation: dict[str, float]
    violations: tuple[BicViolation, ...]


@dataclass(frozen=True, eq=False)
class NoiseStudyResult:
    """Cartesian-sum estimates vs refined poles of one disordered network."""

    epsilon_max: float
    seed: int
    drop_estimates: Spectrum
    refined_poles: Spectrum
    displacements: np.ndarray
    max_displacement: float
    median_displacement: float
    recovered_count: int
    unconverged: tuple[int, ...]     # seeds whose pole failed its certificate


def expected_cluster_counts(dims: Sequence[int]) -> dict[int, int]:
    """Closed-form cluster sizes: count(k) = sum over k-subsets S of axes
    of prod_{n not in S} (N_n - 1)."""
    d = len(dims)
    counts = {k: 0 for k in range(d + 1)}
    for subset_size in range(d + 1):
        for subset in itertools.combinations(range(d), subset_size):
            counts[subset_size] += math.prod(dims[n] - 1 for n in range(d) if n not in subset)
    return counts


def _distance_to_resonance(theta: float) -> float:
    return abs(theta / math.pi - round(theta / math.pi)) * math.pi


_RESONANCE_WINDOW = 0.05 * math.pi   # classification needs theta this near m*pi
_REPORT_TOL = 1e-8                   # bound-state line sums above this are violations


def classify_superradiance(spec: NetworkSpec, drop_spec: Spectrum) -> SuperradianceReport:
    """Assign each Cartesian-sum rate its superradiance dimension k.

    Valid near resonance (theta within 0.05 pi of a multiple of pi),
    where each axis has one well-separated maximal-real-part rate; k counts
    the axes whose index tuple entry selects that rate.  The partition needs
    the index tuples: it is not readable off the rate values alone.
    """
    if _distance_to_resonance(spec.theta) > _RESONANCE_WINDOW:
        raise ThetaOutOfRange(
            f"theta = {spec.theta:.6g} is {_distance_to_resonance(spec.theta):.3g} rad "
            f"from the nearest multiple of pi; clusters are ill-defined beyond "
            f"{_RESONANCE_WINDOW:.3g}"
        )
    if not drop_spec.has_tuples:
        raise ValueError("classification requires a Cartesian-sum spectrum with index tuples")
    # Re of a Cartesian-sum rate is sum_n gamma_n Re z_n with every
    # gamma_n > 0, so the largest one picks every axis's superradiant rate
    rates = drop_spec.rates
    top = int(np.argmax(rates.real))
    columns = np.array(_index_columns(drop_spec, np.arange(len(rates))))
    hits = columns == columns[:, [top]]
    k_labels = hits.sum(axis=0)
    # a stable sort keeps each cluster's rates in spectrum order, so its
    # center is the mean of the same values in the same order as a loop's
    order = np.lexsort(hits)
    starts = np.flatnonzero((hits[:, order[1:]] != hits[:, order[:-1]]).any(axis=0)) + 1
    clusters = {tuple(np.flatnonzero(hits[:, group[0]]).tolist()): group
                for group in np.split(order, starts)}
    counts = dict(enumerate(np.bincount(k_labels, minlength=spec.ndim + 1).tolist()))
    centers = {axes: complex(np.mean(rates[group])) for axes, group in sorted(clusters.items())}
    return SuperradianceReport(
        k_labels=tuple(k_labels.tolist()),
        cluster_counts=counts,
        cluster_centers=centers,
    )


_DEFAULT_SWEEPS = {1: range(10, 61, 5), 2: range(4, 13), 3: range(3, 8)}
_EPS = np.finfo(float).eps


def subradiance_scaling(d: int, theta: float = 0.9999 * math.pi,
                        m_range: Optional[Sequence[int]] = None) -> ScalingFit:
    """Fit how the most subradiant rate decays with qubit count.

    Sweeps hyper-cubic networks [M]*d with unit rates, takes the smallest
    real part of the Cartesian-sum spectrum, and returns the log-log
    least-squares slope against N = M^d.  Near resonance the 1-D chain
    scales as N^-3, so the hyper-cubic slope is -3/d.

    At theta = m*pi (within 8 ulps) the chain kernel exp(i theta |j - k|)
    has rank one: every chain rate but the top one is dark, exactly 0 in
    exact arithmetic, and so is every Cartesian sum of dark rates.  Those
    prod_n (M - 1) sums are left out there, and the rest have a real part of
    at least M.  Elsewhere every rate counts, and a smallest real part that
    is not positive raises ValueError.  The rates come from
    :func:`~dropqed.chain1d.chain_rates`, which resolves the small real
    parts relative to themselves at every M.  At theta = 0.9999*pi the 1-D
    slope of M = 10..300 reads -3.01.
    """
    if m_range is None:
        if d not in _DEFAULT_SWEEPS:
            raise ValueError(f"no default sweep for d = {d}; pass m_range")
        m_range = _DEFAULT_SWEEPS[d]
    m_values = list(m_range)
    if len(m_values) < 5:
        raise ValueError("scaling fit needs at least 5 sweep points")
    resonant = abs(math.remainder(theta, math.pi)) <= 8 * _EPS * max(1.0, abs(theta))
    sizes, mins = [], []
    for m in m_values:
        spec = NetworkSpec(dims=(m,) * d, gammas=(1.0,) * d, theta=theta)
        rates = _cartesian_rates(spec).real
        if resonant:
            # each axis's top rate is the last of its chain's (Re, Im)
            # order, so the dark sums fill the leading (M - 1)^d block
            lit = np.ones((m,) * d, dtype=bool)
            lit[(slice(0, m - 1),) * d] = False
            rates = rates[lit.ravel()]
        low = float(rates.min())
        if not low > 0:
            raise ValueError(f"the smallest rate for M = {m} is {low:.6g}, not positive")
        sizes.append(m ** d)
        mins.append(low)
    slope, intercept = np.polyfit(np.log(np.asarray(sizes, float)), np.log(mins), 1)
    return ScalingFit(
        sizes=tuple(sizes),
        min_rates=tuple(mins),
        slope=float(slope),
        intercept=float(intercept),
    )


def _line_weights(count: int, rule: str, m: int) -> np.ndarray:
    alternating = np.array([(-1.0) ** j for j in range(count)])
    plain = np.ones(count)
    if rule == "plain":
        return plain
    if rule == "alternating":
        return alternating
    if rule == "qubit-parity":
        return plain if count % 2 == 0 else alternating
    if rule == "phase-parity":
        return plain if m % 2 == 0 else alternating
    raise ValueError(f"unknown sign rule {rule!r}")


def bic_condition_check(spec: NetworkSpec, m: int = 1, rank_tol: float = 1e-8) -> BicReport:
    """Evaluate the bound-state sign-sum condition on the computed null space.

    Requires theta = m*pi.  Extracts the null space of A(0), then for every
    line forms the signed sum of excitation amplitudes under each sign rule
    (see :class:`BicReport`).  Violations are reported, never suppressed:
    the stated qubit-count rule and the empirically correct phase-parity
    rule disagree for half the parity combinations, and this report is how
    that is made visible.
    """
    if abs(spec.theta - m * math.pi) > 1e-9:
        raise ThetaOutOfRange(
            f"bound-state check requires theta = {m}*pi, got {spec.theta:.12g}"
        )
    null = eom.nullity_at(spec, 0.0, rank_tol=rank_tol)
    expected = math.prod(n - 1 for n in spec.dims)
    rules = ("plain", "alternating", "qubit-parity", "phase-parity")
    max_violation = {rule: 0.0 for rule in rules}
    violations: list[BicViolation] = []
    # each nonzero null vector normalized once, and each rule's weights
    # built once per axis, whose lines share one length
    unit = []
    for vec in range(null.nullity):
        e = null.e_basis[:, vec]
        norm = np.linalg.norm(e)
        if norm != 0:
            unit.append((vec, e / norm))
    for axis, lines in enumerate(_lines(spec)):
        weights = [(rule, _line_weights(lines.shape[1], rule, m)) for rule in rules]
        for line, idx in zip(enumerate_lines(spec, axis), lines):
            for vec, e in unit:
                on_line = e[idx]
                for rule, w in weights:
                    s = abs(np.dot(w, on_line))
                    if s > max_violation[rule]:
                        max_violation[rule] = float(s)
                    if s > _REPORT_TOL:
                        violations.append(BicViolation(rule=rule, line=line,
                                                       vector=vec, value=float(s)))
    return BicReport(
        m=m,
        nullity=null.nullity,
        expected_nullity=expected,
        rank_tol=rank_tol,
        max_violation=max_violation,
        violations=tuple(violations),
    )


def _nan_median(values: np.ndarray) -> float:
    """np.nanmedian of a 1-D array with a non-NaN entry, bit for bit up to
    the sign of a zero median, by one sort: the middle non-NaN entry, or
    (a + b) / 2 of the middle two, as numpy takes the mean of an even
    count.  np.nanmedian loads numpy.ma, about 20 ms on a cold start."""
    ordered = np.sort(values[~np.isnan(values)])
    mid = len(ordered) // 2
    return float(ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2)


def noise_study(spec: NetworkSpec, epsilon_max: float, seed: int,
                tol: float = 1e-10) -> NoiseStudyResult:
    """Perturb the per-qubit rates, then refine Cartesian-sum estimates.

    Samples one noise field, forms estimates from the qubit-averaged rates,
    and gives every estimate a pole of the disordered system, an eigenvalue
    of its H: the nearest one, or the nearest unclaimed one when an estimate
    closer to it claimed it first (the claim rule of
    :func:`~dropqed.eom._refine`).  Reports per-seed displacements, the
    number of poles recovered (a pole of multiplicity m counts m times), and
    which seeds (if any) have a pole that failed its certificate at
    min(tol, 1e-9), the bound of :func:`~dropqed.eom.all_poles_cnm`.  A
    network too large for the memory budget raises ConfigError before the
    noise is drawn.
    """
    eom._check_h(spec)
    field = sample_noise(spec, epsilon_max, seed)
    noisy = spec.with_noise(field)
    estimates = drop_spectrum(noisy)
    poles, _ = eom._refine(noisy, estimates.rates / 2j, tol)
    refined = 2j * poles
    displacements = np.abs(refined - estimates.rates)
    ok = ~np.isnan(displacements)
    return NoiseStudyResult(
        epsilon_max=float(epsilon_max),
        seed=int(seed),
        drop_estimates=estimates,
        refined_poles=Spectrum(rates=refined[ok], method="cnm"),
        displacements=displacements,
        max_displacement=float(np.nanmax(displacements)) if ok.any() else math.nan,
        median_displacement=_nan_median(displacements) if ok.any() else math.nan,
        recovered_count=int(ok.sum()),
        unconverged=tuple(int(i) for i in np.flatnonzero(~ok)),
    )
