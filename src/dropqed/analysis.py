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
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from . import eom
from .chain1d import _check_chain, chain_rates
from .drop import Spectrum, _index_columns, drop_spectrum
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
    value: float


@dataclass(frozen=True)
class BicReport:
    """Signed line sums of bound-state excitation amplitudes, per sign rule.

    Sign rules evaluated on every line:

    * ``"plain"``: all weights +1,
    * ``"alternating"``: +1, -1, ... anchored at the line's first qubit,
    * ``"qubit-parity"``: plain for an even qubit count, alternating for odd
      (the stated rule of the source analysis),
    * ``"phase-parity"``: plain for even m, alternating for odd m (the rule
      the computed null spaces actually satisfy).

    The value of a line and rule is the largest |signed sum| over unit
    vectors of the null space: ||B^T w|| for the rule's weights w on the
    line and any orthonormal null basis B, so no choice of basis changes
    it, and a rule the null space satisfies reads round-off.
    ``max_violation[rule]`` is the largest value over the lines;
    ``violations`` lists every (rule, line) whose value exceeds 1e-8, by
    axis, then line, then rule.
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


_RESONANCE_WINDOW = 0.05 * math.pi   # classification needs theta this near m*pi
_REPORT_TOL = 1e-8                   # bound-state line sums above this are violations


def _check_resonance_window(theta: float) -> None:
    """Raise ThetaOutOfRange unless theta is within the classification window."""
    distance = abs(theta / math.pi - round(theta / math.pi)) * math.pi
    if distance > _RESONANCE_WINDOW:
        raise ThetaOutOfRange(f"theta = {theta:.6g} is {distance:.3g} rad from the nearest "
                              f"multiple of pi; clusters are ill-defined beyond "
                              f"{_RESONANCE_WINDOW:.3g}")


def classify_superradiance(spec: NetworkSpec, drop_spec: Spectrum) -> SuperradianceReport:
    """Assign each Cartesian-sum rate its superradiance dimension k.

    Valid near resonance (theta within 0.05 pi of a multiple of pi),
    where each axis has one well-separated maximal-real-part rate; k counts
    the axes whose index tuple entry selects that rate.  The partition needs
    the index tuples: it is not readable off the rate values alone.
    """
    _check_resonance_window(spec.theta)
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


def subradiance_scaling(d: int, theta: float = 0.9999 * math.pi,
                        m_range: Optional[Sequence[int]] = None) -> ScalingFit:
    """Fit how the most subradiant rate decays with qubit count.

    Sweeps hyper-cubic networks [M]*d with unit rates, takes the smallest
    real part of the Cartesian-sum spectrum, and returns the log-log
    least-squares slope against N = M^d.  Near resonance the 1-D chain
    scales as N^-3, so the hyper-cubic slope is -3/d.

    No sum is built: its real part adds one chain rate's per axis, in axis
    order, and rounded addition is monotone, so the smallest is that of d
    copies of the chain's smallest, bit for bit.  At theta = m*pi (within
    8 ulps) every chain rate but the top one (real part M) is dark, 0 in
    exact arithmetic, and the sums of dark rates are left out: the smallest
    is the least of d sums, each with one axis on the top rate.  The chain
    rates (:func:`~dropqed.chain1d.chain_rates`, M <= 5792) resolve small
    real parts relative to themselves: at 0.9999*pi the 1-D slope of M =
    10..300 reads -3.01.  d < 1, a non-finite theta, M < 1, N past the
    float range and a smallest real part <= 0 raise ValueError, and each M
    past the chain budget ConfigError as the sweep is read.
    """
    if not (d >= 1 and math.isfinite(theta)):
        raise ValueError(f"need d >= 1 and a finite theta, got d = {d}, theta = {theta}")
    if m_range is None and d not in _DEFAULT_SWEEPS:
        raise ValueError(f"no default sweep for d = {d}; pass m_range")
    m_values = []
    for m in _DEFAULT_SWEEPS[d] if m_range is None else m_range:
        _check_chain(m)    # as the sweep is read: a range lists at most 5792 M
        m_values.append(m)
    if len(m_values) < 5:
        raise ValueError("scaling fit needs at least 5 sweep points")
    try:
        for m in m_values:
            float(m) ** d    # overflows before an absurd d builds a huge int
        sizes = [m ** d for m in m_values]
        x = np.asarray(sizes, float)
    except OverflowError:
        raise ValueError(f"N = M^{d} does not fit a float over this sweep") from None
    resonant = abs(math.remainder(theta, math.pi)) <= 8 * math.ulp(1.0) * max(1.0, abs(theta))
    mins = []
    for m in m_values:
        re = chain_rates(m, theta).z.real
        floor, top = float(re.min()), float(re[-1])    # top: last in (Re, Im) order
        low = min(reduce(operator.add, [top if n == pin else floor for n in range(d)], 0.0)
                  for pin in (range(d) if resonant else [None]))
        if not low > 0:
            raise ValueError(f"the smallest rate for M = {m} is {low:.6g}, not positive")
        mins.append(low)
    slope, intercept = np.polyfit(np.log(x), np.log(mins), 1)
    return ScalingFit(sizes=tuple(sizes), min_rates=tuple(mins), slope=float(slope),
                      intercept=float(intercept))


_BIC_RULES = ("plain", "alternating", "qubit-parity", "phase-parity")


def bic_condition_check(spec: NetworkSpec, m: int = 1, rank_tol: float = 1e-8) -> BicReport:
    """Evaluate the bound-state sign-sum condition on the computed null space.

    Requires theta = m*pi.  Extracts the orthonormal null basis B of A(0),
    then for every line and sign rule takes ||B^T w|| of the rule's weights
    w on that line (see :class:`BicReport`), one matrix product per axis.
    Violations are reported, never suppressed: the stated qubit-count rule
    and the empirically correct phase-parity rule disagree for half the
    parity combinations, and this report is how that is made visible.
    """
    if abs(spec.theta - m * math.pi) > 1e-9:
        raise ThetaOutOfRange(
            f"bound-state check requires theta = {m}*pi, got {spec.theta:.12g}"
        )
    null = eom.nullity_at(spec, 0.0, rank_tol=rank_tol)
    expected = math.prod(n - 1 for n in spec.dims)
    max_violation = np.zeros(len(_BIC_RULES))
    violations: list[BicViolation] = []
    for axis, lines in enumerate(_lines(spec)):
        count = lines.shape[1]
        plain, alternating = np.ones(count), (-1.0) ** np.arange(count)
        weights = np.array([plain, alternating, alternating if count % 2 else plain,
                            alternating if m % 2 else plain])
        # (lines, rules, null vectors) sums, normed over the null vectors
        sums = np.linalg.norm(np.matmul(weights, null.e_basis[lines]), axis=-1)
        max_violation = np.maximum(max_violation, sums.max(axis=0))
        hit = sums > _REPORT_TOL
        ids = enumerate_lines(spec, axis)
        violations += [BicViolation(rule=_BIC_RULES[rule], line=ids[line], value=value)
                       for (line, rule), value in zip(np.argwhere(hit).tolist(),
                                                      sums[hit].tolist())]
    return BicReport(
        m=m,
        nullity=null.nullity,
        expected_nullity=expected,
        rank_tol=rank_tol,
        max_violation=dict(zip(_BIC_RULES, max_violation.tolist())),
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
    network too large for the memory budget raises ConfigError, and a
    ``tol`` that is not finite and positive ValueError, before the noise is
    drawn.
    """
    eom._check_h(spec)
    eom._check_tol(tol)
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
