"""Independent closed-form oracles and comparison helpers for the tests.

The chain and small-lattice rate formulas here are transcribed directly
from the closed-form results they validate against and are kept free of
any library code paths they are used to check.
"""

import numpy as np
from scipy.optimize import linear_sum_assignment


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


def cartesian_rate_multiset(per_axis_rates, gammas) -> np.ndarray:
    """Brute-force enumeration of all Cartesian sums (independent of the
    library's broadcasting construction)."""
    import itertools

    out = []
    for combo in itertools.product(*per_axis_rates):
        out.append(sum(g * z for g, z in zip(gammas, combo)))
    return np.array(out)
