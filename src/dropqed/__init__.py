"""Collective decay rates of d-dimensional waveguide-coupled qubit networks.

The library computes the complex poles (collective decay rates) of
hyper-rectangular qubit networks two independent ways, the Cartesian-sum
construction over per-axis 1-D chain rates and direct singular-point
analysis of the network's equations of motion, and layers physics analyses
(multidimensional superradiance, subradiance scaling, bound states in the
continuum, noise robustness) on top.
"""

from .analysis import (
    BicReport,
    NoiseStudyResult,
    ScalingFit,
    SuperradianceReport,
    bic_condition_check,
    classify_superradiance,
    expected_cluster_counts,
    noise_study,
    subradiance_scaling,
)
from .chain1d import ChainSpectrum, chain_rates, coupling_matrix
from .drop import MatchReport, Spectrum, drop_spectrum, match_spectra
from .eom import (
    EomMatrix,
    NullSpaceResult,
    PoleSearchResult,
    all_poles_cnm,
    all_poles_det_interp,
    all_poles_eig,
    assemble,
    find_pole,
    nullity_at,
    sigma_min,
)
from .errors import (
    ConditioningFailure,
    ConfigError,
    DropQedError,
    MaxIterationsError,
    SizeMismatchError,
    ThetaOutOfRange,
)
from .lattice import (
    LineId,
    NetworkSpec,
    NoiseField,
    QubitIndex,
    enumerate_lines,
    enumerate_qubits,
    sample_noise,
)
from .render import render_scatter

__version__ = "0.1.0"

__all__ = [
    "BicReport",
    "ChainSpectrum",
    "ConditioningFailure",
    "ConfigError",
    "DropQedError",
    "EomMatrix",
    "LineId",
    "MatchReport",
    "MaxIterationsError",
    "NetworkSpec",
    "NoiseField",
    "NoiseStudyResult",
    "NullSpaceResult",
    "PoleSearchResult",
    "QubitIndex",
    "ScalingFit",
    "SizeMismatchError",
    "Spectrum",
    "SuperradianceReport",
    "ThetaOutOfRange",
    "all_poles_cnm",
    "all_poles_det_interp",
    "all_poles_eig",
    "assemble",
    "bic_condition_check",
    "chain_rates",
    "classify_superradiance",
    "coupling_matrix",
    "drop_spectrum",
    "enumerate_lines",
    "enumerate_qubits",
    "expected_cluster_counts",
    "find_pole",
    "match_spectra",
    "noise_study",
    "nullity_at",
    "render_scatter",
    "sample_noise",
    "sigma_min",
    "subradiance_scaling",
    "__version__",
]
