"""Oriented interval-coverage percolation driven by discrete renewal marks.

Sites of the nonnegative integers carry marks from an undelayed renewal
sequence; each marked site opens an interval of random length to its
right, and coverage percolates when every site is covered.  The package
computes the exact coverage-probability series, the dual relay law, a
certified probability bracket with closed-form bounds, brute-force
oracles on tiny instances, and seeded Monte Carlo, all behind a batch
CLI (``renewperc``).
"""

from .engine import (
    BoundsReport,
    ClassifyReport,
    DualLaw,
    GfTable,
    PercolationBracket,
    bounds_report,
    classify,
    dual_law,
    forward_connectivity,
    gf_partial,
    percolation_probability,
)
from .errors import (
    EnumerationCapError,
    InternalConsistencyError,
    MonotonicityError,
    RenewpercError,
    UnboundedRadiusError,
    ValidationError,
)
from .oracle import (
    TinyConfig,
    enumerate_connectivity,
    enumerate_dual,
    enumerate_gf,
    random_tiny_configs,
)
from .radius import (
    FiniteTableRadius,
    GeometricTailRadius,
    InfiniteRadius,
    PowerLawTailRadius,
    RadiusModel,
    radius_from_config,
)
from .renewal import (
    CoalescenceConstants,
    ConstantQ,
    InterArrivalSummary,
    MarkovQ,
    PolynomialMonotoneQ,
    QSequence,
    RenewalProbTable,
    TableQ,
    ck_at,
    ck_sequence,
    interarrival,
    q_sequence_from_config,
    q_star_array,
    renewal_probabilities,
    survival_products,
)
from .simulate import (
    CouplingReport,
    SimReport,
    coalescence_times,
    connectivity_successes,
    simulate_connectivity,
    simulate_coupling,
    simulate_dual,
    wilson_interval,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BoundsReport",
    "ClassifyReport",
    "CoalescenceConstants",
    "ConstantQ",
    "CouplingReport",
    "DualLaw",
    "EnumerationCapError",
    "FiniteTableRadius",
    "GeometricTailRadius",
    "GfTable",
    "InfiniteRadius",
    "InterArrivalSummary",
    "InternalConsistencyError",
    "MarkovQ",
    "MonotonicityError",
    "PercolationBracket",
    "PolynomialMonotoneQ",
    "PowerLawTailRadius",
    "QSequence",
    "RadiusModel",
    "RenewalProbTable",
    "RenewpercError",
    "SimReport",
    "TableQ",
    "TinyConfig",
    "UnboundedRadiusError",
    "ValidationError",
    "bounds_report",
    "ck_at",
    "ck_sequence",
    "classify",
    "coalescence_times",
    "connectivity_successes",
    "dual_law",
    "enumerate_connectivity",
    "enumerate_dual",
    "enumerate_gf",
    "forward_connectivity",
    "gf_partial",
    "interarrival",
    "percolation_probability",
    "q_sequence_from_config",
    "q_star_array",
    "radius_from_config",
    "random_tiny_configs",
    "renewal_probabilities",
    "simulate_connectivity",
    "simulate_coupling",
    "simulate_dual",
    "survival_products",
    "wilson_interval",
]
