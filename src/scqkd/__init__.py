"""Spherical-code quantum key distribution: exact analysis and simulation.

Qubit signal constellations (trine, tetrahedron, and the BB84/six-state
basis pairs) with exclusion or basis sifting, intercept/resend and gentle
eavesdropping, exact joint-distribution enumeration, key-rate thresholds,
and reproducible Monte Carlo cross-checks.
"""

from .analysis import (
    AnalyticCurves,
    DepolarizingPoint,
    JointDistribution,
    NoThresholdError,
    QSiftEstimate,
    RateReport,
    ThresholdResult,
    analytic_curves,
    depolarizing_curves,
    enumerate_joint,
    estimate_q_from_sift,
    find_threshold,
    key_rate,
    mutual_information,
)
from .codes import (
    CodeKind,
    SphericalCode,
    basis_label,
    dual_code,
    eigen_bit,
    make_code,
    tetra_key_bit,
    trine_key_bit,
)
from .eavesdrop import (
    EnsembleMix,
    EveRecord,
    GentleIntercept,
    InterceptResend,
    eve_guess,
    gentle_povm,
)
from .montecarlo import (
    ComparisonReport,
    RoundArrays,
    SampleStats,
    TrialConfig,
    compare_to_oracle,
    run_trials,
    simulate_rounds,
    stats_from_arrays,
)
from .protocol import (
    IDEAL,
    Announcement,
    Channel,
    ProtocolKind,
    RoundTranscript,
    run_round,
)
from .states import (
    Povm,
    depolarize,
    sqrt_post_measurement_state,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticCurves",
    "Announcement",
    "Channel",
    "CodeKind",
    "ComparisonReport",
    "DepolarizingPoint",
    "EnsembleMix",
    "EveRecord",
    "GentleIntercept",
    "IDEAL",
    "InterceptResend",
    "JointDistribution",
    "NoThresholdError",
    "Povm",
    "ProtocolKind",
    "QSiftEstimate",
    "RateReport",
    "RoundArrays",
    "RoundTranscript",
    "SampleStats",
    "SphericalCode",
    "ThresholdResult",
    "TrialConfig",
    "analytic_curves",
    "basis_label",
    "compare_to_oracle",
    "depolarize",
    "depolarizing_curves",
    "dual_code",
    "eigen_bit",
    "enumerate_joint",
    "estimate_q_from_sift",
    "eve_guess",
    "find_threshold",
    "gentle_povm",
    "key_rate",
    "make_code",
    "mutual_information",
    "run_round",
    "run_trials",
    "simulate_rounds",
    "sqrt_post_measurement_state",
    "stats_from_arrays",
    "tetra_key_bit",
    "trine_key_bit",
]
