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
    dual_code,
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
    "compare_to_oracle",
    "depolarizing_curves",
    "dual_code",
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
    "stats_from_arrays",
    "tetra_key_bit",
    "trine_key_bit",
]
