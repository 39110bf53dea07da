"""Spherical-code quantum key distribution: exact analysis and simulation.

Qubit signal constellations (trine, tetrahedron, and the BB84/six-state
basis pairs) with exclusion or basis sifting, intercept/resend and gentle
eavesdropping, exact joint-distribution enumeration, key-rate thresholds,
and reproducible Monte Carlo cross-checks.

The package exports what a caller passes in and the calls that answer:
protocols, attacks and channels; the exact joint, its key rate, thresholds
and the sift-rate estimate of q; and the simulation with its comparison
against the exact joint. A protocol is named by its constellation: one
`ProtocolKind` keys the code tables and the round rules alike. The types
those calls return (RateReport, ThresholdResult and QSiftEstimate in
scqkd.analysis, SampleStats and ComparisonReport in scqkd.montecarlo) and
the default channel IDEAL in scqkd.protocol are imported from their
submodules, as are the building blocks (code tables and key-bit rules,
Eve's POVMs and guess rule, the closed-form reference curves, and the round
transcripts with their tally, run_round in scqkd.protocol and
simulate_rounds in scqkd.montecarlo among them).

Importing the package, and every exact answer, loads no numpy. Only the
matrix path (scqkd.states and the SphericalCode arrays of make_code, which
the scalar run_round reads) and the first Monte Carlo call that samples
load it.
"""

from .analysis import (
    JointDistribution,
    NoThresholdError,
    enumerate_joint,
    estimate_q_from_sift,
    find_threshold,
    key_rate,
)
from .eavesdrop import EnsembleMix, GentleIntercept, InterceptResend
from .montecarlo import TrialConfig, compare_to_oracle, run_trials
from .protocol import Channel, ProtocolKind

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "EnsembleMix",
    "GentleIntercept",
    "InterceptResend",
    "JointDistribution",
    "NoThresholdError",
    "ProtocolKind",
    "TrialConfig",
    "compare_to_oracle",
    "enumerate_joint",
    "estimate_q_from_sift",
    "find_threshold",
    "key_rate",
    "run_trials",
]
