"""The public API: the exact names `scqkd` exports, so it cannot grow silently."""

import scqkd

PUBLIC = [
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


def test_all_is_pinned():
    assert len(PUBLIC) == 40
    assert scqkd.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in scqkd.__all__:
        assert getattr(scqkd, name) is not None, name
