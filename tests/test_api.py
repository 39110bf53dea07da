"""The public API: the exact names `scqkd` exports, so it cannot grow silently.

The package exports the inputs and answers of the analysis and the
simulation; the building blocks are imported from their submodules.
"""

import importlib

import pytest

import scqkd

PUBLIC = [
    "Channel",
    "ComparisonReport",
    "EnsembleMix",
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
    "ThresholdResult",
    "TrialConfig",
    "compare_to_oracle",
    "enumerate_joint",
    "estimate_q_from_sift",
    "find_threshold",
    "key_rate",
    "run_round",
    "run_trials",
    "simulate_rounds",
    "stats_from_arrays",
]

# building blocks that are not exported, by the submodule that defines them
SUBMODULE_ONLY = {
    "analysis": ["AnalyticCurves", "DepolarizingPoint", "analytic_curves", "depolarizing_curves", "mutual_information"],
    "codes": ["CodeKind", "SphericalCode", "dual_code", "make_code", "tetra_key_bit", "trine_key_bit"],
    "eavesdrop": ["EveRecord", "eve_guess", "gentle_povm"],
    "protocol": ["Announcement"],
}


def test_all_is_pinned():
    assert len(PUBLIC) == 25
    assert scqkd.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in scqkd.__all__:
        assert getattr(scqkd, name) is not None, name


@pytest.mark.parametrize(
    "module,name", [(module, name) for module, names in SUBMODULE_ONLY.items() for name in names]
)
def test_building_blocks_resolve_from_their_submodules(module, name):
    obj = getattr(importlib.import_module(f"scqkd.{module}"), name)
    assert (obj.__module__, obj.__qualname__) == (f"scqkd.{module}", name)
    assert name not in scqkd.__all__ and name not in vars(scqkd)
