"""The public API: the exact names `scqkd` exports, so it cannot grow silently.

The package exports the inputs of the analysis and the simulation and the
calls that answer; their result types and the building blocks are imported
from their submodules. Every name the benchmark under bench/ reads must
resolve too.
"""

import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import scqkd
from scqkd.analysis import AnalyticCurves

ROOT = Path(__file__).resolve().parent.parent
BENCH, SRC = ROOT / "bench", ROOT / "src" / "scqkd"

PUBLIC = [
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

# building blocks and result types that are not exported, by the submodule that defines them
SUBMODULE_ONLY = {
    "analysis": ["AnalyticCurves", "QSiftEstimate", "RateReport", "ThresholdResult"],
    "codes": ["SphericalCode", "make_code", "tetra_key_bit", "trine_key_bit"],
    "eavesdrop": ["EveRecord", "eve_guess", "gentle_povm"],
    "montecarlo": ["ComparisonReport", "RoundArrays", "SampleStats", "simulate_rounds", "stats_from_arrays"],
    "protocol": ["Announcement", "RoundTranscript", "run_round"],
}

# module-level definitions that nothing in src/ reads: the scalar reference path, which the tests and the bench read
UNREAD_IN_SRC = {"AnalyticCurves", "eve_guess", "run_round"}

# what a joint carries: the entry points, the CLI and the bench read these and nothing else
JOINT_ATTRIBUTES = ["mass", "p_eve_abstain", "p_eve_agree_alice", "p_eve_agree_bob", "p_sift", "qber", "table"]

# every cache of the package and its bound, by the module that defines it: a new cache or a larger bound is
# a change to this map, as a new public name is a change to PUBLIC
CACHES = {
    "analysis": {"_corners": 24, "_rate_plan": 64, "_sift_line": 4, "_sifting": 4, "_walk": 12},
    "cli": {"build_parser": 1},
    "eavesdrop": {"_side_gentle_povm": 16},
    "montecarlo": {"_cell_bits": 4, "_tables": 16},
    "protocol": {"announcement_options": 17},
}


def test_all_is_pinned():
    assert len(PUBLIC) == 14
    assert scqkd.__all__ == PUBLIC


@pytest.mark.parametrize("exact", [True, False])
def test_joint_attributes_are_pinned(exact):
    q = Fraction(1, 2) if exact else 0.5
    joint = scqkd.enumerate_joint(scqkd.ProtocolKind.TRINE, scqkd.InterceptResend(q))
    assert [name for name in dir(joint) if not name.startswith("_")] == JOINT_ATTRIBUTES
    assert [f.name for f in dataclasses.fields(joint)] == ["p_sift", "table"]


@pytest.mark.parametrize("protocol", [*scqkd.ProtocolKind, "trine"])
def test_closed_form_curves_only_for_the_exclusion_codes(protocol):
    if not isinstance(protocol, scqkd.ProtocolKind):
        with pytest.raises(ValueError, match="protocol must be a ProtocolKind, got 'trine'"):
            AnalyticCurves(protocol)
    elif protocol.excludes_outcomes:
        assert AnalyticCurves(protocol).protocol is protocol
    else:
        with pytest.raises(ValueError, match=f"no closed-form curves for {protocol.value}"):
            AnalyticCurves(protocol)


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


def test_src_reads_every_definition_but_the_scalar_reference():
    # a read is a loaded name, an attribute or an imported name, so the package's re-exports count
    defined, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    assert defined - read == UNREAD_IN_SRC


def test_every_cache_is_bounded():
    # each cache is keyed on a finite domain and declares it, so none grows with the inputs a process sees
    caches = {}
    for info in pkgutil.iter_modules(scqkd.__path__):
        module = importlib.import_module(f"scqkd.{info.name}")
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_parameters", None)):
                # modules import each other's cached functions: file each under the module defining it
                defining = value.__module__.removeprefix("scqkd.")
                caches.setdefault(defining, {})[value.__name__] = value.cache_parameters()["maxsize"]
    assert [name for names in caches.values() for name, maxsize in names.items() if maxsize is None] == []
    assert caches == CACHES
    assert sum(map(len, CACHES.values())) == 10


def _load_bench(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_finds_every_name_it_reads(monkeypatch):
    # the benchmark's files are fixed, so a name it reads must not go missing from the package
    for module, attr, _ in _load_bench("tracing", monkeypatch).TARGETS:
        assert hasattr(importlib.import_module(f"scqkd.{module}"), attr), (module, attr)
    workloads = _load_bench("workloads", monkeypatch)  # its imports resolve, ProtocolKind among them
    for node in ast.walk(ast.parse((BENCH / "workloads.py").read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            module = getattr(workloads, node.value.id, None)
            if getattr(module, "__name__", "").startswith("scqkd."):
                assert hasattr(module, node.attr), (node.value.id, node.attr)
    assert callable(scqkd.eavesdrop._side_gentle_povm.cache_info)
    assert scqkd.protocol.ProtocolKind is scqkd.ProtocolKind
