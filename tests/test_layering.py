"""The exact layer runs without numpy: only the matrix states and the sampler's first call load it."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from scqkd.codes import ProtocolKind, make_code

SRC = Path(__file__).resolve().parent.parent / "src"

# run in a fresh interpreter, so that nothing this test process imported counts;
# it prints one JSON line: the CLI exit codes and whether numpy was loaded
# after the exact work and after a small simulation
PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import scqkd
from scqkd import analysis, cli, montecarlo

with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv.split()) for argv in (
        "analytic --protocol trine --attack standard --q 1/3",
        "threshold --protocol tetra --attack gentle --depolarize 1/20",
        "sweep --protocol six-state --attack standard --steps 5",
        "estimate-q --protocol trine --sift-count 300 --total-count 1000",
    )]
P = scqkd.ProtocolKind
joint = analysis.enumerate_joint(P.BB84, scqkd.GentleIntercept(0.3), scqkd.Channel(depolarizing=0.05))
analysis.key_rate(joint)
analysis.find_threshold(P.TRINE, "standard")
analysis.estimate_q_from_sift(P.TETRAHEDRON, 0.3)
exact = "numpy" in sys.modules
montecarlo.run_trials(montecarlo.TrialConfig(P.TRINE, n_rounds=100))
print(json.dumps({"codes": codes, "exact": exact, "sampled": "numpy" in sys.modules}))
"""


@pytest.fixture(scope="module")
def probe():
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_exact_commands_and_entry_points_leave_numpy_unloaded(probe):
    assert probe["codes"] == [0, 0, 0, 0]
    assert not probe["exact"]


def test_a_simulation_loads_numpy(probe):
    assert probe["sampled"]


@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_signal_counts_match_the_codes(protocol):
    assert protocol.n_signals == len(make_code(protocol))
