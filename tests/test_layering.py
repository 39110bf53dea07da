"""The exact layer runs without numpy: only the matrix states and the sampler's first call load it."""

import subprocess
import sys
from pathlib import Path

import pytest

from scqkd.codes import ProtocolKind, make_code

ROOT = Path(__file__).resolve().parent.parent

# a simulation, in a fresh interpreter so that nothing this test process imported counts
SAMPLED = """import sys; sys.path.insert(0, 'src'); from scqkd import ProtocolKind, montecarlo
montecarlo.run_trials(montecarlo.TrialConfig(ProtocolKind.TRINE, n_rounds=100))
assert 'numpy' in sys.modules, 'a simulation ran without numpy'"""


def _run(*args):
    done = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_exact_commands_and_entry_points_leave_numpy_unloaded():
    _run("scripts/exact_layer.py")


def test_a_simulation_loads_numpy():
    _run("-c", SAMPLED)


@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_signal_counts_match_the_codes(protocol):
    assert protocol.n_signals == len(make_code(protocol))
