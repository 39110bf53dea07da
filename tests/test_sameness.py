"""The sameness script runs from a tree's root and digests each of its output sets.

tests/sameness.txt pins its output: a "python <version>" and a "numpy
<version>" line, then the script's six lines as printed on those versions.
A change that means to move an output updates the file and names, in
CHANGES.md, the set that moved and why.
"""

import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def sameness_run():
    """One run of the script, shared by the tests of this module."""
    return subprocess.run(
        [sys.executable, "scripts/sameness.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_prints_one_digest_per_set(sameness_run):
    assert sameness_run.returncode == 0, sameness_run.stderr
    lines = sameness_run.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["cli", "enumerate_joint", "find_threshold", "transcripts", "estimate", "reference"]
    for line in lines:
        assert re.fullmatch(r"\S+ [0-9a-f]{64} [1-9][0-9]*", line), line


def test_outputs_match_the_pinned_digests(sameness_run):
    pinned = (ROOT / "tests" / "sameness.txt").read_text().splitlines()
    versions = dict(line.split() for line in pinned[:2])
    here = {"python": platform.python_version(), "numpy": np.__version__}
    assert here == versions, (
        f"tests/sameness.txt is pinned on Python {versions['python']} and numpy {versions['numpy']}, "
        f"and this is Python {here['python']} with numpy {here['numpy']}: floats may round differently, "
        "so check the outputs on the pinned versions before re-pinning"
    )
    assert sameness_run.returncode == 0, sameness_run.stderr
    got, want = sameness_run.stdout.splitlines(), pinned[2:]
    moved = [line.split()[0] for line, pin in zip(got, want) if line != pin]
    assert got == want, f"output sets moved: {moved}"
