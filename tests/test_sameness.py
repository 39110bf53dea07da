"""The sameness script runs from a tree's root and digests each of its output sets."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_prints_one_digest_per_set():
    done = subprocess.run(
        [sys.executable, "scripts/sameness.py"], cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["cli", "enumerate_joint", "find_threshold", "transcripts", "estimate", "reference"]
    for line in lines:
        assert re.fullmatch(r"\S+ [0-9a-f]{64} [1-9][0-9]*", line), line
