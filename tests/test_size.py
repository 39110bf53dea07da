"""The size script counts code lines per module of src/scqkd, leaving out comments and docstrings."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("size", ROOT / "scripts" / "size.py")
size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


# a comment line
def f(x):
    """Function docstring."""
    y = (x +
         1)
    text = """a string,
not a docstring"""
    return y, text


class C:
    """Class docstring."""

    z = 1
'''


def test_counts_lines_that_hold_code():
    # import, def, the two lines of y, the two of text, return, class, z
    assert size.code_lines(SOURCE) == 9


def test_prints_one_count_per_module_and_their_total():
    done = subprocess.run(
        [sys.executable, "scripts/size.py"], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    lines = [re.fullmatch(r"([1-9][0-9]*) (\S+)", line).groups() for line in done.stdout.splitlines()]
    modules = sorted(path.name for path in (ROOT / "src" / "scqkd").glob("*.py"))
    assert [name for _, name in lines] == modules + ["total"]
    assert sum(int(count) for count, _ in lines[:-1]) == int(lines[-1][0])
