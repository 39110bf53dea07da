"""Check that the exact layer runs on the standard library alone and keeps its rules.

    cd <tree root> && python <path to>/scripts/exact_layer.py

Imports scqkd from src/ under the current directory, as scripts/sameness.py
does. It exits non-zero on the first failed check and otherwise prints one
line, "exact layer ok on Python <version>". It checks that:

- the exact commands (`analytic`, `threshold`, `sweep` and `estimate-q`,
  with rational and float flags, and a sweep at p = 1e-400, whose rows'
  totals pass 2^1074 so each row is read through its joint and key_rate)
  exit 0;
- where Eve touches nothing, her information is exactly zero;
- every threshold solve's answer, read back through the public
  enumerate_joint and key_rate, has |R| <= 1e-6 (the bench's own check) and
  the QBER the solve reports;
- the float gate of analysis._stages imitates Fraction's float fallback:
  its rows are, by type and bits, those of the Fraction path that a float
  subclass takes;
- none of this, nor importing the package, loads numpy.

These rules hold whatever the roundoff, so they hold on every supported
Python, with or without numpy installed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from scqkd import (  # noqa: E402
    Channel,
    EnsembleMix,
    GentleIntercept,
    InterceptResend,
    ProtocolKind,
    cli,
    enumerate_joint,
    estimate_q_from_sift,
    find_threshold,
    key_rate,
)
from scqkd.analysis import _stages  # noqa: E402

COMMANDS = (
    "analytic --protocol trine --attack standard --q 1/3",
    "analytic --protocol trine --attack standard --q 1/3 --depolarize 1/20",
    "threshold --protocol tetra --attack gentle --depolarize 1/20",
    "threshold --protocol tetra --attack gentle --depolarize 0.05",
    "sweep --protocol six-state --attack standard --steps 5",
    "sweep --protocol six-state --attack standard --steps 23",
    "sweep --protocol trine --attack standard --steps 5 --depolarize 1e-400",
    "estimate-q --protocol trine --sift-count 300 --total-count 1000",
    "estimate-q --protocol trine --sift-count 5500 --total-count 10000",
)
FAMILIES = {"standard": InterceptResend, "gentle": GentleIntercept}


class Boxed(float):
    """A float that is not a float by type, so _stages takes its Fraction path."""


def _bits(stages):
    return [(type(v), float.hex(v)) for rows in stages for row in rows for v in row]


def main() -> int:
    if not __debug__:
        raise SystemExit("the checks are asserts: run exact_layer.py without -O")
    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv.split())
        assert code == 0, f"{argv} exited with {code}"
    for protocol in ProtocolKind:
        for p in (0.05, 0.1, 0.2, 0.3, 1 / 7, 0.37):
            report = key_rate(enumerate_joint(protocol, None, Channel(depolarizing=p)))
            assert report.i_ae == report.i_be == 0.0, f"{protocol.value} at p = {p}: {report}"
    for protocol, family, mix, p in itertools.product(ProtocolKind, FAMILIES, EnsembleMix, (0, 0.05, Fraction(1, 20))):
        channel = Channel(depolarizing=p)
        res = find_threshold(protocol, family, mix, channel)
        joint = enumerate_joint(protocol, FAMILIES[family](res.q_star, mix), channel)
        where = f"{protocol.value} {family} {mix.value} at p = {p}: {res}"
        assert abs(key_rate(joint).r) <= 1e-6, where
        assert res.qber_star == float(joint.qber), where
    estimate_q_from_sift(ProtocolKind.TETRAHEDRON, 0.3)
    for protocol, q, p in itertools.product(ProtocolKind, (0.0, 0.6, 1 - 1e-12, 1.0), (0.0, 0.05, 1 / 7, 1.0)):
        assert _bits(_stages(protocol, q, p)) == _bits(_stages(protocol, Boxed(q), Boxed(p))), (protocol, q, p)
    assert "numpy" not in sys.modules, "the exact layer loaded numpy"
    print("exact layer ok on Python", sys.version.split()[0])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
