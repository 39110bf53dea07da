"""Machine-speed calibration for the end-to-end timings.

On a shared VM the speed of a core swings by up to 2x within seconds, as
neighbours come and go. CPU time swings with wall time, so the cause is the
core's speed, not scheduling. A fixed reference kernel slows down together
with the ops. So the benchmark runs it between consecutive ops, and scales
each op's time by nominal / measured reference time, where the reference is
the mean of the kernel runs just before and just after the op. The timings
then read as times on the reference machine. On that machine this cut the
run-to-run spread of 12-second medians from about 0.2 to about 0.02.

The kernels use only the standard library and numpy, never the program
under test, so a change to the program cannot move them.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# Kernel times on the reference machine (2 vCPU Xeon VM at 2.0 GHz, Python
# 3.11, numpy 2.4). They fix the unit of the scaled timings and must never
# change.
NOMINAL_MS = {"python": 8.0, "numpy": 6.0}

_CDF = np.cumsum(np.full((6, 6), 1 / 6), axis=1)


def reference_python():
    """Interpreter work like the exact enumeration: Fractions accumulated in a dict."""
    table = {}
    for i in range(1, 1200):
        w = Fraction(1, i % 13 + 2) * Fraction(i % 5 + 1, 7)
        key = (i % 2, (i >> 1) % 2, None if i % 3 == 0 else i % 2)
        table[key] = table.get(key, 0) + w
    return table


def reference_numpy():
    """Array work like the sampling kernel: Philox uniforms, a gather, an inverse CDF."""
    total = 0
    for key in range(4):
        u = np.random.Generator(np.random.Philox(key=key)).random((1 << 14, 8))
        j = np.minimum((u[:, 0] * 6).astype(np.int64), 5)
        total += int((u[:, 4, None] >= _CDF[j]).sum())
    return total


KERNELS = {"python": reference_python, "numpy": reference_numpy}


class Reference:
    """The reference kernel of one workload: python^share * numpy^(1 - share), in ms."""

    def __init__(self, python_share: float):
        weights = {"python": python_share, "numpy": 1.0 - python_share}
        self.weights = {k: w for k, w in weights.items() if w > 0.0}
        self.nominal_ms = 1.0
        for name, weight in self.weights.items():
            self.nominal_ms *= NOMINAL_MS[name] ** weight

    def measure(self) -> float:
        ms = 1.0
        for name, weight in self.weights.items():
            t0 = time.perf_counter()
            KERNELS[name]()
            ms *= ((time.perf_counter() - t0) * 1e3) ** weight
        return ms
