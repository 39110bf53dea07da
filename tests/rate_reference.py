"""Mutual information of a table held as a dict, and the known one-way bounds, which only the tests ask for.

The package reads its rates through analysis._rate_kernel, which sums,
divides and takes logs through a cached plan of a table's keys with no
dict built. This is the plain dict computation the kernel is checked
against, and the one the acceptance criteria read off sampled tables.

The closed-form one-way key rates of BB84 and six-state against every
attack are the references a modelled attack's threshold QBER is set
against: that QBER is where one attack removes the key, so it lies above
the QBER at which these rates reach zero (`one_way_bound`).
"""

import math

from scqkd.analysis import _check_probabilities


def mutual_information(joint: dict) -> float:
    """Mutual information (bits) of a finite two-variable joint distribution.

    Args:
        joint: mapping (x, y) -> probability; must be nonnegative and sum to 1
            within 1e-9. Zero entries contribute zero, and a side that takes
            one value gives exactly zero.

    Raises:
        ValueError: on an entry below 0 or not a number (NaN included), or
            a badly normalized table.
    """
    _check_probabilities(joint, "distribution")
    return _mutual_information({key: float(v) for key, v in joint.items()})


def _mutual_information(joint: dict) -> float:
    """mutual_information of a checked table of floats: the marginals, then the log sum, in table order.

    A side that takes one value over the table's keys carries no
    information, so its table gives exactly 0.0, whatever roundoff its
    float marginal holds.
    """
    px: dict = {}
    py: dict = {}
    for (x, y), v in joint.items():
        px[x] = px.get(x, 0.0) + v
        py[y] = py.get(y, 0.0) + v
    if len(px) == 1 or len(py) == 1:
        return 0.0
    info = 0.0
    for (x, y), v in joint.items():
        if v > 0.0:
            info += v * math.log2(v / (px[x] * py[y]))
    return info


def bb84_one_way_rate(qber: float) -> float:
    """1 - 2 h(Q): BB84's one-way key rate (Shor and Preskill, PRL 85, 441, 2000), zero at Q = 0.110028."""
    h = -qber * math.log2(qber) - (1 - qber) * math.log2(1 - qber)
    return 1 - 2 * h


def six_state_one_way_rate(qber: float) -> float:
    """1 + (1 - 3Q/2) log2(1 - 3Q/2) + (3Q/2) log2(Q/2): six-state's one-way key rate (Lo, QIC 1, 81, 2001).

    It is zero at Q = 0.126193.
    """
    x = 3 * qber / 2
    return 1 + (1 - x) * math.log2(1 - x) + x * math.log2(qber / 2)


def one_way_bound(rate) -> float:
    """The QBER in (0, 1/2) where a one-way rate, positive below it and negative at 1/2, is zero (bisection)."""
    lo, hi = 0.0, 0.5
    while hi - lo > 1e-12:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if rate(mid) > 0 else (lo, mid)
    return (lo + hi) / 2
