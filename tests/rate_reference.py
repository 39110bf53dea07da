"""Mutual information of a table held as a dict, which only the tests ask for.

The package reads its rates through analysis._rate_kernel, which sums,
divides and takes logs through a cached plan of a table's keys with no
dict built. This is the plain dict computation the kernel is checked
against, and the one the acceptance criteria read off sampled tables.
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
