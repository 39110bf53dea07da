"""Signal constellations, the permutation symbol and the paper's two key-bit rules.

A protocol is its constellation, so `ProtocolKind` names both. A code is an
ordered set of n pure-state Bloch vectors, and the subnormalized projectors
(2/n)|psi_m><psi_m| form a POVM. The trine and tetrahedron are equiangular
spherical codes and sift by exclusion; their receivers measure the antipodal
code (protocol.bob_code), and a key bit is the parity of the permutation
symbol of the full index assignment (trine_key_bit, tetra_key_bit). BB84
and six-state consist of orthogonal basis pairs and are their own antipode
set. All public signal indices are 1-based.

The exact layer reads only ProtocolKind, its n_signals table, the Gram
matrix and the key-bit rules, none of which touches numpy. A SphericalCode
holds its Bloch vectors as a numpy array, so building or reading one
(make_code, protocol.bob_code) is the only place this module imports numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Integral


class ProtocolKind(Enum):
    TRINE = "trine"
    TETRAHEDRON = "tetra"
    BB84 = "bb84"
    SIX_STATE = "six-state"

    @property
    def n_signals(self) -> int:
        return _N_SIGNALS[self]

    @property
    def excludes_outcomes(self) -> bool:
        """True for the exclusion-sifted codes, the equiangular trine and tetrahedron."""
        return self in (ProtocolKind.TRINE, ProtocolKind.TETRAHEDRON)


# the size of each constellation, so that the exact layer never builds a matrix code to count it
_N_SIGNALS = {ProtocolKind.TRINE: 3, ProtocolKind.TETRAHEDRON: 4, ProtocolKind.BB84: 4, ProtocolKind.SIX_STATE: 6}


@dataclass(frozen=True, eq=False)
class SphericalCode:
    """Ordered constellation of unit Bloch vectors."""

    states: np.ndarray  # shape (n, 3), read-only

    def __post_init__(self):
        import numpy as np

        s = np.asarray(self.states, dtype=np.float64)
        s.setflags(write=False)
        object.__setattr__(self, "states", s)

    def __len__(self) -> int:
        return len(self.states)

    def bloch(self, index: int) -> np.ndarray:
        """Bloch vector of signal `index` (1-based)."""
        if not 1 <= index <= len(self):
            raise ValueError(f"signal index {index} out of range 1..{len(self)}")
        return self.states[index - 1]

    def state(self, index: int) -> np.ndarray:
        """Density matrix of signal `index` (1-based)."""
        from .states import pure_from_bloch

        return pure_from_bloch(self.bloch(index))


def _trine_states() -> list:
    # coplanar in the x-z plane, angle 2*pi*(j-1)/3 from +z
    rows = []
    for j in range(3):
        ang = 2 * math.pi * j / 3
        rows.append([math.sin(ang), 0.0, math.cos(ang)])
    return rows


def _tetrahedron_states() -> list:
    r2 = math.sqrt(2.0)
    r23 = math.sqrt(2.0 / 3.0)
    return [
        [0.0, 0.0, 1.0],
        [2 * r2 / 3, 0.0, -1.0 / 3],
        [-r2 / 3, r23, -1.0 / 3],
        [-r2 / 3, -r23, -1.0 / 3],
    ]


_BASIS_AXES = {"z": [0.0, 0.0, 1.0], "x": [1.0, 0.0, 0.0], "y": [0.0, 1.0, 0.0]}


def _basis_pair_states(bases: str) -> list:
    rows = []
    for b in bases:
        axis = _BASIS_AXES[b]
        rows.append(axis)
        rows.append([-x for x in axis])
    return rows


def make_code(protocol: ProtocolKind) -> SphericalCode:
    """Construct the sender's constellation of `protocol` with its exact coordinates."""
    if protocol is ProtocolKind.TRINE:
        states = _trine_states()
    elif protocol is ProtocolKind.TETRAHEDRON:
        states = _tetrahedron_states()
    elif protocol is ProtocolKind.BB84:
        states = _basis_pair_states("zx")
    elif protocol is ProtocolKind.SIX_STATE:
        states = _basis_pair_states("zxy")
    else:
        raise ValueError(f"unknown protocol: {protocol!r}")
    return SphericalCode(states=states)


def bloch_gram(protocol: ProtocolKind) -> tuple:
    """Exact Gram matrix of Bloch-vector dot products, as Fractions.

    An equiangular code's n unit vectors sum to zero, so its constant
    off-diagonal overlap is -1/(n - 1): -1/2 for the trine, -1/3 for the
    tetrahedron. Basis-pair codes have -1 within a pair and 0 across pairs.
    """
    if not isinstance(protocol, ProtocolKind):
        raise ValueError(f"unknown protocol: {protocol!r}")
    n = protocol.n_signals

    def entry(i: int, j: int) -> Fraction:
        if i == j:
            return Fraction(1)
        if protocol.excludes_outcomes:
            return Fraction(-1, n - 1)
        return Fraction(-1 if j == i ^ 1 else 0)

    return tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))


# -- basis-pair helpers (BB84 / six-state ordering: +z,-z,+x,-x,+y,-y) --------


def _check_index(index, n: int) -> None:
    """Reject an index that is a bool, not an Integral (numpy integers are) or outside 1..n."""
    if isinstance(index, bool) or not isinstance(index, Integral) or not 1 <= index <= n:
        raise ValueError(f"index {index!r} out of range 1..{n}")


def basis_label(index: int) -> str:
    """Basis ('z', 'x' or 'y') of a basis-pair code signal (1-based index in 1..6)."""
    _check_index(index, 6)
    return "zxy"[(index - 1) // 2]


def eigen_bit(index: int) -> int:
    """Key bit of a basis-pair signal (1-based index in 1..6): + eigenstate encodes 0, - encodes 1."""
    _check_index(index, 6)
    return (index - 1) % 2


# -- permutation-symbol key bits ----------------------------------------------


def levi_civita(*indices: int) -> int:
    """Permutation symbol over {1..len(indices)}: +1 even, -1 odd, 0 on repeats.

    An index is any Integral (numpy integers too) but not a bool.
    """
    n = len(indices)
    for i in indices:
        _check_index(i, n)
    if len(set(indices)) != n:
        return 0
    return (-1) ** int(sum(a > b for a, b in itertools.combinations(indices, 2)))


def trine_key_bit(j: int, k: int, l: int) -> int:
    """Key bit (1 - eps_jkl)/2 from a full trine index assignment.

    j is the sender's signal, k the receiver's outcome, l the announced
    excluded outcome; the three must be distinct.
    """
    eps = levi_civita(j, k, l)
    if eps == 0:
        raise ValueError(f"trine key bit needs distinct indices, got {(j, k, l)}")
    return (1 - eps) // 2


def tetra_key_bit(j: int, k: int, l: int, m: int) -> int:
    """Key bit (1 + eps_jklm)/2 from a full tetrahedron index assignment."""
    eps = levi_civita(j, k, l, m)
    if eps == 0:
        raise ValueError(
            f"tetrahedron key bit needs distinct indices, got {(j, k, l, m)}"
        )
    return (1 + eps) // 2
