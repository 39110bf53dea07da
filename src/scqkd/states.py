"""Qubit state and measurement primitives.

States are 2x2 complex density matrices; Bloch vectors are the real
three-component view rho = (I + v.sigma)/2. All functions are pure and never
mutate their inputs. The checks that a matrix is a valid state or POVM
(Hermitian, unit trace or summing to the identity, positive semidefinite)
live with the tests, the only code that asks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

I2: NDArray[np.complex128] = np.eye(2, dtype=np.complex128)
SIGMA_X: NDArray[np.complex128] = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y: NDArray[np.complex128] = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z: NDArray[np.complex128] = np.array([[1, 0], [0, -1]], dtype=np.complex128)

MIXED: NDArray[np.complex128] = I2 / 2


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


def pure_from_bloch(v) -> NDArray[np.complex128]:
    """Density matrix of the pure state with unit Bloch vector v.

    Args:
        v: length-3 real sequence with |v| = 1 (tolerance 1e-9).

    Returns:
        2x2 complex density matrix (I + v.sigma)/2, read-only.

    Raises:
        ValueError: if v is not a unit vector.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"Bloch vector must have 3 components, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"not a unit Bloch vector: |v| = {norm!r}")
    rho = (I2 + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z) / 2
    return _frozen(rho)


@dataclass(frozen=True, eq=False)
class Povm:
    """A POVM: ordered elements summing to the identity; outcome m is element m-1 (1-based)."""

    elements: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(_frozen(e) for e in self.elements))


def born_probability(rho, element) -> float:
    """Outcome probability tr(rho E), clamped into [0, 1].

    Clamping absorbs roundoff from products of valid states and elements;
    callers may rely on the result being a legal probability.
    """
    p = float(np.einsum("ij,ji->", np.asarray(rho), np.asarray(element)).real)
    if p < 0.0:
        return 0.0
    if p > 1.0:
        return 1.0
    return p


def post_measurement_state(rho, kraus) -> NDArray[np.complex128]:
    """State after the outcome with Kraus operator K: K rho K / tr(K rho K).

    K is Hermitian here (the square root of the outcome's POVM element), and
    tr(K rho K) is the outcome's probability. For a multiple of a projector K
    projects; for a multiple of the identity it leaves the state unchanged.
    Any positive probability is conditioned on, however small: an outcome
    that a uniform can select has a state to forward.

    Raises:
        ValueError: if tr(K rho K) is not positive, since the conditional
            state is then undefined.
    """
    out = kraus @ np.asarray(rho, dtype=np.complex128) @ kraus
    p = np.trace(out).real
    if not p > 0.0:
        raise ValueError("conditional state undefined: outcome probability is zero")
    return _frozen(out / p)


def depolarize(rho, p):
    """Depolarizing channel: (1 - p) rho + p I/2.

    Args:
        rho: input density matrix.
        p: depolarization strength in [0, 1]; p = 1 erases all information.

    Raises:
        ValueError: if p is outside [0, 1].
    """
    pf = float(p)
    if not 0.0 <= pf <= 1.0:
        raise ValueError(f"depolarization strength must lie in [0, 1], got {p!r}")
    if pf == 0.0:
        return _frozen(np.asarray(rho, dtype=np.complex128))
    return _frozen((1.0 - pf) * np.asarray(rho, dtype=np.complex128) + pf * MIXED)


def sample_outcome(rho, povm: Povm, u: float):
    """Sample a measurement outcome by inverse CDF over the POVM's Born probabilities.

    Outcomes are scanned in element order; the outcome returned is the first
    whose cumulative probability exceeds u, so u = 0 selects the first outcome
    of nonzero probability and zero-probability outcomes are never returned.
    If roundoff leaves u at or beyond the total cumulative mass, the last
    nonzero-probability outcome is returned.

    Args:
        rho: state being measured.
        povm: measurement; probabilities are computed per element.
        u: uniform variate in [0, 1).

    Returns:
        The 1-based index of the sampled outcome.
    """
    c = 0.0
    last_nonzero = None
    for m, e in enumerate(povm.elements, 1):
        p = born_probability(rho, e)
        c += p
        if p > 0.0:
            last_nonzero = m
            if u < c:
                return m
    if last_nonzero is None:
        raise ValueError("all outcomes have zero probability")
    return last_nonzero
