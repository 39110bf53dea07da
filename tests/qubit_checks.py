"""Validity checks of qubit states and POVMs, which only the tests ask for.

A density matrix is Hermitian, of unit trace and positive semidefinite; a
POVM's elements are Hermitian positive semidefinite 2x2 matrices that sum to
the identity. Tolerances are ATOL unless a caller gives its own.
"""

import numpy as np

from scqkd.states import I2

ATOL = 1e-12


def bloch_of(rho) -> np.ndarray:
    """Bloch vector (x, y, z) of a density matrix."""
    rho = np.asarray(rho, dtype=np.complex128)
    return np.array(
        [2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real]
    )


def _min_eigenvalue(a, what: str, atol: float) -> float:
    """Smaller eigenvalue (t - sqrt(t^2 - 4 det))/2 of a 2x2 matrix, which must be Hermitian.

    Raises:
        ValueError: "<what> is not Hermitian".
    """
    if not np.allclose(a, a.conj().T, atol=atol):
        raise ValueError(f"{what} is not Hermitian")
    t, d = np.trace(a).real, np.linalg.det(a).real
    return (t - max(t * t - 4 * d, 0.0) ** 0.5) / 2


def validate_state(rho, atol: float = ATOL) -> None:
    """Check that rho is Hermitian, unit trace, and positive semidefinite.

    Raises:
        ValueError: naming the violated property.
    """
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (2, 2):
        raise ValueError(f"density matrix must be 2x2, got {rho.shape}")
    lam_min = _min_eigenvalue(rho, "density matrix", atol)
    tr = np.trace(rho).real
    if abs(tr - 1.0) > atol:
        raise ValueError(f"density matrix trace is {tr!r}, expected 1")
    if lam_min < -atol:
        raise ValueError(f"density matrix has negative eigenvalue {lam_min!r}")


def validate_povm(povm, atol: float = ATOL) -> None:
    """Check each element of a Povm is Hermitian PSD and the set sums to identity.

    Raises:
        ValueError: naming the violated property.
    """
    total = np.zeros((2, 2), dtype=np.complex128)
    for e in povm.elements:
        if e.shape != (2, 2):
            raise ValueError("POVM element must be 2x2")
        if _min_eigenvalue(e, "POVM element", atol) < -atol:
            raise ValueError("POVM element has a negative eigenvalue")
        total = total + e
    if not np.allclose(total, I2, atol=atol):
        raise ValueError("POVM elements do not sum to the identity")
