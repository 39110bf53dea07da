"""Qubit references that only the tests ask for: POVM validity and the matrix Born rows of a round.

A POVM's elements are Hermitian positive semidefinite 2x2 matrices that sum
to the identity; tolerances are ATOL unless a caller gives its own.
`_born_stages` builds the rows of analysis._stages from run_round's matrix
primitives, the independent reference for the exact rows and the sampler's
tables.
"""

import numpy as np

from scqkd.codes import make_code
from scqkd.eavesdrop import _SIDES, _gentle_kraus, _side_gentle_povm, measuring_code
from scqkd.states import I2, born_probability, depolarize, post_measurement_state

ATOL = 1e-12


def _min_eigenvalue(a, what: str, atol: float) -> float:
    """Smaller eigenvalue (t - sqrt(t^2 - 4 det))/2 of a 2x2 matrix, which must be Hermitian.

    Raises:
        ValueError: "<what> is not Hermitian".
    """
    if not np.allclose(a, a.conj().T, rtol=0, atol=atol):
        raise ValueError(f"{what} is not Hermitian")
    t, d = np.trace(a).real, np.linalg.det(a).real
    return (t - max(t * t - 4 * d, 0.0) ** 0.5) / 2


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
    if not np.allclose(total, I2, rtol=0, atol=atol):
        raise ValueError("POVM elements do not sum to the identity")


def _born_stages(protocol, strength, p):
    """(eve, bob) rows laid out as in _stages, from run_round's matrix Born primitives.

    Eve's row is the Born distribution of her strength-q POVM on Alice's
    state j; Bob's is that of his POVM on the depolarized state she forwards:
    her measured state at full strength, else the update by her outcome's
    Kraus operator. Every slot and both sides are built, as in _stages.
    """
    n = protocol.n_signals
    eve_rows, bob_rows = [None] * (2 * n), [None] * ((2 * n + 1) * n)

    def bob_row(rho):
        rho = depolarize(rho, p)
        return [born_probability(rho, e) for e in _side_gentle_povm(protocol, "bob", 1).elements]

    for j in range(1, n + 1):
        rho = make_code(protocol).state(j)
        bob_rows[j - 1] = bob_row(rho)
        for si in (0, 1):
            side = _SIDES[si]
            povm = _side_gentle_povm(protocol, side, float(strength))
            eve_rows[si * n + j - 1] = [born_probability(rho, e) for e in povm.elements]
            for m in range(1, n + 1):
                if strength == 1:
                    forwarded = measuring_code(protocol, side).state(m)
                else:
                    forwarded = post_measurement_state(rho, _gentle_kraus(protocol, side, float(strength), m))
                bob_rows[(1 + si * n + m - 1) * n + j - 1] = bob_row(forwarded)
    return eve_rows, bob_rows
