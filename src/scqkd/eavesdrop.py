"""Eavesdropping strategies: intercept/resend and the gentle (smeared) attack.

Both strategies are one model with two numbers: the share of signals Eve
measures (`touched`) and the strength of her measurement. Intercept/resend
is (q, 1), the gentle attack (1, q), and `_attack` is the one place the two
families differ. Eve measures with a signal-ensemble POVM, either the
sender's code or the receiver's dual ("pretending to be Alice" /
"pretending to be Bob"), possibly mixing the two, weakened to strength q:

    E_m = q (2/n) |psi_m><psi_m| + ((1 - q)/n) I

At full strength E_m is the code POVM and she forwards the measured
ensemble's pure state (a resend); below it she forwards the
square-root-updated state, interpolating down to no touch at q = 0. E_m has
eigenvalues (1 + q)/n on |psi_m> and (1 - q)/n on its complement, so
sqrt(E_m) rho sqrt(E_m) is linear in (1, q, sqrt(1 - q^2)), which is what
lets the exact analysis rebuild any gentle table from three strengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .codes import (
    SphericalCode,
    Povm,
    basis_label,
    bloch_gram,
    eigen_bit,
    tetra_key_bit,
    trine_key_bit,
)
from .protocol import Announcement, ProtocolKind, alice_code, bob_code
from .states import I2, pure_from_bloch, sample_outcome, sqrt_post_measurement_state


class EnsembleMix(Enum):
    """Which ensemble Eve measures with: one side, or a per-signal coin flip."""

    ALICE_ONLY = "alice"
    BOB_ONLY = "bob"
    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class InterceptResend:
    """Measure a fraction q of signals at full strength and resend the outcome state."""

    q: object
    mix: EnsembleMix = EnsembleMix.SYMMETRIC

    def __post_init__(self):
        if not 0 <= float(self.q) <= 1:
            raise ValueError(f"interception fraction must lie in [0, 1], got {self.q!r}")


@dataclass(frozen=True)
class GentleIntercept:
    """Measure every signal with the strength-q smeared POVM and forward the update."""

    q: object
    mix: EnsembleMix = EnsembleMix.SYMMETRIC

    def __post_init__(self):
        if not 0 <= float(self.q) <= 1:
            raise ValueError(f"attack strength must lie in [0, 1], got {self.q!r}")


@dataclass(frozen=True)
class EveRecord:
    """What the eavesdropper retains from one round."""

    intercepted: bool
    ensemble_used: str | None = None  # "alice" or "bob"
    outcome_index: int | None = None


NOT_INTERCEPTED = EveRecord(intercepted=False)


_SIDES = ("alice", "bob")


def _side_weights(mix: EnsembleMix) -> tuple:
    """Probabilities (alice, bob) that Eve measures with each side's ensemble."""
    if mix is EnsembleMix.ALICE_ONLY:
        return Fraction(1), Fraction(0)
    if mix is EnsembleMix.BOB_ONLY:
        return Fraction(0), Fraction(1)
    return Fraction(1, 2), Fraction(1, 2)


def _attack(eve) -> tuple:
    """The attack model of `eve`: (family, touched, strength).

    touched is the share of signals Eve measures and strength the strength
    she measures them with. Intercept/resend is (q, 1) and the gentle attack
    (1, q); no eavesdropper is ("none", 0, 1). This is the one place the
    strategy classes are told apart: every other fork reads these numbers.
    """
    if eve is None:
        return "none", 0, 1
    if isinstance(eve, InterceptResend):
        return "standard", eve.q, 1
    if isinstance(eve, GentleIntercept):
        return "gentle", 1, eve.q
    raise ValueError(f"unknown eavesdropping strategy: {eve!r}")


def _strategy_for(family: str, q, mix: EnsembleMix = EnsembleMix.SYMMETRIC):
    """The eavesdropper of an attack family at strength q; "none" is no eavesdropper."""
    if family == "none":
        return None
    if family == "standard":
        return InterceptResend(q=q, mix=mix)
    if family == "gentle":
        return GentleIntercept(q=q, mix=mix)
    raise ValueError(f"unknown attack family: {family!r} (expected standard or gentle)")


def gentle_povm(code: SphericalCode, q) -> Povm:
    """Smeared code POVM: q times the code POVM plus identity spread over all outcomes.

    q = 1 recovers the full-strength code POVM; q = 0 gives n copies of I/n,
    whose square-root update leaves any state unchanged.
    """
    qf = float(q)
    if not 0.0 <= qf <= 1.0:
        raise ValueError(f"attack strength must lie in [0, 1], got {q!r}")
    n = len(code)
    w = float(code.povm_weight)
    elements = tuple(
        qf * w * pure_from_bloch(v) + ((1.0 - qf) / n) * I2 for v in code.states
    )
    return Povm(elements=elements)


def measuring_code(protocol: ProtocolKind, side: str) -> SphericalCode:
    """The constellation Eve measures with when impersonating `side`.

    Basis-pair codes are their own antipode set, so both sides coincide there.
    """
    if side == "alice":
        return alice_code(protocol)
    if side == "bob":
        return bob_code(protocol)
    raise ValueError(f"unknown ensemble side: {side!r}")


# Eve's POVM at every strength, full strength included; keyed by float q, so
# bounded: simulate runs take any strength
@lru_cache(maxsize=16)
def _side_gentle_povm(protocol: ProtocolKind, side: str, q: float) -> Povm:
    return gentle_povm(measuring_code(protocol, side), q)


def intercept_with_uniforms(strategy, protocol, rho, u_coin, u_side, u_outcome):
    """Apply `strategy` to one in-flight state using explicit uniform variates.

    The three variates (interception coin, ensemble coin, outcome) are always
    consumed positionally by the caller, keeping round transcripts replayable.
    Eve measures when the coin falls below her touched share (always, for
    the gentle attack), on the side the ensemble coin picks (bob once it
    reaches alice's weight), with the POVM of her strength; she resends the
    measured state at full strength and forwards the square-root update below.

    Returns:
        (forwarded state, EveRecord). With no strategy or no interception the
        state passes through untouched.
    """
    if strategy is None:
        return rho, None
    _, touched, strength = _attack(strategy)
    if u_coin >= float(touched):
        return rho, NOT_INTERCEPTED
    side = _SIDES[u_side >= _side_weights(strategy.mix)[0]]
    povm = _side_gentle_povm(protocol, side, float(strength))
    m = sample_outcome(rho, povm, u_outcome)
    if strength == 1:
        forwarded = measuring_code(protocol, side).state(m)
    else:
        forwarded = sqrt_post_measurement_state(rho, povm.elements[m - 1])
    return forwarded, EveRecord(intercepted=True, ensemble_used=side, outcome_index=m)


def eve_guess(record, protocol: ProtocolKind, ann: Announcement, accepted: bool):
    """Eve's key-bit guess for an accepted round, or None to abstain.

    Exclusion protocols: her outcome is her candidate for the impersonated
    party's index. If the announcement excludes it the guess is provably
    wrong, so she abstains; otherwise she infers the counterpart index the
    same way the legitimate party would and computes the key bit. Basis
    protocols: she guesses her outcome's bit exactly when its basis matches
    the announced one. Rounds she did not intercept always yield None.
    """
    if not accepted:
        return None
    if record is None or not record.intercepted:
        return None
    m = record.outcome_index
    if protocol is ProtocolKind.TRINE:
        (l,) = ann.excluded
        if m == l:
            return None
        partner = 6 - m - l
        if record.ensemble_used == "alice":
            return trine_key_bit(m, partner, l)
        return trine_key_bit(partner, m, l)
    if protocol is ProtocolKind.TETRAHEDRON:
        l, la = ann.excluded
        if m in (l, la):
            return None
        partner = 10 - m - l - la
        if record.ensemble_used == "alice":
            return tetra_key_bit(m, partner, l, la)
        return tetra_key_bit(partner, m, l, la)
    if basis_label(m) != ann.bob_basis:
        return None
    return eigen_bit(m)


def eve_outcome_probability(protocol, strategy, side, m, j):
    """Exact probability that Eve's `side`-ensemble measurement yields m on signal j.

    (1 + q g)/n for measurement strength q (1 under intercept/resend), with g
    the Bloch overlap of Eve's measurement direction with the signal: rational
    whenever q is. Used by the exact enumeration and checked against matrix
    Born probabilities in tests.
    """
    g = bloch_gram(protocol.code_kind)[m - 1][j - 1]
    if side == "bob" and protocol.excludes_outcomes:
        g = -g
    return (1 + _attack(strategy)[2] * g) * Fraction(1, protocol.n_signals)
