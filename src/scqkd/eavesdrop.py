"""Eavesdropping strategies: intercept/resend and the gentle (smeared) attack.

Both strategies are one model with two numbers: the share of signals Eve
measures (`touched`) and the strength of her measurement. Intercept/resend
is (q, 1), the gentle attack (1, q), and `_attack` is the one place the two
families differ. Eve measures with a signal-ensemble POVM, either the
sender's code or the receiver's dual ("pretending to be Alice" /
"pretending to be Bob"), possibly mixing the two, weakened to strength q:

    E_m = q (2/n) |psi_m><psi_m| + ((1 - q)/n) I

At full strength E_m is the code POVM and she forwards the measured
ensemble's pure state (a resend). E_m has eigenvalues (1 + q)/n on |psi_m>
and (1 - q)/n on its complement, so its square root is the Kraus operator

    K_m = sqrt((1 + q)/n) P_m + sqrt((1 - q)/n) (I - P_m),   P_m = |psi_m><psi_m|,

and below full strength she forwards K_m rho K_m / tr(K_m rho K_m),
interpolating down to no touch at q = 0. K_m rho K_m is linear in
(1, q, sqrt(1 - q^2)), which is what lets the exact analysis rebuild any
gentle table from three strengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .codes import ProtocolKind, SphericalCode, make_code
from .protocol import Announcement, _check_unit, _party_bit, bob_code


class EnsembleMix(Enum):
    """Which ensemble Eve measures with: one side, or a per-signal coin flip."""

    ALICE_ONLY = "alice"
    BOB_ONLY = "bob"
    SYMMETRIC = "symmetric"


def _check_mix(mix) -> None:
    if not isinstance(mix, EnsembleMix):
        raise ValueError(f"ensemble mix must be an EnsembleMix, got {mix!r}")


@dataclass(frozen=True)
class InterceptResend:
    """Measure a fraction q of signals at full strength and resend the outcome state."""

    q: object
    mix: EnsembleMix = EnsembleMix.SYMMETRIC

    def __post_init__(self):
        _check_unit(self.q, "interception fraction")
        _check_mix(self.mix)


@dataclass(frozen=True)
class GentleIntercept:
    """Measure every signal with the strength-q smeared POVM and forward the update."""

    q: object
    mix: EnsembleMix = EnsembleMix.SYMMETRIC

    def __post_init__(self):
        _check_unit(self.q, "attack strength")
        _check_mix(self.mix)


@dataclass(frozen=True)
class EveRecord:
    """What the eavesdropper retains from one round."""

    intercepted: bool
    ensemble_used: str | None = None  # "alice" or "bob"
    outcome_index: int | None = None


NOT_INTERCEPTED = EveRecord(intercepted=False)


_SIDES = ("alice", "bob")
# probabilities (alice, bob) that Eve measures with each side's ensemble
_SIDE_WEIGHTS = {
    EnsembleMix.ALICE_ONLY: (Fraction(1), Fraction(0)),
    EnsembleMix.BOB_ONLY: (Fraction(0), Fraction(1)),
    EnsembleMix.SYMMETRIC: (Fraction(1, 2), Fraction(1, 2)),
}


def _attack(eve) -> tuple:
    """The attack model of `eve`: (family, touched, strength).

    touched is the share of signals Eve measures and strength the strength
    she measures them with. Intercept/resend is (q, 1) and the gentle attack
    (1, q); no eavesdropper is intercept/resend on a share of 0,
    ("standard", 0, 1). This is the one place the strategy classes are told
    apart: every other fork reads these numbers.
    """
    if eve is None:
        return "standard", 0, 1
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
    whose Kraus operators, I/sqrt(n), leave any state unchanged.
    """
    from .states import I2, Povm, pure_from_bloch

    _check_unit(q, "attack strength")
    qf, n = float(q), len(code)
    w = 2 / n
    elements = tuple(
        qf * w * pure_from_bloch(v) + ((1.0 - qf) / n) * I2 for v in code.states
    )
    return Povm(elements=elements)


def measuring_code(protocol: ProtocolKind, side: str) -> SphericalCode:
    """The constellation Eve measures with when impersonating `side`.

    Basis-pair codes are their own antipode set, so both sides coincide there.
    """
    if side == "alice":
        return make_code(protocol)
    if side == "bob":
        return bob_code(protocol)
    raise ValueError(f"unknown ensemble side: {side!r}")


# Eve's POVM at every strength, full strength included, for the scalar
# run_round, which also measures Bob with the bob side at strength 1: his
# code POVM (the sampler and the exact walk read Bloch Gram rows instead);
# keyed by q (1 and 1.0 are one key), so bounded: simulations take any strength
@lru_cache(maxsize=16)
def _side_gentle_povm(protocol: ProtocolKind, side: str, q: float) -> Povm:
    return gentle_povm(measuring_code(protocol, side), q)


def _gentle_kraus(protocol: ProtocolKind, side: str, q: float, m: int):
    """K_m = sqrt(E_m): sqrt((1 + q)/n) on Eve's measured state m, sqrt((1 - q)/n) off it."""
    from .states import I2

    n, state = protocol.n_signals, measuring_code(protocol, side).state(m)
    return ((1 + q) / n) ** 0.5 * state + ((1 - q) / n) ** 0.5 * (I2 - state)


def intercept_with_uniforms(strategy, protocol, rho, u_coin, u_side, u_outcome):
    """Apply `strategy` to one in-flight state using explicit uniform variates.

    The three variates (interception coin, ensemble coin, outcome) are always
    consumed positionally by the caller, keeping round transcripts replayable.
    Eve measures when the coin falls below her touched share (always, for
    the gentle attack), on the side the ensemble coin picks (bob once it
    reaches alice's weight), with the POVM of her strength; she resends the
    measured state at full strength and below it forwards the state updated
    by her outcome's Kraus operator (see the module docstring).

    Returns:
        (forwarded state, EveRecord). With no strategy or no interception the
        state passes through untouched.
    """
    from .states import post_measurement_state, sample_outcome

    if strategy is None:
        return rho, None
    _, touched, strength = _attack(strategy)
    if u_coin >= float(touched):
        return rho, NOT_INTERCEPTED
    side = _SIDES[u_side >= _SIDE_WEIGHTS[strategy.mix][0]]
    povm = _side_gentle_povm(protocol, side, float(strength))
    m = sample_outcome(rho, povm, u_outcome)
    if strength == 1:
        forwarded = measuring_code(protocol, side).state(m)
    else:
        forwarded = post_measurement_state(rho, _gentle_kraus(protocol, side, float(strength), m))
    return forwarded, EveRecord(intercepted=True, ensemble_used=side, outcome_index=m)


def eve_guess(record, protocol: ProtocolKind, ann: Announcement, accepted: bool):
    """Eve's key-bit guess for an accepted round, or None to abstain.

    Exclusion protocols: her outcome is her candidate for the impersonated
    party's index. If the announcement excludes it the guess is provably
    wrong, so she abstains; otherwise she infers the counterpart index the
    same way the legitimate party would and computes the key bit. Basis
    protocols: she guesses her outcome's bit exactly when its basis matches
    the announced one. Both are the parties' own rule, protocol._party_bit.
    Rounds she did not intercept always yield None.
    """
    if not accepted:
        return None
    if record is None or not record.intercepted:
        return None
    return _party_bit(protocol, record.ensemble_used, record.outcome_index, ann)
