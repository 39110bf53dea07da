"""Exact analysis: joint distributions, mutual information, key rates, thresholds.

The central object is the joint distribution p(a, b, e) of Alice's bit, Bob's
bit, and Eve's guess (0, 1, or None for abstention) conditioned on successful
sifting, produced by exhaustively enumerating every branch of a round. For
the intercept/resend attack every branch probability is rational, so the
enumeration runs in exact Fraction arithmetic whenever the inputs (q and the
depolarizing strength) are rational; the gentle attack introduces matrix
square roots and runs in double precision. Thresholds and sweeps combine
the tables of a few strengths instead (`_joint_curve`). The one-way
distillable rate is the classical bound

    R = I(A:B) - min(I(A:E), I(B:E))

with abstention kept as a third symbol in Eve's alphabet.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .codes import bloch_gram
from .eavesdrop import (
    EveRecord,
    GentleIntercept,
    InterceptResend,
    NOT_INTERCEPTED,
    EnsembleMix,
    _side_gentle_povm,
    eve_guess,
    eve_outcome_probability,
    measuring_code,
)
from .protocol import (
    Channel,
    IDEAL,
    ProtocolKind,
    alice_code,
    announcement_options,
    derive_bits,
    sift_accept,
)
from .states import born_probability, depolarize, sqrt_post_measurement_state


class NoThresholdError(RuntimeError):
    """Raised when the key rate does not change sign on q in [0, 1]."""


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """p(a, b, e) conditioned on sifting success, plus the sifting probability.

    Table keys are (alice_bit, bob_bit, eve_guess) with eve_guess in
    {0, 1, None}; None marks abstention (including rounds Eve never touched).
    Values are Fractions when produced by the exact path, floats otherwise.
    """

    p_sift: object
    table: dict

    def __post_init__(self):
        for key, v in self.table.items():
            if v < 0:
                raise ValueError(f"negative probability {v!r} at {key}")
        total = float(sum(self.table.values()))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"conditional table sums to {total!r}, expected 1")

    def mass(self, predicate):
        """Total conditional probability of entries whose (a, b, e) satisfies predicate."""
        return sum(v for k, v in self.table.items() if predicate(*k))

    @property
    def p_fail(self):
        return 1 - self.p_sift

    @property
    def qber(self):
        """Conditional probability that the sifted bits disagree."""
        return self.mass(lambda a, b, e: a != b)

    @property
    def p_ab_agree(self):
        return self.mass(lambda a, b, e: a == b)

    @property
    def p_eve_abstain(self):
        return self.mass(lambda a, b, e: e is None)

    @property
    def p_eve_guess(self):
        return self.mass(lambda a, b, e: e is not None)

    @property
    def p_eve_agree_alice(self):
        return self.mass(lambda a, b, e: e is not None and e == a)

    @property
    def p_eve_agree_bob(self):
        return self.mass(lambda a, b, e: e is not None and e == b)

    def pair_ab(self) -> dict:
        return self._pair(lambda a, b, e: (a, b))

    def pair_ae(self) -> dict:
        return self._pair(lambda a, b, e: (a, e))

    def pair_be(self) -> dict:
        return self._pair(lambda a, b, e: (b, e))

    def _pair(self, proj) -> dict:
        out: dict = {}
        for key, v in self.table.items():
            pk = proj(*key)
            out[pk] = out.get(pk, 0) + v
        return out


@dataclass(frozen=True)
class RateReport:
    """Mutual informations (bits) and the distillable rate R = i_ab - min(i_ae, i_be)."""

    i_ab: float
    i_ae: float
    i_be: float
    r: float


@dataclass(frozen=True)
class ThresholdResult:
    q_star: float
    qber_star: float
    n_enumerations: int  # enumerate_joint calls the solve made


@dataclass(frozen=True)
class QSiftEstimate:
    """Attack fraction inferred from an observed sifting rate."""

    q: object
    q_raw: object
    in_model: bool


def _is_exact(x) -> bool:
    return isinstance(x, Rational)


def _negligible(p) -> bool:
    """True for branch weights that cannot contribute at double precision.

    Exact zeros are dropped in both arithmetics; float weights additionally
    drop roundoff dust below 1e-15 so that impossible branches (orthogonal
    outcomes that compute as ~1e-17) do not grow spurious table entries.
    """
    if isinstance(p, float):
        return p < 1e-15
    return p == 0


# -- branch generators ---------------------------------------------------------


def _resend_side_tag(protocol: ProtocolKind, side: str) -> str:
    # exclusion protocols: Bob-side Eve resends the dual (antipodal) state
    if side == "bob" and protocol.excludes_outcomes:
        return "dual"
    return "alice"


def _mix_sides(mix: EnsembleMix):
    if mix is EnsembleMix.ALICE_ONLY:
        return (("alice", Fraction(1)),)
    if mix is EnsembleMix.BOB_ONLY:
        return (("bob", Fraction(1)),)
    return (("alice", Fraction(1, 2)), ("bob", Fraction(1, 2)))


def _eve_branches(protocol: ProtocolKind, eve, j: int):
    """Yield (weight, forwarded state, EveRecord) for every interception branch.

    Forwarded states are ('alice'|'dual', index) tags on the exact path and
    density matrices on the gentle path.
    """
    n = protocol.n_signals
    if eve is None:
        yield 1, ("alice", j), None
        return
    if isinstance(eve, InterceptResend):
        if eve.q != 1:
            yield 1 - eve.q, ("alice", j), NOT_INTERCEPTED
        if eve.q == 0:
            return
        for side, ws in _mix_sides(eve.mix):
            tag = _resend_side_tag(protocol, side)
            for m in range(1, n + 1):
                p_m = eve_outcome_probability(protocol, eve, side, m, j)
                if _negligible(p_m):
                    continue
                rec = EveRecord(intercepted=True, ensemble_used=side, outcome_index=m)
                yield eve.q * ws * p_m, (tag, m), rec
        return
    if isinstance(eve, GentleIntercept):
        rho = alice_code(protocol).state(j)
        for side, ws in _mix_sides(eve.mix):
            povm = _side_gentle_povm(protocol, side, float(eve.q))
            for m in range(1, n + 1):
                p_m = born_probability(rho, povm.elements[m - 1])
                # below the cut the conditional state is numerically undefined
                # (full-strength orthogonal outcomes compute as ~1e-17, not 0)
                if _negligible(p_m):
                    continue
                forwarded = sqrt_post_measurement_state(rho, povm.elements[m - 1])
                rec = EveRecord(intercepted=True, ensemble_used=side, outcome_index=m)
                yield float(ws) * p_m, forwarded, rec
        return
    raise ValueError(f"unknown eavesdropping strategy: {eve!r}")


def _bob_row(protocol: ProtocolKind, state, channel: Channel):
    """Bob's outcome distribution over labels 1..n for one forwarded state."""
    n = protocol.n_signals
    p = channel.depolarizing
    if isinstance(state, tuple):
        side, s = state
        gram = bloch_gram(protocol.code_kind)
        bob_side = "dual" if protocol.excludes_outcomes else "alice"
        row = []
        for k in range(1, n + 1):
            d = gram[k - 1][s - 1]
            if bob_side != side:
                d = -d
            pk = (1 + d) * Fraction(1, n)
            if p != 0:
                pk = (1 - p) * pk + p * Fraction(1, n)
            row.append(pk)
        return row
    from .protocol import bob_povm

    rho = depolarize(state, float(p))
    return [born_probability(rho, e) for e in bob_povm(protocol).elements]


class _Sifting(NamedTuple):
    """Sifting outcome of every (signal j, Bob outcome k, announcement ai) of a protocol.

    walk[j-1][k-1] is (announcement weight, its float, ((a, b, guesses), ...))
    over the accepted announcements in order; guesses[slot[rec]] is Eve's
    guess for the EveRecord rec. accept, alice and bob index [j-1, k-1, ai], eve
    [side, m-1, k-1, ai] with side 0 alice, 1 bob; -1 marks no bit.
    """

    slot: MappingProxyType
    walk: tuple
    accept: np.ndarray
    alice: np.ndarray
    bob: np.ndarray
    eve: np.ndarray


@lru_cache(maxsize=len(ProtocolKind))
def _sifting(protocol: ProtocolKind) -> _Sifting:
    n = protocol.n_signals
    records = [None, NOT_INTERCEPTED]
    records += [EveRecord(True, side, m) for side in ("alice", "bob") for m in range(1, n + 1)]
    shape = (n, n, len(announcement_options(protocol, 1)))
    accept = np.zeros(shape, dtype=bool)
    alice, bob = np.full((2, *shape), -1, dtype=np.int8)
    eve = np.full((2 * n, *shape[1:]), -1, dtype=np.int8)
    walk = [[] for _ in range(n)]
    for k in range(1, n + 1):
        options = announcement_options(protocol, k)
        cells = [[] for _ in range(n)]
        for ai, ann in enumerate(options):
            guesses = tuple(eve_guess(rec, protocol, ann, True) for rec in records)
            eve[:, k - 1, ai] = [-1 if g is None else g for g in guesses[2:]]
            for j in range(1, n + 1):
                if sift_accept(protocol, j, ann):
                    a, b = derive_bits(protocol, j, k, ann)
                    accept[j - 1, k - 1, ai] = True
                    alice[j - 1, k - 1, ai], bob[j - 1, k - 1, ai] = a, b
                    cells[j - 1].append((a, b, guesses))
        w_a = Fraction(1, len(options))
        for j in range(n):
            walk[j].append((w_a, float(w_a), tuple(cells[j])))
    eve = eve.reshape(2, *shape)
    for arr in (accept, alice, bob, eve):
        arr.flags.writeable = False
    slot = MappingProxyType({rec: i for i, rec in enumerate(records)})
    return _Sifting(slot, tuple(map(tuple, walk)), accept, alice, bob, eve)


def enumerate_joint(protocol: ProtocolKind, eve=None, channel: Channel = IDEAL) -> JointDistribution:
    """Exhaustively enumerate one round and return the sifted joint distribution.

    Every branch (signal, interception outcome, Bob outcome, announcement) is
    walked with its probability; nothing is sampled. Arithmetic stays in
    exact rationals when the strategy and channel parameters are rational and
    the strategy is not gentle.

    Args:
        protocol: protocol to analyze.
        eve: None, InterceptResend, or GentleIntercept.
        channel: transmission channel applied after interception.

    Returns:
        JointDistribution with p_sift and the conditional p(a, b, e) table.
    """
    n = protocol.n_signals
    # Fraction * float computes float(Fraction) * float, so float branches
    # take the float copies of the weights and skip that slow fallback
    w_j = Fraction(1, n)
    w_j_float = float(w_j)
    sifting = _sifting(protocol)
    table: dict = {}
    sift_mass = 0
    total_mass = 0
    for j in range(1, n + 1):
        for w_e, state, rec in _eve_branches(protocol, eve, j):
            row = _bob_row(protocol, state, channel)
            base = (w_j_float if isinstance(w_e, float) else w_j) * w_e
            slot = sifting.slot[rec]
            for pk, (w_a, w_a_float, cells) in zip(row, sifting.walk[j - 1]):
                if _negligible(pk):
                    continue
                mass = base * pk
                total_mass += mass
                w = mass * (w_a_float if isinstance(mass, float) else w_a)
                for a, b, guesses in cells:
                    key = (a, b, guesses[slot])
                    table[key] = table.get(key, 0) + w
                    sift_mass += w
    if abs(float(total_mass) - 1.0) > 1e-9:
        raise AssertionError(f"branch probabilities sum to {float(total_mass)!r}")
    cond = {key: v / sift_mass for key, v in table.items()}
    return JointDistribution(p_sift=sift_mass, table=cond)


# -- closed-form curves --------------------------------------------------------


@dataclass(frozen=True)
class AnalyticCurves:
    """Closed-form intercept/resend curves for the exclusion-sifted codes.

    All conditional quantities assume the symmetric ensemble mix except
    p_sift, p_ab and qber, which are mix-independent. Accepts exact or float
    q and preserves the input's arithmetic.
    """

    protocol: ProtocolKind

    def p_sift(self, q):
        if self.protocol is ProtocolKind.TRINE:
            return (6 + q) * Fraction(1, 12)
        return (3 + q) * Fraction(1, 9)

    def p_ab(self, q):
        if self.protocol is ProtocolKind.TRINE:
            return (6 - q) / (6 + q)
        return (6 - q) / (2 * (3 + q))

    def p_ae(self, q):
        if self.protocol is ProtocolKind.TRINE:
            return 9 * q / (2 * (6 + q))
        return 7 * q / (4 * (3 + q))

    def p_noguess(self, q):
        if self.protocol is ProtocolKind.TRINE:
            return 2 * (3 - 2 * q) / (6 + q)
        return (3 - q) / (3 + q)

    def qber(self, q):
        if self.protocol is ProtocolKind.TRINE:
            return 2 * q / (6 + q)
        return 3 * q / (2 * (3 + q))

    def sift_to_q(self, observed_sift):
        """Invert p_sift: the attack fraction exposed by the sifting rate."""
        if self.protocol is ProtocolKind.TRINE:
            return 12 * observed_sift - 6
        return 9 * observed_sift - 3


def analytic_curves(protocol: ProtocolKind) -> AnalyticCurves:
    """Closed-form curves; only the exclusion-sifted codes have them."""
    if not protocol.excludes_outcomes:
        raise ValueError(
            f"no closed-form curves for {protocol.value}; use enumerate_joint"
        )
    return AnalyticCurves(protocol=protocol)


# -- information quantities ----------------------------------------------------


def mutual_information(joint: dict) -> float:
    """Mutual information (bits) of a finite two-variable joint distribution.

    Args:
        joint: mapping (x, y) -> probability; must be nonnegative and sum to 1
            within 1e-9. Zero entries contribute zero.

    Raises:
        ValueError: on negative entries or a badly normalized table.
    """
    total = 0.0
    for key, v in joint.items():
        if v < 0:
            raise ValueError(f"negative probability {v!r} at {key}")
        total += float(v)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {total!r}, expected 1")
    px: dict = {}
    py: dict = {}
    for (x, y), v in joint.items():
        vf = float(v)
        px[x] = px.get(x, 0.0) + vf
        py[y] = py.get(y, 0.0) + vf
    info = 0.0
    for (x, y), v in joint.items():
        vf = float(v)
        if vf > 0.0:
            info += vf * math.log2(vf / (px[x] * py[y]))
    return info


def key_rate(joint: JointDistribution) -> RateReport:
    """Distillable-rate report from a sifted joint distribution."""
    i_ab = mutual_information(joint.pair_ab())
    i_ae = mutual_information(joint.pair_ae())
    i_be = mutual_information(joint.pair_be())
    return RateReport(i_ab=i_ab, i_ae=i_ae, i_be=i_be, r=i_ab - min(i_ae, i_be))


def _strategy_for(family: str, q, mix: EnsembleMix = EnsembleMix.SYMMETRIC):
    """The eavesdropper of an attack family at strength q; "none" is no eavesdropper."""
    if family == "none":
        return None
    if family == "standard":
        return InterceptResend(q=q, mix=mix)
    if family == "gentle":
        return GentleIntercept(q=q, mix=mix)
    raise ValueError(f"unknown attack family: {family!r} (expected standard or gentle)")


def _gentle_weights(q: float) -> tuple:
    # solves w . 1 = 1, w . q_i = q, w . s_i = s at q_i = (0, 3/5, 1), s_i = (1, 4/5, 0)
    s = math.sqrt(1.0 - q * q)
    t = q + s - 1.0
    return (2.0 - 2.0 * q - s, 2.5 * t, q - 1.5 * t)


# each family's curve: its nodes q_i and the weights w_i(q) of their tables
_CURVES = {
    "standard": ((Fraction(0), Fraction(1)), lambda q: (1 - q, q)),
    "gentle": ((Fraction(0), Fraction(3, 5), Fraction(1)), lambda q: _gentle_weights(float(q))),
}


def _joint_curve(protocol, family, mix, channel, ordered=False):
    """q -> sifted joint of the family's attack at strength q, from a few enumerations.

    The unnormalised sifted table is linear in (1, q) under intercept/resend
    and in (1, q, sqrt(1 - q^2)) under the gentle attack (see eavesdrop),
    so it is sum_i w_i(q) U(q_i) over the family's nodes q_i; exact for
    standard at an exact q. A node returns its enumeration, and negligible
    combined entries (float roundoff) are dropped. Interior tables list node
    keys in first-seen order, unless `ordered`: then the first interior q is
    enumerated and fixes the key order (and so the float sums) of later ones.
    """
    if family not in _CURVES:
        raise ValueError(f"unknown attack family: {family!r} (expected standard or gentle)")
    nodes, weights = _CURVES[family]
    at_nodes = [enumerate_joint(protocol, _strategy_for(family, q, mix), channel) for q in nodes]
    us = [{key: jd.p_sift * v for key, v in jd.table.items()} for jd in at_nodes]
    node_keys = list(dict.fromkeys(key for u_i in us for key in u_i))
    keys = None if ordered else node_keys

    def joint_at(q):
        nonlocal keys
        if q in nodes:
            return at_nodes[nodes.index(q)]
        if keys is None:
            joint = enumerate_joint(protocol, _strategy_for(family, q, mix), channel)
            keys = list(dict.fromkeys([*joint.table, *node_keys]))
            return joint
        ws = weights(q)
        u = {key: sum(w * u_i.get(key, 0) for w, u_i in zip(ws, us)) for key in keys}
        u = {key: v for key, v in u.items() if not _negligible(v)}
        p_sift = sum(u.values())
        return JointDistribution(p_sift=p_sift, table={key: v / p_sift for key, v in u.items()})

    return joint_at


def find_threshold(
    protocol: ProtocolKind,
    attack_family: str = "standard",
    mix: EnsembleMix = EnsembleMix.SYMMETRIC,
    channel: Channel = IDEAL,
) -> ThresholdResult:
    """Bisect for the attack strength where the key rate crosses zero.

    Stops when |R| < 1e-10 or the q-interval is narrower than 1e-9. R is read
    off `_joint_curve` (2 enumerations for standard, 3 for gentle), and one
    more enumeration at q_star gives qber_star, the QBER enumerate_joint
    reports there.

    Raises:
        NoThresholdError: if R does not change sign over q in [0, 1].
        ValueError: for an attack family other than standard or gentle.
    """
    joint_at = _joint_curve(protocol, attack_family, mix, channel)
    r_lo, r_hi = (key_rate(joint_at(q)).r for q in (0.0, 1.0))
    if not (r_lo > 0.0 > r_hi):
        raise NoThresholdError(
            f"key rate does not cross zero on [0, 1]: R(0)={r_lo!r}, R(1)={r_hi!r}"
        )
    lo, hi = 0.0, 1.0
    while hi - lo >= 1e-9:
        mid = (lo + hi) / 2
        r_mid = key_rate(joint_at(mid)).r
        if abs(r_mid) < 1e-10:
            break
        if r_mid > 0.0:
            lo = mid
        else:
            hi = mid
    joint = enumerate_joint(protocol, _strategy_for(attack_family, mid, mix), channel)
    return ThresholdResult(mid, float(joint.qber), len(_CURVES[attack_family][0]) + 1)


def estimate_q_from_sift(protocol: ProtocolKind, observed_sift, margin=0) -> QSiftEstimate:
    """Infer the intercept/resend fraction from an observed sifting rate.

    The sifting rate of the exclusion-sifted codes rises linearly with the
    interception fraction, so the inversion is linear: q = 12 s - 6 (trine),
    q = 9 s - 3 (tetrahedron). The estimate is clamped to [0, 1]; a rate
    outside the attainable band by more than `margin` marks the observation
    out-of-model and emits a warning rather than failing.
    """
    curves = analytic_curves(protocol)  # rejects basis protocols
    raw = curves.sift_to_q(observed_sift)
    lo, hi = curves.p_sift(0), curves.p_sift(1)
    in_model = (lo - margin) <= observed_sift <= (hi + margin)
    if not in_model:
        warnings.warn(
            f"observed sifting rate {float(observed_sift)!r} is outside "
            f"[{float(lo)!r}, {float(hi)!r}] by more than the stated margin; "
            "the interception model cannot produce it",
            stacklevel=2,
        )
    q = min(max(raw, 0), 1)
    return QSiftEstimate(q=q, q_raw=raw, in_model=in_model)


@dataclass(frozen=True)
class DepolarizingPoint:
    p: object
    p_sift: object
    qber: object


def depolarizing_curves(protocol: ProtocolKind, p_grid) -> list:
    """Sifting and error rates of an eavesdropper-free depolarizing channel.

    Exact when the grid values are rational (pass Fractions for exact rows).
    """
    rows = []
    for p in p_grid:
        jd = enumerate_joint(protocol, eve=None, channel=Channel(depolarizing=p))
        rows.append(DepolarizingPoint(p=p, p_sift=jd.p_sift, qber=jd.qber))
    return rows
