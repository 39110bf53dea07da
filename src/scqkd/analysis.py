"""Exact analysis: joint distributions, mutual information, key rates, thresholds.

The central object is the joint distribution p(a, b, e) of Alice's bit, Bob's
bit, and Eve's guess (0, 1, or None for abstention) conditioned on successful
sifting. A round is one model, built by `_stages`: Eve's outcome rows per
(ensemble side, signal) and Bob's outcome rows per (Eve's slot, signal). A
cell of the round is Bob's row extended by his outcome and the announcement,
and `_sifting`, cached per protocol, is the one table of what every cell sifts
to. `_walk` exhaustively enumerates every branch of a round over these rows
and projects its masses through `_sifting`; montecarlo samples the Born form
of the same rows and reads the same table by the same cell index. The walk
reads every row off the exact Bloch Gram matrix, the same way for every
attack family, so it runs in exact Fraction arithmetic whenever its inputs
are rational: q, the depolarizing strength and, for the gentle attack,
sqrt(1 - q^2). Only the sampler's Born rows take matrix products and square
roots in double precision. The unnormalised sifted table is linear in the
depolarizing strength p and, at a fixed p, in (1, q) or (1, q, sqrt(1 - q^2)),
so a few exact walks per (protocol, attack family, mix), cached by `_corners`,
give it at every (q, p). `enumerate_joint` evaluates those corners,
thresholds and sweeps call it at each strength, and `_walk` stays as the
reference the tests compare it with. The one-way
distillable rate is the classical bound

    R = I(A:B) - min(I(A:E), I(B:E))

with abstention kept as a third symbol in Eve's alphabet.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from numbers import Rational
from typing import NamedTuple

from .codes import bloch_gram
from .eavesdrop import (
    EveRecord,
    EnsembleMix,
    _SIDES,
    _attack,
    _side_gentle_povm,
    _side_weights,
    _strategy_for,
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
    bob_povm,
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
    # branch walks the solve triggered; 0 once its corners are cached (see find_threshold)
    n_enumerations: int = field(compare=False)


@dataclass(frozen=True)
class QSiftEstimate:
    """Attack fraction inferred from an observed sifting rate."""

    q: object
    q_raw: object
    in_model: bool


def _negligible(p) -> bool:
    """True for branch weights that cannot contribute at double precision.

    Exact zeros are dropped in both arithmetics; float weights additionally
    drop roundoff dust below 1e-15 so that impossible branches (orthogonal
    outcomes that compute as ~1e-17) do not grow spurious table entries.
    """
    if isinstance(p, float):
        return p < 1e-15
    return p == 0


# -- the round model -------------------------------------------------------------


class _Stages(NamedTuple):
    """Outcome rows of a round's two measurements; None marks a row the round never reaches.

    eve[side * n + j-1][m-1] is the probability that Eve, measuring with the
    side's ensemble (0 alice, 1 bob), sees outcome m on signal j. Bob's rows
    are indexed by Eve's slot and the signal: bob[slot * n + j-1][k-1] is the
    probability of Bob's outcome k on signal j, after the channel, where slot
    0 is a round Eve left alone and slot 1 + side * n + m-1 one in which she
    saw outcome m on a side. At full measurement strength a slot forwards
    Eve's state m whatever j was, so its n rows are one shared list. A cell
    of the round is Bob's row extended by his outcome and the announcement
    index ai: (row * n + k-1) * n_opts + ai, the index of `_sifting` and of
    the sampler's cell_bits. Slot 0 is None where Eve measures every signal
    (gentle, or intercept/resend at q = 1); Eve's rows and slots are None on
    a side the mix never picks, and everywhere when she measures no signal.
    """

    eve: list
    bob: list


def _sqrt(x):
    """sqrt(x): a Fraction when x is the square of a rational, else a float."""
    if isinstance(x, Rational):
        a, b = math.isqrt(x.numerator), math.isqrt(x.denominator)
        if a * a == x.numerator and b * b == x.denominator:
            return Fraction(a, b)
    return math.sqrt(x)


def _stages(protocol: ProtocolKind, eve, channel: Channel, born: bool) -> _Stages:
    """Eve's and Bob's outcome rows of one configuration, for the branches a round reaches.

    The configuration is read through eavesdrop._attack: Eve measures a share
    `touched` of the signals with measurement strength q (intercept/resend is
    (q, 1), the gentle attack (1, q)). One loop over (signal j, side, Eve's
    outcome m) builds both forms; born chooses only each row's arithmetic.
    With born=True a row is a matrix Born product with the strength-q POVM,
    the numbers the sampler draws from. With born=False it is read off the
    exact Bloch Gram matrix. Eve's outcome m has Bloch vector u (Alice's a_m,
    or -a_m on Bob's side under exclusion sifting) and probability
    (1 + q g)/n, where g = u . a_j. She forwards the Bloch vector
    b = ((q + g - s g) u + s a_j) / (1 + q g), with s = sqrt(1 - q^2): a_j at
    q = 0, and u wherever s = 0, so a full-strength slot's row is shared
    across signals. Bob's entry k is (1 + (1 - p) v_k . b)/n for his
    measurement direction v_k. So the gram rows are Fractions when q, p and
    s are rational (as at every corner node), and floats otherwise.
    """
    _, touched, strength = _attack(eve)
    n = protocol.n_signals
    p = channel.depolarizing
    gram = bloch_gram(protocol.code_kind)
    s = _sqrt(1 - strength * strength)
    sides = [si for si, w in enumerate(_side_weights(eve.mix)) if w] if touched else []
    # under exclusion sifting Bob measures the dual, antipodal to Alice's states
    dual = -1 if protocol.excludes_outcomes else 1
    uniform, contrast = Fraction(1, n), (1 - p) * dual * Fraction(1, n)
    eve_rows, bob_rows = [None] * (2 * n), [None] * ((2 * n + 1) * n)

    def born_row(rho):
        rho = depolarize(rho, p)
        return [born_probability(rho, e) for e in bob_povm(protocol).elements]

    def gram_row(c_m, m, c_j, j):  # Bob's row for the forwarded Bloch vector c_m a_m + c_j a_j
        c_m, c_j = contrast * c_m, contrast * c_j
        return [uniform + c_m * x + c_j * y for x, y in zip(gram[m - 1], gram[j - 1])]

    for j in range(1, n + 1):
        rho = alice_code(protocol).state(j) if born else None
        if touched != 1:
            bob_rows[j - 1] = born_row(rho) if born else gram_row(0, j, 1, j)
        for si in sides:
            side, sign = _SIDES[si], dual if si else 1  # u = sign * a_m; Bob's states are dual * a_m
            if born:
                povm = _side_gentle_povm(protocol, side, float(strength))
                eve_row = [born_probability(rho, e) for e in povm.elements]
            else:
                eve_row = [eve_outcome_probability(protocol, eve, side, m, j) for m in range(1, n + 1)]
            eve_rows[si * n + j - 1] = eve_row
            for m in range(1, n + 1):
                at = (1 + si * n + m - 1) * n + j - 1
                if s == 0 and j > 1:  # at full strength she forwards her state m whatever j was
                    bob_rows[at] = bob_rows[at - j + 1]
                elif born:
                    # below the cut the update is numerically undefined (full-strength
                    # orthogonal outcomes compute as ~1e-17); use its p -> 0 limit, the
                    # measured state. Enumeration skips the branch, and the sampler
                    # reaches it with probability < 1e-15
                    if s == 0 or _negligible(eve_row[m - 1]):
                        fwd = measuring_code(protocol, side).state(m)
                    else:
                        fwd = sqrt_post_measurement_state(rho, povm.elements[m - 1])
                    bob_rows[at] = born_row(fwd)
                else:
                    g = sign * gram[m - 1][j - 1]
                    d = 1 + strength * g
                    c_u, c_j = (1, 0) if s == 0 else ((strength + g - s * g) / d, s / d)
                    bob_rows[at] = gram_row(sign * c_u, m, c_j, j)
    return _Stages(eve_rows, bob_rows)


def _branches(protocol: ProtocolKind, eve, stages: _Stages, j: int):
    """Yield (weight, Eve's slot) for every way signal j reaches Bob (slots: see _Stages).

    Slot 0, the round Eve leaves alone, has weight 1 - touched, and her
    outcome m on a side has weight touched * w_side * p_m, with touched the
    share of signals she measures (eavesdrop._attack) and w_side the mix's
    weight of the side. The stages say which slots a round reaches: a slot
    whose rows are None (and Eve's outcomes on a side whose row is None) is
    never taken.
    """
    n = protocol.n_signals
    touched = _attack(eve)[1]
    if stages.bob[j - 1] is not None:
        yield 1 - touched, 0
    for si, ws in enumerate(() if eve is None else _side_weights(eve.mix)):
        for m, p_m in enumerate(stages.eve[si * n + j - 1] or (), 1):
            if not _negligible(p_m):
                yield touched * ws * p_m, 1 + si * n + m - 1


@lru_cache(maxsize=len(ProtocolKind))
def _sifting(protocol: ProtocolKind) -> tuple:
    """The sifting table of a protocol: one entry per cell of a round (see _Stages).

    The entry of cell ((slot * n + j-1) * n + k-1) * n_opts + ai is the key
    (alice bit, bob bit, Eve's guess) of the round in which Eve's slot, signal
    j, Bob's outcome k and his announcement ai are accepted, or None if Alice
    rejects it. Eve's guess is None where she abstains or left the round alone.
    """
    n = protocol.n_signals
    records = [None] + [EveRecord(True, side, m) for side in _SIDES for m in range(1, n + 1)]
    # (k, announcement) in cell order; bits depend on (j, k, ai), guesses on (slot, k, ai)
    outcomes = [(k, ann) for k in range(1, n + 1) for ann in announcement_options(protocol, k)]
    bits = [
        [derive_bits(protocol, j, k, ann) if sift_accept(protocol, j, ann) else None for k, ann in outcomes]
        for j in range(1, n + 1)
    ]
    guesses = [[eve_guess(rec, protocol, ann, True) for _, ann in outcomes] for rec in records]
    return tuple(
        None if ab is None else (*ab, g) for slot in guesses for row in bits for ab, g in zip(row, slot)
    )


def _walk(protocol: ProtocolKind, eve, channel: Channel) -> dict:
    """Walk every branch of one round: the unnormalised sifted table {(a, b, e): mass}.

    Every branch (signal, interception outcome, Bob outcome, announcement) is
    taken with its probability; nothing is sampled. Each (signal, slot) branch
    reads Bob's gram row slot * n + j-1 of `_stages` and projects its masses
    through that row's slice of `_sifting` (the layout is in _Stages). The
    arithmetic is the rows', the same for every family: exact rationals
    whenever q, p and, for the gentle attack, sqrt(1 - q^2) are rational,
    floats otherwise. Keys are in the order the walk first sees them. Only
    `_corners` walks; the tests compare enumerate_joint against this
    reference, as they compare the sampler against run_round.
    """
    n = protocol.n_signals
    n_opts = len(announcement_options(protocol, 1))
    w_j, w_a = Fraction(1, n), Fraction(1, n_opts)
    stages = _stages(protocol, eve, channel, born=False)
    sifting = _sifting(protocol)
    table: dict = {}
    total_mass = 0
    for j in range(1, n + 1):
        for w_e, slot in _branches(protocol, eve, stages, j):
            row = slot * n + j - 1
            base = w_j * w_e
            for k, pk in enumerate(stages.bob[row]):
                if _negligible(pk):
                    continue
                mass = base * pk
                total_mass += mass
                w = mass * w_a
                cell = (row * n + k) * n_opts
                for key in sifting[cell:cell + n_opts]:
                    if key is not None:
                        table[key] = table.get(key, 0) + w
    if abs(float(total_mass) - 1.0) > 1e-9:
        raise AssertionError(f"branch probabilities sum to {float(total_mass)!r}")
    return table


# each attack family's nodes q_i: its tables at any q are a mix of those at the nodes
_NODES = {"none": (0,), "standard": (0, 1), "gentle": (0, Fraction(3, 5), 1)}


@lru_cache(maxsize=len(ProtocolKind) * (1 + 2 * len(EnsembleMix)))
def _corners(protocol: ProtocolKind, family: str, mix) -> tuple:
    """(keys, scale, tables): the walks at the family's nodes q_i and p = 0, 1.

    scale * tables[2i + p] lists the unnormalised sifted masses at node q_i
    and depolarizing strength p in the order of keys, the order in which the
    walks first see them (nodes in increasing q, p = 0 before p = 1). Every
    node walk is exact, the gentle ones too (sqrt(1 - q_i^2) is rational at
    each node), so scale is 1 over the common denominator of the masses,
    the tables hold integers, and exact sums of them stay integer. "none"
    takes mix None, so the cache holds at most 4 x (1 + 3 + 3) entries.
    """
    strategies = [_strategy_for(family, q, mix) for q in _NODES[family]]
    walks = [_walk(protocol, eve, Channel(depolarizing=p)) for eve in strategies for p in (0, 1)]
    keys = tuple(dict.fromkeys(key for u in walks for key in u))
    tables = [[u.get(key, 0) for key in keys] for u in walks]
    d = math.lcm(*(v.denominator for t in tables for v in t))
    return keys, Fraction(1, d), tuple(tuple(int(v * d) for v in t) for t in tables)


def enumerate_joint(protocol: ProtocolKind, eve=None, channel: Channel = IDEAL) -> JointDistribution:
    """The sifted joint distribution of one round, exact for rational inputs.

    The unnormalised sifted table is linear in the depolarizing strength p
    and, at a fixed p, in (1, q) under intercept/resend and in
    (1, q, sqrt(1 - q^2)) under the gentle attack (see eavesdrop). So it is
    sum_i w_i(q) ((1 - p) U(q_i, 0) + p U(q_i, 1)) over the cached corner
    tables U of the attack family (`_corners`): the first call for a
    (protocol, family, mix) walks its corners, and later calls at any
    strength and channel walk nothing. Exact (rational) q and p give the
    Fractions `_walk` gives, for no eavesdropper and intercept/resend, from
    integer sums; any float input, or the gentle attack (whose weights take
    sqrt(1 - q^2)), is evaluated in floats at float(q) and float(p) from the
    same integer tables and gives floats. Entries that combine to
    a negligible value (exact zeros, float roundoff) are dropped, and table
    keys are in corner order: the order in which the corner walks first see
    them.

    Args:
        protocol: protocol to analyze.
        eve: None, InterceptResend, or GentleIntercept.
        channel: transmission channel applied after interception.

    Returns:
        JointDistribution with p_sift and the conditional p(a, b, e) table.
    """
    family, touched, strength = _attack(eve)
    q = strength if family == "gentle" else touched
    keys, scale, tables = _corners(protocol, family, None if eve is None else eve.mix)
    p = channel.depolarizing
    exact = family != "gentle" and isinstance(q, Rational) and isinstance(p, Rational)
    q, p, scale = (q, p, scale) if exact else (float(q), float(p), float(scale))
    # the weight of table 2i + p: node q_i's w_i(q), times 1 - p or p, times the scale
    w_q = (1,) if family == "none" else (1 - q, q) if family == "standard" else _gentle_weights(q)
    ws = [w * w_p * scale for w in w_q for w_p in (1 - p, p)]
    # exact inputs take integer weights, and u then holds den times the masses
    den = math.lcm(*(w.denominator for w in ws)) if exact else 1
    terms = [(int(w * den) if exact else w, t) for w, t in zip(ws, tables) if w]
    u = {key: sum(w * t[i] for w, t in terms) for i, key in enumerate(keys)}
    u = {key: v for key, v in u.items() if not _negligible(v)}
    total = Fraction(sum(u.values())) if exact else sum(u.values())
    return JointDistribution(p_sift=total / den, table={key: v / total for key, v in u.items()})


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


def _gentle_weights(q: float) -> tuple:
    # solves w . 1 = 1, w . q_i = q, w . s_i = s at q_i = (0, 3/5, 1), s_i = (1, 4/5, 0)
    s = math.sqrt(1.0 - q * q)
    t = q + s - 1.0
    return (2.0 - 2.0 * q - s, 2.5 * t, q - 1.5 * t)


def find_threshold(
    protocol: ProtocolKind,
    attack_family: str = "standard",
    mix: EnsembleMix = EnsembleMix.SYMMETRIC,
    channel: Channel = IDEAL,
) -> ThresholdResult:
    """Bisect for the attack strength where the key rate crosses zero.

    Stops when |R| < 1e-10 or the q-interval is narrower than 1e-9. Every
    step is an enumerate_joint call, so qber_star is the QBER enumerate_joint
    reports at q_star. n_enumerations counts the branch walks the solve
    triggered: the corners of a (protocol, family, mix) not yet cached (4 for
    standard, 6 for gentle), else 0. It is read off the process-wide corner
    cache, so it depends on what ran before (and on other threads filling the
    cache meanwhile) and is left out of ThresholdResult equality.

    Raises:
        NoThresholdError: if R does not change sign over q in [0, 1].
        ValueError: for an attack family other than standard or gentle.
    """
    if attack_family not in ("standard", "gentle"):
        raise ValueError(f"unknown attack family: {attack_family!r} (expected standard or gentle)")
    misses = _corners.cache_info().misses

    def joint_at(q):
        return enumerate_joint(protocol, _strategy_for(attack_family, q, mix), channel)

    r_lo, r_hi = (key_rate(joint_at(q)).r for q in (0.0, 1.0))
    if not (r_lo > 0.0 > r_hi):
        raise NoThresholdError(
            f"key rate does not cross zero on [0, 1]: R(0)={r_lo!r}, R(1)={r_hi!r}"
        )
    lo, hi = 0.0, 1.0
    while hi - lo >= 1e-9:
        mid = (lo + hi) / 2
        joint = joint_at(mid)
        r_mid = key_rate(joint).r
        if abs(r_mid) < 1e-10:
            break
        if r_mid > 0.0:
            lo = mid
        else:
            hi = mid
    walks = (_corners.cache_info().misses - misses) * 2 * len(_NODES[attack_family])
    return ThresholdResult(mid, float(joint.qber), walks)


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
