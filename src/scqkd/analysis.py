"""Exact analysis: joint distributions, key rates, thresholds.

The central object is the joint distribution p(a, b, e) of Alice's bit, Bob's
bit, and Eve's guess (0, 1, or None for abstention) conditioned on successful
sifting. A round is one model, built by `_stages`: Eve's outcome rows per
(ensemble side, signal) and Bob's outcome rows per (Eve's slot, signal),
which depend only on the protocol, Eve's measurement strength and the
depolarizing strength. A cell of the round is Bob's row extended by his
outcome and the announcement, and `_sifting`, cached per protocol, is the
one table of what every cell sifts to. `_walk` exhaustively enumerates
every branch of a round over these rows at an exact strength, in
Fractions and with no eavesdropper in it, and
projects its masses through `_sifting` in three parts: the round Eve
leaves alone and her measuring with either side's ensemble. The share of
signals she touches and the mix only weight those parts: every attack is
(1 - t) U_0 + t (w_alice U_alice + w_bob U_bob), and no eavesdropper is
intercept/resend on a share t = 0, so it has no corners of its own and
reads the symmetric intercept/resend ones. montecarlo samples the same
rows, built in floats, and reads the same table by the same cell index.
Every row is read off the exact Bloch Gram matrix, the same way for every
attack family, so the rows are exact Fractions whenever the inputs are
rational: q, the depolarizing strength and, for the gentle attack,
sqrt(1 - q^2). Nothing here takes a matrix product; only the scalar
protocol.run_round, the independent reference, does. The unnormalised
sifted table is linear in the depolarizing strength p and, at a fixed p, in
(1, q) or (1, q, sqrt(1 - q^2)), so the tables at a few nodes per
(protocol, attack family, mix), weighted by `_corners` from 3 cached walks
per protocol (one per node strength, each giving p = 0 and p = 1 in one
pass), give it at every (q, p). `_evaluate` is that evaluation, the only
one: at one p and a grid of q (integer numerators over one denominator, or
floats), one row (layout, values, total, den) per q: the kept corner keys
in corner order (the row's layout), their masses, the masses' total and,
for exact inputs, the denominator. A single q is a one-row grid. One
cached `_corners` entry per (protocol, family, mix) holds what both kinds
of row read: the integer tables and, for float rows, the same tables as
one column per key for each zero pattern of the channel weights, so a
row of either kind is one cache lookup. `enumerate_joint` divides its row
into a JointDistribution. `find_threshold` reads R at each probe of
Chandrupatla's bracketed step (secant first, then inverse quadratic
interpolation or bisection) straight off the probe's row (`_r_at`), the
rate kernel over the masses divided by their total, and enumerates one
joint, at the probe it returns, for its QBER; the tests keep the weighted
walk of one eavesdropper as the reference they compare the corners with. Exact
inputs give integer masses over one integer total, and the joint keeps only
their Fractions. The CLI's rate records skip the joint: `_rates` reads the
same floats straight off a row, as one flat tuple (p_sift, qber,
p_noguess, i_ab, i_ae, i_be, r), and a sweep, q = i / (steps - 1), is one
grid. `key_rate` and `_rates` share one rate kernel, `_rate_kernel`, which
gives (i_ab, i_ae, i_be, r): a layout has a plan, built once per layout
and cached, of the (a, b), (a, e) and (b, e) cells and marginals as
indices, so a row sums, divides and takes logs in the order of the
dict-based reference the tests keep, with no dict built; a pair whose x or
y takes one value has no cells, so its information is exactly 0.0, as
Eve's is where she touches nothing. Only `key_rate`
wraps the four floats in a RateReport. `_grid_rates` reads a whole grid:
the rows of one layout go through the same steps together, each step one
map over the rows (`_column_kernel`), so each row's floats are its own
`_rates`, a layout of one row included.
`estimate_q_from_sift` inverts the sifting rate along the line the same
corners give (`_sift_line`). `AnalyticCurves` keeps the closed-form
intercept/resend curves of the trine and tetrahedron (it rejects the basis
protocols) as the reference that the tests and the bench check those
answers against; nothing else in the package reads it.
The one-way distillable rate is the classical bound

    R = I(A:B) - min(I(A:E), I(B:E))

with abstention kept as a third symbol in Eve's alphabet.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Rational, Real
from typing import NamedTuple

from .codes import bloch_gram
from .eavesdrop import EnsembleMix, InterceptResend, _SIDES, _SIDE_WEIGHTS, _attack, _check_mix, _strategy_for
from .protocol import (Channel, IDEAL, ProtocolKind, _check_config, _check_instance, _check_unit, _party_bit,
                       announcement_options, derive_bits, sift_accept)


class NoThresholdError(RuntimeError):
    """Raised when the key rate does not change sign on q in [0, 1]."""


# the keys a table may have: (alice_bit, bob_bit, eve_guess)
_KEYS = frozenset((a, b, e) for a in (0, 1) for b in (0, 1) for e in (0, 1, None))


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """p(a, b, e) conditioned on sifting success, plus the sifting probability.

    Table keys are (alice_bit, bob_bit, eve_guess) with eve_guess in
    {0, 1, None}; None marks abstention (including rounds Eve never touched).
    Values are Fractions when produced by the exact path, floats otherwise.

    It carries what the entry points read: p_sift, the table, mass, qber
    and Eve's abstain and agree rates. A complement such as 1 - p_sift, or
    any other event's mass, is one mass(predicate) call.
    """

    p_sift: object
    table: dict

    def __post_init__(self):
        _check_unit(self.p_sift, "p_sift")
        if not self.p_sift:
            raise ValueError(f"p_sift must lie in (0, 1], got {self.p_sift!r}")
        _check_instance("table", self.table, dict)
        if not self.table.keys() <= _KEYS:
            raise ValueError(f"table keys must be (a, b, e) with a, b in {{0, 1}} and e in {{0, 1, None}}, "
                             f"got {[key for key in self.table if key not in _KEYS]}")
        _check_probabilities(self.table, "conditional table")

    def mass(self, predicate):
        """Total conditional probability of entries whose (a, b, e) satisfies predicate."""
        return sum(v for k, v in self.table.items() if predicate(*k))

    @property
    def qber(self):
        """Conditional probability that the sifted bits disagree."""
        return self.mass(lambda a, b, e: a != b)

    @property
    def p_eve_abstain(self):
        return self.mass(lambda a, b, e: e is None)

    @property
    def p_eve_agree_alice(self):
        return self.mass(lambda a, b, e: e is not None and e == a)

    @property
    def p_eve_agree_bob(self):
        return self.mass(lambda a, b, e: e is not None and e == b)


@dataclass(frozen=True)
class RateReport:
    """Mutual informations (bits) and the distillable rate R = i_ab - min(i_ae, i_be)."""

    i_ab: float
    i_ae: float
    i_be: float
    r: float


@dataclass(frozen=True)
class ThresholdResult:
    """The attack strength q_star where the key rate crosses zero, and the QBER there."""

    q_star: float
    qber_star: float


@dataclass(frozen=True)
class QSiftEstimate:
    """Attack fraction inferred from an observed sifting rate."""

    q: object
    q_raw: object
    in_model: bool


# -- the round model -------------------------------------------------------------


class _Stages(NamedTuple):
    """Outcome rows of a round's two measurements, every slot and both sides.

    eve[side * n + j-1][m-1] is the probability that Eve, measuring with the
    side's ensemble (0 alice, 1 bob), sees outcome m on signal j. Bob's rows
    are indexed by Eve's slot and the signal: bob[slot * n + j-1][k-1] is the
    probability of Bob's outcome k on signal j, after the channel, where slot
    0 is a round Eve left alone and slot 1 + side * n + m-1 one in which she
    saw outcome m on a side. At full measurement strength a slot forwards
    Eve's state m whatever j was, so its n rows are one shared list; below
    it, a slot whose state is +-a_j forwards a_j and shares signal j's
    undisturbed row (slot 0's). A cell of the round is Bob's row extended by
    his outcome and the announcement index ai: (row * n + k-1) * n_opts + ai,
    the index of `_sifting` and of the sampler's cell_bits.
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


def _stages(protocol: ProtocolKind, strength, p) -> _Stages:
    """Every row of a round, both sides and every slot, at Eve's strength q and depolarizing p.

    The share of signals Eve touches and the mix only weight the parts of
    the walk (`_corners`), so the rows depend on the strength alone:
    intercept/resend at any share, no eavesdropper (its share 0) included,
    measures at strength 1 (eavesdrop._attack) and reads one set of rows,
    and a gentle strength's rows serve every mix. One loop over (signal j,
    side, Eve's outcome m) reads every row off the exact Bloch Gram matrix.
    Eve's outcome m has Bloch vector u (Alice's a_m, or -a_m on Bob's side
    under exclusion sifting) and probability (1 + q g)/n, where g = u . a_j.
    She forwards the Bloch vector b = ((q + g - s g) u + s a_j) / (1 + q g), with
    s = sqrt(1 - q^2): a_j at q = 0, and u wherever s = 0, so a full-strength
    slot's row is shared across signals. Where s > 0 and g = +-1, u = +-a_j
    and b is a_j itself, so the slot shares signal j's undisturbed row: near
    full strength the two coefficients grow like s / (1 - q) and cancel,
    which would cost a float row its last digits (an entry below 0, a sum off
    1 by up to 1e-9). Bob's entry k is
    (1 + (1 - p) v_k . b)/n for his measurement direction v_k. So the rows
    are Fractions when q, p and s are rational (as at every corner node), and
    floats otherwise. Two callers reach it: `_walk`, at the exact node
    strengths and p = 0, and `_tables`, with Python floats at any strength.
    When strength and p are both Python floats, as in the sampler's call,
    the Gram values and 1/n are read as floats too, the operands Fraction's
    float fallback converts them to, so the rows are the same bits with no
    Fraction arithmetic. Any other real (a Fraction, a numpy scalar, a float
    subclass) takes the Fraction path; a float subclass gives the gate's
    bits there, which test_the_gate_gives_the_fraction_paths_bits pins.
    """
    n = protocol.n_signals
    gram, uniform = bloch_gram(protocol), Fraction(1, n)
    if type(strength) is float and type(p) is float:  # the sampler's call: the floats Fraction's fallback would take
        gram, uniform = [[float(x) for x in row] for row in gram], 1 / n
    s = _sqrt(1 - strength * strength)
    # under exclusion sifting Bob measures the dual, antipodal to Alice's states
    dual = -1 if protocol.excludes_outcomes else 1
    contrast = (1 - p) * dual * uniform
    eve_rows, bob_rows = [None] * (2 * n), [None] * ((2 * n + 1) * n)

    def gram_row(c_m, m, c_j, j):  # Bob's row for the forwarded Bloch vector c_m a_m + c_j a_j
        c_m, c_j = contrast * c_m, contrast * c_j
        return [uniform + c_m * x + c_j * y for x, y in zip(gram[m - 1], gram[j - 1])]

    for j in range(1, n + 1):
        direct = bob_rows[j - 1] = gram_row(0, j, 1, j)  # Bob's row for a_j itself
        for si in (0, 1):
            sign = dual if si else 1  # u = sign * a_m; Bob's states are dual * a_m
            eve_row = eve_rows[si * n + j - 1] = []
            for m in range(1, n + 1):
                g = sign * gram[m - 1][j - 1]
                d = 1 + strength * g  # > 0 wherever s != 0
                eve_row.append(d * uniform)
                at = (1 + si * n + m - 1) * n + j - 1
                if s == 0 and j > 1:  # at full strength she forwards her state m whatever j was
                    bob_rows[at] = bob_rows[at - j + 1]
                elif s != 0 and g * g == 1:  # u = ±a_j, and she forwards a_j itself
                    bob_rows[at] = direct
                else:
                    c_u, c_j = (1, 0) if s == 0 else ((strength + g - s * g) / d, s / d)
                    bob_rows[at] = gram_row(sign * c_u, m, c_j, j)
    return _Stages(eve_rows, bob_rows)


@lru_cache(maxsize=len(ProtocolKind))
def _sifting(protocol: ProtocolKind) -> tuple:
    """The sifting table of a protocol: one entry per cell of a round (see _Stages).

    The entry of cell ((slot * n + j-1) * n + k-1) * n_opts + ai is the key
    (alice bit, bob bit, Eve's guess) of the round in which Eve's slot, signal
    j, Bob's outcome k and his announcement ai are accepted, or None if Alice
    rejects it. Eve's guess is None where she abstains or left the round alone.
    """
    n = protocol.n_signals
    # (k, announcement) in cell order; bits depend on (j, k, ai), guesses on (slot, k, ai)
    outcomes = [(k, ann) for k in range(1, n + 1) for ann in announcement_options(protocol, k)]
    bits = [
        [derive_bits(protocol, j, k, ann) if sift_accept(protocol, j, ann) else None for k, ann in outcomes]
        for j in range(1, n + 1)
    ]
    guesses = [[None] * len(outcomes)] + [
        [_party_bit(protocol, side, m, ann) for _, ann in outcomes] for side in _SIDES for m in range(1, n + 1)
    ]
    return tuple(
        None if ab is None else (*ab, g) for slot in guesses for row in bits for ab, g in zip(row, slot)
    )


@lru_cache(maxsize=len(ProtocolKind) * 3)
def _walk(protocol: ProtocolKind, strength) -> tuple:
    """Walk every branch of one round, part by part, at p = 0 and p = 1 in one pass.

    Returns the two tables {(part, (a, b, e)): unnormalised sifted mass},
    at depolarizing strength 0 and at 1; every table in between is their
    mix (1 - p, p). Part 0 is the round Eve leaves alone, and part 1 + side
    (0 alice, 1 bob) every outcome of her measuring with that side's
    ensemble at `strength`; each part's branches carry mass 1 in all. The
    share of signals she touches and the mix only weight the parts
    (`_corners`), so no eavesdropper, mix or channel is read here. Every
    branch (signal j, slot, Bob outcome k, announcement) is taken with its
    probability, in that order, slot 0 before Alice's outcomes before
    Bob's; nothing is sampled. Each (signal, slot) branch reads Bob's gram
    row slot * n + j-1 of `_stages` at p = 0 and projects its masses through
    that row's slice of `_sifting` (the layout is in _Stages). At p = 1
    Bob's outcome is uniform whatever reached him, so that table takes every
    branch Eve's outcome allows with Bob's 1/n. The strength is exact and
    sqrt(1 - strength^2) rational, as at every node `_corners` reads, so the
    rows and masses are Fractions: a branch of no weight is an exact zero,
    and each part's masses sum to exactly 1. Each table's keys are in the
    order its own branches first see them. The cache holds what `_corners`
    reads: 4 protocols x strengths {0, 3/5, 1}.
    """
    n = protocol.n_signals
    n_opts = len(announcement_options(protocol, 1))
    w_j, w_a = Fraction(1, n), Fraction(1, n_opts)
    stages, sifting = _stages(protocol, strength, 0), _sifting(protocol)
    quiet, noisy, totals = {}, {}, [0, 0, 0]
    for j in range(1, n + 1):
        # slot 0 (part 0) with weight 1, then Eve's outcomes m on Alice's side (slots 1..n, part 1)
        # and on Bob's (slots n+1..2n, part 2) with weight p_m
        for slot, p_m in enumerate([1, *stages.eve[j - 1], *stages.eve[n + j - 1]]):
            if not p_m:
                continue
            part, row, base = (slot + n - 1) // n, slot * n + j - 1, w_j * p_m
            w_noisy = base * w_j * w_a  # at p = 1 Bob sees each of his n outcomes with probability 1/n
            for k, pk in enumerate(stages.bob[row]):
                mass = base * pk  # at p = 0 a branch of mass 0 is not taken
                totals[part] += mass
                w, cell = mass * w_a, (row * n + k) * n_opts
                for key in sifting[cell:cell + n_opts]:
                    if key is not None:
                        noisy[part, key] = noisy.get((part, key), 0) + w_noisy
                        if mass:
                            quiet[part, key] = quiet.get((part, key), 0) + w
    if totals != [1, 1, 1]:
        raise AssertionError(f"branch probabilities of the parts sum to {[float(t) for t in totals]!r}")
    return quiet, noisy


# each attack family's nodes (touched, strength) in increasing q: its tables at any q mix those at the nodes
_NODES = {"standard": ((0, 1), (1, 1)), "gentle": ((1, 0), (1, Fraction(3, 5)), (1, 1))}


@lru_cache(maxsize=len(ProtocolKind) * 2 * len(EnsembleMix))
def _corners(protocol: ProtocolKind, family: str, mix) -> tuple:
    """(keys, scale, tables, float_scale, columns): the family's tables at its nodes and p = 0, 1.

    A node (touched, strength) weights the parts of the cached `_walk`
    tables at its strength by (1 - touched, touched * w_alice,
    touched * w_bob), w_side being the mix's weight of the side, and skips a
    part of weight zero. scale * tables[2i + p] lists the unnormalised
    sifted masses at node i and depolarizing strength p in the order of
    keys, the order in which the weighted tables first see them (nodes in
    increasing q, p = 0 before p = 1): a table's entries are read in its
    order, so that is the order of a walk that took only the branches of
    nonzero weight. Every node walk is exact, the gentle ones too
    (sqrt(1 - q^2) is rational at each node), so scale is 1 over the common
    denominator of the masses, the tables hold integers, and exact sums of
    them stay integer. What `_evaluate`'s float rows read is in the same
    entry: float_scale is float(scale), and columns[kept], for each zero
    pattern kept of the channel weights (1 - p, p) (never both zero), lists
    one column per key: its integers in the tables of nonzero channel
    weight, node by node. No eavesdropper is the standard family at q = 0,
    so the cache holds at most 4 x (3 + 3) entries, built from 3 walks per
    protocol.
    """
    w_alice, w_bob = _SIDE_WEIGHTS[mix]

    def weighted(touched, parts):  # a node's table: the walk's parts by their weights
        weights, u = (1 - touched, touched * w_alice, touched * w_bob), {}
        for (part, key), mass in parts.items():
            if weights[part]:
                u[key] = u.get(key, 0) + weights[part] * mass
        return u

    walks = [weighted(touched, parts) for touched, strength in _NODES[family] for parts in _walk(protocol, strength)]
    keys = tuple(dict.fromkeys(key for u in walks for key in u))
    d = math.lcm(*(v.denominator for u in walks for v in u.values()))
    tables = tuple(tuple(int(u.get(key, 0) * d) for key in keys) for u in walks)
    columns = {kept: tuple(zip(*itertools.compress(tables, itertools.cycle(kept))))
               for kept in ((True, True), (True, False), (False, True))}
    return keys, Fraction(1, d), tables, 1 / d, columns


def enumerate_joint(protocol: ProtocolKind, eve=None, channel: Channel = IDEAL) -> JointDistribution:
    """The sifted joint distribution of one round, exact for rational inputs.

    The unnormalised sifted table is linear in the depolarizing strength p
    and, at a fixed p, in (1, q) under intercept/resend and in
    (1, q, sqrt(1 - q^2)) under the gentle attack (see eavesdrop). So it is
    sum_i w_i(q) ((1 - p) U(q_i, 0) + p U(q_i, 1)) over the cached corner
    tables U of the attack family (`_corners`): the first call for a
    (protocol, family, mix) weights the parts of its walks, walking only the
    node strengths not yet cached, and later calls at any strength and
    channel walk nothing. No eavesdropper is intercept/resend at q = 0 with
    the symmetric mix (eavesdrop._attack), read off the same corners, so
    the two give the same joint to the last bit. Exact (rational) q and p
    give the Fractions a full walk of the round gives, for intercept/resend,
    from integer sums; any float input, or the gentle attack (whose weights
    take sqrt(1 - q^2)), is evaluated in floats at float(q) and float(p)
    from the same integer tables and gives floats. Entries that
    combine to a negligible value (exact zeros, float roundoff) are
    dropped, and table keys are in corner order: the order in which the
    weighted corner walks first see them.

    Args:
        protocol: protocol to analyze.
        eve: None, InterceptResend, or GentleIntercept.
        channel: transmission channel applied after interception.

    Returns:
        JointDistribution with p_sift and the conditional p(a, b, e) table.

    Raises:
        ValueError: for a protocol that is not a ProtocolKind, a channel that
            is not a Channel, or an unknown eavesdropping strategy.
    """
    _check_config(protocol, channel)
    [(layout, values, total, den)] = _evaluate(protocol, *_family_mix_grid(eve), channel.depolarizing)
    if den is None:
        return JointDistribution(p_sift=total, table={key: v / total for key, v in zip(layout, values)})
    table = {key: Fraction(v, total) for key, v in zip(layout, values)}
    return JointDistribution(p_sift=Fraction(total, den), table=table)


def _family_mix_grid(eve) -> tuple:
    """(family, mix, xs, d): what `_evaluate` reads of an eavesdropper, its strength q as a one-row grid.

    q is the family's strength (see _attack): a rational q is the grid of its
    numerator over its denominator (Python ints, for numpy integers too), and
    any other q the float grid (q,), d None. No eavesdropper is
    InterceptResend(0): the standard family at q = 0 with the symmetric mix.
    """
    family, touched, strength = _attack(eve)
    q = strength if family == "gentle" else touched
    xs, d = ((int(q.numerator),), int(q.denominator)) if isinstance(q, Rational) else ((q,), None)
    return family, EnsembleMix.SYMMETRIC if eve is None else eve.mix, xs, d


def _evaluate(protocol: ProtocolKind, family: str, mix, xs, d, p) -> list:
    """[(layout, values, total, den)]: the kept unnormalised sifted masses at p and each q = x / d, off the corners.

    The grid is integer numerators xs over one denominator d, or a float
    grid (d None) of the strengths themselves. A row's layout is the tuple
    of its kept corner keys in corner order, values their masses in the
    same order and total the masses' sum. An integer grid and a
    rational p, outside the gentle family, give integer masses over one
    den = d pd / scale: the channel is folded into each node's integer
    vector once, V_k = (pd - pn) T[2k] + pn T[2k + 1], and row x's masses
    are (d - x) V_0 + x V_1. So p_sift is
    total / den and the conditional table mass / total, the Fractions of
    the round's walk. Otherwise every row is evaluated in floats, at
    float(q) and float(p), from the corner columns of the same `_corners`
    entry for the zero pattern of (1 - p, p): node q_i's weight w_i(q),
    times 1 - p or p, times the float scale, a table of zero channel weight
    dropped. Either branch reads the corners with one cache lookup. Exact
    zeros are dropped, and float masses below 1e-15 (corner terms that
    cancel to roundoff dust or below 0; a NaN is kept).
    """
    keys, scale, tables, float_scale, columns = _corners(protocol, family, mix)
    rows = []
    if family != "gentle" and d is not None and isinstance(p, Rational):
        pn, pd = int(p.numerator), int(p.denominator)  # Python ints, for numpy integers too
        nodes = [[(pd - pn) * a + pn * b for a, b in zip(tables[k], tables[k + 1])] for k in range(0, len(tables), 2)]
        vectors, den = list(zip(*nodes)), d * pd * scale.denominator
        for x in xs:
            masses = [(d - x) * a + x * b for a, b in vectors]
            rows.append((tuple(itertools.compress(keys, masses)), [v for v in masses if v], sum(masses), den))
        return rows
    channel = (1 - float(p), float(p))
    w_p, columns = [w for w in channel if w], columns[tuple(map(bool, channel))]
    for q in map(float, xs) if d is None else (x / d for x in xs):
        # a zero weight adds only a ±0.0, to a sum begun at int 0, which leaves the float as it was
        ws = [w * v * float_scale for w in _float_weights(family, q) for v in w_p]
        masses = [sum(map(operator.mul, ws, column)) for column in columns]
        kept = [not v < 1e-15 for v in masses]
        values = list(itertools.compress(masses, kept))
        rows.append((tuple(itertools.compress(keys, kept)), values, sum(values), None))
    return rows


def _rates(layout, values, total, den) -> tuple:
    """(p_sift, qber, p_noguess, i_ab, i_ae, i_be, r) of one `_evaluate` row, with no JointDistribution built.

    They are float(joint.p_sift), float(joint.qber), float(joint.p_eve_abstain)
    and the fields of key_rate(joint) of the joint enumerate_joint builds from
    the same row, bit for bit, without its Fraction table. Exact masses stay
    integers, and every rate is one correctly rounded int / int: the float of
    the joint's Fraction. Float masses are divided by the total first and
    then summed in table order, as the joint's table and mass are. The four
    information fields are `_rate_kernel`'s, through the plan of the row's
    layout. This is the one-row path: a grid's rows go through `_grid_rates`,
    which gives the same tuples.

    Raises:
        ValueError: unless total > 0, as JointDistribution does.
    """
    if not total > 0:
        raise ValueError(f"p_sift must lie in (0, 1], got {total!r}")
    if den is None:  # the joint's table: each mass over the total
        p_sift, values, total = total, [v / total for v in values], None
    else:
        p_sift = total / den
    sums = (sum(v for (a, b, _), v in zip(layout, values) if a != b),
            sum(v for (_, _, e), v in zip(layout, values) if e is None))
    qber, p_noguess = (float(s) if total is None else s / total for s in sums)
    return (p_sift, qber, p_noguess, *_rate_kernel(layout, values, total))


def _grid_rates(rows) -> list:
    """[_rates(*row) for row in rows], the same tuples bit for bit, the rows of one layout taken together.

    Rows are grouped by their layout (and by exact or float). A group, one
    row or many, takes each step of `_rates` as one map over its rows, the
    rate kernel's too (`_column_kernel`), so each row gets the same
    operations on the same operands in the same order; its QBER and abstain
    rate are builtin sums over its own values, as sum is compensated for
    floats from Python 3.12 on. A row whose total is not in (0, 2^1074)
    goes through `_rates` alone: in a group every kept mass is an int >= 1
    or a float >= 1e-15, so every value and cell over such a total is a
    positive float.
    """
    out, groups = [None] * len(rows), {}
    for r, (layout, _, total, den) in enumerate(rows):
        if 0 < total < 1 << 1074:
            groups.setdefault((layout, den is None), []).append(r)
        else:
            out[r] = _rates(*rows[r])
    for (layout, floats), index in groups.items():
        _, values, totals, dens = zip(*(rows[r] for r in index))
        columns = list(zip(*values))
        if floats:  # the joint's table: each mass over the total
            columns = [list(map(operator.truediv, column, totals)) for column in columns]
            p_sift = totals
        else:
            p_sift = map(operator.truediv, totals, dens)
        sums = []
        for keep in (lambda a, b, e: a != b, lambda a, b, e: e is None):
            kept = [column for key, column in zip(layout, columns) if keep(*key)]
            sums.append(list(map(sum, zip(*kept))) if kept else [0] * len(index))
        qber, p_noguess = (map(float, s) if floats else map(operator.truediv, s, totals) for s in sums)
        infos = _column_kernel(layout, columns, None if floats else totals)
        for r, rates in zip(index, zip(p_sift, qber, p_noguess, *infos)):
            out[r] = rates
    return out


def _column_kernel(layout: tuple, columns: list, totals) -> tuple:
    """`_rate_kernel` of a group of rows: columns[i] holds key i's value in each row, totals their totals or None.

    It returns the kernel's (i_ab, i_ae, i_be, r) as four columns, one entry
    per row, for a group of any size, one row included. Each cell, marginal
    and log term is one map over the rows, with the kernel's operations in
    its order: cells summed with + in table order and divided by the total,
    marginals summed in cell order, and log sums from 0.0 in cell order.
    The kernel begins a cell at int 0 and a marginal at 0.0, which leave a
    positive value as it is, and every value and cell here is positive (see
    _grid_rates), so no log term is skipped. A pair the plan gives no cells
    (one x or one y value) stays at 0.0 in every row, as in the kernel.
    """
    n, add, mul = len(columns[0]), operator.add, operator.mul
    infos = []
    for nx, ny, cells in _rate_plan(layout):
        pair, px, py = [], [None] * nx, [None] * ny
        for (first, *rest), x, y in cells:
            s = columns[first]
            for i in rest:
                s = list(map(add, s, columns[i]))
            if totals is not None:
                s = list(map(operator.truediv, s, totals))
            pair.append(s)
            px[x] = s if px[x] is None else list(map(add, px[x], s))
            py[y] = s if py[y] is None else list(map(add, py[y], s))
        info = [0.0] * n
        for v, (_, x, y) in zip(pair, cells):
            info = map(add, info, map(mul, v, map(math.log2, map(operator.truediv, v, map(mul, px[x], py[y])))))
        infos.append(list(info))
    i_ab, i_ae, i_be = infos
    return i_ab, i_ae, i_be, list(map(operator.sub, i_ab, map(min, i_ae, i_be)))


# -- closed-form curves --------------------------------------------------------


@dataclass(frozen=True)
class AnalyticCurves:
    """Closed-form intercept/resend curves for the exclusion-sifted codes.

    A reference only: the package reads every answer off the corner tables,
    and the tests and the bench check those against these curves. All
    conditional quantities assume the symmetric ensemble mix except
    p_sift, p_ab and qber, which are mix-independent. Accepts exact or float
    q and preserves the input's arithmetic.

    Raises:
        ValueError: for a protocol that is not a ProtocolKind, or one without
            closed-form curves: only the exclusion-sifted codes have them.
    """

    protocol: ProtocolKind

    def __post_init__(self):
        _check_instance("protocol", self.protocol, ProtocolKind)
        if not self.protocol.excludes_outcomes:
            raise ValueError(f"no closed-form curves for {self.protocol.value}; use enumerate_joint")

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


# -- key rates -----------------------------------------------------------------


def _check_probabilities(table: dict, what: str) -> None:
    """Reject a table unless its entries are numbers >= 0 whose sum is 1 within 1e-9 (as a float)."""
    for key, v in table.items():
        if not v >= 0:  # so that NaN fails: every comparison with it is False
            raise ValueError(f"probability {v!r} at {key} is not a number >= 0")
    total = float(sum(table.values()))
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"{what} sums to {total!r}, expected 1")


def key_rate(joint: JointDistribution) -> RateReport:
    """Distillable-rate report from a sifted joint distribution.

    It reads the table's (a, b), (a, e) and (b, e) marginals through the
    plan of its keys (`_rate_kernel`), converting each marginal sum by
    float(): the float of the marginal's Fraction on the exact path. The
    table was checked when it was built, so it is not checked again. This
    is the one place that builds a RateReport: inside the package the
    kernel's four floats travel as a plain tuple.

    Raises:
        ValueError: for anything that is not a JointDistribution.
    """
    _check_instance("joint", joint, JointDistribution)
    return RateReport(*_rate_kernel(tuple(joint.table), tuple(joint.table.values()), None))


# 39 layouts (kept keys in corner order) occur over every protocol x family x mix, 101-step q grids and float q
# at 0, 1 and in between, and p in {0, 1/7, 0.05, 1}; a hand-built table's key order may bring more
@lru_cache(maxsize=64)
def _rate_plan(layout: tuple) -> tuple:
    """The (a, b), (a, e) and (b, e) pairs of a table's keys, in its order, as indices.

    For each pair, (nx, ny, cells): the number of its x and y values and,
    per cell (x, y) in the order the keys first see it, the indices of the
    keys summed into the cell and the indices of its x and y among the
    pair's x and y values in the order the cells first see them. So a row
    reads its three mutual informations with no dict built, the plan once
    per layout. A pair whose x or y takes one value over the layout, as
    Eve's guess does where she touches nothing, carries no information: it
    gets no cells, so its information is exactly 0.0, not the roundoff of
    a float table whose marginal sums to 1 - 1 ulp.
    """
    plan = []
    for u, v in ((0, 1), (0, 2), (1, 2)):
        cells: dict = {}
        for i, key in enumerate(layout):
            cells.setdefault((key[u], key[v]), []).append(i)
        xs, ys = (list(dict.fromkeys(cell[w] for cell in cells)) for w in (0, 1))
        cells = cells if len(xs) > 1 and len(ys) > 1 else {}  # a side of one value: no cells, no logs
        plan.append((len(xs), len(ys), tuple((tuple(c), xs.index(x), ys.index(y)) for (x, y), c in cells.items())))
    return tuple(plan)


def _rate_kernel(layout: tuple, values, total) -> tuple:
    """(i_ab, i_ae, i_be, r) of a table given as its keys and their values, through the layout's plan.

    Each pair's cell sums its values with plain + from int 0 in table order
    and is converted to a float: by float() with total None (the values are
    probabilities already, floats or an exact joint's Fractions), else as
    one correctly rounded int / int of integer masses over their int total,
    the float of the marginal's Fraction. Each marginal sums its cells from
    0.0 in cell order, and the log sum runs in cell order, as a mutual
    information over the pair's table as a dict does, so the floats are
    its own bit for bit. A pair of one x or one y value has no cells in
    the plan, so its information is 0.0. r is i_ab - min(i_ae, i_be).
    """
    infos = []
    for nx, ny, cells in _rate_plan(layout):
        pair, px, py = [], [0.0] * nx, [0.0] * ny
        for indices, x, y in cells:
            s = 0
            for i in indices:
                s += values[i]
            s = float(s) if total is None else s / total
            pair.append(s)
            px[x] += s
            py[y] += s
        info = 0.0
        for v, (_, x, y) in zip(pair, cells):
            if v > 0.0:
                info += v * math.log2(v / (px[x] * py[y]))
        infos.append(info)
    i_ab, i_ae, i_be = infos
    return i_ab, i_ae, i_be, i_ab - min(i_ae, i_be)


def _float_weights(family: str, q: float) -> tuple:
    """The weights w_i(q) of the family's nodes (_NODES) at a float strength q."""
    if family != "gentle":
        return 1 - q, q
    # solves w . 1 = 1, w . q_i = q, w . s_i = s at q_i = (0, 3/5, 1), s_i = (1, 4/5, 0)
    s = math.sqrt(1.0 - q * q)
    t = q + s - 1.0
    return (2.0 - 2.0 * q - s, 2.5 * t, q - 1.5 * t)


def _r_at(protocol: ProtocolKind, family: str, mix, p, q: float) -> float:
    """key_rate(enumerate_joint(...)).r at a float strength q, read off its one `_evaluate` row.

    The row's masses over their total are the joint's table, in its order,
    so the rate kernel gives key_rate's r bit for bit, with no eavesdropper,
    JointDistribution or RateReport built. This is a solve's probe of R.

    Raises:
        ValueError: unless the total is > 0, as JointDistribution does.
    """
    [(layout, values, total, _)] = _evaluate(protocol, family, mix, (q,), None, p)
    if not total > 0:
        raise ValueError(f"p_sift must lie in (0, 1], got {total!r}")
    return _rate_kernel(layout, [v / total for v in values], None)[3]


def find_threshold(
    protocol: ProtocolKind,
    attack_family: str = "standard",
    mix: EnsembleMix = EnsembleMix.SYMMETRIC,
    channel: Channel = IDEAL,
) -> ThresholdResult:
    """The attack strength where the key rate crosses zero.

    The mix defaults to EnsembleMix.SYMMETRIC, the paper's attack: Eve
    pretends to be either party with even odds. On a quiet channel (p = 0)
    no other odds serve her better (pinned by TestSymmetricMixIsEvesBest),
    but with noise they can: the noise lowers one of Eve's two informations,
    whichever side of her the channel acts on, and R subtracts only the
    smaller one, so the two sides stop mirroring each other. On the trine
    under intercept/resend at p = 1/20, odds of 9/16 for Alice's ensemble
    lower the threshold from 0.682 to about 0.668. At p > 0 the symmetric
    threshold is therefore the paper's attack, not a bound over every mix.

    The solve is Chandrupatla's bracketed method (T. R. Chandrupatla, Adv.
    Eng. Software 28(3):145-149, 1997) on a bracket a < b with
    R(a) > 0 > R(b), starting from (0, 1). Each probe c reads R(c) off one
    `_evaluate` row (`_r_at`: the float key_rate(enumerate_joint(...)).r
    gives, with no joint built) and replaces the end whose R has its sign.
    The first probe is the secant's. After that a probe is the inverse
    quadratic interpolation through the newest probe, the bracket's other
    end and the end the newest probe replaced, where Chandrupatla's test on
    the three points (xi and phi) says the interpolation is monotone
    between them, and the bracket's midpoint otherwise, or where
    roundoff would put the probe on an end. The solve returns the first
    probe that meets a plain bisection's stop rule: |R(c)| < 1e-10, or a
    bracket narrower than 1e-9 once c has replaced an end. So either
    |R(q_star)| < 1e-10, or R changes sign between q_star and a point less
    than 1e-9 away, and by continuity a zero of R lies there. Nothing here
    assumes that R falls in q.

    Over 1,440 solves (every protocol, family and mix at 60 random
    p = k/3000 <= 1/3) a solve took 6 to 9 evaluations of R (median 7,
    mean 7.27, both ends included), where a plain bisection of [0, 1] with
    the same stop rule takes ~32. The two need not return the same float:
    their q_star differed by up to 8.8e-10, and q_star and qber_star
    rounded to 4 places not at all.

    qber_star is the QBER enumerate_joint reports at q_star: the float of
    the joint of the returned probe, the one joint a solve enumerates.

    Raises:
        NoThresholdError: if R does not change sign over q in [0, 1].
        ValueError: for an attack family other than standard or gentle, a
            mix that is not an EnsembleMix, a protocol that is not a
            ProtocolKind or a channel that is not a Channel.
    """
    _check_config(protocol, channel)
    if attack_family not in ("standard", "gentle"):
        raise ValueError(f"unknown attack family: {attack_family!r} (expected standard or gentle)")
    _check_mix(mix)
    p = channel.depolarizing
    a, b = 0.0, 1.0
    r_a, r_b = (_r_at(protocol, attack_family, mix, p, q) for q in (a, b))
    if not (r_a > 0.0 > r_b):
        raise NoThresholdError(f"key rate does not cross zero on [0, 1]: R(0)={r_a!r}, R(1)={r_b!r}")
    # the step goes from x1, the newest end, toward x2, the other one; the first is the secant's
    x1, r1, x2, r2, t = a, r_a, b, r_b, r_a / (r_a - r_b)
    while True:
        c = x1 + (x2 - x1) * t
        if not a < c < b:  # roundoff at an end: bisect
            c = a + (b - a) / 2
        r_c = _r_at(protocol, attack_family, mix, p, c)
        # x3 is the end c replaces
        if r_c > 0.0:
            (x2, r2), (x3, r3), a, r_a = (b, r_b), (a, r_a), c, r_c
        else:
            (x2, r2), (x3, r3), b, r_b = (a, r_a), (b, r_b), c, r_c
        if abs(r_c) < 1e-10 or b - a < 1e-9:
            joint = enumerate_joint(protocol, _strategy_for(attack_family, c, mix), channel)
            return ThresholdResult(c, float(joint.qber))
        x1, r1 = c, r_c
        # inverse quadratic interpolation through the three points where it is monotone, else bisection
        xi, phi = (x1 - x2) / (x3 - x2), (r1 - r2) / (r3 - r2)
        if phi * phi < xi and (1 - phi) * (1 - phi) < 1 - xi:
            t = r1 / (r1 - r2) * r3 / (r3 - r2) - (x3 - x1) / (x2 - x1) * r1 / (r3 - r1) * r2 / (r2 - r3)
        else:
            t = 0.5


@lru_cache(maxsize=len(ProtocolKind))
def _sift_line(protocol: ProtocolKind) -> tuple:
    """(lo, hi): the exact sifting rates at intercept/resend fractions q = 0 and 1.

    They are read off the corner tables, ideal channel and symmetric mix.
    Intercept/resend weights are affine in q, so p_sift runs along the line
    from lo to hi.

    Raises:
        ValueError: where lo == hi, as for the basis protocols: their
            sifting rate does not move with q, so it carries no estimate.
    """
    lo, hi = (enumerate_joint(protocol, InterceptResend(q)).p_sift for q in (0, 1))
    if lo == hi:
        raise ValueError(
            f"the sifting rate of {protocol.value} is {lo} at every interception fraction; "
            "it carries no estimate of q"
        )
    return lo, hi


def estimate_q_from_sift(protocol: ProtocolKind, observed_sift, margin=0) -> QSiftEstimate:
    """Infer the intercept/resend fraction from an observed sifting rate.

    The sifting rate runs linearly from lo at q = 0 to hi at q = 1
    (`_sift_line`, read off the corner tables), so the inversion is linear:
    q = 12 s - 6 (trine), q = 9 s - 3 (tetrahedron). The estimate is clamped
    to [0, 1], and the exact inversion is kept as q_raw. A rate outside the
    attainable band [lo, hi] by more than `margin` is flagged in the result,
    in_model False, and nothing else: no warning, no error.

    Raises:
        ValueError: for a rate that is not a real number in [0, 1], a margin
            that is not a real number >= 0 (bool and NaN are neither), or a
            protocol whose sifting rate is flat in q (BB84, six-state), or a
            protocol that is not a ProtocolKind.
    """
    _check_config(protocol)
    _check_unit(observed_sift, "observed sifting rate")
    if isinstance(margin, bool) or not isinstance(margin, Real) or not margin >= 0:
        raise ValueError(f"margin must be a real number >= 0, got {margin!r}")
    lo, hi = _sift_line(protocol)
    slope = 1 / (hi - lo)
    # slope and slope * lo are the exact integers 12 and 6 (or 9 and 3), so a float rate keeps its bits
    raw = slope * observed_sift - slope * lo
    in_model = (lo - margin) <= observed_sift <= (hi + margin)
    return QSiftEstimate(q=min(max(raw, 0), 1), q_raw=raw, in_model=in_model)
