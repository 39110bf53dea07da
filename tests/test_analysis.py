"""Tests for exact enumeration, closed forms, information rates, thresholds."""

import collections
import itertools
import math
import re
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from rate_reference import (_mutual_information, bb84_one_way_rate, mutual_information, one_way_bound,
                            six_state_one_way_rate)

from scqkd import analysis, montecarlo
from scqkd.analysis import (
    JointDistribution,
    _corners,
    _evaluate,
    _family_mix_grid,
    _grid_rates,
    _r_at,
    _rate_kernel,
    _rate_plan,
    _rates,
    _sift_line,
    _sifting,
    _stages,
    _strategy_for,
    _walk,
    AnalyticCurves,
    NoThresholdError,
    RateReport,
    enumerate_joint,
    estimate_q_from_sift,
    find_threshold,
    key_rate,
)
from scqkd.eavesdrop import (
    EnsembleMix,
    EveRecord,
    GentleIntercept,
    InterceptResend,
    _SIDES,
    _SIDE_WEIGHTS,
    _attack,
    _gentle_kraus,
    _side_gentle_povm,
    eve_guess,
    measuring_code,
)
from scqkd.codes import basis_label, eigen_bit, make_code, tetra_key_bit, trine_key_bit
from scqkd.protocol import Announcement, Channel, ProtocolKind, announcement_options
from scqkd.states import born_probability, depolarize, post_measurement_state

ALL = list(ProtocolKind)
EXCLUSION = [ProtocolKind.TRINE, ProtocolKind.TETRAHEDRON]
BASIS = [ProtocolKind.BB84, ProtocolKind.SIX_STATE]
F = Fraction


def _sym(q):
    return InterceptResend(q=q, mix=EnsembleMix.SYMMETRIC)


def _stages_of(protocol, eve, channel):
    """The rows _walk reads for a configuration: _stages at Eve's strength and the channel's p."""
    return _stages(protocol, _attack(eve)[2], channel.depolarizing)


class TestEnumerateNoEve:
    @pytest.mark.parametrize("protocol", ALL)
    def test_noiseless_key_is_uniform_and_clean(self, protocol):
        jd = enumerate_joint(protocol)
        assert jd.table == {(0, 0, None): F(1, 2), (1, 1, None): F(1, 2)}

    @pytest.mark.parametrize("protocol", ALL)
    def test_rates_no_eve(self, protocol):
        report = key_rate(enumerate_joint(protocol))
        assert report.i_ab == 1.0
        assert report.i_ae == 0.0
        assert report.r == 1.0


class TestEnumerateStandard:
    @pytest.mark.parametrize("mix", list(EnsembleMix))
    @pytest.mark.parametrize("protocol", ALL)
    def test_q_zero_is_no_eve(self, protocol, mix):
        # no eavesdropper reads the symmetric intercept/resend corners at q = 0: the same joint in
        # type, key order and last bit at every p; every mix gives the same Fractions in the same key
        # order at a rational p, and at a float p the same keys within 1e-15 (other mixes' corner
        # sets carry other integer scales)
        def typed(jd):
            return _bits(jd.p_sift), [(key, _bits(v)) for key, v in jd.table.items()]

        for p in (F(0), F(1, 7), F(1, 20), F(1, 3)):
            jd0 = enumerate_joint(protocol, None, Channel(depolarizing=p))
            jdq = enumerate_joint(protocol, InterceptResend(q=F(0), mix=mix), Channel(depolarizing=p))
            assert typed(jdq) == typed(jd0)
            assert type(jd0.p_sift) is Fraction
        for p in (0.0, 0.05, 1 / 7, 0.37, 1.0):
            jd0 = enumerate_joint(protocol, None, Channel(depolarizing=p))
            jdq = enumerate_joint(protocol, InterceptResend(q=F(0), mix=mix), Channel(depolarizing=p))
            assert type(jd0.p_sift) is float
            if mix is EnsembleMix.SYMMETRIC:
                assert typed(jdq) == typed(jd0)
            assert list(jdq.table) == list(jd0.table)
            assert jdq.p_sift == pytest.approx(jd0.p_sift, rel=0, abs=1e-15)
            assert list(jdq.table.values()) == pytest.approx(list(jd0.table.values()), rel=0, abs=1e-15)

    @pytest.mark.parametrize("q", [F(0), F(1, 7), F(1, 3), F(1, 2), F(9, 11), F(1)])
    @pytest.mark.parametrize("protocol", EXCLUSION)
    def test_matches_closed_forms_exactly(self, protocol, q):
        curves = AnalyticCurves(protocol)
        jd = enumerate_joint(protocol, _sym(q))
        assert jd.p_sift == curves.p_sift(q)
        assert jd.mass(lambda a, b, e: a == b) == curves.p_ab(q)
        assert jd.p_eve_agree_alice == curves.p_ae(q)
        assert jd.p_eve_abstain == curves.p_noguess(q)
        assert jd.qber == curves.qber(q)

    @pytest.mark.parametrize("protocol", ALL)
    @pytest.mark.parametrize("q", [F(1, 4), F(3, 5), F(1)])
    def test_symmetric_mix_treats_parties_alike(self, protocol, q):
        jd = enumerate_joint(protocol, _sym(q))
        assert jd.p_eve_agree_alice == jd.p_eve_agree_bob

    @pytest.mark.parametrize("protocol", EXCLUSION)
    @pytest.mark.parametrize("q", [F(1, 4), F(3, 5), F(1)])
    def test_one_sided_mixes_are_mirror_images(self, protocol, q):
        alice = enumerate_joint(protocol, InterceptResend(q=q, mix=EnsembleMix.ALICE_ONLY))
        bob = enumerate_joint(protocol, InterceptResend(q=q, mix=EnsembleMix.BOB_ONLY))
        assert alice.p_sift == bob.p_sift
        assert alice.qber == bob.qber
        assert alice.p_eve_agree_alice == bob.p_eve_agree_bob
        assert alice.p_eve_agree_bob == bob.p_eve_agree_alice

    def test_bb84_intercept_quarter_error(self):
        # full interception in a random basis misreads half the rounds half the time
        jd = enumerate_joint(ProtocolKind.BB84, _sym(F(1)))
        assert jd.qber == F(1, 4)

    def test_six_state_intercept_error(self):
        jd = enumerate_joint(ProtocolKind.SIX_STATE, _sym(F(1)))
        assert jd.qber == F(1, 3)


def _negligible(p) -> bool:
    """True for a branch probability the reference walks skip: an exact zero, or a float below 1e-15."""
    if isinstance(p, float):
        return p < 1e-15
    return p == 0


def _reference_cells(protocol: ProtocolKind, strength, p, weights):
    """Yield (part, (a, b, e), mass) for every sifted cell of one round, walking every branch.

    Independent of `_walk`'s one pass and of `_corners`' part weighting: every
    branch is taken at any p with its own probability, and weighed as it is
    taken. Part 0 is the round Eve leaves alone, and part 1 + side her
    measuring with that side's ensemble at `strength`. Every branch (signal j,
    slot, Bob outcome k, announcement) is taken in that order, reading Bob's
    gram row slot * n + j-1 of `_stages` at p (the layout is in _Stages), and
    its mass is 1/n * weights[part] * p_m * p_k / n_opts, with p_m = 1 in slot
    0. A part of weight zero and an outcome of negligible probability are
    skipped. Once exhausted, it checks that each part's branch probabilities
    sum to the part's weight.
    """
    n = protocol.n_signals
    n_opts = len(announcement_options(protocol, 1))
    w_j, w_a = Fraction(1, n), Fraction(1, n_opts)
    stages, sifting = _stages(protocol, strength, p), _sifting(protocol)
    totals = [0, 0, 0]
    for j in range(1, n + 1):
        for slot, p_m in enumerate([1, *stages.eve[j - 1], *stages.eve[n + j - 1]]):
            part = (slot + n - 1) // n
            if not weights[part] or _negligible(p_m):
                continue
            row, base = slot * n + j - 1, w_j * (weights[part] * p_m)
            for k, pk in enumerate(stages.bob[row]):
                if _negligible(pk):
                    continue
                mass = base * pk
                totals[part] += mass
                cell = (row * n + k) * n_opts
                for key in sifting[cell:cell + n_opts]:
                    if key is not None:
                        yield part, key, mass * w_a
    if any(abs(float(total) - float(w)) > 1e-9 for total, w in zip(totals, weights)):
        raise AssertionError(f"branch probabilities of the parts sum to {[float(t) for t in totals]!r}, "
                             f"not their weights {[float(w) for w in weights]!r}")


def _reference_parts(protocol: ProtocolKind, strength, p) -> dict:
    """_walk's parts at one depolarizing strength p: {(part, (a, b, e)): unnormalised sifted mass}.

    The reference the one-pass walk must equal at p = 0 and p = 1, and that
    the tests read at any other p: `_reference_cells` with every part at
    weight 1, so independent of the one pass (the two ends built together,
    Bob's uniform 1/n at p = 1, exact-zero skips). Keys are in the order the
    walk first sees them.
    """
    table: dict = {}
    for part, key, mass in _reference_cells(protocol, strength, p, (1, 1, 1)):
        table[part, key] = table.get((part, key), 0) + mass
    return table


def _reference_walk(protocol: ProtocolKind, eve, channel: Channel, sides=None) -> dict:
    """Walk every branch of one round: the unnormalised sifted table {(a, b, e): mass}.

    Independent of `_corners`' part weighting, node table and scaling: each
    branch is weighed by Eve's share and side as `_reference_cells` takes it,
    1 - touched for the round she leaves alone and touched * w_side for a
    side, with touched her share (eavesdrop._attack) and (w_alice, w_bob) the
    mix's side weights, or `sides` if given. Nothing is sampled. The
    arithmetic is the rows', the same for every family: exact rationals
    whenever q, p and, for the gentle attack, sqrt(1 - q^2) are rational,
    floats otherwise. Keys are in the order the walk first sees them.
    """
    _, touched, strength = _attack(eve)
    if sides is None:
        sides = (0, 0) if eve is None else _SIDE_WEIGHTS[eve.mix]
    weights = (1 - touched, *(touched * w for w in sides))
    table: dict = {}
    for _, key, mass in _reference_cells(protocol, strength, channel.depolarizing, weights):
        table[key] = table.get(key, 0) + mass
    return table


def _reference_joint(protocol: ProtocolKind, eve, channel: Channel, sides=None) -> JointDistribution:
    """The reference walk's table normalised: the joint distribution enumerate_joint must give."""
    u = _reference_walk(protocol, eve, channel, sides)
    p_sift = sum(u.values())
    return JointDistribution(p_sift=p_sift, table={key: v / p_sift for key, v in u.items()})


# each family's nodes q_i as the reference walks them, in increasing q
_REFERENCE_NODES = {"standard": (0, 1), "gentle": (0, F(3, 5), 1)}


def _reference_corners(protocol, family, mix):
    """(keys, scale, tables) of the reference walks at the family's nodes q_i and p = 0, 1."""
    strategies = [_strategy_for(family, q, mix) for q in _REFERENCE_NODES[family]]
    walks = [_reference_walk(protocol, eve, Channel(depolarizing=p)) for eve in strategies for p in (0, 1)]
    keys = tuple(dict.fromkeys(key for u in walks for key in u))
    tables = [[u.get(key, 0) for key in keys] for u in walks]
    d = math.lcm(*(v.denominator for t in tables for v in t))
    return keys, Fraction(1, d), tuple(tuple(int(v * d) for v in t) for t in tables)


# every (family, mix) key of _corners: no eavesdropper is the standard family's symmetric key
CORNER_KEYS = [(family, mix) for family in ("standard", "gentle") for mix in EnsembleMix]


_MIXES = st.sampled_from(list(EnsembleMix))
_NOISE = st.fractions(min_value=0, max_value=1, max_denominator=20)
_STRENGTH = st.fractions(min_value=0, max_value=1, max_denominator=60)
# depolarizing strengths up to 1/3, for solves: most cross zero, some do not
_SOLVE_NOISE = st.fractions(min_value=0, max_value=F(1, 3), max_denominator=200)


class TestEnumerateGentle:
    @settings(max_examples=20, deadline=None)
    @given(protocol=st.sampled_from(ALL), mix=_MIXES, p=_NOISE)
    @example(protocol=ProtocolKind.TRINE, mix=EnsembleMix.SYMMETRIC, p=F(0))
    @example(protocol=ProtocolKind.BB84, mix=EnsembleMix.BOB_ONLY, p=F(1, 7))
    def test_full_strength_is_intercept_resend(self, protocol, mix, p):
        channel = Channel(depolarizing=p)
        soft = enumerate_joint(protocol, GentleIntercept(q=1.0, mix=mix), channel)
        hard = enumerate_joint(protocol, InterceptResend(q=F(1), mix=mix), channel)
        assert abs(soft.p_sift - float(hard.p_sift)) < 1e-12
        assert set(soft.table) == set(hard.table)
        for key, v in hard.table.items():
            assert abs(soft.table[key] - float(v)) < 1e-12
        # at exact full strength the two walks are the same walk, Fraction for Fraction
        soft, hard = (_reference_walk(protocol, eve(F(1), mix), channel) for eve in (GentleIntercept, InterceptResend))
        assert list(soft.items()) == list(hard.items())
        assert all(type(v) is F for v in soft.values())

    @settings(max_examples=20, deadline=None)
    @given(protocol=st.sampled_from(ALL), mix=_MIXES, p=_NOISE)
    @example(protocol=ProtocolKind.TETRAHEDRON, mix=EnsembleMix.SYMMETRIC, p=F(0))
    def test_zero_strength_is_invisible_and_useless(self, protocol, mix, p):
        # a strength-0 measurement leaves the round as no eavesdropper does, and tells Eve nothing
        channel = Channel(depolarizing=p)
        jd, ref = (enumerate_joint(protocol, eve, channel) for eve in (GentleIntercept(q=0.0, mix=mix), None))
        (sift, ab), (want_sift, want_ab) = _sift_and_ab(jd), _sift_and_ab(ref)
        assert abs(sift - float(want_sift)) < 1e-12 and abs(jd.qber - float(ref.qber)) < 1e-12
        for key in {**ab, **want_ab}:
            assert abs(ab.get(key, 0) - want_ab.get(key, 0)) < 1e-12
        report, want = key_rate(jd), key_rate(ref)
        assert abs(report.i_ae) < 1e-12 and abs(report.i_be) < 1e-12 and abs(report.r - want.r) < 1e-12

    def test_gentler_attack_leaves_smaller_error(self):
        errs = [
            enumerate_joint(ProtocolKind.TRINE, GentleIntercept(q=q)).qber
            for q in (0.2, 0.5, 0.8, 1.0)
        ]
        assert errs == sorted(errs)
        hard = enumerate_joint(ProtocolKind.TRINE, _sym(0.8)).qber
        assert errs[2] < hard  # same strength, weaker measurement, less damage

    def test_roundoff_dust_is_dropped(self):
        # next to q = 1 some entries are O(1 - q): below the enumeration's cut,
        # and left as dust or negative roundoff by the combination
        joint = enumerate_joint(ProtocolKind.TRINE, GentleIntercept(q=1 - 1e-15))
        full = enumerate_joint(ProtocolKind.TRINE, GentleIntercept(q=1.0))
        assert set(joint.table) == set(full.table)


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


# the exclusion rules written out per code: the independent reference for protocol's one rule per sifting kind
def _per_code_options(protocol, k):
    """Bob's announcements after outcome k: trine single exclusions, tetrahedron ordered pairs."""
    if protocol is ProtocolKind.TRINE:
        return [Announcement(excluded=(l,)) for l in (1, 2, 3) if l != k]
    if protocol is ProtocolKind.TETRAHEDRON:
        others = [i for i in (1, 2, 3, 4) if i != k]
        return [Announcement(excluded=(l, m)) for l in others for m in others if m != l]
    return [Announcement(bob_basis=basis_label(k))]


def _per_code_bit(protocol, side, index, ann):
    """The `side` party's key bit from `index`, or None where the announcement rules it out."""
    if protocol is ProtocolKind.TRINE:
        (l,) = ann.excluded
        if index == l:
            return None
        partner = 6 - index - l
        return trine_key_bit(index, partner, l) if side == "alice" else trine_key_bit(partner, index, l)
    if protocol is ProtocolKind.TETRAHEDRON:
        l, m = ann.excluded
        if index in (l, m):
            return None
        partner = 10 - index - l - m
        return tetra_key_bit(index, partner, l, m) if side == "alice" else tetra_key_bit(partner, index, l, m)
    return eigen_bit(index) if basis_label(index) == ann.bob_basis else None


def _per_code_sifting(protocol):
    """_sifting's cells in its layout, (slot, j, k, announcement), from the per-code rules."""
    n = protocol.n_signals
    records = [None] + [EveRecord(True, side, m) for side in _SIDES for m in range(1, n + 1)]
    cells = []
    for record in records:
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                for ann in _per_code_options(protocol, k):
                    alice = _per_code_bit(protocol, "alice", j, ann)  # None exactly where Alice rejects
                    guess = eve_guess(record, protocol, ann, True)
                    cells.append(None if alice is None else (alice, _per_code_bit(protocol, "bob", k, ann), guess))
    return cells


class TestSiftingTable:
    """One rule per sifting kind gives every cell the per-code rules gave."""

    @pytest.mark.parametrize("protocol", ALL)
    def test_cells_match_the_per_code_rules(self, protocol):
        got, want = _sifting(protocol), _per_code_sifting(protocol)
        assert len(got) == len(want)
        assert [i for i, (a, b) in enumerate(zip(got, want)) if a != b] == []

    @pytest.mark.parametrize("protocol", ALL)
    def test_eve_guesses_by_the_per_code_rule(self, protocol):
        n = protocol.n_signals
        for side, m, k in itertools.product(_SIDES, range(1, n + 1), range(1, n + 1)):
            for ann in _per_code_options(protocol, k):
                want = _per_code_bit(protocol, side, m, ann)
                assert eve_guess(EveRecord(True, side, m), protocol, ann, True) == want


class TestStages:
    """One round model: the exact Gram rows agree with run_round's matrix Born rows."""

    @settings(max_examples=60, deadline=None)
    @given(protocol=st.sampled_from(ALL), family=st.sampled_from(["none", "standard", "gentle"]),
           mix=_MIXES, q=_STRENGTH, p=_NOISE, float_q=st.floats(0, 0.99), float_p=st.floats(0, 1))
    def test_gram_rows_are_the_born_rows(self, protocol, family, mix, q, p, float_q, float_p):
        if family == "gentle":
            q = 2 * q / (1 + q * q)  # a Pythagorean strength: sqrt(1 - q^2) is rational
        eve, channel = _strategy_for(family, q, mix), Channel(depolarizing=p)
        gram = _stages_of(protocol, eve, channel)
        born_eve, born_bob = _born_stages(protocol, _attack(eve)[2], p)
        for exact_rows, float_rows in ((gram.eve, born_eve), (gram.bob, born_bob)):
            assert len(exact_rows) == len(float_rows)
            for exact, approx in zip(exact_rows, float_rows):
                assert sum(exact) == 1 and all(type(e) is F for e in exact)
                assert all(abs(e - b) <= 1e-12 for e, b in zip(exact, approx))
        # the sampler's call, two Python floats, checked against the Born rows too; closer to q = 1 the
        # Born side's Kraus normalisation loses digits, and test_gentle_branch_masses_near_full_strength
        # covers that range
        strength = _attack(_strategy_for(family, float_q, mix))[2]
        floats = _stages(protocol, float(strength), float_p)
        for float_rows, born_rows in zip(floats, _born_stages(protocol, strength, float_p)):
            assert len(float_rows) == len(born_rows)
            for got, want in zip(float_rows, born_rows):
                assert all(type(e) is float for e in got)
                assert all(abs(e - b) <= 1e-12 for e, b in zip(got, want))

    @pytest.mark.parametrize("strength", [F(0), F(3, 5), F(1), 0.0, 0.6, 1.0])
    @pytest.mark.parametrize("protocol", ALL)
    def test_every_row_is_built(self, protocol, strength):
        # the share Eve touches and the mix only weight the branches: no row is left out
        n = protocol.n_signals
        stages = _stages(protocol, strength, F(1, 10))
        assert len(stages.eve) == 2 * n and len(stages.bob) == (2 * n + 1) * n
        for row in stages.eve + stages.bob:
            assert len(row) == n and abs(sum(row) - 1) <= 1e-15

    # F(3, 7) has an irrational s, so its rows mix Fractions and floats; a numpy float takes the Fraction path
    @pytest.mark.parametrize("strength", [F(0), F(3, 5), F(3, 7), F(1), 0.0, 0.6, 1 - 1e-12, 1.0,
                                          np.float64(0.6), np.float64(1.0)])
    @pytest.mark.parametrize("protocol", ALL)
    def test_rows_are_shared_by_the_two_rules(self, protocol, strength):
        # at full strength a slot's rows for j > 1 are its j = 1 row; below it, a slot whose state is
        # +-a_j (read off the codes' Bloch vectors) holds signal j's undisturbed row; no other row is shared
        n = protocol.n_signals
        alice = make_code(protocol).states
        want = list(range((2 * n + 1) * n))
        for si, side in enumerate(_SIDES):
            eve = measuring_code(protocol, side).states
            for m, j in itertools.product(range(1, n + 1), repeat=2):
                at = (1 + si * n + m - 1) * n + j - 1
                if strength == 1:
                    want[at] = at - j + 1
                elif abs(abs(float(eve[m - 1] @ alice[j - 1])) - 1) < 1e-9:
                    want[at] = j - 1
        for p in (F(1, 10), 0.1):
            stages = _stages(protocol, strength, p)
            assert _layout(stages.eve + stages.bob) == [*range(2 * n), *(2 * n + i for i in want)]

    @pytest.mark.parametrize("protocol", ALL)
    def test_branches_of_zero_weight_are_not_taken(self, monkeypatch, protocol):
        # a node takes part 0 only where Eve leaves signals alone, and a side only where she
        # touches signals and the mix picks it, though every walk has all three parts
        def marked(protocol, strength):  # the walk's tables, plus one key only part i sees, for each part
            marks = {(i, ("part", i)): F(1) for i in range(3)}
            return tuple({**parts, **marks} for parts in _walk(protocol, strength))

        monkeypatch.setattr(analysis, "_walk", marked)

        def taken(family, mix):  # per node, at p = 0: the parts whose key it weighs
            keys, _, tables, _, _ = _corners.__wrapped__(protocol, family, mix)
            marks = {i: key[1] for i, key in enumerate(keys) if key[0] == "part"}
            # a part no node takes never adds its key
            assert all(any(t[i] for t in tables) for i in marks)
            return [{part for i, part in marks.items() if t[i]} for t in tables[::2]]

        assert taken("standard", EnsembleMix.SYMMETRIC) == [{0}, {1, 2}]
        assert taken("standard", EnsembleMix.ALICE_ONLY) == [{0}, {1}]
        assert taken("gentle", EnsembleMix.SYMMETRIC) == [{1, 2}] * 3
        assert taken("gentle", EnsembleMix.BOB_ONLY) == [{2}] * 3

    @pytest.mark.parametrize("p", [F(0), 0.05, F(1, 7)])
    @pytest.mark.parametrize("q", [1 - 1e-9, 1 - 1e-12, 1 - 2**-52, 1 - 2**-53])
    @pytest.mark.parametrize("mix", list(EnsembleMix))
    @pytest.mark.parametrize("protocol", ALL)
    def test_float_gentle_rows_near_full_strength_are_clean(self, protocol, mix, q, p):
        stages = _stages_of(protocol, GentleIntercept(q, mix), Channel(depolarizing=p))
        for row in stages.eve + stages.bob:
            floats = [float(e) for e in row]
            assert min(floats) >= 0, row
            assert abs(sum(floats) - 1) <= 4.5e-16, row

    @pytest.mark.parametrize("q", [1 - 1e-9, 1 - 1e-12, 1 - 1.5e-14, 1 - 1e-15])
    @pytest.mark.parametrize("mix", list(EnsembleMix))
    @pytest.mark.parametrize("protocol", ALL)
    def test_gentle_branch_masses_near_full_strength(self, protocol, mix, q):
        # run_round's Born rule and Kraus update give every branch (j, side, m, k) the Gram rows' mass
        n = protocol.n_signals
        gram = _stages_of(protocol, GentleIntercept(q, mix), Channel())
        for si, side in enumerate(_SIDES):
            if not _SIDE_WEIGHTS[mix][si]:
                continue
            povm = _side_gentle_povm(protocol, side, q)
            for j in range(1, n + 1):
                rho = make_code(protocol).state(j)
                for m, element in enumerate(povm.elements, 1):
                    p_m, exact_m = born_probability(rho, element), gram.eve[si * n + j - 1][m - 1]
                    if p_m == 0.0:  # no state to condition on: the branch's mass is p_m
                        assert exact_m <= 1e-14
                        continue
                    forwarded = post_measurement_state(rho, _gentle_kraus(protocol, side, q, m))
                    exact_row = gram.bob[(1 + si * n + m - 1) * n + j - 1]
                    for e, exact_k in zip(_side_gentle_povm(protocol, "bob", 1).elements, exact_row):
                        assert abs(p_m * born_probability(forwarded, e) - exact_m * exact_k) <= 1e-14

    @settings(max_examples=40, deadline=None)
    @given(protocol=st.sampled_from(ALL), mix=_MIXES, q=_STRENGTH, p=_NOISE)
    @example(protocol=ProtocolKind.TRINE, mix=EnsembleMix.SYMMETRIC, q=F(63, 100), p=F(0))
    def test_float_intercept_resend_matches_exact(self, protocol, mix, q, p):
        exact = enumerate_joint(protocol, InterceptResend(q, mix), Channel(depolarizing=p))
        approx = enumerate_joint(protocol, InterceptResend(float(q), mix), Channel(depolarizing=float(p)))
        assert abs(float(exact.p_sift) - approx.p_sift) <= 1e-12
        for key in {**exact.table, **approx.table}:
            assert abs(float(exact.table.get(key, 0)) - approx.table.get(key, 0)) <= 1e-12


def _bits(v):
    """An entry's type and exact value: a float by its hex digits, a numpy scalar by its bytes."""
    return type(v), v.hex() if isinstance(v, float) else v.tobytes() if isinstance(v, np.generic) else v


def _layout(rows):
    """Per row: the index of the first row that is the same list object."""
    return [next(i for i, other in enumerate(rows) if other is row) for row in rows]


class _Boxed(float):
    """A float that is not a float by type, as a numpy float is not: _stages takes it the Fraction way."""


def _assert_same_rows(got, want):
    """Both sides' rows alike by type and bits, and shared alike."""
    for got_rows, want_rows in zip(got, want):
        assert _layout(got_rows) == _layout(want_rows)
        for a, b in zip(got_rows, want_rows):
            assert [_bits(v) for v in a] == [_bits(v) for v in b]


# any float in [0, 1], and the ends and near-ends where the rows lose the most digits
_GATE_FLOATS = st.one_of(st.floats(min_value=0, max_value=1),
                         st.sampled_from([0.0, 1.0, 1 - 2**-52, 1 - 1e-12, 2**-60]))


class TestFloatGate:
    """The sampler's call, two Python floats, gives the Fraction path's rows with no Fraction arithmetic."""

    @pytest.mark.parametrize("protocol", ALL)
    @settings(max_examples=60, deadline=None)
    @given(q=_GATE_FLOATS, p=_GATE_FLOATS)
    def test_the_gate_gives_the_fraction_paths_bits(self, protocol, q, p):
        _assert_same_rows(_stages(protocol, q, p), _stages(protocol, _Boxed(q), _Boxed(p)))

    @pytest.mark.parametrize("protocol", ALL)
    @settings(max_examples=30, deadline=None)
    @given(q=_GATE_FLOATS, p=_GATE_FLOATS)
    def test_numpy_floats_give_the_gates_bits(self, protocol, q, p):
        # numpy's own operators meet the Fraction path here, and its rows are still Python floats
        _assert_same_rows(_stages(protocol, q, p), _stages(protocol, np.float64(q), np.float64(p)))

    @pytest.mark.parametrize("strength", [0.0, 0.6, 1 - 1e-12, 1.0])
    @pytest.mark.parametrize("protocol", ALL)
    def test_a_float_build_takes_no_fraction_arithmetic(self, monkeypatch, protocol, strength):
        # the sampler's call, two Python floats, reads the Gram values and 1/n as floats; an exact
        # strength still takes the Fraction path, which shows that the counter counts
        calls = []
        for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
            def counted(self, other, _original=getattr(Fraction, name)):
                calls.append(other)
                return _original(self, other)
            monkeypatch.setattr(Fraction, name, counted)
        for p in (0.0, 0.05, 1.0):
            rows = _stages(protocol, strength, p)
            assert all(type(v) is float for part in rows for row in part for v in row)
        assert calls == []
        _stages(protocol, F(3, 5), 0.05)
        assert calls


class TestDepolarizing:
    @pytest.mark.parametrize("protocol,p_sift,qber", [
        (ProtocolKind.TRINE, lambda p: (3 + p) / 6, lambda p: 2 * p / (3 + p)),
        (ProtocolKind.TETRAHEDRON, lambda p: (2 + p) / 6, lambda p: 3 * p / (2 * (2 + p))),
        (ProtocolKind.BB84, lambda p: F(1, 2), lambda p: p / 2),
        (ProtocolKind.SIX_STATE, lambda p: F(1, 3), lambda p: p / 2),
    ])
    @pytest.mark.parametrize("p", [F(0), F(1, 10), F(1, 4), F(1, 2), F(3, 4), F(9, 10), F(1)])
    def test_exact_curves(self, protocol, p_sift, qber, p):
        jd = enumerate_joint(protocol, channel=Channel(depolarizing=p))
        assert jd.p_sift == p_sift(p)
        assert jd.qber == qber(p)


class TestMutualInformation:
    def test_independent_is_zero(self):
        joint = {(x, y): F(1, 4) for x in (0, 1) for y in (0, 1)}
        assert mutual_information(joint) == 0.0

    def test_perfectly_correlated_uniform_bit(self):
        assert mutual_information({(0, 0): 0.5, (1, 1): 0.5}) == 1.0

    def test_binary_symmetric_channel(self):
        e = 0.11
        joint = {(0, 0): (1 - e) / 2, (0, 1): e / 2, (1, 0): e / 2, (1, 1): (1 - e) / 2}
        h = -(e * math.log2(e) + (1 - e) * math.log2(1 - e))
        assert mutual_information(joint) == pytest.approx(1 - h, abs=1e-12)

    def test_third_symbol_supported(self):
        joint = {(0, None): 0.25, (1, None): 0.25, (0, 0): 0.25, (1, 1): 0.25}
        # half the rounds reveal the bit, half reveal nothing
        assert mutual_information(joint) == pytest.approx(0.5, abs=1e-12)

    def test_exact_inputs_accepted(self):
        joint = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
        assert mutual_information(joint) == 1.0


def _pair_floats(items, total) -> tuple:
    """The (a, b), (a, e) and (b, e) marginals of (key, mass) items as floats, summed in one pass in order.

    The reference of analysis._rate_kernel's cells, with dicts: with an int
    total each sum of integer masses becomes one correctly rounded
    int / int, the float of the marginal's Fraction; with total None the
    items are probabilities already, floats or an exact joint's Fractions,
    and their sums are converted by float().
    """
    ab: dict = {}
    ae: dict = {}
    be: dict = {}
    for (a, b, e), v in items:
        ab[a, b] = ab.get((a, b), 0) + v
        ae[a, e] = ae.get((a, e), 0) + v
        be[b, e] = be.get((b, e), 0) + v
    if total is None:
        return tuple({key: float(v) for key, v in pair.items()} for pair in (ab, ae, be))
    return tuple({key: v / total for key, v in pair.items()} for pair in (ab, ae, be))


def _rate_report(pairs) -> tuple:
    """(i_ab, i_ae, i_be, r) of the float (a, b), (a, e) and (b, e) marginals, each through _mutual_information."""
    i_ab, i_ae, i_be = map(_mutual_information, pairs)
    return i_ab, i_ae, i_be, i_ab - min(i_ae, i_be)


class TestKeyRate:
    def test_uses_weaker_eve_column(self):
        jd = enumerate_joint(ProtocolKind.TRINE, InterceptResend(q=F(1), mix=EnsembleMix.ALICE_ONLY))
        # her resend replaces the signal, so Bob's data descends from her
        # outcome: she tracks his bit (5/7) better than Alice's (4/7)
        assert jd.p_eve_agree_bob == F(5, 7)
        assert jd.p_eve_agree_alice == F(4, 7)
        report = key_rate(jd)
        assert report.i_be > report.i_ae
        assert report.r == pytest.approx(report.i_ab - report.i_ae, abs=1e-15)

    @pytest.mark.parametrize("p", [0, 0.05, 1 / 7, 0.37, 1.0, 0.1, 0.2, 0.3])
    @pytest.mark.parametrize("protocol", ALL)
    def test_a_side_of_one_value_carries_exactly_zero_information(self, protocol, p):
        # where Eve touches nothing she never guesses, though a float table may sum to 1 - 1 ulp
        report = key_rate(enumerate_joint(protocol, None, Channel(depolarizing=p)))
        assert report.i_ae == report.i_be == 0.0 and report.r == report.i_ab
        # so does a standard sweep's row at q = 0, alone and taken by column with rows of its layout
        rows = _evaluate(protocol, "standard", EnsembleMix.SYMMETRIC, range(11), 10, p)
        for rates in (_grid_rates(rows)[0], *_grid_rates([rows[0]] * 5)):
            assert rates[4:6] == (0.0, 0.0) and rates[6] == rates[3]


class TestThresholds:
    def test_no_crossing_reported(self):
        # a fully depolarizing channel leaves nothing to distill at any q
        with pytest.raises(NoThresholdError):
            find_threshold(
                ProtocolKind.BB84, "standard", channel=Channel(depolarizing=F(1))
            )

    @settings(max_examples=10, deadline=None)
    @given(p=_SOLVE_NOISE)
    # at p = 1/12 the gentle symmetric tetrahedron solve stops on its bracket, at |R| = 2.7e-10
    @example(p=F(1, 12))
    @example(p=F(1, 10))
    @pytest.mark.parametrize("mix", list(EnsembleMix))
    @pytest.mark.parametrize("family", ["standard", "gentle"])
    @pytest.mark.parametrize("protocol", ALL)
    def test_solve_returns_a_point_that_meets_the_stop_rule(self, protocol, family, mix, p):
        # checked where the solve stops; q_star may differ from the plain bisection's by ~1e-9
        channel = Channel(depolarizing=p)
        if _plain_bisection(protocol, mix, channel, family, enumerate_joint) is None:
            with pytest.raises(NoThresholdError):
                find_threshold(protocol, family, mix, channel)
            return
        res = find_threshold(protocol, family, mix, channel)

        def joint_at(q):
            return enumerate_joint(protocol, _strategy_for(family, q, mix), channel)

        joint = joint_at(res.q_star)
        if abs(key_rate(joint).r) >= 1e-10:
            assert key_rate(joint_at(res.q_star - 1e-9)).r > 0.0 > key_rate(joint_at(res.q_star + 1e-9)).r
        assert res.qber_star == float(joint.qber)

    @settings(max_examples=5, deadline=None)
    @given(p=_SOLVE_NOISE)
    @example(p=F(0))
    @pytest.mark.parametrize("mix", list(EnsembleMix))
    @pytest.mark.parametrize("family", ["standard", "gentle"])
    @pytest.mark.parametrize("protocol", ALL)
    def test_rate_does_not_increase_in_q(self, protocol, family, mix, p):
        # a property of the model: more interception never leaves more key (find_threshold does not rely on it)
        channel = Channel(depolarizing=p)
        rates = [
            key_rate(enumerate_joint(protocol, _strategy_for(family, i / 256, mix), channel)).r
            for i in range(257)
        ]
        assert all(later <= earlier for earlier, later in zip(rates, rates[1:]))

    def test_symmetric_threshold_rises_with_channel_noise(self):
        # the noise lowers one of Eve's two informations, whichever side of her the channel acts on
        # (TestChannelPlacement), and R subtracts only the smaller one: a higher q_star at higher p
        # comes from the model, not from a more tolerant protocol
        solves = [
            find_threshold(ProtocolKind.BB84, "standard", EnsembleMix.SYMMETRIC, Channel(depolarizing=p))
            for p in (F(0), F(1, 20), F(1, 10), F(1, 5))
        ]
        q_stars, qber_stars = [r.q_star for r in solves], [r.qber_star for r in solves]
        assert q_stars == pytest.approx([0.6821, 0.7055, 0.7172, 0.7322], abs=5e-5)
        assert qber_stars == pytest.approx([0.1705, 0.1925, 0.2114, 0.2464], abs=5e-5)
        for values in (q_stars, qber_stars):
            assert all(earlier < later for earlier, later in zip(values, values[1:]))

    # find_threshold's symmetric (q_star, qber_star) per family and p, for trine, BB84, tetra and six-state
    CLAIM = {
        ("standard", F(0)): ((0.6808, 0.2038), (0.6821, 0.1705), (0.6502, 0.2672), (0.6813, 0.2271)),
        ("standard", F(1, 10)): ((0.6828, 0.2390), (0.7172, 0.2114), (0.6526, 0.2959), (0.7098, 0.2629)),
        ("standard", F(1, 5)): ((0.6833, 0.2726), (0.7322, 0.2464), (0.6539, 0.3229), (0.7225, 0.2927)),
        ("gentle", F(0)): ((0.8900, 0.1663), (0.9224, 0.1534), (0.8841, 0.2262), (0.9286, 0.2096)),
        ("gentle", F(1, 10)): ((0.8916, 0.2069), (0.9287, 0.1916), (0.8870, 0.2618), (0.9344, 0.2431)),
        ("gentle", F(1, 5)): ((0.8925, 0.2454), (0.9328, 0.2279), (0.8890, 0.2948), (0.9381, 0.2743)),
    }

    def test_solves_take_few_evaluations(self, monkeypatch):
        # Chandrupatla's step takes 6 to 9 evaluations here, 7.36 on average; the Illinois step took 7 to 10, 8.94
        # (an evaluation of R is a probe, `_r_at`: a solve enumerates one joint, its answer's)
        calls = []
        monkeypatch.setattr(analysis, "_r_at", lambda *args: calls.append(args) or _r_at(*args))
        counts = []
        noise = [F(0), F(1, 20), F(1, 16), F(1, 10), F(1, 8)]
        for protocol, family, mix, p in itertools.product(ALL, ["standard", "gentle"], EnsembleMix, noise):
            calls.clear()
            find_threshold(protocol, family, mix, Channel(depolarizing=p))
            counts.append(len(calls))
        assert len(counts) == 120 and max(counts) <= 9
        assert sum(counts) / len(counts) <= 7.5

    # R curves that no model gives, to exercise the step's safeguards: a jump at an irrational point
    # (every step a bisection: 32 evaluations), a cubic flat at its root (12) and a line (the secant lands: 3)
    @pytest.mark.parametrize("curve", [
        lambda q: 1.0 if q < _ROOT else -1.0,
        lambda q: (_ROOT - q) ** 3,
        lambda q: _ROOT - q,
    ], ids=["step", "cubic", "line"])
    def test_probes_stay_inside_the_bracket_on_synthetic_curves(self, monkeypatch, curve):
        probes, joints = [], []

        def probe(protocol, family, mix, p, q):  # a stand-in probe of R: the synthetic curve at q
            probes.append(q)
            return curve(q)

        def joint(protocol, eve, channel):  # a stand-in joint: a QBER for the result
            joints.append(eve.q)
            return types.SimpleNamespace(qber=0.25)

        monkeypatch.setattr(analysis, "_r_at", probe)
        monkeypatch.setattr(analysis, "enumerate_joint", joint)
        res = find_threshold(ProtocolKind.TRINE, "standard")
        assert probes[:2] == [0.0, 1.0]
        lo, hi, stops = 0.0, 1.0, []
        for c in probes[2:]:
            assert lo < c < hi  # strictly inside the bracket it was taken from, so no probe repeats
            lo, hi = (c, hi) if curve(c) > 0.0 else (lo, c)
            stops.append(abs(curve(c)) < 1e-10 or hi - lo < 1e-9)
        assert len(set(probes)) == len(probes) <= 40
        # the first probe that meets the stop rule is the result
        assert stops == [False] * (len(stops) - 1) + [True]
        assert (res.q_star, res.qber_star) == (probes[-1], 0.25)
        # the one joint the solve enumerates is its result's
        assert joints == [probes[-1]]

    @pytest.mark.parametrize("family,p", list(CLAIM))
    def test_codes_tolerate_more_error_but_less_attack_than_their_basis_counterparts(self, family, p):
        # the paper's first claim holds in QBER and reverses in attack strength, at every p and in both families
        order = (ProtocolKind.TRINE, ProtocolKind.BB84, ProtocolKind.TETRAHEDRON, ProtocolKind.SIX_STATE)
        channel = Channel(depolarizing=p)
        solves = [find_threshold(protocol, family, EnsembleMix.SYMMETRIC, channel) for protocol in order]
        trine, bb84, tetra, six_state = solves
        for code, counterpart in ((trine, bb84), (tetra, six_state)):
            assert code.qber_star > counterpart.qber_star
            assert code.q_star < counterpart.q_star
        want = [pytest.approx(pair, abs=5e-5) for pair in self.CLAIM[family, p]]
        assert [(r.q_star, r.qber_star) for r in solves] == want


class TestWhatAThresholdIsNot:
    """A threshold QBER is where one modelled attack removes the one-way key: an upper bound on what a protocol
    tolerates, since that attack reaches it, and not a security guarantee."""

    # the closed-form one-way rates of the basis protocols against every attack, and where each reaches zero
    BOUNDS = {
        ProtocolKind.BB84: (bb84_one_way_rate, 0.110028),
        ProtocolKind.SIX_STATE: (six_state_one_way_rate, 0.126193),
    }

    @pytest.mark.parametrize("protocol", BASIS)
    def test_the_one_way_bounds(self, protocol):
        rate, bound = self.BOUNDS[protocol]
        assert round(one_way_bound(rate), 6) == bound

    @pytest.mark.parametrize("p", [F(0), F(1, 20)])
    @pytest.mark.parametrize("mix", list(EnsembleMix))
    @pytest.mark.parametrize("family", ["standard", "gentle"])
    @pytest.mark.parametrize("protocol", BASIS)
    def test_qber_star_lies_above_the_unconditional_bound(self, protocol, family, mix, p):
        # the closest is BB84 under the gentle attack at p = 0: 0.1534 against 0.1100
        rate, _ = self.BOUNDS[protocol]
        assert find_threshold(protocol, family, mix, Channel(depolarizing=p)).qber_star > one_way_bound(rate)


# the root of the synthetic R curves the solver is tried on
_ROOT = 1 / math.sqrt(2)


def _plain_bisection(protocol, mix, channel, family="standard", joint=_reference_joint):
    """(q_star, qber_star) of a plain bisection of R over q in [0, 1], or None if R does not cross zero.

    Every midpoint is a `joint` (the reference walk by default) and a key_rate.
    It stops at a midpoint with |R| < 1e-10 or once the interval is narrower
    than 1e-9, the rule find_threshold applies to its probes.
    """

    def joint_at(q):
        return joint(protocol, _strategy_for(family, q, mix), channel)

    r_lo, r_hi = (key_rate(joint_at(q)).r for q in (0.0, 1.0))
    if not r_lo > 0.0 > r_hi:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo >= 1e-9:
        mid = (lo + hi) / 2
        at_mid = joint_at(mid)
        r = key_rate(at_mid).r
        if abs(r) < 1e-10:
            break
        lo, hi = (mid, hi) if r > 0.0 else (lo, mid)
    return mid, float(at_mid.qber)


# every protocol noiseless and symmetric, and two noisy one-sided solves
SOLVE_CASES = [(protocol, EnsembleMix.SYMMETRIC, F(0)) for protocol in ALL] + [
    (ProtocolKind.TETRAHEDRON, EnsembleMix.BOB_ONLY, F(1, 20)),
    (ProtocolKind.SIX_STATE, EnsembleMix.ALICE_ONLY, F(1, 16)),
]


class TestInterceptResendIsAffine:
    """Intercept/resend weights are affine in q, gentle ones linear in (1, q, sqrt(1 - q^2)); solves use both."""

    @settings(max_examples=40, deadline=None)
    @given(
        protocol=st.sampled_from(ALL),
        mix=st.sampled_from(list(EnsembleMix)),
        q=st.fractions(min_value=0, max_value=1, max_denominator=60),
        p=st.sampled_from([F(0), F(1, 7)]),
    )
    def test_unnormalised_table_is_affine(self, protocol, mix, q, p):
        channel = Channel(depolarizing=p)

        def unnormalised(q):
            return _reference_walk(protocol, InterceptResend(q=q, mix=mix), channel)

        u0, u1, uq = unnormalised(F(0)), unnormalised(F(1)), unnormalised(q)
        for key in {**u0, **u1, **uq}:
            assert uq.get(key, 0) == (1 - q) * u0.get(key, 0) + q * u1.get(key, 0)

    @pytest.mark.parametrize("family", ["standard", "gentle"])
    @pytest.mark.parametrize("protocol,mix,p", SOLVE_CASES)
    def test_threshold_matches_per_q_bisection(self, protocol, mix, p, family):
        channel = Channel(depolarizing=p)
        res = find_threshold(protocol, family, mix, channel)
        assert abs(res.q_star - _plain_bisection(protocol, mix, channel, family)[0]) <= 1e-9

    # a standard solve walks strength 1; a gentle one strengths 0, 3/5 and 1, and only 0 and 3/5
    # after a standard solve: each walk gives the tables at p = 0 and 1
    @pytest.mark.parametrize("family,count,warm", [("standard", 1, None), ("gentle", 3, None),
                                                   ("gentle", 2, "standard")])
    @pytest.mark.parametrize("protocol", ALL)
    def test_solve_reports_its_enumerations(self, monkeypatch, protocol, family, count, warm):
        evaluations = []

        def evaluating(*args, **kwargs):
            evaluations.append(args)
            return enumerate_joint(*args, **kwargs)

        def walks():  # each miss of the walk cache is one walk
            return _walk.cache_info().misses

        monkeypatch.setattr(analysis, "enumerate_joint", evaluating)
        _corners.cache_clear()
        _walk.cache_clear()
        channel = Channel(depolarizing=F(1, 20))
        if warm is not None:
            find_threshold(protocol, warm, EnsembleMix.BOB_ONLY, channel)
        before, evaluations[:] = walks(), []
        res = find_threshold(protocol, family, EnsembleMix.BOB_ONLY, channel)
        # the walks are the family's node strengths not yet cached, not the solve's evaluations of R
        assert walks() - before == count
        assert 0 < len(evaluations) <= 15
        # a second solve walks nothing and gives the same result
        again = find_threshold(protocol, family, EnsembleMix.BOB_ONLY, channel)
        assert walks() - before == count and again == res
        # the corners are cached: a solve under another channel walks nothing
        channel = Channel(depolarizing=F(1, 16))
        find_threshold(protocol, family, EnsembleMix.BOB_ONLY, channel)
        assert walks() - before == count


def _mixed_rate(protocol, family, q, p, lam):
    """R when Eve measures with Alice's ensemble with probability lam: (1 - t) U_0 + t (lam U_alice + (1 - lam) U_bob)."""
    joint = _reference_joint(protocol, _strategy_for(family, q), Channel(depolarizing=p), sides=(lam, 1 - lam))
    return key_rate(joint).r


class TestSymmetricMixIsEvesBest:
    """The paper's Eve pretends to be either party with even odds: at p = 0 no other odds serve her better."""

    @settings(max_examples=12, deadline=None)
    @given(lam=st.fractions(min_value=0, max_value=1, max_denominator=16),
           q=st.fractions(min_value=0, max_value=1, max_denominator=128))
    @pytest.mark.parametrize("family", ["standard", "gentle"])
    @pytest.mark.parametrize("protocol", ALL)
    def test_no_mix_beats_the_symmetric_one(self, protocol, family, lam, q):
        # p = 0 only: with noise a mix off 1/2 can serve Eve better (the test below)
        mixed = _mixed_rate(protocol, family, q, 0, lam)
        symmetric = key_rate(enumerate_joint(protocol, _strategy_for(family, q, EnsembleMix.SYMMETRIC))).r
        assert mixed >= symmetric - 1e-12

    @pytest.mark.parametrize("lam,mix", [(F(1), EnsembleMix.ALICE_ONLY), (F(1, 2), EnsembleMix.SYMMETRIC),
                                         (F(0), EnsembleMix.BOB_ONLY)])
    @pytest.mark.parametrize("family,q", [("standard", F(2, 3)), ("gentle", F(4, 5))])
    @pytest.mark.parametrize("protocol", ALL)
    def test_the_ends_and_middle_of_the_mix_are_the_three_mixes(self, protocol, family, q, lam, mix):
        # odds 1, 1/2 and 0 for Alice's ensemble are her ensemble alone, the paper's even odds and Bob's alone;
        # key_rate adds its floats in key order, and the walk's order is not the corners'
        p = F(1, 20)
        want = key_rate(enumerate_joint(protocol, _strategy_for(family, q, mix), Channel(depolarizing=p))).r
        assert _mixed_rate(protocol, family, q, p, lam) == pytest.approx(want, abs=1e-12)

    def test_on_a_noisy_channel_a_tilted_mix_serves_eve_better(self):
        # the noise lowers one of Eve's two informations, whichever side of her the channel acts on, and R
        # subtracts only the smaller one, so at p > 0 the two sides no longer mirror each other: on the trine
        # under intercept/resend, odds of 9/16 for Alice's ensemble take R below zero where the paper's
        # symmetric attack leaves it positive
        q, p = F(87, 128), F(1, 20)
        symmetric = _mixed_rate(ProtocolKind.TRINE, "standard", q, p, F(1, 2))
        assert symmetric == key_rate(enumerate_joint(ProtocolKind.TRINE, _sym(q), Channel(depolarizing=p))).r
        assert symmetric == pytest.approx(0.0018, abs=1e-4)
        assert _mixed_rate(ProtocolKind.TRINE, "standard", q, p, F(9, 16)) == pytest.approx(-0.0096, abs=1e-4)


# Eve's side mirrored: the ensemble she measures with is the other party's
_MIRRORED = {EnsembleMix.ALICE_ONLY: EnsembleMix.BOB_ONLY, EnsembleMix.BOB_ONLY: EnsembleMix.ALICE_ONLY,
             EnsembleMix.SYMMETRIC: EnsembleMix.SYMMETRIC}


def _before_eve(protocol, q, p, mix) -> dict:
    """The unnormalised sifted table {(a, b, e): mass} of intercept/resend with the channel before Eve.

    The round Eve leaves alone reaches Bob through the channel: Bob's row of
    the signal in `_stages` at p. Eve measures the depolarized signal, so she
    sees outcome m with probability (1 - p) p_m + p / n, p_m her row at
    p = 0, and forwards her state m clean: Bob's row of her slot at p = 0.
    """
    n = protocol.n_signals
    n_opts = len(announcement_options(protocol, 1))
    clean, noisy, sifting = _stages(protocol, 1, 0), _stages(protocol, 1, p), _sifting(protocol)
    table = {}
    for j in range(1, n + 1):
        branches = [(1 - q, 0, noisy)] + [
            (q * w_side * ((1 - p) * p_m + p * F(1, n)), 1 + side * n + m - 1, clean)
            for side, w_side in enumerate(_SIDE_WEIGHTS[mix])
            for m, p_m in enumerate(clean.eve[side * n + j - 1], 1)
        ]
        for w, slot, stages in branches:
            row = slot * n + j - 1
            for k, pk in enumerate(stages.bob[row]):
                mass = w * pk * F(1, n * n_opts)
                for key in sifting[(row * n + k) * n_opts:(row * n + k + 1) * n_opts]:
                    if key is not None and mass:
                        table[key] = table.get(key, 0) + mass
    return table


def _gentle_before_eve(protocol, q, p, mix) -> dict:
    """The unnormalised sifted table {(a, b, e): mass} of the gentle attack with the channel before Eve.

    Eve measures every depolarized signal (1 - p) rho_j + p I/2 at strength
    q, so she sees outcome m with probability (1 - p) p_m + p / n, p_m her
    row at p = 0, and forwards K_m rho' K_m = (1 - p) K_m rho_j K_m +
    (p / n) rho(q u_m). Bob, with a clean channel after her, sees
    (1 - p) p_m row(b_mj) + (p / n) row(q u_m): row(b_mj) is the slot's
    gentle row at p = 0, and row(q u_m) the slot's full-strength row at
    p = 1 - q, whose contrast is q. Both branches read the slot's sifting.
    """
    n = protocol.n_signals
    n_opts = len(announcement_options(protocol, 1))
    gentle, contracted, sifting = _stages(protocol, q, 0), _stages(protocol, 1, 1 - q), _sifting(protocol)
    table = {}
    for j in range(1, n + 1):
        for side, w_side in enumerate(_SIDE_WEIGHTS[mix]):
            for m, p_m in enumerate(gentle.eve[side * n + j - 1], 1):
                row = (1 + side * n + m - 1) * n + j - 1
                bob = [(1 - p) * p_m * b + p * F(1, n) * c for b, c in zip(gentle.bob[row], contracted.bob[row])]
                for k, pk in enumerate(bob):
                    mass = w_side * pk * F(1, n * n_opts)
                    for key in sifting[(row * n + k) * n_opts:(row * n + k + 1) * n_opts]:
                        if key is not None and mass:
                            table[key] = table.get(key, 0) + mass
    return table


class TestChannelPlacement:
    """Under both attacks the channel acting before Eve is today's round with a and b swapped."""

    @pytest.mark.parametrize("p", [F(1, 20), F(1, 10), F(1, 3)])
    @pytest.mark.parametrize("q", [F(1, 3), F(2, 3), F(1)])
    @pytest.mark.parametrize("mix", list(EnsembleMix))
    @pytest.mark.parametrize("protocol", ALL)
    def test_before_eve_is_after_eve_with_the_parties_swapped(self, protocol, mix, q, p):
        # R = I(A:B) - min(I(A:E), I(B:E)) is symmetric under the swap, so where the channel sits
        # changes no rate and no threshold
        u = _before_eve(protocol, q, p, mix)
        p_sift = sum(u.values())
        swapped = {(b, a, e): v / p_sift for (a, b, e), v in u.items()}
        joint = enumerate_joint(protocol, InterceptResend(q, _MIRRORED[mix]), Channel(depolarizing=p))
        assert p_sift == joint.p_sift and swapped == joint.table

    @pytest.mark.parametrize("p", [F(1, 20), F(1, 10), F(1, 3)])
    @pytest.mark.parametrize("q", [F(3, 5), F(4, 5)])
    @pytest.mark.parametrize("mix", list(EnsembleMix))
    @pytest.mark.parametrize("protocol", ALL)
    def test_gentle_before_eve_is_after_eve_with_the_parties_swapped(self, protocol, mix, q, p):
        # the walk is exact (sqrt(1 - q^2) is rational at these q) and enumerate_joint's gentle joint floats;
        # unswapped, the tables differ by 2.5e-3 or more at every p here
        u = _gentle_before_eve(protocol, q, p, mix)
        p_sift = sum(u.values())
        assert type(p_sift) is F
        swapped = {(b, a, e): v / p_sift for (a, b, e), v in u.items()}
        joint = enumerate_joint(protocol, GentleIntercept(q, _MIRRORED[mix]), Channel(depolarizing=p))
        assert joint.p_sift == pytest.approx(p_sift, rel=0, abs=1e-12)
        keys = dict.fromkeys([*swapped, *joint.table])
        want = [swapped.get(key, 0) for key in keys]
        assert [joint.table.get(key, 0) for key in keys] == pytest.approx(want, rel=0, abs=1e-12)


# exact or float inputs, the ends of [0, 1] included
_EXACT_OR_FLOAT = st.one_of(_STRENGTH, st.floats(min_value=0, max_value=1), st.sampled_from([0.0, 1.0]))


class TestCorners:
    """enumerate_joint evaluates cached corner tables; the branch walk is its reference."""

    @settings(max_examples=100, deadline=None)
    @given(protocol=st.sampled_from(ALL), family=st.sampled_from(["none", "standard", "gentle"]),
           mix=_MIXES, q=_EXACT_OR_FLOAT, p=_EXACT_OR_FLOAT)
    # a float q or p, at an end of [0, 1] too, with the other exact
    @example(protocol=ProtocolKind.TRINE, family="standard", mix=EnsembleMix.SYMMETRIC, q=0.0, p=F(1, 7))
    @example(protocol=ProtocolKind.TETRAHEDRON, family="standard", mix=EnsembleMix.SYMMETRIC, q=1.0, p=F(1, 7))
    @example(protocol=ProtocolKind.BB84, family="standard", mix=EnsembleMix.SYMMETRIC, q=F(2, 5), p=0.0)
    @example(protocol=ProtocolKind.SIX_STATE, family="standard", mix=EnsembleMix.SYMMETRIC, q=F(2, 5), p=1.0)
    @example(protocol=ProtocolKind.TRINE, family="none", mix=EnsembleMix.SYMMETRIC, q=F(0), p=0.0)
    @example(protocol=ProtocolKind.TETRAHEDRON, family="none", mix=EnsembleMix.SYMMETRIC, q=F(0), p=1.0)
    def test_matches_the_walk(self, protocol, family, mix, q, p):
        eve, channel = _strategy_for(family, q, mix), Channel(depolarizing=p)
        got, want = enumerate_joint(protocol, eve, channel), _reference_joint(protocol, eve, channel)
        if family != "gentle" and isinstance(p, F) and (eve is None or isinstance(q, F)):
            assert (got.p_sift, type(got.p_sift)) == (want.p_sift, type(want.p_sift))
            typed = [{key: (v, type(v)) for key, v in jd.table.items()} for jd in (got, want)]
            assert typed[0] == typed[1]
        else:  # any float input, or the gentle attack, gives floats
            assert type(got.p_sift) is float and all(type(v) is float for v in got.table.values())
            assert abs(got.p_sift - want.p_sift) <= 1e-12
            for key in {**got.table, **want.table}:
                assert abs(got.table.get(key, 0) - want.table.get(key, 0)) <= 1e-12

    def test_corners_are_walked_once_per_key(self):
        _corners.cache_clear()
        _walk.cache_clear()
        for _ in range(2):
            for protocol in ALL:
                for family in ("none", "standard", "gentle"):
                    for mix in EnsembleMix:
                        eve = _strategy_for(family, F(1, 3), mix)
                        enumerate_joint(protocol, eve, Channel(depolarizing=F(1, 7)))
        info = _corners.cache_info()
        # no eavesdropper reads the standard symmetric corners: 4 protocols x (3 standard + 3 gentle mixes)
        assert info.misses == info.currsize == 24
        # and they share the walks: 4 protocols x strengths {0, 3/5, 1}, each walk at p = 0 and 1;
        # every strength the corners walk is exact
        walks = _walk.cache_info()
        assert walks.misses == walks.currsize == 12
        for protocol in ALL:
            for strength in (0, F(3, 5), 1):
                for parts in _walk(protocol, strength):
                    assert parts and all(type(v) is F for v in parts.values())
        assert _walk.cache_info().misses == 12

    @pytest.mark.parametrize("protocol", ALL)
    @pytest.mark.parametrize("family,mix", CORNER_KEYS)
    def test_corners_are_the_reference_walks(self, protocol, family, mix):
        # the same keys in the same order, the same scale and the same integers as one
        # weighted walk per node and p
        keys, scale, tables, _, _ = _corners(protocol, family, mix)
        want_keys, want_scale, want_tables = _reference_corners(protocol, family, mix)
        assert keys == want_keys
        assert (scale, type(scale)) == (want_scale, F)
        assert tables == want_tables and all(type(v) is int for t in tables for v in t)

    # the node strengths, and one off the nodes whose sqrt(1 - q^2) = 15/17 is rational too
    @pytest.mark.parametrize("strength", [F(0), F(3, 5), F(1), F(8, 17)])
    @pytest.mark.parametrize("protocol", ALL)
    def test_one_pass_is_the_walk_at_either_end(self, protocol, strength):
        # item for item, in the same key order and with the same types as a walk at p = 0 and one at p = 1
        for p, parts in enumerate(_walk(protocol, strength)):
            want = _reference_parts(protocol, strength, p)
            assert [(key, _bits(v)) for key, v in parts.items()] == [(key, _bits(v)) for key, v in want.items()]

    @settings(max_examples=40, deadline=None)
    @given(protocol=st.sampled_from(ALL), q=_STRENGTH,
           p=st.fractions(min_value=0, max_value=1, max_denominator=20).filter(lambda p: 0 < p < 1))
    def test_a_walk_at_any_p_mixes_the_two_ends(self, protocol, q, p):
        # the parts are affine in p; inside (0, 1) Bob sees every outcome, so the keys are those at p = 1
        strength = 2 * q / (1 + q * q)  # a Pythagorean strength: sqrt(1 - q^2) is rational
        w0, w1 = _walk(protocol, strength)
        mixed = [(key, (1 - p) * w0.get(key, 0) + p * v) for key, v in w1.items()]
        assert list(_reference_parts(protocol, strength, p).items()) == mixed

    def test_every_channel_pattern_is_read_from_the_corner_entry(self):
        # 24 corner keys, each read for both of (1 - p, p) nonzero and for one at p = 0 or 1,
        # on the float branch and the exact one: one lookup per evaluation, no entry besides the 24
        _corners.cache_clear()
        calls = 0
        for protocol, (family, mix), p in itertools.product(ALL, CORNER_KEYS, (0.0, 0.5, 1.0, F(1, 7))):
            for xs, d in (([0.5], None), ([1], 3)):
                _evaluate(protocol, family, mix, xs, d, p)
                calls += 1
        info = _corners.cache_info()
        assert info.misses == info.currsize == 24
        assert info.hits == calls - 24


class TestIntegerMasses:
    """Exact inputs give integer masses, and the joint their Fractions."""

    @pytest.mark.parametrize("q,p", [(1, 0), (0, 1), (1, 1)])
    def test_numpy_integers_are_ints(self, q, p):
        want = enumerate_joint(ProtocolKind.SIX_STATE, _sym(q), Channel(depolarizing=p))
        got = enumerate_joint(ProtocolKind.SIX_STATE, _sym(np.int64(q)), Channel(depolarizing=np.int64(p)))
        assert got.p_sift == want.p_sift and got.table == want.table
        assert all(type(v) is F for v in got.table.values())
        grid = _family_mix_grid(_sym(np.int64(q)))
        [(_, values, total, _)] = _evaluate(ProtocolKind.SIX_STATE, *grid, np.int64(p))
        assert all(type(v) is int for v in values) and type(total) is int

    @settings(max_examples=40, deadline=None)
    @given(protocol=st.sampled_from(ALL), family=st.sampled_from(["none", "standard"]),
           mix=_MIXES, q=_STRENGTH, p=_NOISE)
    def test_pairs_are_the_floats_of_the_table_marginals(self, protocol, family, mix, q, p):
        eve = _strategy_for(family, q, mix)
        [(layout, values, total, den)] = _evaluate(protocol, *_family_mix_grid(eve), p)
        assert den is not None
        marginals = ({}, {}, {})
        for (a, b, e), v in enumerate_joint(protocol, eve, Channel(depolarizing=p)).table.items():
            for pair, key in zip(marginals, ((a, b), (a, e), (b, e))):
                pair[key] = pair.get(key, F(0)) + v
        for got, want in zip(_pair_floats(zip(layout, values), total), marginals):
            assert [(key, v, type(v)) for key, v in got.items()] == [(key, float(v), float) for key, v in want.items()]


    @settings(max_examples=40, deadline=None)
    @given(protocol=st.sampled_from(ALL), family=st.sampled_from(["none", "standard"]),
           mix=_MIXES, q=_STRENGTH, p=_NOISE)
    def test_exact_joint_is_the_masses_over_their_total(self, protocol, family, mix, q, p):
        eve = _strategy_for(family, q, mix)
        grid = _family_mix_grid(eve)
        [(layout, values, total, den)] = _evaluate(protocol, *grid, p)
        # the row _grid_rates groups: one int mass >= 1 per key of its layout, a subsequence of the corner keys
        assert all(type(v) is int and v > 0 for v in values)
        assert len(layout) == len(values)
        corner_keys = iter(_corners(protocol, grid[0], grid[1])[0])
        assert all(key in corner_keys for key in layout)  # each key found past the one before it: in order
        joint = enumerate_joint(protocol, eve, Channel(depolarizing=p))
        assert joint.p_sift == F(total, den)
        assert list(joint.table.items()) == [(key, F(v, total)) for key, v in zip(layout, values)]
        # a Fraction sum is the Fraction of the summed masses; the sum of nothing is the int 0
        errors = [v for (a, b, _), v in zip(layout, values) if a != b]
        assert (type(joint.qber), joint.qber) == ((F, F(sum(errors), total)) if errors else (int, 0))


class TestSiftInversion:
    # the attainable sifting band [lo, hi] of intercept/resend over q in [0, 1]
    BANDS = {ProtocolKind.TRINE: (F(1, 2), F(7, 12)), ProtocolKind.TETRAHEDRON: (F(1, 3), F(4, 9))}

    @settings(max_examples=200, deadline=None)
    @given(protocol=st.sampled_from(EXCLUSION), rate=st.fractions(min_value=0, max_value=1),
           margin=st.fractions(min_value=0, max_value=F(1, 4)))
    @example(protocol=ProtocolKind.TRINE, rate=F(9, 20), margin=F(1, 20))  # the band's lower edge
    @example(protocol=ProtocolKind.TETRAHEDRON, rate=F(4, 9), margin=F(0))
    @example(protocol=ProtocolKind.TETRAHEDRON, rate=F(1), margin=F(1, 4))
    # the band's ends and a point inside it: q = 0, 1 and 1/7
    @example(protocol=ProtocolKind.TRINE, rate=F(1, 2), margin=F(0))
    @example(protocol=ProtocolKind.TRINE, rate=F(7, 12), margin=F(0))
    @example(protocol=ProtocolKind.TETRAHEDRON, rate=F(1, 3), margin=F(0))
    @example(protocol=ProtocolKind.TETRAHEDRON, rate=F(22, 63), margin=F(0))
    # out of the model (q_raw 2, clamped to 1), and 3/5 (q_raw 6/5) flagged unless the margin takes it in
    @example(protocol=ProtocolKind.TRINE, rate=F(2, 3), margin=F(0))
    @example(protocol=ProtocolKind.TRINE, rate=F(3, 5), margin=F(0))
    @example(protocol=ProtocolKind.TRINE, rate=F(3, 5), margin=F(1, 20))
    def test_the_estimate_is_the_line_clamped_and_flagged(self, protocol, rate, margin):
        lo, hi = self.BANDS[protocol]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            est = estimate_q_from_sift(protocol, rate, margin)
        assert caught == []
        assert est.in_model == (lo - margin <= rate <= hi + margin)
        assert est.q_raw == AnalyticCurves(protocol).sift_to_q(rate) and type(est.q_raw) is F
        assert est.q == min(max(est.q_raw, 0), 1)

    @pytest.mark.parametrize("rate", [math.nan, -0.1, F(11, 10), True, "0.55", None])
    def test_rejects_a_rate_that_is_not_a_real_number_in_the_unit_interval(self, rate):
        with pytest.raises(ValueError, match="observed sifting rate must"):
            estimate_q_from_sift(ProtocolKind.TRINE, rate)

    # 0.55 lies inside the trine band [1/2, 7/12]; a negative or NaN margin would flag it
    @pytest.mark.parametrize("margin", [-0.1, math.nan, True, "0.1", None])
    def test_rejects_a_margin_that_is_not_a_real_number_at_least_zero(self, margin):
        with pytest.raises(ValueError, match="margin must be a real number >= 0"):
            estimate_q_from_sift(ProtocolKind.TRINE, 0.55, margin=margin)

    @settings(max_examples=80, deadline=None)
    @given(protocol=st.sampled_from(EXCLUSION), mix=_MIXES, q=_STRENGTH)
    def test_the_sift_line_is_the_model(self, protocol, mix, q):
        p_sift = enumerate_joint(protocol, InterceptResend(q, mix)).p_sift
        est = estimate_q_from_sift(protocol, p_sift)
        assert est.q == q and type(est.q) is F and est.in_model

    @pytest.mark.parametrize("mix", list(EnsembleMix))
    @pytest.mark.parametrize("protocol", BASIS)
    def test_basis_sift_rate_is_flat_in_q(self, protocol, mix):
        lo, hi = (enumerate_joint(protocol, InterceptResend(q, mix)).p_sift for q in (F(0), F(1)))
        assert lo == hi
        with pytest.raises(ValueError, match="no estimate of q"):
            _sift_line(protocol)
        with pytest.raises(ValueError, match="no estimate of q"):
            estimate_q_from_sift(protocol, lo)

    @pytest.mark.parametrize("protocol", EXCLUSION)
    def test_sift_line_is_the_closed_form(self, protocol):
        curves = AnalyticCurves(protocol)
        lo, hi = _sift_line(protocol)
        assert (lo, hi) == (curves.p_sift(0), curves.p_sift(1))
        assert all(type(v) is F for v in (lo, hi))


def _disclosure_share(lo, hi, at, q, n):
    """The share m / (n s) of the sifted bits that a disclosure of m of them spends to learn the QBER
    as precisely as the sift rate of n signals tells it; intercept/resend, symmetric mix, p = 0.

    (lo, hi) is the sift line and at(x) the (p_sift, qber) at intercepted fraction x. p_sift and
    the unnormalised a != b mass are affine in q, so the QBER's slope is exact. Both variances are
    binomial, as in montecarlo.proportion_se: the sift rate's, carried to the QBER through
    q = (rate - lo) / (hi - lo), and that of the m disclosed bits.
    """
    (s, e), (s0, e0), (s1, e1) = at(q), at(F(0)), at(F(1))
    assert (s0, s1) == (lo, hi) and s == lo + q * (hi - lo)
    d0, d1 = s0 * e0, s1 * e1
    assert s * e == d0 + q * (d1 - d0)
    slope = (d1 - d0 - e * (hi - lo)) / s  # d(D / s)/dq = (D' - E s') / s
    variance = (slope / (hi - lo)) ** 2 * s * (1 - s) / n
    m = e * (1 - e) / variance
    return m / (n * s)


class TestSiftEstimateWorth:
    """The QBER read off the sift rate saves a share of the sifted bits that disclosure would spend."""

    SHARE = {ProtocolKind.TRINE: F(1, 6), ProtocolKind.TETRAHEDRON: F(1, 3)}

    @staticmethod
    def _shares(protocol, q, n):
        """The share read off the corner tables, and off the closed forms."""
        curves = AnalyticCurves(protocol)

        def corners(x):
            jd = enumerate_joint(protocol, _sym(x))
            return jd.p_sift, jd.qber

        def closed(x):
            return curves.p_sift(x), curves.qber(x)

        return (_disclosure_share(*_sift_line(protocol), corners, q, n),
                _disclosure_share(curves.p_sift(F(0)), curves.p_sift(F(1)), closed, q, n))

    @settings(max_examples=30, deadline=None)
    @given(protocol=st.sampled_from(EXCLUSION), q=_STRENGTH.filter(lambda q: q > 0),
           n=st.integers(min_value=1, max_value=10**12))
    def test_share_is_linear_in_q_and_free_of_n(self, protocol, q, n):
        # the share is q/6 (trine) or q/3 (tetrahedron) from the corners and the closed forms alike
        assert self._shares(protocol, q, n) == (self.SHARE[protocol] * q,) * 2

    @pytest.mark.parametrize("protocol,q,share,percent", [
        (ProtocolKind.TRINE, F(1, 5), F(1, 30), 3.3), (ProtocolKind.TRINE, F(1, 3), F(1, 18), 5.6),
        (ProtocolKind.TETRAHEDRON, F(1, 5), F(1, 15), 6.7), (ProtocolKind.TETRAHEDRON, F(1, 3), F(1, 9), 11.1),
    ])
    @pytest.mark.parametrize("n", [1000, 10**6])
    def test_pinned_shares(self, protocol, q, share, percent, n):
        assert self._shares(protocol, q, n) == (share, share)
        assert round(100 * float(share), 1) == percent

    def test_variances_are_proportion_se_squared(self):
        s = enumerate_joint(ProtocolKind.TRINE, _sym(F(1, 5))).p_sift
        n = s.denominator * 1000
        assert montecarlo.proportion_se(int(s * n), n) ** 2 == pytest.approx(float(s * (1 - s) / n), rel=1e-12)


def _sift_and_ab(joint) -> tuple:
    """p_sift and the (a, b) marginal of a joint, the marginal summed over Eve's guess."""
    ab = {}
    for (a, b, _), v in joint.table.items():
        ab[a, b] = ab.get((a, b), 0) + v
    return joint.p_sift, ab


class TestOneBlochShrink:
    """Every modelled attack reaches Alice and Bob as one Bloch-vector shrink, as the channel does.

    So p_sift and the (a, b) marginal, hence the QBER read off the sift rate,
    move along one line for every attack: only Eve's guesses tell them apart.
    """

    # the dimension of the span of a protocol's states: intercept/resend on a share q shrinks by 1 - q (1 - 1/D)
    SPAN = {ProtocolKind.TRINE: 2, ProtocolKind.BB84: 2, ProtocolKind.TETRAHEDRON: 3, ProtocolKind.SIX_STATE: 3}

    @settings(max_examples=200, deadline=None)
    @given(protocol=st.sampled_from(ALL), mix=_MIXES, q=_STRENGTH, p=_NOISE)
    # trine at q = 3/10, p = 1/10 is no eavesdropper at p' = 47/200: 1 - p' = (9/10)(1 - (3/10)(1/2))
    @example(protocol=ProtocolKind.TRINE, mix=EnsembleMix.SYMMETRIC, q=F(3, 10), p=F(1, 10))
    @example(protocol=ProtocolKind.SIX_STATE, mix=EnsembleMix.ALICE_ONLY, q=F(1), p=F(1, 3))
    def test_intercept_resend_is_a_channel(self, protocol, mix, q, p):
        shrink = (1 - p) * (1 - q * (1 - F(1, self.SPAN[protocol])))
        got = enumerate_joint(protocol, InterceptResend(q, mix), Channel(depolarizing=p))
        want = enumerate_joint(protocol, None, Channel(depolarizing=1 - shrink))
        (sift, ab), (want_sift, want_ab) = _sift_and_ab(got), _sift_and_ab(want)
        assert type(sift) is F and all(type(v) is F for v in ab.values())
        assert (sift, ab) == (want_sift, want_ab)

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.1, 1 / 3])
    @pytest.mark.parametrize("mix", list(EnsembleMix))
    @pytest.mark.parametrize("protocol", ALL)
    def test_gentle_at_equal_shrink_is_intercept_resend(self, protocol, mix, p):
        # GentleIntercept(g) with g = sqrt(q (2 - q)) shrinks as InterceptResend(q) does; the gentle
        # joint is floats, so within 1e-15
        for q in (F(i, 20) for i in range(21)):
            channel = Channel(depolarizing=p)
            sift, ab = _sift_and_ab(enumerate_joint(protocol, GentleIntercept(math.sqrt(q * (2 - q)), mix), channel))
            want_sift, want_ab = _sift_and_ab(enumerate_joint(protocol, InterceptResend(q, mix), channel))
            assert abs(sift - want_sift) <= 1e-15
            assert ab.keys() == want_ab.keys()
            assert all(abs(ab[key] - want_ab[key]) <= 1e-15 for key in ab)


# exact and float inputs, with the ends of [0, 1] in both arithmetics and the float just below 1
_RATE_INPUTS = st.one_of(
    _STRENGTH, st.floats(min_value=0, max_value=1), st.sampled_from([F(0), F(1), 0.0, 1.0, 1 - 2**-52])
)


_NUMPY_SCALARS = st.one_of(
    st.floats(min_value=0, max_value=1).map(np.float64),
    st.floats(min_value=0, max_value=1).map(np.float32),
    st.integers(min_value=0, max_value=1).map(np.int64),
)


class TestRates:
    """The CLI's rate rows: _rates of _evaluate's masses are the joint's floats and key_rate's, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(protocol=st.sampled_from(ALL), family=st.sampled_from(["none", "standard", "gentle"]),
           mix=_MIXES, q=_RATE_INPUTS, p=_RATE_INPUTS)
    @example(protocol=ProtocolKind.TRINE, family="standard", mix=EnsembleMix.SYMMETRIC, q=F(1), p=1 - 2**-52)
    @example(protocol=ProtocolKind.SIX_STATE, family="gentle", mix=EnsembleMix.BOB_ONLY, q=1 - 2**-52, p=F(1))
    def test_equal_the_joint_and_key_rate(self, protocol, family, mix, q, p):
        eve, channel = _strategy_for(family, q, mix), Channel(depolarizing=p)
        joint = enumerate_joint(protocol, eve, channel)
        report = key_rate(joint)
        want = [float(joint.p_sift), float(joint.qber), float(joint.p_eve_abstain),
                report.i_ab, report.i_ae, report.i_be, report.r]
        [row] = _evaluate(protocol, *_family_mix_grid(eve), p)
        got = _rates(*row)
        assert type(got) is tuple and all(type(v) is float for v in got)
        assert [float.hex(v) for v in got] == [float.hex(v) for v in want]

    @settings(max_examples=200, deadline=None)
    @given(protocol=st.sampled_from(ALL), family=st.sampled_from(["none", "standard", "gentle"]),
           mix=_MIXES, q=st.one_of(_NUMPY_SCALARS, _RATE_INPUTS), p=st.one_of(_NUMPY_SCALARS, _RATE_INPUTS))
    @example(protocol=ProtocolKind.TRINE, family="gentle", mix=EnsembleMix.SYMMETRIC, q=np.float32(0.3), p=F(0))
    @example(protocol=ProtocolKind.TETRAHEDRON, family="standard", mix=EnsembleMix.ALICE_ONLY,
             q=np.int64(1), p=np.float32(0.1))
    def test_numpy_scalars_are_their_python_numbers(self, protocol, family, mix, q, p):
        # a numpy q or p gives the joint and the rates of its float() or int(), bit for bit
        def observed(q, p):
            eve = _strategy_for(family, q, mix)
            joint = enumerate_joint(protocol, eve, Channel(depolarizing=p))
            [row] = _evaluate(protocol, *_family_mix_grid(eve), p)
            table = [(key, _bits(v)) for key, v in joint.table.items()]
            return _bits(joint.p_sift), table, _rate_bits(_rates(*row))

        assert observed(q, p) == observed(*(v.item() if isinstance(v, np.generic) else v for v in (q, p)))

    @pytest.mark.parametrize("den", [None, 1, 12])
    def test_need_a_positive_total(self, den):
        with pytest.raises(ValueError, match=re.escape("p_sift must lie in (0, 1]")):
            _rates((), [], 0, den)

    @pytest.mark.parametrize("family", ["standard", "gentle"])
    @pytest.mark.parametrize("protocol", ALL)
    def test_solve_enumerates_one_joint_through_the_module_at_its_answer(self, monkeypatch, protocol, family):
        # the bench's tracer counts these module attributes under each solve: a probe reads R off its
        # `_evaluate` row, so a solve enumerates its answer's joint and builds no RateReport
        calls = {"enumerate_joint": [], "key_rate": []}
        for name in calls:
            def counted(*args, _original=getattr(analysis, name), _name=name, **kwargs):
                calls[_name].append(args)
                return _original(*args, **kwargs)
            monkeypatch.setattr(analysis, name, counted)
        mix, channel = EnsembleMix.ALICE_ONLY, Channel(depolarizing=F(1, 20))
        res = find_threshold(protocol, family, mix, channel)
        assert calls["enumerate_joint"] == [(protocol, _strategy_for(family, res.q_star, mix), channel)]
        assert calls["key_rate"] == []

    @settings(max_examples=300, deadline=None)
    @given(protocol=st.sampled_from(ALL), family=st.sampled_from(["standard", "gentle"]), mix=_MIXES,
           q=st.floats(min_value=0, max_value=1), p=st.one_of(_NOISE, st.floats(min_value=0, max_value=1)))
    @example(protocol=ProtocolKind.TRINE, family="standard", mix=EnsembleMix.SYMMETRIC, q=0.0, p=F(0))
    @example(protocol=ProtocolKind.SIX_STATE, family="gentle", mix=EnsembleMix.BOB_ONLY, q=1 - 2**-52, p=F(1))
    @example(protocol=ProtocolKind.TETRAHEDRON, family="gentle", mix=EnsembleMix.ALICE_ONLY, q=1.0, p=1 - 2**-52)
    def test_a_probe_is_the_key_rate_of_the_joint(self, protocol, family, mix, q, p):
        # a solve's probe of R, off the row, is key_rate's r of the joint enumerate_joint builds, bit for bit
        channel = Channel(depolarizing=p)
        want = key_rate(enumerate_joint(protocol, _strategy_for(family, q, mix), channel)).r
        got = _r_at(protocol, family, mix, p, q)
        assert type(got) is float
        assert float.hex(got) == float.hex(want)


def _rate_bits(rates):
    """A `_rates` tuple, checked to be 7 floats, as their float.hex, so that equality sees the sign of a zero."""
    assert type(rates) is tuple and len(rates) == 7 and all(type(v) is float for v in rates), rates
    return [float.hex(v) for v in rates]


_GRID_NOISE = st.fractions(min_value=0, max_value=1, max_denominator=64)


class TestSweepGrid:
    """The CLI's sweep grid, q = i / (steps - 1) over one denominator, has the rates of each q evaluated alone."""

    @settings(max_examples=300, deadline=None)
    @given(protocol=st.sampled_from(ALL), family=st.sampled_from(["standard", "gentle"]), mix=_MIXES,
           p=st.one_of(st.just(F(0)), _GRID_NOISE, _GRID_NOISE.map(float)), steps=st.integers(2, 40))
    # the bench's sweeps: p = 0, both families
    @example(protocol=ProtocolKind.TRINE, family="standard", mix=EnsembleMix.SYMMETRIC, p=F(0), steps=40)
    @example(protocol=ProtocolKind.SIX_STATE, family="gentle", mix=EnsembleMix.SYMMETRIC, p=F(0), steps=40)
    @example(protocol=ProtocolKind.BB84, family="gentle", mix=EnsembleMix.ALICE_ONLY, p=F(1), steps=2)
    def test_rows_equal_per_q_evaluation(self, protocol, family, mix, p, steps):
        got = [_rates(*row) for row in _evaluate(protocol, family, mix, range(steps), steps - 1, p)]
        # each q alone, as enumerate_joint reads it: a one-row grid over the q's own denominator
        alone = (_evaluate(protocol, *_family_mix_grid(_strategy_for(family, F(i, steps - 1), mix)), p)
                 for i in range(steps))
        want = [_rates(*row) for [row] in alone]
        assert got == want
        assert [_rate_bits(rates) for rates in got] == [_rate_bits(rates) for rates in want]


def _report_bits(report):
    """An (i_ab, i_ae, i_be, r) tuple's type and each float's type and hex, so that equality sees a zero's sign."""
    return type(report), [(type(v), float.hex(v)) for v in report]


def _key_rate_fields(joint) -> tuple:
    """key_rate(joint), checked to be the public RateReport, as its (i_ab, i_ae, i_be, r)."""
    report = key_rate(joint)
    assert type(report) is RateReport
    return report.i_ab, report.i_ae, report.i_be, report.r


# the sweep's grids q = i / (steps - 1), and float grids from 0 to 1
_SWEEP_GRIDS = st.sampled_from([2, 3, 23, 101]).map(lambda steps: (range(steps), steps - 1))
_FLOAT_GRIDS = st.lists(st.floats(min_value=0, max_value=1), min_size=5, max_size=30).map(
    lambda qs: ([0.0, *qs, 1.0], None))


class TestRateKernel:
    """`_rate_kernel`, through a layout's cached plan, is the dict reference `_rate_report(_pair_floats(...))`."""

    @settings(max_examples=300, deadline=None)
    @given(protocol=st.sampled_from(ALL), family=st.sampled_from(["none", "standard", "gentle"]),
           mix=_MIXES, q=_RATE_INPUTS, p=_RATE_INPUTS)
    # the corner keys a row drops at q in {0, 1} or p in {0, 1}, exact and float
    @example(protocol=ProtocolKind.TRINE, family="standard", mix=EnsembleMix.SYMMETRIC, q=F(0), p=F(0))
    @example(protocol=ProtocolKind.TETRAHEDRON, family="standard", mix=EnsembleMix.ALICE_ONLY, q=F(1), p=F(1))
    @example(protocol=ProtocolKind.BB84, family="gentle", mix=EnsembleMix.BOB_ONLY, q=0.0, p=1.0)
    @example(protocol=ProtocolKind.SIX_STATE, family="gentle", mix=EnsembleMix.SYMMETRIC, q=1.0, p=0.0)
    @example(protocol=ProtocolKind.SIX_STATE, family="none", mix=EnsembleMix.SYMMETRIC, q=F(0), p=F(1))
    def test_rates_are_the_dict_reference(self, protocol, family, mix, q, p):
        eve = _strategy_for(family, q, mix)
        [row] = _evaluate(protocol, *_family_mix_grid(eve), p)
        layout, values, total, den = row
        if den is None:  # _rates' float path: the joint's table, each mass over the total
            values, total = [v / total for v in values], None
        assert _report_bits(_rates(*row)[3:]) == _report_bits(_rate_report(_pair_floats(zip(layout, values), total)))
        joint = enumerate_joint(protocol, eve, Channel(depolarizing=p))
        want = _report_bits(_rate_report(_pair_floats(joint.table.items(), None)))
        assert _report_bits(_key_rate_fields(joint)) == want

    @settings(max_examples=200, deadline=None)
    @given(protocol=st.sampled_from(ALL), family=st.sampled_from(["standard", "gentle"]), mix=_MIXES,
           p=_RATE_INPUTS, grid=st.one_of(_SWEEP_GRIDS, _FLOAT_GRIDS))
    # the bench's sweeps, and grids whose rows at q = 0 and 1 drop keys, with exact and float p at 0 and 1
    @example(protocol=ProtocolKind.TRINE, family="standard", mix=EnsembleMix.SYMMETRIC, p=F(0),
             grid=(range(101), 100))
    @example(protocol=ProtocolKind.SIX_STATE, family="gentle", mix=EnsembleMix.SYMMETRIC, p=F(0),
             grid=(range(101), 100))
    @example(protocol=ProtocolKind.TETRAHEDRON, family="standard", mix=EnsembleMix.ALICE_ONLY, p=F(1),
             grid=(range(23), 22))
    @example(protocol=ProtocolKind.BB84, family="gentle", mix=EnsembleMix.BOB_ONLY, p=1.0,
             grid=([0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1.0], None))
    @example(protocol=ProtocolKind.SIX_STATE, family="standard", mix=EnsembleMix.SYMMETRIC, p=0.0,
             grid=(range(3), 2))
    def test_grid_rates_are_each_rows_rates(self, protocol, family, mix, p, grid):
        rows = _evaluate(protocol, family, mix, *grid, p)
        got = _grid_rates(rows)
        assert [_rate_bits(rates) for rates in got] == [_rate_bits(_rates(*row)) for row in rows]
        for (layout, values, total, den), rates in zip(rows, got):
            if den is None:  # _rates' float path: the joint's table, each mass over the total
                values, total = [v / total for v in values], None
            assert _report_bits(rates[3:]) == _report_bits(_rate_report(_pair_floats(zip(layout, values), total)))

    @pytest.mark.parametrize("family", ["standard", "gentle"])
    def test_grid_rates_take_a_layout_of_several_rows_by_column(self, monkeypatch, family):
        # every layout goes by column, one of a single row too: the one-row kernel is never called
        rows = _evaluate(ProtocolKind.TRINE, family, EnsembleMix.SYMMETRIC, range(101), 100, F(0))
        shares = collections.Counter(layout for layout, *_ in rows)
        calls = []
        monkeypatch.setattr(analysis, "_rate_kernel", lambda *args: calls.append(args) or _rate_kernel(*args))
        _grid_rates(rows)
        assert min(shares.values()) == 1 and max(shares.values()) > 1
        assert calls == []

    @pytest.mark.parametrize("protocol", ALL)
    def test_grid_rates_take_a_row_of_a_huge_total_alone(self, monkeypatch, protocol):
        # at p = 10^-400 every row's total is past 2^1074, over which some values underflow to 0.0,
        # a log2 domain error by column: each row goes through `_rates` and the columns are never taken
        rows = _evaluate(protocol, "standard", EnsembleMix.SYMMETRIC, range(101), 100, F(1, 10**400))
        assert all(total >= 1 << 1074 for _, _, total, _ in rows)
        want = [_rate_bits(_rates(*row)) for row in rows]
        calls = []
        monkeypatch.setattr(analysis, "_column_kernel", lambda *args: calls.append(args))
        assert [_rate_bits(rates) for rates in _grid_rates(rows)] == want
        assert calls == []

    @settings(max_examples=200, deadline=None)
    @given(protocol=st.sampled_from(ALL), family=st.sampled_from(["none", "standard"]),
           mix=_MIXES, q=_STRENGTH, p=_NOISE, data=st.data())
    @example(protocol=ProtocolKind.TRINE, family="standard", mix=EnsembleMix.SYMMETRIC, q=F(1), p=F(0), data=None)
    def test_key_rate_of_an_exact_joint_in_any_key_order(self, protocol, family, mix, q, p, data):
        # a Fraction table whose keys come in another order has another layout, and its own plan
        table = enumerate_joint(protocol, _strategy_for(family, q, mix), Channel(depolarizing=p)).table
        assert all(type(v) is F for v in table.values())
        order = list(table) if data is None else data.draw(st.permutations(list(table)))
        joint = JointDistribution(p_sift=F(1, 2), table={key: table[key] for key in order})
        want = _report_bits(_rate_report(_pair_floats(joint.table.items(), None)))
        assert _report_bits(_key_rate_fields(joint)) == want

    def test_plan_cache_holds_every_sweep_layout(self):
        # these sweeps see 39 layouts, each built once
        _rate_plan.cache_clear()
        for protocol, family, p in itertools.product(ALL, ["standard", "gentle"], [F(0), F(1, 7), 0.05]):
            for mix in EnsembleMix:
                for row in _evaluate(protocol, family, mix, range(101), 100, p):
                    _rates(*row)
        info = _rate_plan.cache_info()
        assert info.misses == info.currsize == 39


class TestEntryPointsCheckTheirArguments:
    """A protocol or channel of the wrong type, or an unknown attack, is rejected before any cache is read."""

    NOT_A_PROTOCOL = "protocol must be a ProtocolKind, got 'trine'"
    NOT_A_CHANNEL = "channel must be a Channel, got 0.1"

    @staticmethod
    def _rejected(call, message, cache):
        before = cache.cache_info()
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
        after = cache.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_enumerate_joint_rejects_a_protocol_name(self):
        self._rejected(lambda: enumerate_joint("trine"), self.NOT_A_PROTOCOL, _corners)

    def test_find_threshold_rejects_a_protocol_name(self):
        self._rejected(lambda: find_threshold("trine", "standard"), self.NOT_A_PROTOCOL, _corners)

    def test_estimate_q_from_sift_rejects_a_protocol_name(self):
        self._rejected(lambda: estimate_q_from_sift("trine", 0.55), self.NOT_A_PROTOCOL, _sift_line)

    def test_enumerate_joint_rejects_a_bare_strength_for_a_channel(self):
        self._rejected(lambda: enumerate_joint(ProtocolKind.TRINE, None, 0.1), self.NOT_A_CHANNEL, _corners)

    def test_find_threshold_rejects_a_bare_strength_for_a_channel(self):
        call = lambda: find_threshold(ProtocolKind.TRINE, "standard", channel=0.1)  # noqa: E731
        self._rejected(call, self.NOT_A_CHANNEL, _corners)

    def test_enumerate_joint_rejects_an_unknown_strategy(self):
        call = lambda: enumerate_joint(ProtocolKind.TRINE, object())  # noqa: E731
        self._rejected(call, "unknown eavesdropping strategy", _corners)

    def test_find_threshold_rejects_an_unknown_family(self):
        self._rejected(lambda: find_threshold(ProtocolKind.TRINE, "none"), "unknown attack family: 'none'", _corners)

    def test_key_rate_rejects_a_table_that_is_not_a_joint_distribution(self):
        table = dict(enumerate_joint(ProtocolKind.TRINE).table)
        with pytest.raises(ValueError, match="joint must be a JointDistribution, got {"):
            key_rate(table)


class TestJointDistributionValidation:
    # NaN compares False both with 0 and with the 1e-9 tolerance; inf passes the first and fails the second
    @pytest.mark.parametrize("table,messages", [
        ({(0, 0, None): math.nan, (1, 1, None): 1.0}, ["probability nan at (0, 0, None) is not a number >= 0"] * 2),
        ({(0, 0, None): F(3, 2), (1, 1, None): F(-1, 2)},
         ["probability Fraction(-1, 2) at (1, 1, None) is not a number >= 0"] * 2),
        ({(0, 0, None): 0.5, (1, 1, None): 0.5 + 1e-8},
         ["conditional table sums to 1.00000001, expected 1", "distribution sums to 1.00000001, expected 1"]),
        ({(0, 0, None): 0.4}, ["conditional table sums to 0.4, expected 1", "distribution sums to 0.4, expected 1"]),
        ({(0, 0, None): math.inf, (1, 1, None): 1.0},
         ["conditional table sums to inf, expected 1", "distribution sums to inf, expected 1"]),
    ])
    def test_mutual_information_rejects_the_same_tables(self, table, messages):
        with pytest.raises(ValueError, match=re.escape(messages[0])):
            JointDistribution(p_sift=0.5, table=table)
        with pytest.raises(ValueError, match=re.escape(messages[1])):
            mutual_information(table)

    @pytest.mark.parametrize("p_sift,message", [
        (3, "p_sift must lie in [0, 1], got 3"), (F(3, 2), "p_sift must lie in [0, 1], got Fraction(3, 2)"),
        (-0.5, "p_sift must lie in [0, 1], got -0.5"), (math.nan, "p_sift must lie in [0, 1], got nan"),
        (0, "p_sift must lie in (0, 1], got 0"), (0.0, "p_sift must lie in (0, 1], got 0.0"),
        ("x", "p_sift must be a real number, got 'x'"), (True, "p_sift must be a real number, got True"),
        (None, "p_sift must be a real number, got None"),
    ])
    def test_rejects_a_sifting_rate_outside_the_half_open_unit_interval(self, p_sift, message):
        table = {(0, 0, None): F(1, 2), (1, 1, None): F(1, 2)}
        with pytest.raises(ValueError, match=re.escape(message)):
            JointDistribution(p_sift=p_sift, table=table)

    @pytest.mark.parametrize("p_sift", [1, F(1), 1.0, F(1, 3), 1e-300])
    def test_accepts_a_sifting_rate_in_the_half_open_unit_interval(self, p_sift):
        assert JointDistribution(p_sift=p_sift, table={(0, 0, None): 1.0}).p_sift == p_sift

    @pytest.mark.parametrize("table,message", [
        ({(0, 7, "x"): 1.0}, "keys must be (a, b, e) with a, b in {0, 1} and e in {0, 1, None}, got [(0, 7, 'x')]"),
        ({(0, 0): 1.0}, "got [(0, 0)]"),
        ({(0, 0, None): 0.5, (2, 0, None): 0.5}, "got [(2, 0, None)]"),
        ([((0, 0, None), 1.0)], "table must be a dict, got [((0, 0, None), 1.0)]"),
        ({(0, 0, 2): 1.0}, "got [(0, 0, 2)]"),
        ({(0, 0, None, None): 1.0}, "got [(0, 0, None, None)]"),
        (None, "table must be a dict, got None"),
    ])
    def test_rejects_a_table_it_cannot_read(self, table, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            JointDistribution(p_sift=1, table=table)

    @pytest.mark.parametrize("kind", [F, float])
    def test_reads_every_key_it_accepts(self, kind):
        # dyadic shares, so float sums are exact: 1/8 where Eve abstains, 1/16 where she guesses
        table = {key: kind(F(1, 8) if key[2] is None else F(1, 16))
                 for key in itertools.product((0, 1), (0, 1), (0, 1, None))}
        jd = JointDistribution(p_sift=1, table=table)
        assert [jd.mass(lambda *k, key=key: k == key) for key in table] == list(table.values())
        assert (jd.qber, jd.p_eve_abstain, jd.p_eve_agree_alice, jd.p_eve_agree_bob) == (0.5, 0.5, 0.25, 0.25)
        assert all(type(v) is kind for v in (jd.qber, jd.p_eve_abstain, jd.p_eve_agree_alice, jd.p_eve_agree_bob))
        report = key_rate(jd)
        assert (report.i_ab, report.i_ae, report.i_be) == (0.0, 0.0, 0.0)

    def test_branch_bookkeeping_conserves_mass(self):
        eve, channel = _sym(F(2, 3)), Channel(depolarizing=F(1, 5))
        jd = enumerate_joint(ProtocolKind.TETRAHEDRON, eve, channel)
        assert sum(_reference_walk(ProtocolKind.TETRAHEDRON, eve, channel).values()) == jd.p_sift
        assert sum(jd.table.values()) == 1
        # each part is a whole round: its sifted mass is the sifting rate of a round Eve
        # leaves alone, or of one she measures on that side
        parts = [0, 0, 0]
        for (part, _), v in _reference_parts(ProtocolKind.TETRAHEDRON, 1, channel.depolarizing).items():
            parts[part] += v
        alone = [None, InterceptResend(F(1), EnsembleMix.ALICE_ONLY), InterceptResend(F(1), EnsembleMix.BOB_ONLY)]
        assert parts == [enumerate_joint(ProtocolKind.TETRAHEDRON, e, channel).p_sift for e in alone]

    @pytest.mark.parametrize("part", [0, 1, 2])
    def test_a_part_that_loses_mass_is_caught(self, monkeypatch, part):
        # one of Bob's rows in the part's first slot scaled by 1/2: that part's branches sum to below 1
        n = ProtocolKind.TRINE.n_signals
        stages = _stages(ProtocolKind.TRINE, F(3, 5), 0)
        bob = list(stages.bob)
        row = [0, n, (n + 1) * n][part]
        bob[row] = [v / 2 for v in bob[row]]
        monkeypatch.setattr(analysis, "_stages", lambda *args: analysis._Stages(stages.eve, bob))
        with pytest.raises(AssertionError, match="branch probabilities of the parts sum to"):
            _walk.__wrapped__(ProtocolKind.TRINE, F(3, 5))
