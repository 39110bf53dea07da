"""Tests for exact enumeration, closed forms, information rates, thresholds."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scqkd import analysis
from scqkd.analysis import (
    JointDistribution,
    _joint_curve,
    _negligible,
    _side_weights,
    _sifting,
    _stages,
    _strategy_for,
    _update_row,
    NoThresholdError,
    analytic_curves,
    depolarizing_curves,
    enumerate_joint,
    estimate_q_from_sift,
    find_threshold,
    key_rate,
    mutual_information,
)
from scqkd.eavesdrop import EnsembleMix, GentleIntercept, InterceptResend
from scqkd.protocol import Channel, ProtocolKind

ALL = list(ProtocolKind)
EXCLUSION = [ProtocolKind.TRINE, ProtocolKind.TETRAHEDRON]
BASIS = [ProtocolKind.BB84, ProtocolKind.SIX_STATE]
F = Fraction


def _sym(q):
    return InterceptResend(q=q, mix=EnsembleMix.SYMMETRIC)


class TestEnumerateNoEve:
    @pytest.mark.parametrize("protocol,sift", [
        (ProtocolKind.TRINE, F(1, 2)),
        (ProtocolKind.TETRAHEDRON, F(1, 3)),
        (ProtocolKind.BB84, F(1, 2)),
        (ProtocolKind.SIX_STATE, F(1, 3)),
    ])
    def test_sift_rates_exact(self, protocol, sift):
        jd = enumerate_joint(protocol)
        assert jd.p_sift == sift

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
    def test_q_zero_is_no_eve(self):
        for protocol in ALL:
            jd0 = enumerate_joint(protocol)
            jdq = enumerate_joint(protocol, _sym(F(0)))
            assert jdq.p_sift == jd0.p_sift
            assert jdq.table == jd0.table

    @pytest.mark.parametrize("protocol", EXCLUSION)
    def test_matches_closed_forms_exactly(self, protocol):
        curves = analytic_curves(protocol)
        for q in (F(0), F(1, 7), F(1, 3), F(1, 2), F(9, 11), F(1)):
            jd = enumerate_joint(protocol, _sym(q))
            assert jd.p_sift == curves.p_sift(q)
            assert jd.p_ab_agree == curves.p_ab(q)
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

    def test_float_q_agrees_with_exact(self):
        exact = enumerate_joint(ProtocolKind.TRINE, _sym(F(63, 100)))
        approx = enumerate_joint(ProtocolKind.TRINE, _sym(0.63))
        assert abs(float(exact.p_sift) - approx.p_sift) < 1e-12
        for key, v in exact.table.items():
            assert abs(float(v) - approx.table[key]) < 1e-12


def _fraction_weight_joint(protocol, eve, channel):
    """enumerate_joint's gentle walk over the _stages rows, with Fraction weights 1/n and 1/len(options)."""
    n = protocol.n_signals
    stages, sifting = _stages(protocol, eve, channel, born=True), _sifting(protocol)
    table, sift_mass = {}, 0
    for j in range(1, n + 1):
        for side, ws in enumerate(_side_weights(eve.mix)):
            if not ws:
                continue
            for m, p_m in enumerate(stages.eve[side * n + j - 1], 1):
                if _negligible(p_m):
                    continue
                base = F(1, n) * (float(ws) * p_m)
                bob_row = stages.bob[_update_row(n, side, m, j)]
                for pk, (w_a, _, cells) in zip(bob_row, sifting.walk[j - 1]):
                    if _negligible(pk):
                        continue
                    w = base * pk * w_a
                    for a, b, guesses in cells:
                        key = (a, b, guesses[1 + side * n + m - 1])
                        table[key] = table.get(key, 0) + w
                        sift_mass += w
    return sift_mass, {key: v / sift_mass for key, v in table.items()}


class TestEnumerateGentle:
    @pytest.mark.parametrize("protocol", ALL)
    @pytest.mark.parametrize("mix", list(EnsembleMix))
    @pytest.mark.parametrize("q,channel", [(0.7, Channel()), (0.3, Channel(depolarizing=0.05))])
    def test_float_weights_match_fraction_weights(self, protocol, mix, q, channel):
        jd = enumerate_joint(protocol, GentleIntercept(q=q, mix=mix), channel)
        p_sift, table = _fraction_weight_joint(protocol, GentleIntercept(q=q, mix=mix), channel)
        assert jd.p_sift == p_sift
        assert list(jd.table.items()) == list(table.items())

    @pytest.mark.parametrize("protocol", ALL)
    def test_full_strength_equals_intercept_resend(self, protocol):
        hard = enumerate_joint(protocol, _sym(F(1)))
        soft = enumerate_joint(protocol, GentleIntercept(q=1.0))
        assert abs(float(hard.p_sift) - soft.p_sift) < 1e-12
        assert set(soft.table) == set(hard.table)
        for key, v in hard.table.items():
            assert abs(float(v) - soft.table[key]) < 1e-12

    @pytest.mark.parametrize("protocol", ALL)
    def test_zero_strength_is_invisible_and_useless(self, protocol):
        jd = enumerate_joint(protocol, GentleIntercept(q=0.0))
        ref = enumerate_joint(protocol)
        assert abs(jd.p_sift - float(ref.p_sift)) < 1e-12
        assert abs(jd.qber) < 1e-12
        report = key_rate(jd)
        assert abs(report.i_ae) < 1e-12
        assert abs(report.r - 1.0) < 1e-12

    def test_gentler_attack_leaves_smaller_error(self):
        errs = [
            enumerate_joint(ProtocolKind.TRINE, GentleIntercept(q=q)).qber
            for q in (0.2, 0.5, 0.8, 1.0)
        ]
        assert errs == sorted(errs)
        hard = enumerate_joint(ProtocolKind.TRINE, _sym(0.8)).qber
        assert errs[2] < hard  # same strength, weaker measurement, less damage


_MIXES = st.sampled_from(list(EnsembleMix))
_NOISE = st.fractions(min_value=0, max_value=1, max_denominator=20)
_STRENGTH = st.fractions(min_value=0, max_value=1, max_denominator=60)


class TestStages:
    """One round model: the exact Gram rows and the Born rows the sampler reads agree."""

    @settings(max_examples=40, deadline=None)
    @given(protocol=st.sampled_from(ALL), family=st.sampled_from(["none", "standard"]),
           mix=_MIXES, q=_STRENGTH, p=_NOISE)
    def test_gram_rows_are_the_born_rows(self, protocol, family, mix, q, p):
        eve, channel = _strategy_for(family, q, mix), Channel(depolarizing=p)
        gram = _stages(protocol, eve, channel, born=False)
        born = _stages(protocol, eve, channel, born=True)
        for exact_rows, float_rows in ((gram.eve, born.eve), (gram.bob, born.bob)):
            assert [row is None for row in exact_rows] == [row is None for row in float_rows]
            for exact, approx in zip(exact_rows, float_rows):
                if exact is None:
                    continue
                assert sum(exact) == 1
                assert all(abs(e - b) <= 1e-12 for e, b in zip(exact, approx))

    @settings(max_examples=40, deadline=None)
    @given(protocol=st.sampled_from(ALL), mix=_MIXES, q=_STRENGTH, p=_NOISE)
    def test_float_intercept_resend_matches_exact(self, protocol, mix, q, p):
        exact = enumerate_joint(protocol, InterceptResend(q, mix), Channel(depolarizing=p))
        approx = enumerate_joint(protocol, InterceptResend(float(q), mix), Channel(depolarizing=float(p)))
        assert abs(float(exact.p_sift) - approx.p_sift) <= 1e-12
        for key in {**exact.table, **approx.table}:
            assert abs(float(exact.table.get(key, 0)) - approx.table.get(key, 0)) <= 1e-12

    @pytest.mark.parametrize("protocol", ALL)
    def test_unknown_strategy_rejected(self, protocol):
        with pytest.raises(ValueError):
            enumerate_joint(protocol, object())


class TestDepolarizing:
    @pytest.mark.parametrize("protocol,p_sift,qber", [
        (ProtocolKind.TRINE, lambda p: (3 + p) / 6, lambda p: 2 * p / (3 + p)),
        (ProtocolKind.TETRAHEDRON, lambda p: (2 + p) / 6, lambda p: 3 * p / (2 * (2 + p))),
        (ProtocolKind.BB84, lambda p: F(1, 2), lambda p: p / 2),
        (ProtocolKind.SIX_STATE, lambda p: F(1, 3), lambda p: p / 2),
    ])
    def test_exact_curves(self, protocol, p_sift, qber):
        for p in (F(0), F(1, 10), F(1, 2), F(9, 10), F(1)):
            jd = enumerate_joint(protocol, channel=Channel(depolarizing=p))
            assert jd.p_sift == p_sift(p)
            assert jd.qber == qber(p)

    @pytest.mark.parametrize("protocol", ALL)
    def test_rows_helper(self, protocol):
        grid = [F(i, 4) for i in range(5)]
        rows = depolarizing_curves(protocol, grid)
        assert [r.p for r in rows] == grid
        qbers = [r.qber for r in rows]
        assert qbers == sorted(qbers)
        assert qbers[-1] == F(1, 2)


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

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            mutual_information({(0, 0): 1.2, (0, 1): -0.2})

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            mutual_information({(0, 0): 0.4})

    def test_exact_inputs_accepted(self):
        joint = {(0, 0): F(1, 2), (1, 1): F(1, 2)}
        assert mutual_information(joint) == 1.0


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

    def test_rate_decreases_with_q(self):
        rates = [
            key_rate(enumerate_joint(ProtocolKind.TRINE, _sym(F(i, 4)))).r
            for i in range(5)
        ]
        assert rates == sorted(rates, reverse=True)
        assert rates[0] == 1.0
        assert rates[-1] < 0.0


class TestThresholds:
    def test_trine_standard_location(self):
        res = find_threshold(ProtocolKind.TRINE, "standard")
        curves = analytic_curves(ProtocolKind.TRINE)
        assert abs(res.qber_star - float(curves.qber(F(res.q_star).limit_denominator(10**9)))) < 1e-6
        # the rate really crosses there
        below = key_rate(enumerate_joint(ProtocolKind.TRINE, _sym(res.q_star - 1e-4))).r
        above = key_rate(enumerate_joint(ProtocolKind.TRINE, _sym(res.q_star + 1e-4))).r
        assert below > 0 > above

    def test_no_crossing_reported(self):
        # a fully depolarizing channel leaves nothing to distill at any q
        with pytest.raises(NoThresholdError):
            find_threshold(
                ProtocolKind.BB84, "standard", channel=Channel(depolarizing=F(1))
            )


def _plain_bisection(protocol, mix, channel, family="standard"):
    """Per-q bisection with find_threshold's stop rule, enumerating every point."""

    def rate(q):
        return key_rate(enumerate_joint(protocol, _strategy_for(family, q, mix), channel)).r

    lo, hi = 0.0, 1.0
    while hi - lo >= 1e-9:
        mid = (lo + hi) / 2
        r = rate(mid)
        if abs(r) < 1e-10:
            break
        lo, hi = (mid, hi) if r > 0.0 else (lo, mid)
    return mid


# every protocol noiseless and symmetric, and two noisy one-sided solves
SOLVE_CASES = [(protocol, EnsembleMix.SYMMETRIC, F(0)) for protocol in ALL] + [
    (ProtocolKind.TETRAHEDRON, EnsembleMix.BOB_ONLY, F(1, 20)),
    (ProtocolKind.SIX_STATE, EnsembleMix.ALICE_ONLY, F(1, 16)),
]


class TestInterceptResendIsAffine:
    """Intercept/resend weights are affine in q, which standard solves and sweeps use."""

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
            jd = enumerate_joint(protocol, InterceptResend(q=q, mix=mix), channel)
            return {key: jd.p_sift * v for key, v in jd.table.items()}

        u0, u1, uq = unnormalised(F(0)), unnormalised(F(1)), unnormalised(q)
        for key in {**u0, **u1, **uq}:
            assert uq.get(key, 0) == (1 - q) * u0.get(key, 0) + q * u1.get(key, 0)

    @pytest.mark.parametrize("protocol", ALL)
    @pytest.mark.parametrize("mix", list(EnsembleMix))
    def test_line_reproduces_enumeration(self, protocol, mix):
        channel = Channel(depolarizing=F(1, 7))
        joint_at = _joint_curve(protocol, "standard", mix, channel, ordered=True)
        for q in (F(0), F(1, 9), F(1, 2), F(5, 6), F(1)):
            want = enumerate_joint(protocol, InterceptResend(q=q, mix=mix), channel)
            got = joint_at(q)
            assert got.p_sift == want.p_sift
            assert list(got.table.items()) == list(want.table.items())

    @pytest.mark.parametrize("protocol,mix,p", SOLVE_CASES)
    def test_standard_threshold_matches_per_q_bisection(self, protocol, mix, p):
        channel = Channel(depolarizing=p)
        res = find_threshold(protocol, "standard", mix, channel)
        assert abs(res.q_star - _plain_bisection(protocol, mix, channel)) <= 1e-9
        joint = enumerate_joint(protocol, InterceptResend(q=res.q_star, mix=mix), channel)
        assert res.qber_star == float(joint.qber)

    def test_gentle_qber_star_is_enumerated_qber(self):
        mix, channel = EnsembleMix.BOB_ONLY, Channel(depolarizing=F(1, 10))
        res = find_threshold(ProtocolKind.BB84, "gentle", mix, channel)
        joint = enumerate_joint(ProtocolKind.BB84, GentleIntercept(q=res.q_star, mix=mix), channel)
        assert res.qber_star == float(joint.qber)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            find_threshold(ProtocolKind.TRINE, "none")

    @pytest.mark.parametrize("family,count", [("standard", 3), ("gentle", 4)])
    def test_solve_reports_its_enumerations(self, monkeypatch, family, count):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_joint(*args, **kwargs)

        monkeypatch.setattr(analysis, "enumerate_joint", counting)
        channel = Channel(depolarizing=F(1, 20))
        res = find_threshold(ProtocolKind.TETRAHEDRON, family, EnsembleMix.BOB_ONLY, channel)
        assert res.n_enumerations == len(calls) == count


class TestGentleCurve:
    """Gentle weights are linear in (1, q, sqrt(1 - q^2)), which gentle solves and sweeps use."""

    @settings(max_examples=40, deadline=None)
    @given(
        protocol=st.sampled_from(ALL),
        mix=_MIXES,
        p=_NOISE,
        # the reference, not the curve, loses precision as q -> 1: its
        # sqrt_psd_2x2 reads the small eigenvalue (1 - q)/n off a determinant
        # with ~1e-17 roundoff (~1e-13 off at 1 - q = 1e-9, ~4e-12 at 1e-12),
        # and above 1 - 2e-14 it snaps the element to rank 1 (~1e-8 off)
        q=st.floats(min_value=0, max_value=1 - 1e-9, exclude_min=True),
    )
    def test_curve_matches_enumeration(self, protocol, mix, p, q):
        channel = Channel(depolarizing=p)
        got = _joint_curve(protocol, "gentle", mix, channel)(q)
        want = enumerate_joint(protocol, GentleIntercept(q=q, mix=mix), channel)
        assert abs(got.p_sift - want.p_sift) <= 1e-12
        for key in {**got.table, **want.table}:
            assert abs(got.table.get(key, 0) - want.table.get(key, 0)) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(protocol=st.sampled_from(ALL), mix=_MIXES, p=_NOISE)
    def test_full_strength_is_intercept_resend(self, protocol, mix, p):
        channel = Channel(depolarizing=p)
        soft = enumerate_joint(protocol, GentleIntercept(q=1.0, mix=mix), channel)
        hard = enumerate_joint(protocol, InterceptResend(q=F(1), mix=mix), channel)
        assert abs(soft.p_sift - float(hard.p_sift)) <= 1e-12
        for key in {**soft.table, **hard.table}:
            assert abs(soft.table.get(key, 0) - float(hard.table.get(key, 0))) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(protocol=st.sampled_from(ALL), mix=_MIXES, p=_NOISE)
    def test_zero_strength_keeps_the_no_eve_marginal(self, protocol, mix, p):
        channel = Channel(depolarizing=p)
        soft = enumerate_joint(protocol, GentleIntercept(q=0.0, mix=mix), channel)
        ref = enumerate_joint(protocol, None, channel)
        assert abs(soft.p_sift - float(ref.p_sift)) <= 1e-12
        soft_ab, ref_ab = soft.pair_ab(), ref.pair_ab()
        for key in {**soft_ab, **ref_ab}:
            assert abs(soft_ab.get(key, 0) - float(ref_ab.get(key, 0))) <= 1e-12

    def test_roundoff_dust_is_dropped(self):
        # next to q = 1 some entries are O(1 - q): below the enumeration's cut,
        # and left as dust or negative roundoff by the combination
        joint = _joint_curve(ProtocolKind.TRINE, "gentle", EnsembleMix.SYMMETRIC, Channel())
        full = enumerate_joint(ProtocolKind.TRINE, GentleIntercept(q=1.0))
        assert set(joint(1 - 1e-15).table) == set(full.table)

    @pytest.mark.parametrize("protocol,mix,p", SOLVE_CASES)
    def test_gentle_threshold_matches_per_q_bisection(self, protocol, mix, p):
        channel = Channel(depolarizing=p)
        res = find_threshold(protocol, "gentle", mix, channel)
        assert abs(res.q_star - _plain_bisection(protocol, mix, channel, "gentle")) <= 1e-9
        joint = enumerate_joint(protocol, GentleIntercept(q=res.q_star, mix=mix), channel)
        assert res.qber_star == float(joint.qber)


class TestSiftInversion:
    @pytest.mark.parametrize("protocol", EXCLUSION)
    def test_round_trip_exact(self, protocol):
        curves = analytic_curves(protocol)
        for i in range(0, 101, 10):
            q = F(i, 100)
            est = estimate_q_from_sift(protocol, curves.p_sift(q))
            assert est.q == q
            assert est.in_model

    def test_clamps_and_warns_out_of_model(self):
        with pytest.warns(UserWarning):
            est = estimate_q_from_sift(ProtocolKind.TRINE, F(2, 3))
        assert est.q == 1
        assert est.q_raw == 2
        assert not est.in_model

    def test_margin_suppresses_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_q_from_sift(ProtocolKind.TRINE, F(3, 5), margin=F(1, 20))
        assert est.q == 1  # raw 6/5 clamped
        assert est.in_model

    def test_basis_protocols_rejected(self):
        with pytest.raises(ValueError):
            estimate_q_from_sift(ProtocolKind.BB84, F(1, 2))
        with pytest.raises(ValueError):
            analytic_curves(ProtocolKind.SIX_STATE)


class TestJointDistributionValidation:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            JointDistribution(p_sift=F(1, 2), table={(0, 0, None): F(3, 2), (1, 1, None): F(-1, 2)})

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            JointDistribution(p_sift=F(1, 2), table={(0, 0, None): F(1, 3)})

    def test_branch_bookkeeping_conserves_mass(self):
        jd = enumerate_joint(ProtocolKind.TETRAHEDRON, _sym(F(2, 3)), Channel(depolarizing=F(1, 5)))
        assert jd.p_sift + jd.p_fail == 1
        assert sum(jd.table.values()) == 1
