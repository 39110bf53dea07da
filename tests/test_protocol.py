"""Tests for round structure: announcements, sifting, bit derivation, transcripts."""

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest
from qubit_checks import validate_povm

from scqkd.analysis import enumerate_joint, estimate_q_from_sift
from scqkd.codes import make_code
from scqkd.eavesdrop import (EnsembleMix, EveRecord, GentleIntercept, InterceptResend, _side_gentle_povm,
                             gentle_povm)
from scqkd.protocol import (
    IDEAL,
    Announcement,
    Channel,
    ProtocolKind,
    alice_pick,
    announcement_options,
    bob_announce,
    bob_code,
    derive_bits,
    run_round,
    sift_accept,
)

EXCLUSION = [ProtocolKind.TRINE, ProtocolKind.TETRAHEDRON]
BASIS = [ProtocolKind.BB84, ProtocolKind.SIX_STATE]


class _FixedUniforms:
    """A stand-in for the round generator that hands out given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.array(uniforms)

    def random(self, size):
        return self.uniforms[:size]


class TestProtocolKind:
    def test_signal_counts(self):
        assert [p.n_signals for p in ProtocolKind] == [3, 4, 4, 6]

    def test_sifting_style(self):
        assert ProtocolKind.TRINE.excludes_outcomes
        assert ProtocolKind.TETRAHEDRON.excludes_outcomes
        assert not ProtocolKind.BB84.excludes_outcomes
        assert not ProtocolKind.SIX_STATE.excludes_outcomes

    @pytest.mark.parametrize("protocol", EXCLUSION)
    def test_bob_measures_dual(self, protocol):
        np.testing.assert_allclose(
            bob_code(protocol).states, -make_code(protocol).states
        )

    @pytest.mark.parametrize("protocol", BASIS)
    def test_bob_measures_same_constellation(self, protocol):
        np.testing.assert_allclose(
            bob_code(protocol).states, make_code(protocol).states
        )


class TestChannel:
    def test_default_ideal(self):
        assert IDEAL.depolarizing == 0

    def test_range_checked(self):
        with pytest.raises(ValueError):
            Channel(depolarizing=-0.2)
        with pytest.raises(ValueError):
            Channel(depolarizing=2)

    @pytest.mark.parametrize("value", ["0.5", None, 0.5j, True, False])
    def test_rejects_what_is_not_a_real_number(self, value):
        # a string once passed through float() here and failed only deep inside run_trials
        with pytest.raises(ValueError, match="depolarizing strength must be a real number"):
            Channel(depolarizing=value)

    @pytest.mark.parametrize("value", [0, 1, 0.25, Fraction(1, 7), np.float64(0.5), np.int64(1)])
    def test_accepts_real_numbers_in_range(self, value):
        assert Channel(depolarizing=value).depolarizing is value


# the value itself is compared with 0 and 1: as floats these round into [0, 1] (to 1.0 and -0.0) or overflow
_OUT_OF_RANGE = pytest.mark.parametrize(
    "value", [Fraction(10**30 + 1, 10**30), Fraction(-1, 10**400), 10**400, Fraction(10**400, 3)],
    ids=["1+1e-30", "-1e-400", "1e400", "1e400/3"],
)
_IN_RANGE = [0, 1, Fraction(1), 1.0, np.float64(0.5)]
_UNIT_CHECKS = pytest.mark.parametrize("build,name", [
    pytest.param(lambda v: Channel(depolarizing=v), "depolarizing strength", id="channel"),
    pytest.param(lambda v: InterceptResend(q=v), "interception fraction", id="intercept-resend"),
    pytest.param(lambda v: GentleIntercept(q=v), "attack strength", id="gentle"),
    pytest.param(lambda v: estimate_q_from_sift(ProtocolKind.TRINE, v), "observed sifting rate", id="estimate"),
])


class TestUnitIntervalIsExact:
    @_OUT_OF_RANGE
    @_UNIT_CHECKS
    def test_rejects_a_value_just_outside(self, build, name, value):
        with pytest.raises(ValueError, match=rf"{name} must lie in \[0, 1\]"):
            build(value)

    @pytest.mark.parametrize("value", _IN_RANGE)
    @_UNIT_CHECKS
    def test_accepts_the_ends_and_numpy_floats(self, build, name, value):
        build(value)  # an end of [0, 1] lies outside the trine's sifting band, which the estimate only flags

    def test_enumeration_does_not_extrapolate_past_full_noise(self):
        with pytest.raises(ValueError, match="depolarizing strength must lie in"):
            enumerate_joint(ProtocolKind.TRINE, None, Channel(Fraction(10**30 + 1, 10**30)))
        assert enumerate_joint(ProtocolKind.TRINE, None, Channel(Fraction(1))).p_sift == Fraction(2, 3)


class TestAlicePick:
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_covers_all_signals(self, protocol):
        n = protocol.n_signals
        picks = {alice_pick(protocol, (i + 0.5) / n) for i in range(n)}
        assert picks == set(range(1, n + 1))

    def test_boundaries(self):
        assert alice_pick(ProtocolKind.TRINE, 0.0) == 1
        assert alice_pick(ProtocolKind.TRINE, 1.0 - 1e-16) == 3


class TestAnnouncementOptions:
    @pytest.mark.parametrize("protocol,k,excluded", [
        # the trine excludes one other outcome, ascending
        (ProtocolKind.TRINE, 1, ((2,), (3,))),
        (ProtocolKind.TRINE, 2, ((1,), (3,))),
        (ProtocolKind.TRINE, 3, ((1,), (2,))),
        # the tetrahedron excludes an ordered pair of the others, lexicographically
        (ProtocolKind.TETRAHEDRON, 1, ((2, 3), (2, 4), (3, 2), (3, 4), (4, 2), (4, 3))),
        (ProtocolKind.TETRAHEDRON, 2, ((1, 3), (1, 4), (3, 1), (3, 4), (4, 1), (4, 3))),
        (ProtocolKind.TETRAHEDRON, 3, ((1, 2), (1, 4), (2, 1), (2, 4), (4, 1), (4, 2))),
        (ProtocolKind.TETRAHEDRON, 4, ((1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))),
    ])
    def test_exclusion_options_in_order(self, protocol, k, excluded):
        # the order maps Bob's announcement variate to a choice, so transcripts depend on it
        assert announcement_options(protocol, k) == tuple(Announcement(excluded=e) for e in excluded)

    @pytest.mark.parametrize("protocol", EXCLUSION)
    def test_never_excludes_the_outcome(self, protocol):
        for k in range(1, protocol.n_signals + 1):
            for ann in announcement_options(protocol, k):
                assert k not in ann.excluded

    def test_basis_announcement_is_deterministic(self):
        opts = announcement_options(ProtocolKind.BB84, 3)
        assert len(opts) == 1
        assert opts[0].bob_basis == "x"
        assert opts[0].excluded == ()

    def test_out_of_range_outcome(self):
        with pytest.raises(ValueError):
            announcement_options(ProtocolKind.TRINE, 4)

    def test_bob_announce_spans_options(self):
        opts = announcement_options(ProtocolKind.TETRAHEDRON, 1)
        seen = {bob_announce(ProtocolKind.TETRAHEDRON, 1, (i + 0.5) / 6) for i in range(6)}
        assert seen == set(opts)


class TestSiftAccept:
    def test_exclusion(self):
        ann = Announcement(excluded=(2,))
        assert sift_accept(ProtocolKind.TRINE, 1, ann)
        assert not sift_accept(ProtocolKind.TRINE, 2, ann)

    def test_basis_match(self):
        ann = Announcement(bob_basis="z")
        assert sift_accept(ProtocolKind.BB84, 2, ann)
        assert not sift_accept(ProtocolKind.BB84, 3, ann)


class TestDeriveBits:
    def test_worked_example_trine(self):
        # signal 1, outcome 2 (dual index), announced 3: both infer correctly
        a, b = derive_bits(ProtocolKind.TRINE, 1, 2, Announcement(excluded=(3,)))
        assert (a, b) == (0, 0)

    def test_agreement_iff_outcome_differs_from_signal(self):
        # k = j is only reachable through noise and always flips one inference
        for protocol in EXCLUSION:
            n = protocol.n_signals
            for j, k in itertools.product(range(1, n + 1), repeat=2):
                for ann in announcement_options(protocol, k):
                    if j in ann.excluded:
                        continue
                    a, b = derive_bits(protocol, j, k, ann)
                    assert (a == b) == (j != k)

    def test_basis_bits_are_eigenvalue_labels(self):
        ann = Announcement(bob_basis="x")
        assert derive_bits(ProtocolKind.BB84, 3, 4, ann) == (0, 1)
        assert derive_bits(ProtocolKind.BB84, 4, 4, ann) == (1, 1)

    def test_inconsistent_announcement_rejected(self):
        with pytest.raises(ValueError):
            derive_bits(ProtocolKind.TRINE, 1, 2, Announcement(excluded=(2,)))
        with pytest.raises(ValueError):
            derive_bits(ProtocolKind.TRINE, 3, 2, Announcement(excluded=(3,)))
        with pytest.raises(ValueError):
            derive_bits(ProtocolKind.BB84, 1, 2, Announcement(bob_basis="x"))
        with pytest.raises(ValueError, match=re.escape("index out of range 1..3: (0, 2)")):
            derive_bits(ProtocolKind.TRINE, 0, 2, Announcement(excluded=(3,)))
        with pytest.raises(ValueError, match=re.escape("index out of range 1..4: (1, 5)")):
            derive_bits(ProtocolKind.BB84, 1, 5, Announcement(bob_basis="y"))
        # BB84 signal 1 is a z state and outcome 3 an x one
        with pytest.raises(ValueError, match="inconsistent with Alice's signal"):
            derive_bits(ProtocolKind.BB84, 1, 3, Announcement(alice_basis="x", bob_basis="x"))
        with pytest.raises(ValueError, match="bases differ"):
            derive_bits(ProtocolKind.BB84, 1, 3, Announcement(bob_basis="x"))

    @pytest.mark.parametrize("protocol,excluded,reason", [
        (ProtocolKind.TRINE, (), "n - 2 = 1 distinct outcomes"),
        (ProtocolKind.TRINE, (3, 3), "n - 2 = 1 distinct outcomes"),
        (ProtocolKind.TRINE, (2,), "excludes Bob's actual outcome"),
        (ProtocolKind.TRINE, (1,), "signal is excluded"),
        (ProtocolKind.TETRAHEDRON, (3,), "n - 2 = 2 distinct outcomes"),
        (ProtocolKind.TETRAHEDRON, (3, 3), "n - 2 = 2 distinct outcomes"),
        (ProtocolKind.TETRAHEDRON, (4, 2), "excludes Bob's actual outcome"),
        (ProtocolKind.TETRAHEDRON, (3, 1), "signal is excluded"),
        (ProtocolKind.TRINE, (5,), "announced exclusion (5,) out of range 1..3"),
        (ProtocolKind.TETRAHEDRON, (3, 5), "announced exclusion (3, 5) out of range 1..4"),
    ])
    def test_malformed_exclusion_rejected(self, protocol, excluded, reason):
        # signal 1, outcome 2: too short, a repeated index, k excluded, j excluded, an index out of range
        with pytest.raises(ValueError, match=re.escape(reason)):
            derive_bits(protocol, 1, 2, Announcement(excluded=excluded))


class TestRunRound:
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_consumes_exactly_eight_uniforms(self, protocol):
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        run_round(protocol, None, IDEAL, rng1)
        rng2.random(8)
        assert rng1.random() == rng2.random()

    def test_selectable_near_zero_gentle_outcome_is_forwarded(self):
        # Eve's row on signal 1 is [0.5, 2.5e-16, 0.25, 0.25] in floats, and this
        # outcome uniform falls in outcome 2's sliver, as the sampler's CDF row has it
        eve = GentleIntercept(q=1 - 1e-15, mix=EnsembleMix.ALICE_ONLY)
        uniforms = _FixedUniforms([0.0, 0.0, 0.0, 0.4999999999999999, 0.0, 0.0, 0.0, 0.0])
        t = run_round(ProtocolKind.BB84, eve, IDEAL, uniforms)
        assert t.signal_index == 1
        assert t.eve_record == EveRecord(intercepted=True, ensemble_used="alice", outcome_index=2)
        # Eve's Kraus image of |0> is |0> itself, so Bob's z outcome is certain
        assert t.bob_outcome == 1

    def test_replayable(self):
        t1 = run_round(ProtocolKind.TRINE, None, IDEAL, np.random.default_rng(5))
        t2 = run_round(ProtocolKind.TRINE, None, IDEAL, np.random.default_rng(5))
        assert t1 == t2

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_transcript_consistency(self, protocol):
        rng = np.random.default_rng(99)
        for _ in range(300):
            t = run_round(protocol, None, IDEAL, rng)
            assert 1 <= t.signal_index <= protocol.n_signals
            assert 1 <= t.bob_outcome <= protocol.n_signals
            assert t.accepted == sift_accept(protocol, t.signal_index, t.announcement)
            if t.accepted:
                assert t.alice_bit in (0, 1) and t.bob_bit in (0, 1)
            else:
                assert t.alice_bit is None and t.bob_bit is None

    def test_noiseless_rounds_never_err(self):
        rng = np.random.default_rng(123)
        for protocol in ProtocolKind:
            for _ in range(200):
                t = run_round(protocol, None, IDEAL, rng)
                if t.accepted:
                    assert t.alice_bit == t.bob_bit

    @pytest.mark.parametrize("protocol", BASIS)
    def test_basis_announcement_completed(self, protocol):
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = run_round(protocol, None, IDEAL, rng)
            assert t.announcement.alice_basis in ("z", "x", "y")

    @pytest.mark.parametrize("protocol", EXCLUSION)
    def test_exclusion_outcome_never_announced(self, protocol):
        rng = np.random.default_rng(8)
        for _ in range(200):
            t = run_round(protocol, None, IDEAL, rng)
            assert t.bob_outcome not in t.announcement.excluded

    def test_full_noise_still_sifts(self):
        rng = np.random.default_rng(31)
        accepted = sum(
            run_round(ProtocolKind.TRINE, None, Channel(depolarizing=1), rng).accepted
            for _ in range(600)
        )
        # sift rate 2/3 under full depolarization
        assert 320 <= accepted <= 480


class TestBobPovm:
    # run_round measures Bob with Eve's bob-side POVM at full strength: his code's POVM
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_complete(self, protocol):
        validate_povm(_side_gentle_povm(protocol, "bob", 1))

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_is_the_code_povm_of_bob_code(self, protocol):
        povm = _side_gentle_povm(protocol, "bob", 1)
        assert _side_gentle_povm(protocol, "bob", 1.0) is povm  # 1 and 1.0 are one cache key
        for got, want in zip(povm.elements, gentle_povm(bob_code(protocol), 1).elements, strict=True):
            assert np.array_equal(got, want)
