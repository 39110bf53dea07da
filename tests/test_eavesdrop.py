"""Tests for interception strategies, forwarded states, and the guess rule."""

import re
from fractions import Fraction

import numpy as np
import pytest
from qubit_checks import validate_povm

from scqkd.analysis import _stages, find_threshold
from scqkd.codes import basis_label, eigen_bit, make_code
from scqkd.eavesdrop import (
    EnsembleMix,
    EveRecord,
    GentleIntercept,
    InterceptResend,
    NOT_INTERCEPTED,
    _SIDES,
    _attack,
    eve_guess,
    gentle_povm,
    intercept_with_uniforms,
    measuring_code,
)
from scqkd.protocol import ProtocolKind, announcement_options

ALL = list(ProtocolKind)


class TestStrategyValidation:
    def test_q_range(self):
        with pytest.raises(ValueError):
            InterceptResend(q=1.2)
        with pytest.raises(ValueError):
            GentleIntercept(q=-0.1)

    @pytest.mark.parametrize("value", ["0.5", None, 0.5j, True])
    @pytest.mark.parametrize("strategy,name", [
        (InterceptResend, "interception fraction"), (GentleIntercept, "attack strength"),
    ])
    def test_rejects_what_is_not_a_real_number(self, strategy, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a real number"):
            strategy(q=value)
        with pytest.raises(ValueError, match=rf"{name} must lie in \[0, 1\]"):
            strategy(q=Fraction(-1, 3))

    def test_default_mix_symmetric(self):
        assert InterceptResend(q=0.5).mix is EnsembleMix.SYMMETRIC

    @pytest.mark.parametrize("mix", ["bob", "alice", None, 0])
    @pytest.mark.parametrize("strategy", [InterceptResend, GentleIntercept])
    def test_rejects_what_is_not_a_mix(self, strategy, mix):
        with pytest.raises(ValueError, match="ensemble mix must be an EnsembleMix"):
            strategy(q=0.5, mix=mix)
        with pytest.raises(ValueError, match="ensemble mix must be an EnsembleMix"):
            find_threshold(ProtocolKind.TRINE, "standard", mix=mix)


class TestGentlePovm:
    @pytest.mark.parametrize("q", [0.0, 0.3, 0.77, 1.0])
    @pytest.mark.parametrize("protocol", ALL)
    def test_complete(self, protocol, q):
        validate_povm(gentle_povm(make_code(protocol), q))

    @pytest.mark.parametrize("q", ["0.5", True, None, 1.5])
    def test_strength_checked(self, q):
        with pytest.raises(ValueError, match="attack strength must"):
            gentle_povm(make_code(ProtocolKind.TRINE), q)


class TestInterceptResendAction:
    def test_coin_zero_never_intercepts(self):
        rho = make_code(ProtocolKind.TRINE).state(1)
        out, rec = intercept_with_uniforms(
            InterceptResend(q=0), ProtocolKind.TRINE, rho, 0.0, 0.3, 0.3
        )
        assert rec is NOT_INTERCEPTED
        assert out is rho

    def test_symmetric_mix_side_coin(self):
        strategy = InterceptResend(q=1)
        rho = make_code(ProtocolKind.TRINE).state(1)
        _, rec_a = intercept_with_uniforms(strategy, ProtocolKind.TRINE, rho, 0.0, 0.49, 0.0)
        _, rec_b = intercept_with_uniforms(strategy, ProtocolKind.TRINE, rho, 0.0, 0.5, 0.0)
        assert rec_a.ensemble_used == "alice"
        assert rec_b.ensemble_used == "bob"


class TestGentleAction:
    @pytest.mark.parametrize("u_side", [0.2, 0.7])
    @pytest.mark.parametrize("mix", list(EnsembleMix))
    @pytest.mark.parametrize("protocol", ALL)
    def test_full_strength_forwards_measured_state(self, protocol, mix, u_side):
        # q = 1 is measure-and-resend: the forwarded state is the measured one, bit for bit
        for u_outcome in [i / 10 for i in range(10)]:
            for j in range(1, protocol.n_signals + 1):
                rho = make_code(protocol).state(j)
                out, rec = intercept_with_uniforms(
                    GentleIntercept(q=1.0, mix=mix), protocol, rho, 0.5, u_side, u_outcome
                )
                measured = measuring_code(protocol, rec.ensemble_used).state(rec.outcome_index)
                np.testing.assert_array_equal(out, measured)


class TestEveGuess:
    def _rec(self, side, m):
        return EveRecord(intercepted=True, ensemble_used=side, outcome_index=m)

    def test_not_intercepted_abstains(self):
        ann = announcement_options(ProtocolKind.TRINE, 1)[0]
        assert eve_guess(None, ProtocolKind.TRINE, ann, True) is None
        assert eve_guess(NOT_INTERCEPTED, ProtocolKind.TRINE, ann, True) is None

    def test_rejected_round_abstains(self):
        ann = announcement_options(ProtocolKind.TRINE, 1)[0]
        assert eve_guess(self._rec("alice", 1), ProtocolKind.TRINE, ann, False) is None

    @pytest.mark.parametrize("protocol,excluded,reason", [
        (ProtocolKind.TRINE, (), "distinct outcomes"),
        (ProtocolKind.TRINE, (2, 3), "distinct outcomes"),
        (ProtocolKind.TRINE, (5,), "announced exclusion (5,) out of range 1..3"),
        (ProtocolKind.TETRAHEDRON, (2,), "distinct outcomes"),
        (ProtocolKind.TETRAHEDRON, (2, 2), "distinct outcomes"),
        (ProtocolKind.TETRAHEDRON, (2, 3, 4), "distinct outcomes"),
        (ProtocolKind.TETRAHEDRON, (0, 3), "announced exclusion (0, 3) out of range 1..4"),
    ])
    @pytest.mark.parametrize("side", _SIDES)
    def test_malformed_exclusion_rejected(self, protocol, excluded, reason, side):
        from scqkd.protocol import Announcement

        with pytest.raises(ValueError, match=re.escape(reason)):
            eve_guess(self._rec(side, 1), protocol, Announcement(excluded=excluded), True)


class TestGuessRuleIsPosteriorOptimal:
    """The index rule must agree with an explicit posterior maximization."""

    def _map_guess(self, protocol, strategy, side, m, ann):
        # candidates: signals that survive the announcement, uniform prior
        n = protocol.n_signals
        if protocol.excludes_outcomes:
            candidates = [j for j in range(1, n + 1) if j not in ann.excluded]
        else:
            candidates = [j for j in range(1, n + 1) if basis_label(j) == ann.bob_basis]
        from scqkd.protocol import derive_bits

        def bit_for(j):
            if protocol.excludes_outcomes:
                k = next(c for c in candidates if c != j)
                return derive_bits(protocol, j, k, ann)[0]
            return eigen_bit(j)

        eve_rows = _stages(protocol, _attack(strategy)[2], 0).eve
        weights = {}
        for j in candidates:
            w = eve_rows[_SIDES.index(side) * n + j - 1][m - 1]
            weights[bit_for(j)] = weights.get(bit_for(j), Fraction(0)) + w
        p0, p1 = weights.get(0, 0), weights.get(1, 0)
        if p0 == p1:
            return None
        return 0 if p0 > p1 else 1

    @pytest.mark.parametrize("protocol", ALL)
    @pytest.mark.parametrize("family", ["standard", "gentle"])
    @pytest.mark.parametrize("q", [Fraction(3, 10), Fraction(7, 10), Fraction(1)])
    @pytest.mark.parametrize("side", _SIDES)
    def test_matches_index_rule(self, protocol, family, side, q):
        strategy = (
            InterceptResend(q=q) if family == "standard" else GentleIntercept(q=q)
        )
        n = protocol.n_signals
        for m in range(1, n + 1):
            rec = EveRecord(intercepted=True, ensemble_used=side, outcome_index=m)
            for k in range(1, n + 1):
                for ann in announcement_options(protocol, k):
                    want = self._map_guess(protocol, strategy, side, m, ann)
                    got = eve_guess(rec, protocol, ann, True)
                    assert got == want, (protocol, family, q, side, m, ann)
