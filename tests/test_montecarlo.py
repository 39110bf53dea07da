"""Tests for reproducible sampling: counter addressing, kernel parity, statistics."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import Generator, Philox

from scqkd.analysis import _sifting, _strategy_for, enumerate_joint
from scqkd.eavesdrop import EnsembleMix, EveRecord, GentleIntercept, InterceptResend, eve_guess
from scqkd.montecarlo import (
    RoundArrays,
    SampleStats,
    TrialConfig,
    ZScore,
    _tables,
    compare_to_oracle,
    proportion_se,
    round_rng,
    round_uniforms,
    run_trials,
    simulate_rounds,
    stats_from_arrays,
)
from scqkd.protocol import (
    Channel,
    IDEAL,
    ProtocolKind,
    announcement_options,
    derive_bits,
    run_round,
    sift_accept,
)

F = Fraction


class TestRoundUniforms:
    def test_block_zero_matches_fresh_stream(self):
        want = Generator(Philox(key=99)).random((4, 8))
        np.testing.assert_array_equal(round_uniforms(99, 0, 4), want)

    def test_interior_blocks_address_the_same_stream(self):
        whole = round_uniforms(7, 0, 50)
        np.testing.assert_array_equal(round_uniforms(7, 17, 5), whole[17:22])
        np.testing.assert_array_equal(round_uniforms(7, 49, 1), whole[49:])

    def test_seeds_are_independent_streams(self):
        assert not np.array_equal(round_uniforms(1, 0, 2), round_uniforms(2, 0, 2))

    def test_round_rng_positioning(self):
        rng = round_rng(5, start=3)
        np.testing.assert_array_equal(rng.random(8), round_uniforms(5, 3, 1)[0])


class TestTrialConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrialConfig(protocol=ProtocolKind.TRINE, n_rounds=0)
        with pytest.raises(ValueError):
            TrialConfig(protocol=ProtocolKind.TRINE, seed=-1)
        with pytest.raises(ValueError):
            TrialConfig(protocol=ProtocolKind.TRINE, seed=2**64)

    @pytest.mark.parametrize(
        "field,value", [("n_rounds", 2.5), ("seed", 1.5), ("n_rounds", True), ("seed", False),
                        ("n_rounds", "10"), ("seed", F(3))]
    )
    def test_non_integers_rejected(self, field, value):
        with pytest.raises(ValueError):
            TrialConfig(protocol=ProtocolKind.TRINE, **{field: value})

    def test_numpy_integers_accepted(self):
        config = TrialConfig(protocol=ProtocolKind.TRINE, n_rounds=np.int64(7), seed=np.uint32(3))
        assert run_trials(config) == run_trials(TrialConfig(ProtocolKind.TRINE, n_rounds=7, seed=3))


PARITY_CASES = [
    (ProtocolKind.TRINE, InterceptResend(q=0.63), IDEAL),
    (ProtocolKind.TRINE, None, Channel(depolarizing=0.25)),
    (ProtocolKind.TETRAHEDRON, InterceptResend(q=1.0, mix=EnsembleMix.ALICE_ONLY), IDEAL),
    (ProtocolKind.TETRAHEDRON, GentleIntercept(q=0.9, mix=EnsembleMix.BOB_ONLY), Channel(depolarizing=0.1)),
    (ProtocolKind.BB84, GentleIntercept(q=0.8), IDEAL),
    (ProtocolKind.SIX_STATE, InterceptResend(q=0.4, mix=EnsembleMix.BOB_ONLY), Channel(depolarizing=0.05)),
]


@st.composite
def trial_configs(draw, max_rounds=5000):
    eve = _strategy_for(
        draw(st.sampled_from(["none", "standard", "gentle"])),
        draw(st.floats(0, 1)),
        draw(st.sampled_from(list(EnsembleMix))),
    )
    return TrialConfig(
        protocol=draw(st.sampled_from(list(ProtocolKind))),
        eve=eve,
        channel=Channel(depolarizing=draw(st.sampled_from([0, F(1, 7), 0.05, 1.0]))),
        n_rounds=draw(st.integers(1, max_rounds)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


def _assert_matches_scalar(arrays, config, start):
    """Each round of `arrays` is the scalar run_round of the same round index."""
    rng = round_rng(config.seed, start)
    for i in range(len(arrays)):
        t = run_round(config.protocol, config.eve, config.channel, rng)
        assert arrays.signal[i] == t.signal_index
        assert arrays.bob_outcome[i] == t.bob_outcome
        assert arrays.accepted[i] == t.accepted
        assert arrays.alice_bit[i] == (-1 if t.alice_bit is None else t.alice_bit)
        assert arrays.bob_bit[i] == (-1 if t.bob_bit is None else t.bob_bit)
        rec = t.eve_record
        touched = rec is not None and rec.intercepted
        assert arrays.intercepted[i] == touched
        guess = eve_guess(rec, config.protocol, t.announcement, True) if t.accepted else None
        assert arrays.eve_bit[i] == (-1 if guess is None else guess)
        if touched:
            assert arrays.eve_outcome[i] == rec.outcome_index
            assert arrays.eve_side[i] == (0 if rec.ensemble_used == "alice" else 1)
        else:
            assert arrays.eve_side[i] == -1
            assert arrays.eve_outcome[i] == 0


class TestKernelParity:
    """The vectorized kernel must replay the scalar loop exactly."""

    @pytest.mark.parametrize("protocol,eve,channel", PARITY_CASES)
    def test_matches_scalar_rounds(self, protocol, eve, channel):
        config = TrialConfig(protocol=protocol, eve=eve, channel=channel, n_rounds=1500, seed=2718)
        _assert_matches_scalar(simulate_rounds(config), config, 0)

    @settings(max_examples=60, deadline=None)
    @given(config=trial_configs(max_rounds=150), data=st.data())
    def test_any_range_matches_scalar_rounds(self, config, data):
        start, count = data.draw(st.integers(0, 10**9), label="start"), config.n_rounds
        config = dataclasses.replace(config, n_rounds=start + count)
        _assert_matches_scalar(simulate_rounds(config, start, count), config, start)

    def test_unknown_strategy_rejected(self):
        config = TrialConfig(protocol=ProtocolKind.TRINE, eve=object(), n_rounds=10)
        with pytest.raises(ValueError):
            simulate_rounds(config)
        with pytest.raises(ValueError):
            run_trials(config)
        with pytest.raises(ValueError):
            run_round(ProtocolKind.TRINE, object(), IDEAL, round_rng(0))

    @pytest.mark.parametrize("p", [0, 0.05])
    @pytest.mark.parametrize("mix", list(EnsembleMix))
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_full_strength_gentle_is_intercept_resend(self, protocol, mix, p):
        # at q = 1 both families measure every signal at full strength and resend
        channel = Channel(depolarizing=p)
        hard, soft = (
            TrialConfig(protocol, eve, channel, n_rounds=300, seed=31)
            for eve in (InterceptResend(1.0, mix), GentleIntercept(1.0, mix))
        )
        a, b = simulate_rounds(hard), simulate_rounds(soft)
        for f in dataclasses.fields(RoundArrays):
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))
        rng_a, rng_b = round_rng(31), round_rng(31)
        for _ in range(300):
            t_a = run_round(protocol, hard.eve, channel, rng_a)
            t_b = run_round(protocol, soft.eve, channel, rng_b)
            assert t_a == t_b

    def test_subrange_matches_full_run(self):
        config = TrialConfig(
            protocol=ProtocolKind.TRINE, eve=InterceptResend(q=0.5), n_rounds=400, seed=11
        )
        full = simulate_rounds(config)
        part = simulate_rounds(config, start=150, count=100)
        np.testing.assert_array_equal(part.bob_outcome, full.bob_outcome[150:250])
        np.testing.assert_array_equal(part.eve_bit, full.eve_bit[150:250])

    def test_range_validation(self):
        config = TrialConfig(protocol=ProtocolKind.TRINE, n_rounds=10)
        with pytest.raises(ValueError):
            simulate_rounds(config, start=5, count=6)


class TestRoundArrays:
    def test_field_ranges(self):
        config = TrialConfig(
            protocol=ProtocolKind.TETRAHEDRON,
            eve=InterceptResend(q=0.7),
            n_rounds=3000,
            seed=5,
        )
        a = simulate_rounds(config)
        assert len(a) == 3000
        assert a.signal.min() >= 1 and a.signal.max() <= 4
        assert a.bob_outcome.min() >= 1 and a.bob_outcome.max() <= 4
        assert a.announce_index.min() >= 0 and a.announce_index.max() <= 5
        assert set(np.unique(a.alice_bit)) <= {-1, 0, 1}
        # bits present exactly on accepted rounds
        assert ((a.alice_bit >= 0) == a.accepted).all()
        assert ((a.bob_bit >= 0) == a.accepted).all()

    def test_rejected_rounds_have_no_eve_bit(self):
        config = TrialConfig(
            protocol=ProtocolKind.TRINE, eve=InterceptResend(q=1.0), n_rounds=2000, seed=6
        )
        a = simulate_rounds(config)
        assert (a.eve_bit[~a.accepted] == -1).all()


class TestSampleStats:
    def test_counting(self):
        arrays = RoundArrays(
            signal=np.array([1, 2, 3, 1]),
            intercepted=np.array([True, True, False, False]),
            eve_side=np.array([0, 1, -1, -1], dtype=np.int8),
            eve_outcome=np.array([2, 3, 0, 0], dtype=np.int8),
            bob_outcome=np.array([2, 3, 2, 2], dtype=np.int8),
            announce_index=np.array([0, 1, 0, 1], dtype=np.int8),
            accepted=np.array([True, True, True, False]),
            alice_bit=np.array([0, 1, 1, -1], dtype=np.int8),
            bob_bit=np.array([0, 0, 1, -1], dtype=np.int8),
            eve_bit=np.array([0, -1, -1, -1], dtype=np.int8),
        )
        s = stats_from_arrays(arrays)
        assert s == SampleStats(
            n_rounds=4,
            n_sifted=3,
            n_errors=1,
            n_eve_agree_alice=1,
            n_eve_agree_bob=1,
            n_eve_abstain=2,
        )
        assert s.sift_rate == 0.75
        assert s.qber == pytest.approx(1 / 3)

    def test_merge_is_componentwise(self):
        a = SampleStats(10, 5, 1, 2, 3, 1)
        b = SampleStats(20, 8, 2, 4, 4, 2)
        assert a + b == SampleStats(30, 13, 3, 6, 7, 3)
        assert SampleStats.zero() + a == a

    def test_empty_rates_are_nan(self):
        z = SampleStats.zero()
        assert math.isnan(z.sift_rate) and math.isnan(z.qber)


class TestRunTrials:
    def test_chunk_size_invariant(self):
        config = TrialConfig(
            protocol=ProtocolKind.TRINE,
            eve=InterceptResend(q=F(1)),
            n_rounds=30_000,
            seed=44,
        )
        a = run_trials(config, chunk_size=30_000)
        b = run_trials(config, chunk_size=1 << 12)
        c = run_trials(config, chunk_size=9973)  # prime, rounds don't divide evenly
        assert a == b == c

    def test_matches_arrays_total(self):
        config = TrialConfig(protocol=ProtocolKind.BB84, n_rounds=5000, seed=3)
        assert run_trials(config) == stats_from_arrays(simulate_rounds(config))

    def test_chunk_size_validated(self):
        config = TrialConfig(protocol=ProtocolKind.BB84, n_rounds=10)
        with pytest.raises(ValueError):
            run_trials(config, chunk_size=0)


class TestChunkedKernel:
    """run_trials reuses cached tables across chunks; totals must not change."""

    @settings(max_examples=60, deadline=None)
    @given(config=trial_configs(), data=st.data())
    def test_chunks_equal_one_transcript(self, config, data):
        chunk = data.draw(st.integers(max(1, config.n_rounds // 40), 6000), label="chunk_size")
        assert run_trials(config, chunk_size=chunk) == stats_from_arrays(simulate_rounds(config))

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_cell_bits_match_the_sifting_rules(self, protocol):
        n = protocol.n_signals
        # slot 0: Eve did not touch the round; 1 + side * n + m-1: she saw m on side
        records = [None] + [EveRecord(True, side, m) for side in ("alice", "bob") for m in range(1, n + 1)]
        n_opts = len(announcement_options(protocol, 1))
        cell_bits = _tables(protocol, None, IDEAL).cell_bits
        # the sampler's columns are the int8 encoding of the one sifting table
        assert cell_bits.shape == (4, (2 * n + 1) * n * n * n_opts)
        encoded = [(0, -1, -1, -1) if key is None else (1, key[0], key[1], -1 if key[2] is None else key[2])
                   for key in _sifting(protocol)]
        assert cell_bits.dtype == np.int8 and cell_bits.T.tolist() == [list(c) for c in encoded]
        bits = cell_bits.reshape(4, len(records), n, n, n_opts)
        for slot, j, k, ai in np.ndindex(bits.shape[1:]):
            accepted, alice, bob, eve = bits[:, slot, j, k, ai]
            ann = announcement_options(protocol, k + 1)[ai]
            if not sift_accept(protocol, j + 1, ann):
                assert (accepted, alice, bob, eve) == (0, -1, -1, -1)
                continue
            assert (accepted, alice, bob) == (1, *derive_bits(protocol, j + 1, k + 1, ann))
            guess = eve_guess(records[slot], protocol, ann, True)
            assert eve == (-1 if guess is None else guess)

    def test_tables_built_once_per_configuration(self):
        config = TrialConfig(ProtocolKind.BB84, GentleIntercept(q=0.3), n_rounds=5000, seed=1)
        _tables.cache_clear()
        run_trials(config, chunk_size=100)
        run_trials(config, chunk_size=700)
        assert _tables.cache_info().misses == 1
        tab = _tables(config.protocol, config.eve, config.channel)
        assert not any(v.flags.writeable for v in vars(tab).values() if isinstance(v, np.ndarray))

    def test_table_cache_is_bounded(self):
        for q in np.linspace(0, 1, 40):
            _tables(ProtocolKind.TRINE, GentleIntercept(q=float(q)), IDEAL)
        info = _tables.cache_info()
        assert info.maxsize == 16 and info.currsize <= 16


class TestComparison:
    def test_within_four_sigma_on_honest_run(self):
        eve = InterceptResend(q=F(3, 5))
        config = TrialConfig(
            protocol=ProtocolKind.TETRAHEDRON, eve=eve, n_rounds=200_000, seed=97
        )
        report = compare_to_oracle(run_trials(config), enumerate_joint(ProtocolKind.TETRAHEDRON, eve))
        assert report.ok, [(e.name, e.z) for e in report.entries]
        assert report.max_abs_z < 4.0
        assert report.flagged() == ()

    def test_detects_wrong_oracle(self):
        eve = InterceptResend(q=F(1))
        config = TrialConfig(
            protocol=ProtocolKind.TRINE, eve=eve, n_rounds=200_000, seed=98
        )
        stats = run_trials(config)
        wrong = enumerate_joint(ProtocolKind.TRINE, InterceptResend(q=F(1, 2)))
        report = compare_to_oracle(stats, wrong)
        assert not report.ok
        assert len(report.flagged()) >= 1

    def test_zero_variance_scoring(self):
        assert ZScore("x", 0, 1000, 0.0).z == 0.0
        assert ZScore("x", 3, 1000, 0.0).z == math.inf
        assert ZScore("x", 1000, 1000, 1.0).z == 0.0

    def test_z_sign_convention(self):
        assert ZScore("x", 600, 1000, 0.5).z > 0
        assert ZScore("x", 400, 1000, 0.5).z < 0


class TestProportionSe:
    def test_values(self):
        assert proportion_se(500, 1000) == pytest.approx(math.sqrt(0.25 / 1000))
        assert proportion_se(0, 1000) == 0.0
        assert math.isnan(proportion_se(0, 0))
