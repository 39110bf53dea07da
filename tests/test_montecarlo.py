"""Tests for reproducible sampling: counter addressing, kernel parity, statistics."""

import concurrent.futures
import dataclasses
import math
import re
import sys
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import Generator, Philox
from test_analysis import _born_stages

from scqkd import montecarlo
from scqkd.analysis import _sifting, _stages, _strategy_for, enumerate_joint
from scqkd.eavesdrop import EnsembleMix, EveRecord, GentleIntercept, InterceptResend, _attack, eve_guess
from scqkd.montecarlo import (
    RoundArrays,
    SampleStats,
    TrialConfig,
    ZScore,
    _cdf,
    _cell_bits,
    _sample_rows,
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
from scqkd.states import I2, MIXED, Povm, sample_outcome

F = Fraction


def _stages_of(protocol, eve, channel):
    """The rows the sampler's tables are built from: _stages at the floats of Eve's strength and the channel's p."""
    return _stages(protocol, float(_attack(eve)[2]), float(channel.depolarizing))


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

    @pytest.mark.parametrize("field,value", [("protocol", "trine"), ("protocol", None), ("channel", 0.5), ("channel", None)])
    def test_protocol_and_channel_types_checked(self, field, value):
        config = {"protocol": ProtocolKind.TRINE, field: value}
        with pytest.raises(ValueError, match=f"{field} must be a"):
            TrialConfig(**config)

    @pytest.mark.parametrize("eve", ["trine", "standard", 0.5, EnsembleMix.SYMMETRIC, object()])
    def test_unknown_eavesdropper_rejected(self, eve):
        # rejected where the config is made, not first inside run_trials
        with pytest.raises(ValueError, match=f"unknown eavesdropping strategy: {re.escape(repr(eve))}"):
            TrialConfig(ProtocolKind.TRINE, eve=eve)

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
    # Eve's outcome is drawn from a real row on every round and masked where she did not measure:
    # rounds she never touches, sides the mix never picks, and slot 0 where she touches every round
    (ProtocolKind.TRINE, InterceptResend(q=F(0)), Channel(depolarizing=F(1, 7))),
    (ProtocolKind.BB84, InterceptResend(q=0.0, mix=EnsembleMix.BOB_ONLY), IDEAL),
    (ProtocolKind.SIX_STATE, InterceptResend(q=1.0, mix=EnsembleMix.ALICE_ONLY), Channel(depolarizing=0.05)),
    (ProtocolKind.TRINE, InterceptResend(q=F(1), mix=EnsembleMix.BOB_ONLY), IDEAL),
    (ProtocolKind.TETRAHEDRON, GentleIntercept(q=0.0), Channel(depolarizing=0.1)),
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


@st.composite
def sample_stats(draw):
    """Counts a simulation could produce: sifted rounds within the rounds, the rest within the sifted."""
    rounds = draw(st.integers(0, 10**9))
    sifted = draw(st.integers(0, rounds))
    return SampleStats(rounds, sifted, *draw(st.lists(st.integers(0, sifted), min_size=4, max_size=4)))


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
        # no TrialConfig holds one (TestTrialConfig), so simulate_rounds and run_trials never see it
        with pytest.raises(ValueError):
            TrialConfig(protocol=ProtocolKind.TRINE, eve=object(), n_rounds=10)
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

    @pytest.mark.parametrize("p", [0, F(1, 7), 0.05])
    @pytest.mark.parametrize("mix", list(EnsembleMix))
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_intercept_resend_at_zero_is_no_eavesdropper(self, protocol, mix, p):
        # Eve touches no round in either, so both take one path: every column's dtype and bytes
        def columns(eve):
            arrays = simulate_rounds(TrialConfig(protocol, eve, Channel(depolarizing=p), n_rounds=2000, seed=13))
            return [(column.dtype, column.tobytes()) for column in dataclasses.astuple(arrays)]

        assert columns(InterceptResend(0, mix)) == columns(None)

    @pytest.mark.parametrize("eve", [None, InterceptResend(0), InterceptResend(F(0), EnsembleMix.ALICE_ONLY),
                                     InterceptResend(0.0, EnsembleMix.BOB_ONLY)])
    def test_no_touched_round_draws_no_eve_outcome(self, eve):
        # the sampler forks on the share Eve touches, not on the strategy's class: only Bob's draw is made
        config = TrialConfig(ProtocolKind.SIX_STATE, eve, Channel(depolarizing=0.05), n_rounds=500, seed=3)
        original, calls = montecarlo._sample_rows, []

        def counted(cum, rows, u):
            calls.append(cum)
            return original(cum, rows, u)

        with mock.patch.object(montecarlo, "_sample_rows", counted):
            simulate_rounds(config)
        assert len(calls) == 1 and calls[0] is _tables(ProtocolKind.SIX_STATE, 1.0, 0.05)[1]

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

    @pytest.mark.parametrize("start,count,name", [
        (True, 3, "start"), (0.0, 4, "start"), (F(1), 2, "start"), ("0", 2, "start"),
        (0, 3.0, "count"), (0, False, "count"), (2, F(3), "count"),
    ])
    def test_non_integer_range_rejected(self, start, count, name):
        # a bool is an Integral, and True would read as round 1
        config = TrialConfig(protocol=ProtocolKind.TRINE, n_rounds=10)
        bad = start if name == "start" else count
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {re.escape(repr(bad))}"):
            simulate_rounds(config, start, count)

    def test_numpy_integer_range_accepted(self):
        config = TrialConfig(protocol=ProtocolKind.TRINE, n_rounds=10, seed=4)
        a, b = simulate_rounds(config, np.int64(2), np.uint8(5)), simulate_rounds(config, 2, 5)
        for f in dataclasses.fields(RoundArrays):
            np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))


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
        assert all(type(getattr(s, f.name)) is int for f in dataclasses.fields(SampleStats))

    def test_merge_is_componentwise(self):
        a = SampleStats(10, 5, 1, 2, 3, 1)
        b = SampleStats(20, 8, 2, 4, 4, 2)
        assert a + b == SampleStats(30, 13, 3, 6, 7, 3)
        assert SampleStats.zero() + a == a
        with pytest.raises(TypeError):
            SampleStats.zero() + 1

    def test_empty_rates_are_nan(self):
        z = SampleStats.zero()
        assert math.isnan(z.sift_rate) and math.isnan(z.qber)

    @pytest.mark.parametrize("counts,message", [
        ((10, 5, -3, 0, 0, 5), "n_errors must be >= 0, got -3"),
        ((-1, 0, 0, 0, 0, 0), "n_rounds must be >= 0, got -1"),
        ((10, 5, True, 0, 0, 0), "n_errors must be an integer, got True"),
        ((10, 5.0, 0, 0, 0, 0), "n_sifted must be an integer, got 5.0"),
        ((10, 5, 0, 0, 0, Fraction(1)), "n_eve_abstain must be an integer, got Fraction(1, 1)"),
        ((10, 11, 0, 0, 0, 0), "n_sifted = 11 exceeds n_rounds = 10"),
        ((10, 5, 6, 0, 0, 0), "n_errors = 6 exceeds n_sifted = 5"),
        ((10, 5, 0, 6, 0, 0), "n_eve_agree_alice = 6 exceeds n_sifted = 5"),
        ((10, 5, 0, 0, 6, 0), "n_eve_agree_bob = 6 exceeds n_sifted = 5"),
        ((10, 5, 0, 0, 0, 6), "n_eve_abstain = 6 exceeds n_sifted = 5"),
        ((10, 11, 12, 0, 0, 0), "n_sifted = 11 exceeds n_rounds = 10"),  # the first bound broken is named
        ((10, 5, 0, 7, 6, 0), "n_eve_agree_alice = 7 exceeds n_sifted = 5"),
        ((10, 11, 0, 0, 0, -1), "n_eve_abstain must be >= 0, got -1"),  # a sign before any bound
    ])
    def test_rejects_counts_no_simulation_can_produce(self, counts, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SampleStats(*counts)

    # each count after n_rounds is a share of the count named here
    SHARE_OF = {"n_sifted": "n_rounds", "n_errors": "n_sifted", "n_eve_agree_alice": "n_sifted",
                "n_eve_agree_bob": "n_sifted", "n_eve_abstain": "n_sifted"}

    @settings(max_examples=300)
    @given(counts=st.lists(st.integers(-2, 12), min_size=6, max_size=6))
    def test_accepts_exactly_the_counts_within_their_shares(self, counts):
        count = dict(zip([f.name for f in dataclasses.fields(SampleStats)], counts))
        broken = [f"{name} must be >= 0, got {c}" for name, c in count.items() if c < 0]
        broken += [f"{name} = {count[name]} exceeds {of} = {count[of]}"
                   for name, of in self.SHARE_OF.items() if count[name] > count[of]]
        if broken:
            with pytest.raises(ValueError, match=f"^{re.escape(broken[0])}$"):
                SampleStats(*counts)
        else:
            assert dataclasses.astuple(SampleStats(*counts)) == tuple(counts)

    def test_accepts_numpy_integers_and_full_counts(self):
        s = SampleStats(np.int64(10), np.int32(5), 5, 5, 5, np.uint8(5))
        assert s.qber == 1.0 and s.sift_rate == 0.5


class TestRunTrials:
    def test_chunk_size_invariant(self):
        config = TrialConfig(
            protocol=ProtocolKind.TRINE,
            eve=InterceptResend(q=F(1)),
            n_rounds=30_000,
            seed=44,
        )
        with _chunk(30_000):
            a = run_trials(config)
        with _chunk(1 << 12):
            b = run_trials(config)
        with _chunk(9973):  # prime, rounds don't divide evenly
            c = run_trials(config)
        assert a == b == c

    def test_matches_arrays_total(self):
        config = TrialConfig(protocol=ProtocolKind.BB84, n_rounds=5000, seed=3)
        assert run_trials(config) == stats_from_arrays(simulate_rounds(config))

    @pytest.mark.parametrize("cpus,chunk", [(1, 1 << 14), (2, 1000), (3, 700)])
    def test_counts_are_python_ints(self, cpus, chunk):
        # numpy integer counts would fail json.dumps in the CLI's records
        config = TrialConfig(ProtocolKind.SIX_STATE, GentleIntercept(q=0.5), n_rounds=3000, seed=5)
        with _cpus(cpus), _chunk(chunk):
            stats = run_trials(config)
        assert stats == stats_from_arrays(simulate_rounds(config))
        assert all(type(getattr(stats, f.name)) is int for f in dataclasses.fields(SampleStats))


def _recording(calls, fail_in_workers=None):
    """simulate_rounds that records each (start, count) and may fail off the main thread."""
    original = montecarlo.simulate_rounds

    def recorded(config, start=0, count=None):
        calls.append((start, count))
        if fail_in_workers is not None and threading.current_thread() is not threading.main_thread():
            raise fail_in_workers
        return original(config, start, count)

    return mock.patch.object(montecarlo, "simulate_rounds", recorded)


def _cpus(n):
    return mock.patch.object(montecarlo, "_cpu_count", lambda: n)


def _chunk(n):
    return mock.patch.object(montecarlo, "_CHUNK_ROUNDS", n)


_FAMILIES = ["none", "standard", "gentle"]
# Fraction (q, p) points with their floats equal (Fraction(1) == 1.0) or not (Fraction(1, 3) != 1/3)
_TWIN_POINTS = [(F(1, 3), F(1, 7)), (F(3, 5), F(0)), (F(1), F(1, 20)), (F(0), F(1))]


def _twins(protocol, family, q, p):
    """A configuration and its float twin: Fraction(1, 3) != 1/3, yet both build from the float 1/3."""
    return protocol, [(_strategy_for(family, q), p), (_strategy_for(family, float(q)), float(p))]


# groups of configurations that share one (protocol, float strength, float p) key, so one build: no
# eavesdropper and intercept/resend at every share and mix measure at strength 1, a gentle strength's
# table serves every mix, IDEAL's int 0 and a Fraction(0) channel are one p, and each point that
# test_a_fraction_configuration_simulates_as_its_float_twin runs shares its float twin's build
_SHARED_BUILDS = {
    "one-config": (ProtocolKind.BB84, [(GentleIntercept(q=0.3), 0)]),
    "strength-1": (ProtocolKind.TRINE, [(None, F(1, 7))] + [
        (InterceptResend(q, mix), F(1, 7)) for q in (F(0), 0.0, F(1, 3), 0.5, F(1), 1.0) for mix in EnsembleMix
    ]),
    "gentle-mixes": (ProtocolKind.TRINE, [(GentleIntercept(F(3, 5), mix), F(1, 7)) for mix in EnsembleMix]),
    "equal-exact-values": (ProtocolKind.TRINE, [(None, 0), (None, F(0)), (InterceptResend(F(1, 2)), 0),
                                                (GentleIntercept(F(1)), 0), (GentleIntercept(1.0), 0)]),
    **{f"twins-{protocol.value}-{family}-{q}-{p}": _twins(protocol, family, q, p) for protocol, family, q, p in [
        (ProtocolKind.TRINE, "none", 0, F(1, 2)),
        (ProtocolKind.TETRAHEDRON, "standard", F(1, 4), F(1, 8)),
        (ProtocolKind.SIX_STATE, "gentle", F(1, 2), F(1, 4)),
        (ProtocolKind.TRINE, "none", 0, F(1, 7)),
        (ProtocolKind.TRINE, "standard", F(1, 3), F(1, 7)),
        (ProtocolKind.TRINE, "gentle", F(1, 3), F(1, 20)),
        (ProtocolKind.TRINE, "gentle", F(3, 5), F(0)),
    ] + [(protocol, family, q, p) for protocol in ProtocolKind for family in _FAMILIES for q, p in _TWIN_POINTS]},
}


class TestChunkedKernel:
    """run_trials reuses cached tables across chunks and threads; totals must not change."""

    @settings(max_examples=60, deadline=None)
    @given(config=trial_configs(), data=st.data())
    def test_chunks_equal_one_transcript(self, config, data):
        chunk = data.draw(st.integers(max(1, config.n_rounds // 40), 6000), label="chunk_size")
        cpus = data.draw(st.integers(1, 4), label="cpus")
        calls = []
        with _cpus(cpus), _recording(calls), _chunk(chunk):
            pooled = run_trials(config)
        assert pooled == stats_from_arrays(simulate_rounds(config))
        # the chunks cover every round exactly once, each at most one thread's share
        workers = min(cpus, -(-config.n_rounds // chunk))
        covered = sorted(calls)
        assert [start for start, _ in covered] == [0] + [s + c for s, c in covered[:-1]]
        assert sum(c for _, c in covered) == config.n_rounds
        assert max(c for _, c in covered) <= -(-chunk // workers)

    @pytest.mark.parametrize("n_rounds", [1, 999, 1000])
    def test_one_chunk_starts_no_thread(self, n_rounds):
        config = TrialConfig(ProtocolKind.TRINE, InterceptResend(q=0.5), n_rounds=n_rounds, seed=2)
        refused = mock.Mock(side_effect=AssertionError("a one-chunk trial started a pool"))
        with _cpus(4), _chunk(1000), mock.patch.object(concurrent.futures, "ThreadPoolExecutor", refused):
            assert run_trials(config) == stats_from_arrays(simulate_rounds(config))
        refused.assert_not_called()

    def test_worker_exception_propagates_and_threads_end(self):
        config = TrialConfig(ProtocolKind.SIX_STATE, GentleIntercept(q=0.5), n_rounds=5000, seed=8)
        threads_before = threading.active_count()
        calls = []
        with _cpus(3), _chunk(1200), _recording(calls, fail_in_workers=KeyError("chunk")):
            with pytest.raises(KeyError, match="chunk"):
                run_trials(config)
        assert threading.active_count() == threads_before
        assert (0, 400) in calls  # the calling thread ran its own part

    def test_cold_pooled_calls_build_tables_once(self):
        # more threads than cores and frequent switches, to give a second build a chance
        configs = [
            TrialConfig(ProtocolKind.TETRAHEDRON, eve, channel, n_rounds=6000, seed=4)
            for eve in (None, InterceptResend(q=0.25), GentleIntercept(q=0.75, mix=EnsembleMix.BOB_ONLY))
            for channel in (IDEAL, Channel(depolarizing=0.1))
        ]
        serial = [stats_from_arrays(simulate_rounds(config)) for config in configs]
        _tables.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        keys = set()  # no eavesdropper and intercept/resend measure at strength 1 and share tables
        try:
            with _cpus(4), _chunk(64):
                for i, config in enumerate(configs):
                    assert run_trials(config) == serial[i]
                    keys.add((_attack(config.eve)[2], config.channel.depolarizing))
                    assert _tables.cache_info().misses == len(keys)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_cell_bits_match_the_sifting_rules(self, protocol):
        n = protocol.n_signals
        # slot 0: Eve did not touch the round; 1 + side * n + m-1: she saw m on side
        records = [None] + [EveRecord(True, side, m) for side in ("alice", "bob") for m in range(1, n + 1)]
        n_opts = len(announcement_options(protocol, 1))
        cell_bits = _cell_bits(protocol)
        # the sampler's columns are the int8 encoding of the one sifting table
        assert cell_bits.shape == (4, (2 * n + 1) * n * n * n_opts)
        encoded = [(0, -1, -1, -1) if key is None else (1, key[0], key[1], -1 if key[2] is None else key[2])
                   for key in _sifting(protocol)]
        assert cell_bits.dtype == np.int8 and not cell_bits.flags.writeable
        assert cell_bits.T.tolist() == [list(c) for c in encoded]
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

    @pytest.mark.parametrize("q,p", [(F(3, 7), F(1, 10)), (F(3, 5), 0.0), (0.3, F(1, 7)), (1 - 1e-12, 0.05),
                                     (F(1, 3), F(1, 7)), (0.63, 0.05)])
    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_tables_are_the_cdfs_of_the_born_rows(self, protocol, family, q, p):
        # each row against run_round's matrix Born rows at float(strength) and float(p), weighed by the share of
        # rounds that read it: 1 for Eve's rows and Bob's in slot 0, Eve's Born p_m for Bob's after her outcome m
        strength = _attack(_strategy_for(family, q, EnsembleMix.SYMMETRIC))[2]
        tables = _tables(protocol, float(strength), float(p))
        n = protocol.n_signals
        eve_rows, bob_rows = _born_stages(protocol, float(strength), float(p))
        reads = [1.0] * n + [eve_rows[si * n + j][m] for si in (0, 1) for m in range(n) for j in range(n)]
        for cum, born_rows, weights in zip(tables, (eve_rows, bob_rows), ([1.0] * 2 * n, reads)):
            assert cum.dtype == np.float64 and not cum.flags.writeable
            for row, born, w in zip(cum.tolist(), born_rows, weights, strict=True):
                first_inf = row.index(math.inf)
                assert all(w * abs(c - want) <= 1e-12 for c, want in zip(row[:first_inf], np.cumsum(born)))
                assert w * sum(born[first_inf + 1:]) <= 1e-12 and born[first_inf] > 0.0

    @pytest.mark.parametrize("protocol,eves", list(_SHARED_BUILDS.values()), ids=list(_SHARED_BUILDS))
    def test_a_group_of_configurations_builds_its_tables_once(self, protocol, eves):
        configs = [TrialConfig(protocol, eve, Channel(depolarizing=p), n_rounds=50, seed=1) for eve, p in eves]
        for order in (configs, configs[::-1]):
            _tables.cache_clear()
            with _cpus(2), _chunk(16):
                for config in order:  # the pooled pre-build, each chunk's lookup, then the kernel's own
                    run_trials(config)
                    simulate_rounds(config)
            assert _tables.cache_info().misses == 1

    @pytest.mark.parametrize("q,p", _TWIN_POINTS)
    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("protocol", list(ProtocolKind))
    def test_a_fraction_configuration_simulates_as_its_float_twin(self, protocol, family, q, p):
        # the same tables, so the same transcript: every column's dtype and bytes
        def columns(q, p):
            config = TrialConfig(protocol, _strategy_for(family, q), Channel(depolarizing=p), n_rounds=3000, seed=5)
            arrays = simulate_rounds(config)
            return [(column.dtype, column.tobytes()) for column in dataclasses.astuple(arrays)]

        assert columns(q, p) == columns(float(q), float(p))


def _one_shot_pick(cum, rows, u):
    """The inverse CDF as one gather of whole rows: the count of row entries at or below u, plus 1."""
    return (u[:, None] >= cum.take(rows, axis=0)).sum(axis=1) + 1


def _edge_uniforms(rows):
    """(row, u) arrays: u at each row's CDF edges, one ulp below each, past its mass, at 0 and the largest."""
    draws = []
    for r, row in enumerate(rows):
        edges = [float(c) for c in np.cumsum([float(x) for x in row])]
        below = [float(np.nextafter(c, 0.0)) for c in edges]
        past = float(np.nextafter(edges[-1], 2.0))
        draws += [(r, u) for u in sorted({0.0, *edges, *below, past, float(np.nextafter(1.0, 0.0))}) if 0.0 <= u < 1.0]
    return tuple(map(np.array, zip(*draws)))


class TestSampleRows:
    """The vectorized inverse CDF at the edges of its intervals, past the mass included."""

    ROWS = [
        [0.0, 0.3, 0.7, 0.0],  # leading and trailing zeros
        [0.1, 0.0, 0.2, 0.7],  # an interior zero
        [0.7, 0.1, 0.1, 0.1],  # sums to 1 - 2^-53: the last uniform lies past the mass
        [0.3, 0.2, 0.0, 0.0],  # half the mass, then two zeros
        [0.0, 0.0, 0.0, 1.0],
        [F(1, 3), F(1, 3), F(1, 3), F(0)],
        [0.0, 0.0, 0.0, 0.0],  # no mass: every uniform picks outcome n
    ]

    def test_matches_the_scalar_rule_at_every_edge(self):
        n = 4
        floats = [[float(x) for x in row] for row in self.ROWS]
        cum, (rows, us) = _cdf(self.ROWS, n), _edge_uniforms(floats)
        picked = _sample_rows(cum, rows, us)
        np.testing.assert_array_equal(picked, _one_shot_pick(cum, rows, us))
        # the Born probability of p * I on I/2 is 0.5 p + 0.5 p = p: the scalar sampler reads each row as it is
        povms = [Povm(tuple(p * I2 for p in row)) for row in floats]
        for r, u, k in zip(rows.tolist(), us.tolist(), picked.tolist()):
            if any(floats[r]):
                assert k == sample_outcome(MIXED, povms[r], u)
            else:  # no mass is no distribution: the scalar sampler refuses it, the table gives outcome n
                assert k == n
                with pytest.raises(ValueError, match="all outcomes have zero probability"):
                    sample_outcome(MIXED, povms[r], u)
        # the rows whose mass falls short of 1 are drawn from at and past their total
        past = {r for r, u in zip(rows, us) if u >= sum(floats[r]) > 0.0}
        assert past == {2, 3}

    @settings(max_examples=60, deadline=None)
    @given(
        protocol=st.sampled_from(list(ProtocolKind)),
        family=st.sampled_from(["none", "standard", "gentle"]),
        mix=st.sampled_from(list(EnsembleMix)),
        q=st.fractions(min_value=0, max_value=1, max_denominator=60),
        p=st.fractions(min_value=0, max_value=1, max_denominator=20),
    )
    def test_column_gathers_equal_the_one_shot_gather(self, protocol, family, mix, q, p):
        eve, channel = _strategy_for(family, q, mix), Channel(depolarizing=p)
        n = protocol.n_signals
        tables = _tables(protocol, float(_attack(eve)[2]), float(p))
        for cum, stage_rows in zip(tables, _stages_of(protocol, eve, channel)):
            rows, us = _edge_uniforms(stage_rows)
            picked = _sample_rows(cum, rows, us)
            assert picked.dtype == np.int8 and picked.shape == us.shape
            assert 1 <= picked.min() and picked.max() <= n
            np.testing.assert_array_equal(picked, _one_shot_pick(cum, rows, us))
            # a strided column of a uniform block reads as its contiguous copy
            block = np.stack([us, 1.0 - us], axis=1)
            np.testing.assert_array_equal(_sample_rows(cum, rows, block[:, 0]), picked)


class TestComparison:
    def test_within_four_sigma_on_honest_run(self):
        eve = InterceptResend(q=F(3, 5))
        config = TrialConfig(
            protocol=ProtocolKind.TETRAHEDRON, eve=eve, n_rounds=200_000, seed=97
        )
        report = compare_to_oracle(run_trials(config), enumerate_joint(ProtocolKind.TETRAHEDRON, eve))
        assert report.ok, [(e.name, e.z) for e in report.entries]
        assert report.max_abs_z < 4.0
        assert [e for e in report.entries if abs(e.z) > 4.0] == []

    def test_detects_wrong_oracle(self):
        eve = InterceptResend(q=F(1))
        config = TrialConfig(
            protocol=ProtocolKind.TRINE, eve=eve, n_rounds=200_000, seed=98
        )
        stats = run_trials(config)
        wrong = enumerate_joint(ProtocolKind.TRINE, InterceptResend(q=F(1, 2)))
        report = compare_to_oracle(stats, wrong)
        assert not report.ok
        assert len([e for e in report.entries if abs(e.z) > 4.0]) >= 1

    @settings(max_examples=60, deadline=None)
    @given(a=sample_stats(), b=sample_stats(), protocol=st.sampled_from(list(ProtocolKind)),
           family=st.sampled_from(["none", "standard", "gentle"]), mix=st.sampled_from(list(EnsembleMix)),
           q=st.fractions(min_value=0, max_value=1, max_denominator=12))
    def test_entries_and_sums_follow_the_counters(self, a, b, protocol, family, mix, q):
        total = a + b
        pairs = zip(dataclasses.astuple(a), dataclasses.astuple(b))
        assert dataclasses.astuple(total) == tuple(x + y for x, y in pairs)
        assert SampleStats.zero() + a == a == a + SampleStats.zero()
        joint = enumerate_joint(protocol, _strategy_for(family, q, mix))
        entries = compare_to_oracle(total, joint).entries
        assert [(e.name, e.observed, e.trials, e.expected) for e in entries] == [
            ("sift", total.n_sifted, total.n_rounds, float(joint.p_sift)),
            ("error", total.n_errors, total.n_sifted, float(joint.qber)),
            ("eve_agree_alice", total.n_eve_agree_alice, total.n_sifted, float(joint.p_eve_agree_alice)),
            ("eve_agree_bob", total.n_eve_agree_bob, total.n_sifted, float(joint.p_eve_agree_bob)),
            ("eve_abstain", total.n_eve_abstain, total.n_sifted, float(joint.p_eve_abstain)),
        ]
        assert all(type(e.expected) is float for e in entries)

    def test_zero_variance_scoring(self):
        assert ZScore("x", 0, 1000, 0.0).z == 0.0
        assert ZScore("x", 3, 1000, 0.0).z == math.inf
        assert ZScore("x", 1000, 1000, 1.0).z == 0.0

    def test_z_sign_convention(self):
        assert ZScore("x", 600, 1000, 0.5).z > 0
        assert ZScore("x", 400, 1000, 0.5).z < 0


class TestEntryPointsCheckTheirArguments:
    """An argument of the wrong type is rejected with a ValueError before any table is read."""

    @pytest.mark.parametrize("call,message", [
        (lambda: run_trials(None), "config must be a TrialConfig, got None"),
        (lambda: simulate_rounds({"protocol": "trine"}), "config must be a TrialConfig, got {'protocol': 'trine'}"),
        (lambda: compare_to_oracle(SampleStats.zero(), {}), "joint must be a JointDistribution, got {}"),
        (lambda: compare_to_oracle(None, enumerate_joint(ProtocolKind.TRINE)), "stats must be a SampleStats, got None"),
    ], ids=["run_trials", "simulate_rounds", "compare_to_oracle-joint", "compare_to_oracle-stats"])
    def test_wrong_type_rejected(self, call, message):
        before = _tables.cache_info()
        with pytest.raises(ValueError, match=re.escape(message)):
            call()
        after = _tables.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses)


class TestProportionSe:
    def test_values(self):
        assert proportion_se(500, 1000) == pytest.approx(math.sqrt(0.25 / 1000))
        assert proportion_se(0, 1000) == 0.0
        assert math.isnan(proportion_se(0, 0))
