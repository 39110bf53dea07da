"""Monte Carlo simulation with counter-addressed randomness.

Each round consumes one aligned block of 8 uniforms (see protocol.run_round
for the slot layout), and the Philox counter is set so that round i starts
at counter 2 * i regardless of how rounds are batched. Any contiguous chunk
of rounds is therefore reproducible from (seed, start index) alone, and
chunked runs merge to bit-identical totals.

The vectorized kernel samples from the round model of the exact analysis:
its inverse-CDF tables are a sequential np.cumsum of the Born rows of
analysis._stages, which are the same matrix Born products run_round takes,
so a vectorized batch reproduces the scalar transcript loop float for float.
run_round itself keeps its own matrix path, as the independent reference.
The tables of a configuration are built once and cached. A round's key bits
and Eve's guess are read from cell_bits, the int8 encoding of
analysis._sifting, at the round's cell (Eve's slot, signal, Bob's outcome,
announcement), in the layout analysis._Stages defines for both paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np
from numpy.random import Generator, Philox

from .analysis import _sifting, _stages
from .eavesdrop import _attack, _side_weights
from .protocol import Channel, IDEAL, ProtocolKind, announcement_options

UNIFORMS_PER_ROUND = 8
_COUNTERS_PER_ROUND = UNIFORMS_PER_ROUND // 4  # Philox counter steps in 4-double blocks


@dataclass(frozen=True)
class TrialConfig:
    """One reproducible simulation: protocol, adversary, channel, size, seed."""

    protocol: ProtocolKind
    eve: object = None
    channel: Channel = IDEAL
    n_rounds: int = 100_000
    seed: int = 0

    def __post_init__(self):
        for name in ("n_rounds", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n_rounds < 1:
            raise ValueError(f"n_rounds must be positive, got {self.n_rounds}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")


def round_rng(seed: int, start: int = 0) -> Generator:
    """Generator positioned at the first uniform of round `start`."""
    return Generator(Philox(key=seed, counter=[_COUNTERS_PER_ROUND * start, 0, 0, 0]))


def round_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """The (count, 8) uniform block for rounds start..start+count-1."""
    return round_rng(seed, start).random((count, UNIFORMS_PER_ROUND))


# -- precomputed branch tables ---------------------------------------------------


def _cdf(rows: list, n: int) -> tuple:
    """Flat CDF table of outcome rows, and each row's last nonzero outcome.

    np.cumsum adds along a row in order, as states.sample_outcome does, so the
    vectorized inverse CDF lands on the same outcome for the same uniform. A
    left-out row (None) reads as zeros; the kernel never uses an outcome
    drawn from it (Eve's rows at q = 0 are drawn from, then masked).
    """
    probs = np.array([[0.0] * n if row is None else row for row in rows])
    last_nonzero = n - 1 - np.argmax(probs[:, ::-1] > 0.0, axis=1)
    return np.cumsum(probs, axis=1), last_nonzero


@lru_cache(maxsize=len(ProtocolKind))
def _cell_bits(protocol: ProtocolKind) -> np.ndarray:
    """analysis._sifting as int8 columns (accepted, alice bit, bob bit, eve guess), -1 for none."""
    cells = [(0, None, None, None) if key is None else (1, *key) for key in _sifting(protocol)]
    cell_bits = np.array([[-1 if v is None else v for v in c] for c in cells], dtype=np.int8).T
    cell_bits.flags.writeable = False
    return cell_bits


class _Tables:
    """Per-configuration outcome tables for the vectorized kernel.

    The CDFs are cumulative sums of the Born rows of analysis._stages, one row
    per (Eve's slot, signal) as laid out there, so a round's row is one take;
    cell_bits encodes analysis._sifting, in the same cell layout.
    """

    def __init__(self, protocol: ProtocolKind, eve, channel: Channel):
        stages = _stages(protocol, eve, channel, born=True)
        self.n = n = protocol.n_signals
        self.eve_cum, self.eve_lnz = _cdf(stages.eve, n)
        self.bob_cum, self.bob_lnz = _cdf(stages.bob, n)
        self.n_opts = len(announcement_options(protocol, 1))
        self.cell_bits = _cell_bits(protocol)
        for value in vars(self).values():  # shared by every caller of _tables
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


@lru_cache(maxsize=16)
def _tables(protocol: ProtocolKind, eve, channel: Channel) -> _Tables:
    return _Tables(protocol, eve, channel)


def _sample_rows(cum: np.ndarray, lnz: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized inverse CDF over the given rows of a CDF table; returns 1-based labels.

    Equivalent to states.sample_outcome: a uniform in [c_{i-1}, c_i) picks
    outcome i (zero-probability outcomes create empty intervals), and a
    uniform at or past the total mass falls back to the last nonzero outcome.
    """
    idx = (u[:, None] >= cum.take(rows, axis=0)).sum(axis=1)
    over = idx >= cum.shape[1]
    return np.where(over, lnz.take(rows), np.minimum(idx, cum.shape[1] - 1)) + 1


@dataclass(frozen=True)
class RoundArrays:
    """Column-oriented transcripts of a contiguous block of rounds."""

    signal: np.ndarray
    intercepted: np.ndarray
    eve_side: np.ndarray  # 0 alice, 1 bob, -1 not intercepted
    eve_outcome: np.ndarray  # 1-based; 0 when not intercepted
    bob_outcome: np.ndarray
    announce_index: np.ndarray
    accepted: np.ndarray
    alice_bit: np.ndarray  # -1 on rejected rounds
    bob_bit: np.ndarray
    eve_bit: np.ndarray  # -1 = abstain or no interception or rejected

    def __len__(self):
        return self.signal.shape[0]


def simulate_rounds(config: TrialConfig, start: int = 0, count=None) -> RoundArrays:
    """Simulate rounds start..start+count-1 of the configured trial, vectorized.

    The defaults cover the whole trial. Identical to running the scalar
    run_round loop over the same index range with the same seed. A round reads
    Bob's row and its bits by Eve's slot, in the cell layout of
    analysis._Stages.

    The whole range is materialised at once: its uniform block alone is
    count x 8 doubles (64 bytes per round), so simulate_rounds(config) with
    no count holds n_rounds x 8 doubles. Callers that need only the totals
    should use run_trials, which simulates bounded chunks and keeps counts.
    """
    if count is None:
        count = config.n_rounds - start
    if start < 0 or count < 0 or start + count > config.n_rounds:
        raise ValueError(f"round range {start}..{start + count} outside trial")
    tab = _tables(config.protocol, config.eve, config.channel)
    n, eve = tab.n, config.eve
    u = round_uniforms(config.seed, start, count)

    j = np.minimum((u[:, 0] * n).astype(np.int64), n - 1) + 1
    if eve is None:
        side, m = np.zeros(count, dtype=np.int8), np.zeros(count, dtype=np.int64)
    else:
        side = (u[:, 2] >= float(_side_weights(eve.mix)[0])).astype(np.int8)
        m = _sample_rows(tab.eve_cum, tab.eve_lnz, side * n + j - 1, u[:, 3])
    intercepted = u[:, 1] < float(_attack(eve)[1])  # all True for the gentle attack: u < 1
    slot = np.where(intercepted, side * n + m, 0)  # 1 + side * n + m-1 if intercepted
    row = slot * n + j - 1
    k = _sample_rows(tab.bob_cum, tab.bob_lnz, row, u[:, 4])

    ai = np.minimum((u[:, 5] * tab.n_opts).astype(np.int64), tab.n_opts - 1)
    cell = (row * n + k - 1) * tab.n_opts + ai
    accepted, alice_bit, bob_bit, eve_bit = tab.cell_bits.take(cell, axis=1)

    return RoundArrays(
        signal=j.astype(np.int8),
        intercepted=intercepted,
        eve_side=np.where(intercepted, side, np.int8(-1)),
        eve_outcome=np.where(intercepted, m, 0).astype(np.int8),
        bob_outcome=k.astype(np.int8),
        announce_index=ai.astype(np.int8),
        accepted=accepted.view(bool),
        alice_bit=alice_bit,
        bob_bit=bob_bit,
        eve_bit=eve_bit,
    )


# -- summary statistics ----------------------------------------------------------


@dataclass(frozen=True)
class SampleStats:
    """Counting summary of simulated rounds; conditional counts are per sifted round."""

    n_rounds: int
    n_sifted: int
    n_errors: int
    n_eve_agree_alice: int
    n_eve_agree_bob: int
    n_eve_abstain: int

    def __add__(self, other: "SampleStats") -> "SampleStats":
        if not isinstance(other, SampleStats):
            return NotImplemented
        return SampleStats(
            n_rounds=self.n_rounds + other.n_rounds,
            n_sifted=self.n_sifted + other.n_sifted,
            n_errors=self.n_errors + other.n_errors,
            n_eve_agree_alice=self.n_eve_agree_alice + other.n_eve_agree_alice,
            n_eve_agree_bob=self.n_eve_agree_bob + other.n_eve_agree_bob,
            n_eve_abstain=self.n_eve_abstain + other.n_eve_abstain,
        )

    @staticmethod
    def zero() -> "SampleStats":
        return SampleStats(0, 0, 0, 0, 0, 0)

    @property
    def sift_rate(self) -> float:
        return self.n_sifted / self.n_rounds if self.n_rounds else math.nan

    @property
    def qber(self) -> float:
        return self.n_errors / self.n_sifted if self.n_sifted else math.nan


def proportion_se(count: int, trials: int) -> float:
    """Standard error of an empirical proportion, sqrt(p(1-p)/n)."""
    if trials <= 0:
        return math.nan
    p = count / trials
    return math.sqrt(p * (1.0 - p) / trials)


def stats_from_arrays(arrays: RoundArrays) -> SampleStats:
    acc = arrays.accepted
    guessed = acc & (arrays.eve_bit >= 0)
    return SampleStats(
        n_rounds=len(arrays),
        n_sifted=int(acc.sum()),
        n_errors=int((acc & (arrays.alice_bit != arrays.bob_bit)).sum()),
        n_eve_agree_alice=int((guessed & (arrays.eve_bit == arrays.alice_bit)).sum()),
        n_eve_agree_bob=int((guessed & (arrays.eve_bit == arrays.bob_bit)).sum()),
        n_eve_abstain=int((acc & ~guessed).sum()),
    )


def run_trials(config: TrialConfig, chunk_size: int = 1 << 14) -> SampleStats:
    """Run the whole trial in chunks and merge; totals are chunk-size invariant.

    Only one chunk's transcripts are held at a time, so peak memory is
    about one chunk (the uniforms alone are 64 bytes per round).
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    total = SampleStats.zero()
    for start in range(0, config.n_rounds, chunk_size):
        count = min(chunk_size, config.n_rounds - start)
        total = total + stats_from_arrays(simulate_rounds(config, start, count))
    return total


# -- comparison against the exact distribution ------------------------------------


@dataclass(frozen=True)
class ZScore:
    name: str
    observed: int
    trials: int
    expected: float

    @property
    def z(self) -> float:
        mu = self.trials * self.expected
        var = mu * (1.0 - self.expected)
        if var <= 0.0:
            return 0.0 if self.observed == mu else math.inf
        return (self.observed - mu) / math.sqrt(var)


@dataclass(frozen=True)
class ComparisonReport:
    entries: tuple

    @property
    def max_abs_z(self) -> float:
        return max(abs(e.z) for e in self.entries)

    @property
    def ok(self) -> bool:
        """True when every counter sits within 4 standard deviations."""
        return all(abs(e.z) <= 4.0 for e in self.entries)

    def flagged(self) -> tuple:
        return tuple(e for e in self.entries if abs(e.z) > 4.0)


def compare_to_oracle(stats: SampleStats, joint) -> ComparisonReport:
    """Z-scores of the simulated counters against an exact JointDistribution.

    The sifting counter is binomial over all rounds; the conditional counters
    are binomial over the sifted rounds. A zero-variance counter scores 0
    on exact agreement and infinity otherwise.
    """
    entries = (
        ZScore("sift", stats.n_sifted, stats.n_rounds, float(joint.p_sift)),
        ZScore("error", stats.n_errors, stats.n_sifted, float(joint.qber)),
        ZScore(
            "eve_agree_alice",
            stats.n_eve_agree_alice,
            stats.n_sifted,
            float(joint.p_eve_agree_alice),
        ),
        ZScore(
            "eve_agree_bob",
            stats.n_eve_agree_bob,
            stats.n_sifted,
            float(joint.p_eve_agree_bob),
        ),
        ZScore("eve_abstain", stats.n_eve_abstain, stats.n_sifted, float(joint.p_eve_abstain)),
    )
    return ComparisonReport(entries=entries)
