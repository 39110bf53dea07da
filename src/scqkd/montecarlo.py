"""Monte Carlo simulation with counter-addressed randomness.

Each round consumes one aligned block of 8 uniforms (see protocol.run_round
for the slot layout), and the Philox counter is set so that round i starts
at counter 2 * i regardless of how rounds are batched. Any contiguous chunk
of rounds is therefore reproducible from (seed, start index) alone, and
chunked runs merge to bit-identical totals.

The vectorized kernel samples from the round model of the exact analysis:
its inverse-CDF tables are a sequential np.cumsum of the Bloch Gram rows
of analysis._stages, the rows the exact walk reads, built in floats.
run_round keeps its own matrix Born path (POVM products, Eve's Kraus
updates, the depolarizing map) as the independent reference. The two
arithmetics can differ in a probability's last bits, so a vectorized batch
reproduces the scalar transcript loop draw for draw except where a uniform
lies within rounding of a CDF edge. Measured: the 1,228,800 rounds of the
transcripts set of scripts/sameness.py (300 configurations of 4,096) all
matched run_round, and the parity tests compare up to 18,000 rounds. A
table row is +inf from its last nonzero outcome on, so a uniform that
roundoff leaves past the total mass picks that outcome, as in
states.sample_outcome. Its last column is +inf in every row, so the
inverse CDF gathers and compares only the first n - 1 columns, one column
at a time, and its int8 labels become the transcript's outcome columns
with no cast. The tables are built once per (protocol, float(Eve's
measurement strength), float(p)), from _stages at those floats, and cached
under that key: a Fraction and the float it rounds to share one build
(Fraction(1, 3) and 1/3, as Fraction(1, 2) and 0.5 or IDEAL's 0 and a
Fraction(0) channel), and a chunk hashes two floats. No
eavesdropper and intercept/resend at every share and mix measure at
strength 1 and read one table, and a gentle strength's table serves every
mix. A round's key bits and Eve's guess are read from cell_bits, the int8
encoding of analysis._sifting, at the round's cell (Eve's slot, signal,
Bob's outcome, announcement), in the layout analysis._Stages defines for
both paths.

run_trials keeps about one chunk of _CHUNK_ROUNDS rounds in flight. It
splits a trial of several chunks over min(CPUs in the affinity mask,
chunks) threads, and runs a trial of one chunk serially; neither number has
a setting. Counter addressing and integer sums make its totals identical
for any chunk size and thread count.

The module imports without numpy, so the exact layer and the CLI load it
at no cost: numpy and numpy.random are imported inside the functions that
sample, on the first such call, as run_trials imports concurrent.futures.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

from .analysis import JointDistribution, _sifting, _stages
from .eavesdrop import _SIDE_WEIGHTS, _attack
from .protocol import Channel, IDEAL, ProtocolKind, _check_config, _check_instance, announcement_options

UNIFORMS_PER_ROUND = 8
_COUNTERS_PER_ROUND = UNIFORMS_PER_ROUND // 4  # Philox counter steps in 4-double blocks
_CHUNK_ROUNDS = 1 << 14  # rounds run_trials keeps in flight, read at each call


def _check_integer(name: str, value) -> None:
    """Reject a bool or a non-Integral value of an integer argument."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class TrialConfig:
    """One reproducible simulation: protocol, adversary, channel, size, seed."""

    protocol: ProtocolKind
    eve: object = None
    channel: Channel = IDEAL
    n_rounds: int = 100_000
    seed: int = 0

    def __post_init__(self):
        _check_config(self.protocol, self.channel)
        _attack(self.eve)  # rejects an unknown strategy
        for name in ("n_rounds", "seed"):
            _check_integer(name, getattr(self, name))
        if self.n_rounds < 1:
            raise ValueError(f"n_rounds must be positive, got {self.n_rounds}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")


def round_rng(seed: int, start: int = 0) -> Generator:
    """Generator positioned at the first uniform of round `start`."""
    from numpy.random import Generator, Philox

    return Generator(Philox(key=seed, counter=[_COUNTERS_PER_ROUND * start, 0, 0, 0]))


def round_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """The (count, 8) uniform block for rounds start..start+count-1."""
    return round_rng(seed, start).random((count, UNIFORMS_PER_ROUND))


# -- precomputed branch tables ---------------------------------------------------


def _cdf(rows: list, n: int) -> np.ndarray:
    """Read-only float CDF table of outcome rows, +inf from each row's last nonzero outcome.

    np.cumsum adds along a row in order, as states.sample_outcome does, so
    the inverse CDF reads a row the way the scalar sampler reads its own.
    The last nonzero outcome's interval reaches past the total mass, which is
    sample_outcome's fallback for a uniform that roundoff leaves at or past
    the total. Eve's rows are drawn from on every round, so on a round she
    did not touch her outcome comes from a real row and is then masked.
    """
    import numpy as np

    probs = np.array(rows, dtype=float)
    last_nonzero = n - 1 - np.argmax(probs[:, ::-1] > 0.0, axis=1)
    cum = np.where(np.arange(n) >= last_nonzero[:, None], np.inf, np.cumsum(probs, axis=1))
    cum.flags.writeable = False  # shared by every caller of _tables
    return cum


@lru_cache(maxsize=len(ProtocolKind))
def _cell_bits(protocol: ProtocolKind) -> np.ndarray:
    """analysis._sifting as int8 columns (accepted, alice bit, bob bit, eve guess), -1 for none."""
    import numpy as np

    cells = [(0, None, None, None) if key is None else (1, *key) for key in _sifting(protocol)]
    cell_bits = np.array([[-1 if v is None else v for v in c] for c in cells], dtype=np.int8).T
    cell_bits.flags.writeable = False
    return cell_bits


@lru_cache(maxsize=16)
def _tables(protocol: ProtocolKind, strength: float, p: float) -> tuple:
    """The read-only CDF tables (Eve's, Bob's) at Eve's strength and channel p, built once per float.

    Each is the _cdf of analysis._stages' Gram rows at the floats strength
    and p, one row per (Eve's slot, signal) as laid out there, so a round's
    row is one take. The rows are floats whatever the arithmetic of the
    inputs, so the samplers key the cache on the two floats: a Fraction and
    the float it rounds to (Fraction(1, 3) and 1/3) share one key and one
    build.
    """
    return tuple(_cdf(rows, protocol.n_signals) for rows in _stages(protocol, strength, p))


def _sample_rows(cum: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized inverse CDF over the given rows of a _cdf table; returns int8 1-based labels.

    Equivalent to states.sample_outcome: a uniform in [c_{i-1}, c_i) picks
    outcome i (zero-probability outcomes create empty intervals), and since
    a _cdf row is +inf from its last nonzero outcome on, a uniform at or
    past the total mass picks that outcome. The label starts at 1 and gains
    u >= c for each of the first n - 1 columns, gathered one column at a
    time; the last column is +inf in every row, so it is never read.
    """
    import numpy as np

    u = np.ascontiguousarray(u)  # read once per column; a strided column of a block is copied
    k = np.ones(rows.shape[0], dtype=np.int8)
    for column in cum.T[:-1]:
        k += u >= column.take(rows)
    return k


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

    The defaults cover the whole trial. The same rounds as the scalar
    run_round loop over the same index range with the same seed, except
    where a uniform lies within rounding of a CDF edge (see the module
    docstring). A round reads Bob's row and its bits by Eve's slot, in the
    cell layout of analysis._Stages.

    The kernel carries signal - 1 as an intp index, builds Bob's row from
    Eve's in one np.where, and samples both with _sample_rows. Its int8
    labels are bob_outcome itself and, times the interception mask,
    eve_outcome; no outcome column is cast. Where Eve touches no round (no
    eavesdropper, or intercept/resend at q = 0) it draws no outcome of
    hers, so the two give the same transcript bytes.

    The whole range is materialised at once: its uniform block alone is
    count x 8 doubles (64 bytes per round), so simulate_rounds(config) with
    no count holds n_rounds x 8 doubles. Callers that need only the totals
    should use run_trials, which keeps about one chunk of rounds in flight
    across its threads and keeps counts.
    """
    import numpy as np

    _check_instance("config", config, TrialConfig)
    _check_integer("start", start)
    if count is None:
        count = config.n_rounds - start
    _check_integer("count", count)
    if start < 0 or count < 0 or start + count > config.n_rounds:
        raise ValueError(f"round range {start}..{start + count} outside trial")
    protocol, eve = config.protocol, config.eve
    _, touched, strength = _attack(eve)
    eve_cum, bob_cum = _tables(protocol, float(strength), float(config.channel.depolarizing))
    n, n_opts = protocol.n_signals, len(announcement_options(protocol, 1))
    u = round_uniforms(config.seed, start, count)

    j = np.minimum((u[:, 0] * n).astype(np.intp), n - 1)  # signal - 1
    intercepted = u[:, 1] < float(touched)  # all True for the gentle attack: u < 1
    if touched == 0:  # intercepted is all False: no eavesdropper, or intercept/resend at q = 0
        side, m, row = intercepted, np.zeros(count, dtype=np.int8), j
    else:
        side = u[:, 2] >= float(_SIDE_WEIGHTS[eve.mix][0])
        touched_row = side * n
        m = _sample_rows(eve_cum, touched_row + j, u[:, 3])  # Eve's row is side * n + j
        # Eve's slot is 1 + side * n + m-1 if she intercepted, else 0, and Bob's row is
        # slot * n + j; built in place, since every temporary is a chunk of intp
        touched_row += m
        touched_row *= n
        touched_row += j
        row = np.where(intercepted, touched_row, j)
    k = _sample_rows(bob_cum, row, u[:, 4])

    ai = np.minimum((u[:, 5] * n_opts).astype(np.intp), n_opts - 1)
    cell = row * n  # (row * n + k - 1) * n_opts + ai, in place
    cell += k
    cell -= 1
    cell *= n_opts
    cell += ai
    accepted, alice_bit, bob_bit, eve_bit = _cell_bits(protocol).take(cell, axis=1)

    # the int8 columns masked by arithmetic: np.where on one-byte items is several times slower
    return RoundArrays(
        signal=j.astype(np.int8) + np.int8(1),
        intercepted=intercepted,
        eve_side=(side.view(np.int8) + np.int8(1)) * intercepted - np.int8(1),
        eve_outcome=m * intercepted,
        bob_outcome=k,
        announce_index=ai.astype(np.int8),
        accepted=accepted.view(bool),
        alice_bit=alice_bit,
        bob_bit=bob_bit,
        eve_bit=eve_bit,
    )


# -- summary statistics ----------------------------------------------------------

# The oracle's counters, as (z-score name, SampleStats count, the count it is
# a share of, the JointDistribution rate it estimates). SampleStats checks the
# bounds, and compare_to_oracle lists its z-scores, in this order.
_COUNTERS = (
    ("sift", "n_sifted", "n_rounds", "p_sift"),
    ("error", "n_errors", "n_sifted", "qber"),
    ("eve_agree_alice", "n_eve_agree_alice", "n_sifted", "p_eve_agree_alice"),
    ("eve_agree_bob", "n_eve_agree_bob", "n_sifted", "p_eve_agree_bob"),
    ("eve_abstain", "n_eve_abstain", "n_sifted", "p_eve_abstain"),
)


@dataclass(frozen=True)
class SampleStats:
    """Counting summary of simulated rounds; conditional counts are per sifted round.

    Raises:
        ValueError: for a count that is a bool, not an Integral (numpy
            integers are) or negative, more sifted rounds than rounds, or a
            conditional count above the sifted rounds.
    """

    n_rounds: int
    n_sifted: int
    n_errors: int
    n_eve_agree_alice: int
    n_eve_agree_bob: int
    n_eve_abstain: int

    def __post_init__(self):
        # plain int comparisons: this runs for every chunk and every sum of run_trials
        for name, count in vars(self).items():
            if type(count) is not int:
                _check_integer(name, count)
            if count < 0:
                raise ValueError(f"{name} must be >= 0, got {count!r}")
        for _, name, of, _ in _COUNTERS:
            count, trials = getattr(self, name), getattr(self, of)
            if count > trials:
                raise ValueError(f"{name} = {count!r} exceeds {of} = {trials!r}")

    def __add__(self, other: "SampleStats") -> "SampleStats":
        if not isinstance(other, SampleStats):
            return NotImplemented
        return SampleStats(*(a + b for a, b in zip(vars(self).values(), vars(other).values())))

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
    import numpy as np

    acc = arrays.accepted
    guessed = acc & (arrays.eve_bit >= 0)
    return SampleStats(
        n_rounds=len(arrays),
        n_sifted=int(np.count_nonzero(acc)),
        n_errors=int(np.count_nonzero(acc & (arrays.alice_bit != arrays.bob_bit))),
        n_eve_agree_alice=int(np.count_nonzero(guessed & (arrays.eve_bit == arrays.alice_bit))),
        n_eve_agree_bob=int(np.count_nonzero(guessed & (arrays.eve_bit == arrays.bob_bit))),
        n_eve_abstain=int(np.count_nonzero(acc & ~guessed)),
    )


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_trials(config: TrialConfig) -> SampleStats:
    """Run the whole trial in chunks of _CHUNK_ROUNDS rounds and merge the counts of each.

    A trial of several chunks is split over min(CPUs in the affinity mask,
    chunks) threads; neither the chunk nor the number of threads has a
    setting. Each thread sums a strided run of steps of ceil(chunk /
    threads) rounds, so about one chunk of rounds is in flight at once, and
    peak memory is about one chunk (the uniforms alone are 64 bytes per
    round). A trial of one chunk runs serially in the calling thread.
    Rounds are counter-addressed and the counts are integer sums, so totals
    are identical for any chunk size and thread count.
    """
    _check_instance("config", config, TrialConfig)
    n, chunk = config.n_rounds, _CHUNK_ROUNDS
    chunks = -(-n // chunk)
    # A one-chunk trial skips the CPU query: its small malloc alone left the
    # glibc heap trimming and page-faulting ~2 MB of arrays afresh on every call.
    workers = 1 if chunks == 1 else min(_cpu_count(), chunks)
    step = -(-chunk // workers)
    starts = range(0, n, step)

    def part(w: int) -> SampleStats:
        total = SampleStats.zero()
        for start in starts[w::workers]:
            total = total + stats_from_arrays(simulate_rounds(config, start, min(step, n - start)))
        return total

    if workers == 1:
        return part(0)
    # importing concurrent.futures costs milliseconds; only pooled trials pay it
    from concurrent.futures import ThreadPoolExecutor

    # built once, before the threads share it
    _tables(config.protocol, float(_attack(config.eve)[2]), float(config.channel.depolarizing))
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(part, w) for w in range(1, workers)]
        total = part(0)
        for future in futures:
            total = total + future.result()
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


def compare_to_oracle(stats: SampleStats, joint) -> ComparisonReport:
    """Z-scores of the simulated counters against an exact JointDistribution.

    The sifting counter is binomial over all rounds; the conditional counters
    are binomial over the sifted rounds. A zero-variance counter scores 0
    on exact agreement and infinity otherwise.
    """
    _check_instance("stats", stats, SampleStats)
    _check_instance("joint", joint, JointDistribution)
    return ComparisonReport(
        entries=tuple(
            ZScore(name, getattr(stats, count), getattr(stats, of), float(getattr(joint, rate)))
            for name, count, of, rate in _COUNTERS
        )
    )
