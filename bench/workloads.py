"""Seeded op schedules for the benchmark workloads, and the checks on their outputs.

A workload is an endless sequence of cycles. Every cycle has the same fixed
composition of op classes (protocol x attack family x noise or mix class),
so runs with different seeds do the same amount of work. The seed picks
only values that change an op's cost little: attack strengths as
small-denominator Fractions, mixes within a class, depolarizing strengths,
Philox seeds, round-count jitter and the order of ops within a cycle. Cycle
c of seed s is drawn from its own generator, so op i is the same in every
run with that seed, however long the run is.

Ops call into scqkd through module attributes (``montecarlo.run_trials``,
``cli.main``, ...) so that the tracer in tracing.py can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from scqkd import analysis, cli, montecarlo
from scqkd.eavesdrop import EnsembleMix, GentleIntercept, InterceptResend
from scqkd.protocol import Channel, ProtocolKind

PROTOCOLS = tuple(ProtocolKind)
EXCLUSION = (ProtocolKind.TRINE, ProtocolKind.TETRAHEDRON)
MIXES = tuple(EnsembleMix)
ONE_SIDED = (EnsembleMix.ALICE_ONLY, EnsembleMix.BOB_ONLY)
STRENGTHS = tuple(sorted({Fraction(a, b) for b in range(2, 9) for a in range(1, b + 1)}))
NOISE = (Fraction(1, 20), Fraction(1, 16), Fraction(1, 10), Fraction(1, 8))
ATTACKS = ("none", "standard", "gentle")
# exact Fraction sweeps of both exclusion codes (checked row by row against
# AnalyticCurves) and float sweeps of both basis protocols
SWEEPS = (
    (ProtocolKind.TRINE, "standard"),
    (ProtocolKind.TETRAHEDRON, "standard"),
    (ProtocolKind.BB84, "gentle"),
    (ProtocolKind.SIX_STATE, "gentle"),
)

# compare_to_oracle flags a counter beyond 4 standard deviations, which a
# correct simulator does on about 1 call in 4,000. A benchmark session makes
# tens of thousands of such calls, so an op fails only beyond FAMILY_Z, where
# a correct simulator lands about once in 10^8 calls; 4-sigma flags are
# counted and reported instead.
ORACLE_Z = 4.0
FAMILY_Z = 6.0


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: `run` is timed, `check` runs outside the timed region.

    `check(output)` returns (problems, max_abs_z); an empty problem list
    means the output is correct, and max_abs_z is the op's largest oracle
    z-score, or None for ops that sample nothing.
    """

    kind: str
    spec: dict
    run: Callable[[], object]
    check: Callable[[object], tuple]
    rounds: int = 0


@dataclass(frozen=True)
class CliRun:
    code: object
    stdout: str


def call_cli(argv: list) -> CliRun:
    """One in-process `scqkd` command with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # usage errors leave through argparse
            code = exc.code
    return CliRun(code, buf.getvalue())


def strategy(attack: str, q, mix: EnsembleMix):
    if attack == "none":
        return None
    return (InterceptResend if attack == "standard" else GentleIntercept)(q=q, mix=mix)


def _text(x) -> str:
    return str(Fraction(x))


# -- mc-bulk -------------------------------------------------------------------


def _trial_config(rng: random.Random, protocol, attack: str, n_rounds: int):
    eve = strategy(attack, rng.choice(STRENGTHS), rng.choice(MIXES))
    channel = Channel(depolarizing=rng.choice((Fraction(0),) + NOISE))
    return montecarlo.TrialConfig(
        protocol=protocol, eve=eve, channel=channel, n_rounds=n_rounds, seed=rng.getrandbits(64)
    )


def _trial_spec(config) -> dict:
    eve = config.eve
    return {
        "protocol": config.protocol.value,
        "attack": "none" if eve is None else type(eve).__name__,
        "mix": None if eve is None else eve.mix.value,
        "q": None if eve is None else _text(eve.q),
        "depolarize": _text(config.channel.depolarizing),
        "n_rounds": config.n_rounds,
        "seed": config.seed,
    }


def _oracle_problems(stats, config) -> tuple:
    problems = []
    if stats.n_rounds != config.n_rounds:
        problems.append(f"n_rounds {stats.n_rounds} != configured {config.n_rounds}")
    joint = analysis.enumerate_joint(config.protocol, config.eve, config.channel)
    z = montecarlo.compare_to_oracle(stats, joint).max_abs_z
    if not z <= FAMILY_Z:
        problems.append(f"max |z| {z:.2f} against the exact joint exceeds {FAMILY_Z}")
    return problems, z


def trial_op(config) -> Op:
    return Op(
        kind="run_trials",
        spec=_trial_spec(config),
        run=lambda: montecarlo.run_trials(config),
        check=lambda stats: _oracle_problems(stats, config),
        rounds=config.n_rounds,
    )


def replay_op(config, chunk: int) -> Op:
    """Replay a trial chunk by chunk; its stats must equal run_trials exactly."""

    def run():
        total = montecarlo.SampleStats.zero()
        for start in range(0, config.n_rounds, chunk):
            count = min(chunk, config.n_rounds - start)
            total = total + montecarlo.stats_from_arrays(
                montecarlo.simulate_rounds(config, start, count)
            )
        return total

    def check(stats):
        whole = montecarlo.run_trials(config)
        if stats != whole:
            return [f"chunk-{chunk} replay {stats} != run_trials {whole}"], None
        return [], None

    return Op("chunk_replay", {**_trial_spec(config), "chunk": chunk}, run, check, config.n_rounds)


def _mc_rounds(rng, smoke: bool) -> int:
    base, jitter = (1 << 12, 1 << 8) if smoke else (1 << 19, 1 << 13)
    return base + rng.randrange(1, jitter + 1)  # leaves a partial last chunk


def mc_bulk_warmup(rng, smoke):
    return trial_op(_trial_config(rng, ProtocolKind.TRINE, "standard", _mc_rounds(rng, smoke)))


def mc_bulk_cycle(rng, smoke):
    ops = [
        trial_op(_trial_config(rng, protocol, attack, _mc_rounds(rng, smoke)))
        for protocol in PROTOCOLS
        for attack in ATTACKS
    ]
    rng.shuffle(ops)
    return ops


def mc_bulk_replay(rng, smoke):
    config = _trial_config(rng, rng.choice(PROTOCOLS), rng.choice(ATTACKS), _mc_rounds(rng, smoke))
    return replay_op(config, config.n_rounds // rng.randrange(5, 13) + 1)


# -- cli-scan ------------------------------------------------------------------


def _record(result: CliRun, expected_code, echo: dict) -> tuple:
    """Parse a CLI record and check its exit code and echoed configuration."""
    try:
        record = json.loads(result.stdout)
    except ValueError as exc:
        return None, [f"stdout is not one JSON record: {exc}"]
    problems = []
    if result.code != expected_code(record):
        problems.append(f"exit code {result.code!r}, expected {expected_code(record)!r}")
    for key, value in echo.items():
        if record.get(key) != value:
            problems.append(f"record echoes {key}={record.get(key)!r}, expected {value!r}")
    return record, problems


def _rate_problems(row: dict) -> list:
    problems = []
    if row["r"] != row["i_ab"] - min(row["i_ae"], row["i_be"]):
        problems.append(f"r={row['r']!r} is not i_ab - min(i_ae, i_be) at {row}")
    if not (0 < row["p_sift"] <= 1 and 0 <= row["qber"] <= 1):
        problems.append(f"p_sift or qber outside [0, 1] at {row}")
    return problems


def simulate_op(rng, protocol, attack: str, noisy: bool, n: int) -> Op:
    mix = rng.choice(MIXES)
    q = rng.choice(STRENGTHS) if attack != "none" else Fraction(0)
    p = rng.choice(NOISE) if noisy else Fraction(0)
    seed = rng.getrandbits(64)
    argv = ["simulate", "--protocol", protocol.value, "--attack", attack, "--mix", mix.value,
            "--q", _text(q), "--depolarize", _text(p), "--n", str(n), "--seed", str(seed)]
    echo = {"command": "simulate", "protocol": protocol.value, "attack": attack,
            "mix": mix.value, "q": float(q), "depolarize": float(p), "n_rounds": n, "seed": seed}

    def check(result):
        # exit 2 is the command's own signal for a 4-sigma flag (see ORACLE_Z)
        record, problems = _record(result, lambda r: 0 if r.get("consistent") else 2, echo)
        if record is None:
            return problems, None
        z = float(record["max_abs_z"])
        if record["consistent"] != (z <= ORACLE_Z):
            problems.append(f"consistent={record['consistent']} disagrees with max_abs_z={z}")
        if not z <= FAMILY_Z:
            problems.append(f"max |z| {z:.2f} against the exact joint exceeds {FAMILY_Z}")
        if not 0 <= record["n_errors"] <= record["n_sifted"] <= n:
            problems.append("counts are not nested: errors <= sifted <= rounds")
        if record["sift_rate"] != record["n_sifted"] / n:
            problems.append(f"sift_rate {record['sift_rate']!r} != n_sifted / n_rounds")
        return problems, z

    return Op("simulate", {"argv": argv}, lambda: call_cli(argv), check, rounds=n)


def analytic_op(rng, protocol, attack: str) -> Op:
    mix = rng.choice(MIXES)
    q = rng.choice(STRENGTHS) if attack != "none" else Fraction(0)
    p = rng.choice((Fraction(0),) + NOISE)
    argv = ["analytic", "--protocol", protocol.value, "--attack", attack, "--mix", mix.value,
            "--q", _text(q), "--depolarize", _text(p)]
    echo = {"command": "analytic", "protocol": protocol.value, "attack": attack,
            "mix": mix.value, "q": float(q), "depolarize": float(p)}

    def check(result):
        record, problems = _record(result, lambda r: 0, echo)
        return (problems if record is None else problems + _rate_problems(record)), None

    return Op("analytic", {"argv": argv}, lambda: call_cli(argv), check)


def estimate_op(rng, protocol) -> Op:
    q0 = rng.choice(STRENGTHS)
    total = rng.randrange(1 << 12, (1 << 16) + 1)
    curves = analysis.AnalyticCurves(protocol)
    sift = round(total * curves.p_sift(q0))
    argv = ["estimate-q", "--protocol", protocol.value,
            "--sift-count", str(sift), "--total-count", str(total)]
    echo = {"command": "estimate-q", "protocol": protocol.value,
            "sift_count": sift, "total_count": total, "in_model": True}
    # rounding the count moves the rate by at most 1/(2 total)
    tolerance = float(abs(curves.sift_to_q(1) - curves.sift_to_q(0))) / (2 * total) + 1e-12

    def check(result):
        record, problems = _record(result, lambda r: 0, echo)
        if record is not None and not abs(record["q"] - float(q0)) <= tolerance:
            problems.append(f"q={record['q']!r} is not within {tolerance:.2e} of {float(q0)!r}")
        return problems, None

    return Op("estimate-q", {"argv": argv, "q": _text(q0)}, lambda: call_cli(argv), check)


def cli_scan_warmup(rng, smoke):
    return simulate_op(rng, ProtocolKind.TRINE, "standard", False, 1 << (10 if smoke else 14))


def cli_scan_cycle(rng, smoke):
    n = 1 << (10 if smoke else 14)
    ops = [
        simulate_op(rng, protocol, attack, noisy, n)
        for protocol in PROTOCOLS
        for attack in ATTACKS
        for noisy in (False, True)
    ]
    ops += [analytic_op(rng, protocol, attack) for protocol in PROTOCOLS for attack in ATTACKS]
    ops += [estimate_op(rng, protocol) for protocol in EXCLUSION for _ in range(2)]
    rng.shuffle(ops)
    return ops


# -- exact-solve ---------------------------------------------------------------


def solve_op(protocol, family: str, mix: EnsembleMix, p) -> Op:
    """A threshold solve through the library, so that the channel really applies.

    (`scqkd threshold` and `scqkd sweep` accept --depolarize and ignore it.)
    """
    channel = Channel(depolarizing=p)

    def check(result):
        problems = []
        if not 0.0 <= result.q_star <= 1.0:
            problems.append(f"q_star={result.q_star!r} outside [0, 1]")
            return problems, None
        joint = analysis.enumerate_joint(protocol, strategy(family, result.q_star, mix), channel)
        r = analysis.key_rate(joint).r
        if not abs(r) <= 1e-6:
            problems.append(f"R(q_star)={r!r} is not within 1e-6 of 0")
        if result.qber_star != float(joint.qber):
            problems.append(
                f"qber_star={result.qber_star!r} != QBER at q_star {float(joint.qber)!r}"
            )
        return problems, None

    spec = {"protocol": protocol.value, "family": family, "mix": mix.value, "depolarize": _text(p)}
    return Op("solve", spec, lambda: analysis.find_threshold(protocol, family, mix, channel), check)


def sweep_op(protocol, family: str, steps: int) -> Op:
    argv = ["sweep", "--protocol", protocol.value, "--attack", family, "--mix", "symmetric"]
    if steps != 101:
        argv += ["--steps", str(steps)]
    echo = {"command": "sweep", "protocol": protocol.value, "attack": family,
            "mix": "symmetric", "steps": steps}
    curves = (
        analysis.AnalyticCurves(protocol)
        if family == "standard" and protocol in EXCLUSION
        else None
    )

    def check(result):
        record, problems = _record(result, lambda r: 0, echo)
        if record is None:
            return problems, None
        rows = record.get("rows", [])
        if len(rows) != steps:
            return problems + [f"{len(rows)} rows, expected {steps}"], None
        for i, row in enumerate(rows):
            q = Fraction(i, steps - 1)
            if row["q"] != float(q):
                problems.append(f"row {i} has q={row['q']!r}")
            problems += _rate_problems(row)
            if curves is not None:
                for key, exact in (("p_sift", curves.p_sift(q)), ("qber", curves.qber(q)),
                                   ("p_noguess", curves.p_noguess(q))):
                    if row[key] != float(exact):
                        problems.append(
                            f"row {i} {key}={row[key]!r} != AnalyticCurves {float(exact)!r}"
                        )
        return problems, None

    return Op("sweep", {"argv": argv}, lambda: call_cli(argv), check)


def exact_solve_warmup(rng, smoke):
    return solve_op(ProtocolKind.TRINE, "standard", EnsembleMix.SYMMETRIC, rng.choice(NOISE))


def exact_solve_cycle(rng, smoke):
    ops = []
    for protocol in PROTOCOLS:
        for family in ("standard", "gentle"):
            ops.append(solve_op(protocol, family, EnsembleMix.SYMMETRIC, Fraction(0)))
            # both sides every cycle: they differ in cost by up to a quarter
            ops += [solve_op(protocol, family, mix, rng.choice(NOISE)) for mix in ONE_SIDED]
    steps = 5 if smoke else 101
    ops += [sweep_op(protocol, family, steps) for protocol, family in SWEEPS]
    rng.shuffle(ops)
    return ops


# -- schedules -----------------------------------------------------------------

# name: (warm-up op, cycle, chunk replay, share of op time spent in the
# interpreter rather than in numpy array work, which weights the reference
# kernels of calibration.py)
WORKLOADS = {
    "mc-bulk": (mc_bulk_warmup, mc_bulk_cycle, mc_bulk_replay, 0.0),
    "cli-scan": (cli_scan_warmup, cli_scan_cycle, None, 0.5),
    "exact-solve": (exact_solve_warmup, exact_solve_cycle, None, 1.0),
}


class Schedule:
    """The deterministic op sequence of one (workload, seed) pair."""

    def __init__(self, workload: str, seed: int, smoke: bool = False):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self._warmup, self._cycle, self._replay, self.python_share = WORKLOADS[workload]

    def _rng(self, stream) -> random.Random:
        return random.Random(f"{self.workload}/{self.seed}/{stream}")

    def warmup(self) -> Op:
        return self._warmup(self._rng("warmup"), self.smoke)

    def cycle(self, index: int) -> list:
        return self._cycle(self._rng(index), self.smoke)

    def replay(self):
        """The chunk-replay op of this workload, or None."""
        if self._replay is None:
            return None
        return self._replay(self._rng("replay"), self.smoke)
