"""Digest the observable outputs of a scqkd tree, to check that a change moves none of them.

    cd <tree root> && python <path to>/scripts/sameness.py [SET ...]

Imports scqkd from src/ under the current directory, so the same script
digests any checkout: run it from the root of each tree and compare the
lines. It prints one line per output set, "<set> <sha256> <outputs>", for
the sets named as arguments, or for all six when none is named:

- cli: the stdout, stderr and exit code of in-process `scqkd` commands:
  `sweep --steps 23` and `threshold` over protocols x {standard, gentle} x
  mixes x --depolarize {0, 1/7, 1/20, 0.05}, `analytic` over the same grid
  (no eavesdropper, and three strengths per family), `estimate-q` on a few
  counts, and short seeded `simulate` runs;
- enumerate_joint: the reprs of p_sift, the table, the masses (qber,
  1 - p_sift, the a == b mass, Eve's abstain, guess and agree masses), the
  Fraction pair marginals and key_rate, over protocols x families x mixes
  x q x p with rational and float q and p. The script computes the
  complements the joint does not carry itself from p_sift and mass, and
  sums the pair marginals off the table in table order: Fractions on the
  exact path, floats otherwise;
- find_threshold: the reprs of (q_star, qber_star), or the error, over the
  threshold grid, with a float and a rational depolarizing strength;
- estimate: the reprs of `estimate_q_from_sift` (q, q_raw, in_model), for
  trine and tetra, over observed sifting rates that are Fractions inside,
  at the edges of and outside the attainable bands, plus floats, and
  margins 0, 1/20 and 0.01. It emits no warning (it reports an
  out-of-model rate as in_model False), so none is recorded;
- transcripts: the dtypes and bytes of all ten `simulate_rounds` columns,
  2^12 rounds at a fixed seed per configuration, over protocols x (no
  eavesdropper, and {standard, gentle} x mixes x q in {1/3, 0.63,
  1 - 1e-12, 1}) x p in {0, 1/7, 0.05};
- reference: the `run_round` transcripts (signal, Bob's outcome,
  announcement, accepted, both bits and Eve's record) of 16 rounds per
  configuration of the transcripts grid, seeded by the configuration's index.

Every repr carries its type (Fraction or float) and its last bit, and the
tables their key order, so equal digests mean identical outputs. Only
transcripts and reference load numpy, so the exact sets (enumerate_joint,
find_threshold, estimate) run where numpy is not installed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from scqkd import cli  # noqa: E402
from scqkd.analysis import (  # noqa: E402
    NoThresholdError,
    _strategy_for,
    enumerate_joint,
    estimate_q_from_sift,
    find_threshold,
    key_rate,
)
from scqkd.eavesdrop import EnsembleMix  # noqa: E402
from scqkd.montecarlo import TrialConfig, simulate_rounds  # noqa: E402
from scqkd.protocol import Channel, ProtocolKind, run_round  # noqa: E402

PROTOCOLS = list(ProtocolKind)
FAMILIES = ("standard", "gentle")
NOISE = ("0", "1/7", "1/20", "0.05")
STRENGTHS = ("1/3", "0.63", "1")
# the library sets take 0.05 as a float, so that both arithmetics are digested
NOISE_VALUES = (Fraction(0), Fraction(1, 7), Fraction(1, 20), 0.05)
STRENGTH_VALUES = (Fraction(0), Fraction(1, 3), Fraction(3, 5), Fraction(1), 0.63)
TRANSCRIPT_STRENGTHS = (Fraction(1, 3), 0.63, 1 - 1e-12, Fraction(1))
TRANSCRIPT_NOISE = (Fraction(0), Fraction(1, 7), 0.05)
# trine's band is [1/2, 7/12] and tetra's [1/3, 4/9]; every rate is tried on both
OBSERVED_SIFT = tuple(Fraction(x) for x in ("0", "1/3", "3/8", "5/12", "4/9", "1/2", "13/24", "7/12", "2/3", "1"))
OBSERVED_SIFT += (0.55, 0.5833, 0.7, 0.3)
MARGINS = (0, Fraction(1, 20), 0.01)


def _cli_argvs():
    for protocol in PROTOCOLS:
        for p in NOISE:
            yield ["analytic", "--protocol", protocol.value, "--depolarize", p]
            for family in FAMILIES:
                for mix in EnsembleMix:
                    common = ["--protocol", protocol.value, "--attack", family, "--mix", mix.value, "--depolarize", p]
                    yield ["sweep", *common, "--steps", "23"]
                    yield ["threshold", *common]
                    for q in STRENGTHS:
                        yield ["analytic", *common, "--q", q]
    for protocol in ("trine", "tetra"):
        for sift, total in ((500, 1000), (517, 1000), (5833, 10000), (13, 24), (0, 10), (10, 10)):
            yield ["estimate-q", "--protocol", protocol, "--sift-count", str(sift), "--total-count", str(total)]
    for protocol in PROTOCOLS:
        for attack in ("none", "standard", "gentle"):
            q = [] if attack == "none" else ["--q", "1/2"]
            yield ["simulate", "--protocol", protocol.value, "--attack", attack, *q, "--depolarize", "1/20", "--n", "3000"]


def cli_outputs():
    for argv in _cli_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        yield f"{argv} {code}\n{out.getvalue()}{err.getvalue()}"


def _marginals(table):
    """The (a, b), (a, e) and (b, e) marginals of a joint's table, summed in table order."""
    pairs = ({}, {}, {})
    for (a, b, e), v in table.items():
        for pair, key in zip(pairs, ((a, b), (a, e), (b, e))):
            pair[key] = pair.get(key, 0) + v
    return pairs


def joint_outputs():
    for protocol in PROTOCOLS:
        for p in NOISE_VALUES:
            channel = Channel(depolarizing=p)
            configs = [None] + [
                _strategy_for(family, q, mix) for family in FAMILIES for mix in EnsembleMix for q in STRENGTH_VALUES
            ]
            for eve in configs:
                joint = enumerate_joint(protocol, eve, channel)
                values = [joint.p_sift, list(joint.table.items()), joint.qber, 1 - joint.p_sift]
                values += [joint.mass(lambda a, b, e: a == b), joint.p_eve_abstain]
                values += [joint.mass(lambda a, b, e: e is not None), joint.p_eve_agree_alice, joint.p_eve_agree_bob]
                values += [*_marginals(joint.table), key_rate(joint)]
                yield f"{protocol} {eve!r} {p!r}\n{values!r}"


def threshold_outputs():
    for protocol in PROTOCOLS:
        for family in FAMILIES:
            for mix in EnsembleMix:
                for p in NOISE_VALUES:
                    try:
                        result = find_threshold(protocol, family, mix, Channel(depolarizing=p))
                        got = (result.q_star, result.qber_star)
                    except NoThresholdError as exc:
                        got = exc
                    yield f"{protocol} {family} {mix} {p!r}\n{got!r}"


def estimate_outputs():
    for protocol in (ProtocolKind.TRINE, ProtocolKind.TETRAHEDRON):
        for observed in OBSERVED_SIFT:
            for margin in MARGINS:
                estimate = estimate_q_from_sift(protocol, observed, margin)
                yield f"{protocol} {observed!r} {margin!r}\n{estimate!r}"


def _transcript_configs():
    return [
        (protocol, eve, p)
        for protocol in PROTOCOLS
        for p in TRANSCRIPT_NOISE
        for eve in [None] + [
            _strategy_for(family, q, mix) for family in FAMILIES for mix in EnsembleMix for q in TRANSCRIPT_STRENGTHS
        ]
    ]


def transcript_outputs():
    for seed, (protocol, eve, p) in enumerate(_transcript_configs()):
        arrays = simulate_rounds(TrialConfig(protocol, eve, Channel(depolarizing=p), n_rounds=1 << 12, seed=seed))
        columns = hashlib.sha256()
        for f in dataclasses.fields(arrays):
            column = getattr(arrays, f.name)
            columns.update(column.dtype.str.encode() + column.tobytes())
        yield f"{protocol} {eve!r} {p!r} {seed}\n{columns.hexdigest()}"


def reference_outputs():
    import numpy as np

    for seed, (protocol, eve, p) in enumerate(_transcript_configs()):
        rng, channel = np.random.default_rng(seed), Channel(depolarizing=p)
        rounds = []
        for _ in range(16):
            t = run_round(protocol, eve, channel, rng)
            rounds.append((t.signal_index, t.bob_outcome, t.announcement, t.accepted, t.alice_bit, t.bob_bit, t.eve_record))
        yield f"{protocol} {eve!r} {p!r} {seed}\n{rounds!r}"


def main(names) -> int:
    sets = {
        "cli": cli_outputs,
        "enumerate_joint": joint_outputs,
        "find_threshold": threshold_outputs,
        "transcripts": transcript_outputs,
        "estimate": estimate_outputs,
        "reference": reference_outputs,
    }
    unknown = [name for name in names if name not in sets]
    if unknown:
        sys.stderr.write(f"unknown output sets {unknown}; the sets are {list(sets)}\n")
        return 2
    for name, outputs in sets.items():
        if names and name not in names:
            continue
        digest, count = hashlib.sha256(), 0
        for text in outputs():
            digest.update(text.encode() + b"\0")
            count += 1
        print(name, digest.hexdigest(), count)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
