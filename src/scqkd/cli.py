"""Command-line interface: analyze, sweep, solve thresholds, simulate, estimate.

Every command emits one machine-readable record (JSON by default, CSV with
--format csv) that echoes the configuration that produced it, so results can
be re-parsed and reproduced. Exit codes: 0 success, 1 usage error or no
threshold, 2 when a simulation disagrees with the exact distribution beyond
4 standard deviations on any counter.

The rate records of `analytic`, `sweep` and `estimate-q` are read straight
off the corner masses (analysis._evaluate), with no JointDistribution
built; they are its floats and key_rate's, bit for bit. A point is a
one-row grid and a sweep one grid of q, and each command reads its rows'
rates in one call (analysis._grid_rates). Each row's rates come as one flat
tuple (p_sift, qber, p_noguess, i_ab, i_ae, i_be, r), and a record's rate
fields are those names zipped with it. Only `simulate`
builds a joint, as the oracle its counts are compared with. A JSON record
is json.dumps output on one line (no indent, so the C encoder writes it),
with a non-finite float written as its quoted repr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

from .analysis import (
    NoThresholdError,
    _evaluate,
    _family_mix_grid,
    _grid_rates,
    _sift_line,
    enumerate_joint,
    estimate_q_from_sift,
    find_threshold,
    key_rate,  # noqa: F401 - no command calls it; bench/tracing.py wraps cli.key_rate
)
from .eavesdrop import EnsembleMix, GentleIntercept, InterceptResend, _strategy_for
from .montecarlo import _COUNTERS, TrialConfig, compare_to_oracle, proportion_se, run_trials
from .protocol import IDEAL, Channel, ProtocolKind


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, leaving 2 free for the simulation-mismatch signal
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fraction_arg(text: str) -> Fraction:
    """Parse a probability-like flag exactly ('0.3', '1', '2/7')."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _echo(args, *names) -> dict:
    """A record's head: command, protocol, attack and mix, then the named values as floats."""
    head = {key: getattr(args, key) for key in ("command", "protocol", "attack", "mix")}
    return {**head, **{name: float(getattr(args, name)) for name in names}}


def _rates_record(rates) -> dict:
    """The rate fields of a record from one `_grid_rates` tuple: the joint's floats and key_rate's, bit for bit."""
    return dict(zip(("p_sift", "qber", "p_noguess", "i_ab", "i_ae", "i_be", "r"), rates))


def _emit(record: dict, fmt: str, out_path) -> int:
    """Write the record to stdout or out_path: 0, or 1 with one line on stderr if out_path cannot be written."""
    if fmt == "json":
        try:
            text = json.dumps(record, allow_nan=False) + "\n"
        except ValueError:  # a non-finite float somewhere: only then is the record walked
            text = json.dumps(_finite(record)) + "\n"
    else:
        text = _to_csv(record)
    if out_path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"scqkd: error: cannot write {out_path}: {exc.strerror or exc}\n")
        return 1
    return 0


def _finite(value):
    """value with each non-finite float, at any depth, replaced by its repr, so that the record stays valid JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else float.__repr__(value)
    if isinstance(value, dict):
        return {key: _finite(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    return value


def _to_csv(record: dict) -> str:
    """Flatten a record to CSV: config columns repeat on every row of a table."""
    rows = record.get("rows")
    scalars = {k: v for k, v in record.items() if k != "rows"}
    buf = io.StringIO()
    if rows is None:
        writer = csv.DictWriter(buf, fieldnames=list(scalars))
        writer.writeheader()
        writer.writerow(scalars)
    else:
        fields = list(scalars) + list(rows[0]) if rows else list(scalars)
        writer = csv.DictWriter(buf, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({**scalars, **row})
    return buf.getvalue()


def _cmd_analytic(args) -> tuple:
    protocol = ProtocolKind(args.protocol)
    eve = _strategy_for(args.attack, args.q, EnsembleMix(args.mix))
    [rates] = _grid_rates(_evaluate(protocol, *_family_mix_grid(eve), args.depolarize))
    return {**_echo(args, "q", "depolarize"), **_rates_record(rates)}, 0


def _cmd_threshold(args) -> tuple:
    protocol = ProtocolKind(args.protocol)
    channel = Channel(depolarizing=args.depolarize)
    result = find_threshold(protocol, args.attack, EnsembleMix(args.mix), channel)
    record = {
        **_echo(args, "depolarize"),
        "q_star": round(result.q_star, 4),
        "qber_star": round(result.qber_star, 4),
    }
    return record, 0


def _cmd_simulate(args) -> tuple:
    protocol = ProtocolKind(args.protocol)
    if args.n < 1:
        args.parser.error("--n must be positive")
    if not 0 <= args.seed < 2**64:
        args.parser.error("--seed must lie in [0, 2^64)")
    eve = _strategy_for(args.attack, args.q, EnsembleMix(args.mix))
    channel = Channel(depolarizing=args.depolarize)
    config = TrialConfig(
        protocol=protocol, eve=eve, channel=channel, n_rounds=args.n, seed=args.seed
    )
    stats = run_trials(config)
    report = compare_to_oracle(stats, enumerate_joint(protocol, eve, channel))
    record = {
        **_echo(args, "q", "depolarize"),
        "n_rounds": stats.n_rounds,
        "seed": args.seed,
        **{count: getattr(stats, count) for _, count, _, _ in _COUNTERS},
        "sift_rate": stats.sift_rate,
        "sift_rate_se": proportion_se(stats.n_sifted, stats.n_rounds),
        "qber": stats.qber,
        "qber_se": proportion_se(stats.n_errors, stats.n_sifted),
        **{f"z_{e.name}": e.z for e in report.entries},
        "max_abs_z": report.max_abs_z,
        "consistent": report.ok,
    }
    return record, 0 if report.ok else 2


def _cmd_sweep(args) -> tuple:
    protocol = ProtocolKind(args.protocol)
    if args.steps < 2:
        args.parser.error("--steps must be at least 2")
    d = args.steps - 1
    grid = _evaluate(protocol, args.attack, EnsembleMix(args.mix), range(args.steps), d, args.depolarize)
    rows = [{"q": i / d, **_rates_record(rates)} for i, rates in enumerate(_grid_rates(grid))]
    return {**_echo(args, "depolarize"), "steps": args.steps, "rows": rows}, 0


def _cmd_estimate_q(args) -> tuple:
    protocol = ProtocolKind(args.protocol)
    if args.total_count <= 0:
        args.parser.error("--total-count must be positive")
    if args.total_count > sys.float_info.max:  # its standard error is a float
        args.parser.error(f"--total-count must be at most {sys.float_info.max!r}")
    if not 0 <= args.sift_count <= args.total_count:
        args.parser.error("--sift-count must lie in [0, total-count]")
    sift_rate = Fraction(args.sift_count, args.total_count)
    try:
        lo, hi = _sift_line(protocol)
    except ValueError as exc:
        args.parser.error(str(exc))
    se_rate = proportion_se(args.sift_count, args.total_count)
    slope = float(1 / (hi - lo))
    estimate = estimate_q_from_sift(protocol, sift_rate, margin=2 * se_rate)
    q_hat = float(estimate.q)

    # one `_evaluate` row each on the noiseless channel: intercept/resend at the estimate, and the gentle
    # symmetric attack of the same Bloch shrink 1 - q, with the same sift rate and QBER and its own R
    eves = InterceptResend(estimate.q), GentleIntercept(math.sqrt(q_hat * (2 - q_hat)))
    rows = [row for eve in eves for row in _evaluate(protocol, *_family_mix_grid(eve), IDEAL.depolarizing)]
    (_, qber, *_, r), (*_, r_gentle) = _grid_rates(rows)
    record = {
        "command": "estimate-q",
        "protocol": protocol.value,
        "sift_count": args.sift_count,
        "total_count": args.total_count,
        "sift_rate": float(sift_rate),
        "q": q_hat,
        "q_raw": float(estimate.q_raw),
        "q_se": slope * se_rate,
        "in_model": estimate.in_model,
        "qber": qber,
        "r": r,
        "r_gentle": r_gentle,
    }
    return record, 0


def _add_common(sub, attacks=("none", "standard", "gentle"), strength=True):
    sub.add_argument(
        "--protocol",
        required=True,
        choices=[p.value for p in ProtocolKind],
        help="which protocol to run",
    )
    sub.add_argument(
        "--attack",
        default=attacks[0],
        choices=attacks,
        help="eavesdropping strategy family",
    )
    sub.add_argument(
        "--mix",
        default="symmetric",
        choices=[m.value for m in EnsembleMix],
        help="which party's ensemble the eavesdropper impersonates",
    )
    if strength:
        sub.add_argument(
            "--q",
            type=_fraction_arg,
            default=Fraction(0),
            help="attack strength in [0, 1]; decimals and fractions parse exactly",
        )
    sub.add_argument(
        "--depolarize",
        type=_fraction_arg,
        default=Fraction(0),
        help="depolarizing channel strength in [0, 1]",
    )


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The CLI's parser, built once per process: parse_args fills a fresh namespace on every call."""
    parser = _Parser(prog="scqkd", description=__doc__.splitlines()[0])
    parser.add_argument("--format", default="json", choices=["json", "csv"])
    parser.add_argument("--out", default=None, metavar="FILE", help="write to FILE instead of stdout")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = commands.add_parser("analytic", help="exact rates for one configuration")
    _add_common(sub)
    sub.set_defaults(func=_cmd_analytic, parser=sub)

    sub = commands.add_parser("threshold", help="attack strength where the key rate vanishes")
    _add_common(sub, attacks=("standard", "gentle"), strength=False)
    sub.set_defaults(func=_cmd_threshold, parser=sub)

    sub = commands.add_parser("simulate", help="Monte Carlo run checked against enumeration")
    _add_common(sub)
    sub.add_argument("--n", type=int, default=100_000, help="number of rounds")
    sub.add_argument("--seed", type=int, default=0, help="Philox key; fixes the whole trial")
    sub.set_defaults(func=_cmd_simulate, parser=sub)

    sub = commands.add_parser("sweep", help="rate table over a uniform q-grid")
    _add_common(sub, attacks=("standard", "gentle"), strength=False)
    sub.add_argument("--steps", type=int, default=101, help="number of grid points on [0, 1]")
    sub.set_defaults(func=_cmd_sweep, parser=sub)

    sub = commands.add_parser("estimate-q", help="infer attack strength from sift counts")
    sub.add_argument(
        "--protocol", required=True, choices=[p.value for p in ProtocolKind]
    )
    sub.add_argument("--sift-count", type=int, required=True)
    sub.add_argument("--total-count", type=int, required=True)
    sub.set_defaults(func=_cmd_estimate_q, parser=sub)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # usage errors found past argparse print the subcommand's usage, as argparse's own do
    if getattr(args, "q", 0) and args.attack == "none":
        args.parser.error("--q needs --attack standard or gentle")
    try:
        record, code = args.func(args)
    except NoThresholdError as exc:
        sys.stderr.write(f"scqkd: {exc}\n")
        return 1
    return _emit(record, args.format, args.out) or code


if __name__ == "__main__":
    sys.exit(main())
