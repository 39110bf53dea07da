"""End-to-end tests for the command-line interface.

Each command's record is checked against the library calls it reports, as
the bytes json.dumps gives its values; the values themselves are pinned where
the library is tested. A usage error is one row of one table, and a CSV row
is the JSON record flattened, under a header that pins each record's keys in
order.
"""

import contextlib
import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import scqkd.cli as cli
from scqkd import montecarlo
from scqkd.analysis import (JointDistribution, NoThresholdError, enumerate_joint, estimate_q_from_sift, find_threshold,
                            key_rate)
from scqkd.eavesdrop import EnsembleMix, GentleIntercept, InterceptResend
from scqkd.montecarlo import (ComparisonReport, SampleStats, TrialConfig, ZScore, compare_to_oracle, proportion_se,
                              run_trials)
from scqkd.protocol import Channel, ProtocolKind

F = Fraction
FAMILIES = {"standard": InterceptResend, "gentle": GentleIntercept}


def run_cli(argv, capsys):
    """(exit code, stdout, stderr) of one in-process command, usage errors included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _argv(command, given):
    """The command line of a command with the given flags, e.g. {"q": "1/2"} gives --q 1/2."""
    return [command] + [text for flag, value in given.items() for text in (f"--{flag}", value)]


def _echo(command, config, *names):
    """The settings a record repeats back: its flags as given, and the named exact ones as floats."""
    return {"command": command, **{key: config[key] for key in ("protocol", "attack", "mix")},
            **{name: float(F(config[name])) for name in names}}


def _values(record) -> str:
    """A record's JSON with sorted keys: each value as json.dumps writes it, in no particular key order."""
    return json.dumps(record, sort_keys=True)


def _setting(config):
    """The protocol, strategy (None for no eavesdropper) and channel a configuration names."""
    q, mix = F(config.get("q", 0)), EnsembleMix(config["mix"])
    eve = None if config["attack"] == "none" else FAMILIES[config["attack"]](q, mix)
    return ProtocolKind(config["protocol"]), eve, Channel(depolarizing=F(config["depolarize"]))


def _joint_rates(joint):
    """The rate fields of a record, as enumerate_joint's JointDistribution and key_rate give them."""
    report = key_rate(joint)
    return {
        "p_sift": float(joint.p_sift),
        "qber": float(joint.qber),
        "p_noguess": float(joint.p_eve_abstain),
        "i_ab": report.i_ab,
        "i_ae": report.i_ae,
        "i_be": report.i_be,
        "r": report.r,
    }


class TestAnalytic:
    DEFAULTS = {"attack": "none", "mix": "symmetric", "q": "0", "depolarize": "0"}

    @pytest.mark.parametrize("given", [
        {"protocol": "six-state"},
        {"protocol": "trine", "attack": "standard", "q": "1"},
        {"protocol": "trine", "attack": "standard", "q": "2/7"},  # fractions parse exactly
        {"protocol": "trine", "attack": "none", "q": "0"},  # no eavesdropper takes --q 0
        {"protocol": "bb84", "depolarize": "0.3"},
        {"protocol": "tetra", "attack": "gentle", "mix": "bob", "q": "1/3", "depolarize": "1/7"},
    ])
    def test_record_is_the_enumeration(self, capsys, given):
        config = {**self.DEFAULTS, **given}
        want = {**_echo("analytic", config, "q", "depolarize"), **_joint_rates(enumerate_joint(*_setting(config)))}
        code, out, err = run_cli(_argv("analytic", given), capsys)
        assert (code, _values(json.loads(out)), err) == (0, _values(want), "")


class TestThreshold:
    DEFAULTS = {"attack": "standard", "mix": "symmetric", "depolarize": "0"}

    @pytest.mark.parametrize("given", [
        {"protocol": "tetra"},
        {"protocol": "trine", "attack": "gentle"},
        {"protocol": "trine", "depolarize": "1/10"},
        {"protocol": "tetra", "mix": "bob", "depolarize": "1/20"},
    ])
    def test_record_is_the_solve_rounded(self, capsys, given):
        config = {**self.DEFAULTS, **given}
        protocol, _, channel = _setting(config)
        solve = find_threshold(protocol, config["attack"], EnsembleMix(config["mix"]), channel)
        want = {
            **_echo("threshold", config, "depolarize"),
            "q_star": round(solve.q_star, 4),
            "qber_star": round(solve.qber_star, 4),
        }
        code, out, err = run_cli(_argv("threshold", given), capsys)
        assert (code, _values(json.loads(out)), err) == (0, _values(want), "")

    def test_no_threshold_becomes_exit_1(self, capsys, monkeypatch):
        def no_crossing(*a, **kw):
            raise NoThresholdError("rate does not change sign")

        monkeypatch.setattr(cli, "find_threshold", no_crossing)
        code, out, err = run_cli(["threshold", "--protocol", "trine"], capsys)
        assert code == 1
        assert out == ""
        assert "rate does not change sign" in err


class TestSimulate:
    DEFAULTS = {"attack": "none", "mix": "symmetric", "q": "0", "depolarize": "0", "seed": "0"}
    ARGS = [
        "simulate", "--protocol", "trine", "--attack", "standard",
        "--q", "1", "--n", "20000", "--seed", "12",
    ]

    # a one-chunk serial trial and a pooled one give their counts as JSON integers, not floats
    @pytest.mark.parametrize("given,cpus", [
        ({"protocol": "trine", "attack": "standard", "q": "1", "n": "20000", "seed": "12"}, 2),
        ({"protocol": "bb84", "attack": "none", "n": "1000", "q": "0"}, 2),  # no eavesdropper takes --q 0
        ({"protocol": "six-state", "attack": "gentle", "q": "1/2", "n": "3000"}, 1),
        ({"protocol": "six-state", "attack": "gentle", "q": "1/2", "n": "40000"}, 2),
    ])
    def test_record_is_the_trial_and_its_comparison(self, capsys, monkeypatch, given, cpus):
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
        config = {**self.DEFAULTS, **given}
        protocol, eve, channel = _setting(config)
        stats = run_trials(TrialConfig(protocol, eve, channel, n_rounds=int(config["n"]), seed=int(config["seed"])))
        report = compare_to_oracle(stats, enumerate_joint(protocol, eve, channel))
        counts = vars(stats).copy()
        want = {
            **_echo("simulate", config, "q", "depolarize"),
            "n_rounds": counts.pop("n_rounds"),
            "seed": int(config["seed"]),
            **counts,
            "sift_rate": stats.sift_rate,
            "sift_rate_se": proportion_se(stats.n_sifted, stats.n_rounds),
            "qber": stats.qber,
            "qber_se": proportion_se(stats.n_errors, stats.n_sifted),
            **{f"z_{entry.name}": entry.z for entry in report.entries},
            "max_abs_z": report.max_abs_z,
            "consistent": True,
        }
        code, out, err = run_cli(_argv("simulate", given), capsys)
        assert (code, _values(json.loads(out)), err) == (0, _values(want), "")

    def test_mismatch_exits_2(self, capsys, monkeypatch):
        # a sample no honest run could produce: half the rounds sifted with zero errors
        fake = SampleStats(
            n_rounds=100_000,
            n_sifted=90_000,
            n_errors=0,
            n_eve_agree_alice=0,
            n_eve_agree_bob=0,
            n_eve_abstain=90_000,
        )
        monkeypatch.setattr(cli, "run_trials", lambda config: fake)
        code, out, _ = run_cli(self.ARGS, capsys)
        record = json.loads(out)
        assert code == 2
        assert record["consistent"] is False
        assert record["max_abs_z"] > 4.0

    def test_infinite_z_is_written_as_a_string_and_exits_2(self, capsys, monkeypatch):
        def one_impossible_error(stats, joint):
            # an error counted where the oracle allows none: a zero-variance counter, off by one
            entries = list(montecarlo.compare_to_oracle(stats, joint).entries)
            entries[1] = ZScore("error", 1, stats.n_sifted, 0.0)
            return ComparisonReport(tuple(entries))

        monkeypatch.setattr(cli, "compare_to_oracle", one_impossible_error)
        code, out, _ = run_cli(self.ARGS, capsys)
        record = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))
        assert code == 2
        assert record["z_error"] == record["max_abs_z"] == "inf"
        assert record["consistent"] is False


class TestSweep:
    DEFAULTS = {"attack": "standard", "mix": "symmetric", "depolarize": "0", "steps": "101"}

    @pytest.mark.parametrize("given", [
        # the default grid: rows and enumerate_joint read the same corners in the same key order, and a key
        # order of their own would round key_rate's float sums differently (rows 7, 11, ... of this grid)
        {"protocol": "bb84"},
        {"protocol": "trine", "steps": "5"},
        {"protocol": "trine", "steps": "9"},
        {"protocol": "tetra", "mix": "bob", "depolarize": "1/7", "steps": "9"},
        {"protocol": "bb84", "mix": "alice", "depolarize": "1/10", "steps": "9"},
        {"protocol": "six-state", "depolarize": "1/20", "steps": "9"},
        {"protocol": "trine", "attack": "gentle", "steps": "11"},
        {"protocol": "tetra", "attack": "gentle", "mix": "bob", "depolarize": "1/7", "steps": "11"},
        {"protocol": "six-state", "attack": "gentle", "mix": "alice", "depolarize": "1/20", "steps": "11"},
        {"protocol": "bb84", "attack": "gentle", "steps": "3"},
        {"protocol": "bb84", "attack": "gentle", "depolarize": "0.2", "steps": "3"},
    ])
    def test_rows_are_the_enumeration_at_each_q(self, capsys, given):
        config = {**self.DEFAULTS, **given}
        d = int(config["steps"]) - 1
        rows = [
            {"q": float(F(i, d)), **_joint_rates(enumerate_joint(*_setting({**config, "q": F(i, d)})))}
            for i in range(d + 1)
        ]
        want = {**_echo("sweep", config, "depolarize"), "steps": d + 1, "rows": rows}
        code, out, err = run_cli(_argv("sweep", given), capsys)
        assert (code, _values(json.loads(out)), err) == (0, _values(want), "")

    def test_non_finite_rates_in_a_row_are_written_as_strings(self, capsys, monkeypatch):
        grid_rates = cli._grid_rates

        def one_non_finite_row(rows):
            rates = grid_rates(rows)
            p_sift, _, p_noguess, i_ab, i_ae, i_be, _ = rates[1]  # the middle row of the 3-step sweep
            rates[1] = p_sift, math.inf, p_noguess, i_ab, i_ae, i_be, math.nan
            return rates

        monkeypatch.setattr(cli, "_grid_rates", one_non_finite_row)
        argv = ["sweep", "--protocol", "trine", "--steps", "3"]
        code, out, _ = run_cli(argv, capsys)
        record = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))
        assert code == 0
        assert (record["rows"][1]["qber"], record["rows"][1]["r"]) == ("inf", "nan")
        assert record["rows"][0]["qber"] == 0.0
        code, out, _ = run_cli(["--format", "csv"] + argv, capsys)
        row = list(csv.DictReader(io.StringIO(out)))[1]
        assert code == 0 and (row["qber"], row["r"]) == ("inf", "nan")


class TestRateRowsSkipTheJoint:
    """A sweep's rows read the corner masses: it builds no JointDistribution and no strategy."""

    @pytest.mark.parametrize("protocol,attack", [("trine", "standard"), ("six-state", "gentle")])
    def test_sweep_builds_no_joint_and_no_strategy(self, monkeypatch, capsys, protocol, attack):
        built = {}
        for cls in (JointDistribution, InterceptResend, GentleIntercept):
            def counted(self, _original=cls.__post_init__, _name=cls.__name__):
                built[_name] = built.get(_name, 0) + 1
                _original(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        code, out, _ = run_cli(["sweep", "--protocol", protocol, "--attack", attack], capsys)
        assert code == 0 and len(json.loads(out)["rows"]) == 101
        assert built == {}


class TestEstimateQ:
    # the sifting band's inverse width: q moves 12 (trine) or 9 (tetra) times as far as the sift rate
    SLOPE = {"trine": 12, "tetra": 9}

    @pytest.mark.parametrize("protocol,sift,total", [
        ("trine", 583333, 1000000),  # near full interception
        ("tetra", 333333333, 999999999),  # an idle channel: q = 0
        ("trine", 700000, 1000000),  # out of the model: clamped to q = 1 and flagged, with nothing on stderr
        ("tetra", 5, 10**308),  # a count within the float range is used, however large
    ])
    def test_record_is_the_inversion_and_its_rates(self, capsys, protocol, sift, total):
        # the rates are those of the estimate under intercept/resend, and r_gentle that of the gentle symmetric
        # attack of the same Bloch shrink 1 - q, GentleIntercept(sqrt(q (2 - q)))
        kind, se = ProtocolKind(protocol), proportion_se(sift, total)
        estimate = estimate_q_from_sift(kind, F(sift, total), margin=2 * se)
        q = float(estimate.q)
        joint = enumerate_joint(kind, InterceptResend(estimate.q))
        gentle = enumerate_joint(kind, GentleIntercept(math.sqrt(q * (2 - q))))
        want = {
            "command": "estimate-q",
            "protocol": protocol,
            "sift_count": sift,
            "total_count": total,
            "sift_rate": float(F(sift, total)),
            "q": q,
            "q_raw": float(estimate.q_raw),
            "q_se": self.SLOPE[protocol] * se,
            "in_model": estimate.in_model,
            "qber": float(joint.qber),
            "r": key_rate(joint).r,
            "r_gentle": key_rate(gentle).r,
        }
        argv = ["estimate-q", "--protocol", protocol, "--sift-count", str(sift), "--total-count", str(total)]
        code, out, err = run_cli(argv, capsys)
        assert (code, _values(json.loads(out)), err) == (0, _values(want), "")

    @pytest.mark.parametrize("protocol,sift,q,r,r_gentle", [
        ("trine", 5500, 0.6, 0.0746, -0.0508),
        ("tetra", 3700, 0.33, 0.3031, 0.2173),
    ])
    def test_reports_the_gentle_rate_of_the_same_shrink(self, capsys, protocol, sift, q, r, r_gentle):
        # GentleIntercept(sqrt(q (2 - q))) shrinks the Bloch vector by 1 - q, as InterceptResend(q) does:
        # the same sift rate and QBER, and a lower R, reported as it is when negative
        argv = ["estimate-q", "--protocol", protocol, "--sift-count", str(sift), "--total-count", "10000"]
        code, out, _ = run_cli(argv, capsys)
        record = json.loads(out)
        assert code == 0 and record["q"] == q
        assert (round(record["r"], 4), round(record["r_gentle"], 4)) == (r, r_gentle)
        gentle = enumerate_joint(ProtocolKind(protocol), GentleIntercept(math.sqrt(q * (2 - q))))
        assert record["r_gentle"] == key_rate(gentle).r
        assert abs(gentle.p_sift - record["sift_rate"]) <= 1e-15 and abs(gentle.qber - record["qber"]) <= 1e-15

    @settings(max_examples=300, deadline=None)
    @given(
        protocol=st.sampled_from([ProtocolKind.TRINE, ProtocolKind.TETRAHEDRON]),
        family=st.sampled_from([InterceptResend, GentleIntercept]),
        mix=st.sampled_from(list(EnsembleMix)),
        q=st.fractions(min_value=0, max_value=1, max_denominator=60),
        p=st.fractions(min_value=0, max_value=F(1, 3), max_denominator=60),
    )
    # the gentle symmetric attack at p = 0 is the bound itself: GentleIntercept(4/5) is the shrink of q = 2/5
    @example(protocol=ProtocolKind.TRINE, family=GentleIntercept, mix=EnsembleMix.SYMMETRIC, q=F(4, 5), p=F(0))
    def test_no_modelled_attack_in_the_band_keys_below_r_gentle(self, protocol, family, mix, q, p):
        # a conjecture the test checks: of every attack and channel that gives an observed sift rate in
        # the band, the gentle symmetric attack alone on a noiseless channel leaves the least key
        joint = enumerate_joint(protocol, family(q, mix), Channel(depolarizing=p))
        assume(estimate_q_from_sift(protocol, joint.p_sift).in_model)
        sift = F(joint.p_sift)
        argv = ["estimate-q", "--protocol", protocol.value,
                "--sift-count", str(sift.numerator), "--total-count", str(sift.denominator)]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(argv) == 0
        assert key_rate(joint).r >= json.loads(out.getvalue())["r_gentle"] - 1e-12


# (argv, its one error line); the prog before ": error: " names the parser whose usage heads stderr, and a line
# that ends at CHOICES is argparse's invalid choice, whose list of choices is argparse's own and not pinned
CHOICES = " (choose from "
USAGE_ERRORS = [
    (["analytic", "--protocol", "trine", "--q", "1.5"], "scqkd analytic: error: argument --q: must lie in [0, 1], got 1.5"),
    (["analytic", "--protocol", "trine", "--attack", "standard", "--q", "abc"],
     "scqkd analytic: error: argument --q: not a number: 'abc'"),
    (["analytic", "--protocol", "b92"], "scqkd analytic: error: argument --protocol: invalid choice: 'b92'" + CHOICES),
    (["analytic", "--protocol", "trine", "--q", "1/2"], "scqkd analytic: error: --q needs --attack standard or gentle"),
    (["analytic", "--protocol", "trine", "--attack", "none", "--q", "1/2"],
     "scqkd analytic: error: --q needs --attack standard or gentle"),
    (["threshold", "--protocol", "trine", "--attack", "none"],
     "scqkd threshold: error: argument --attack: invalid choice: 'none'" + CHOICES),
    (["threshold", "--protocol", "trine", "--q", "1/2"], "scqkd: error: unrecognized arguments: --q 1/2"),
    (["simulate", "--protocol", "trine", "--n", "0"], "scqkd simulate: error: --n must be positive"),
    (["simulate", "--protocol", "bb84", "--attack", "none", "--n", "1000", "--q", "1"],
     "scqkd simulate: error: --q needs --attack standard or gentle"),
    (["simulate", "--protocol", "trine", "--seed", "-1"], "scqkd simulate: error: --seed must lie in [0, 2^64)"),
    (["simulate", "--protocol", "trine", "--seed", str(2**64)], "scqkd simulate: error: --seed must lie in [0, 2^64)"),
    (["sweep", "--protocol", "trine", "--steps", "1"], "scqkd sweep: error: --steps must be at least 2"),
    (["sweep", "--protocol", "trine", "--q", "1/2"], "scqkd: error: unrecognized arguments: --q 1/2"),
    (["estimate-q", "--protocol", "bb84", "--sift-count", "1", "--total-count", "2"],
     "scqkd estimate-q: error: the sifting rate of bb84 is 1/2 at every interception fraction; "
     "it carries no estimate of q"),
    (["estimate-q", "--protocol", "six-state", "--sift-count", "1", "--total-count", "2"],
     "scqkd estimate-q: error: the sifting rate of six-state is 1/3 at every interception fraction; "
     "it carries no estimate of q"),
    (["estimate-q", "--protocol", "trine", "--sift-count", "1", "--total-count", "0"],
     "scqkd estimate-q: error: --total-count must be positive"),
    # past the float range its standard error would overflow; 10^300 is a count like any other
    (["estimate-q", "--protocol", "trine", "--sift-count", "5", "--total-count", str(10**400)],
     "scqkd estimate-q: error: --total-count must be at most 1.7976931348623157e+308"),
    (["estimate-q", "--protocol", "trine", "--sift-count", "3", "--total-count", "2"],
     "scqkd estimate-q: error: --sift-count must lie in [0, total-count]"),
    (["estimate-q", "--protocol", "trine", "--sift-count", "-1", "--total-count", "10"],
     "scqkd estimate-q: error: --sift-count must lie in [0, total-count]"),
    ([], "scqkd: error: the following arguments are required: command"),
]


class TestOutputFormats:
    # each command's keys, in the order its JSON record and its CSV header give them
    @pytest.mark.parametrize("argv,header", [
        (["analytic", "--protocol", "trine", "--attack", "standard", "--q", "1"],
         "command protocol attack mix q depolarize p_sift qber p_noguess i_ab i_ae i_be r"),
        (["threshold", "--protocol", "tetra"], "command protocol attack mix depolarize q_star qber_star"),
        (["simulate", "--protocol", "six-state", "--attack", "gentle", "--q", "1/2", "--n", "3000"],
         "command protocol attack mix q depolarize n_rounds seed n_sifted n_errors n_eve_agree_alice n_eve_agree_bob "
         "n_eve_abstain sift_rate sift_rate_se qber qber_se z_sift z_error z_eve_agree_alice z_eve_agree_bob "
         "z_eve_abstain max_abs_z consistent"),
        (["sweep", "--protocol", "tetra", "--steps", "3"],
         "command protocol attack mix depolarize steps q p_sift qber p_noguess i_ab i_ae i_be r"),
        (["estimate-q", "--protocol", "trine", "--sift-count", "5500", "--total-count", "10000"],
         "command protocol sift_count total_count sift_rate q q_raw q_se in_model qber r r_gentle"),
    ])
    def test_a_csv_row_is_the_json_record_flattened(self, capsys, argv, header):
        # a scalar record is one row; a table's scalars are repeated on every row
        record = json.loads(run_cli(argv, capsys)[1])
        table = record.pop("rows", [{}])
        code, out, err = run_cli(["--format", "csv"] + argv, capsys)
        reader = csv.DictReader(io.StringIO(out))
        assert (code, err) == (0, "")
        assert list(reader) == [{key: str(value) for key, value in {**record, **row}.items()} for row in table]
        assert reader.fieldnames == list(record) + list(table[0]) == header.split()

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rates.json"
        code, out, _ = run_cli(
            ["--out", str(path), "analytic", "--protocol", "bb84"], capsys
        )
        assert code == 0
        assert out == ""
        record = json.loads(path.read_text())
        assert record["command"] == "analytic"

    @pytest.mark.parametrize("where,reason", [
        ("missing/rates.json", "No such file or directory"), (".", "Is a directory"),
    ])
    def test_out_that_cannot_be_written_is_one_line_and_exit_1(self, capsys, tmp_path, where, reason):
        path = tmp_path / where
        code, out, err = run_cli(["--out", str(path), "analytic", "--protocol", "trine"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"scqkd: error: cannot write {path}: {reason}\n"

    @pytest.mark.parametrize("argv,line", USAGE_ERRORS)
    def test_a_usage_error_is_the_usage_one_error_line_and_exit_1(self, capsys, argv, line):
        # as argparse's own errors are, the ones found past argparse included
        code, out, err = run_cli(argv, capsys)
        errors = [text for text in err.splitlines() if "error:" in text]
        assert (code, out) == (1, "")
        assert err.startswith(f"usage: {line.split(': error: ')[0]} ")
        assert errors == [line] or line.endswith(CHOICES) and len(errors) == 1 and errors[0].startswith(line)


def _quoted(value):
    """value with every non-finite float replaced by its repr, at any depth (the identity on other values)."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_quoted(v) for v in value]
    if isinstance(value, dict):
        return {key: _quoted(v) for key, v in value.items()}
    return value


_STRINGS = st.one_of(st.text(), st.sampled_from(["", "\x00\x1f\x7f\n\t\"\\", "é ü ∞ \u2028 \U0001f600"]))
_SCALARS = st.one_of(
    st.floats(), st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf, 1e16, 5e-324]),
    st.integers(), st.integers(min_value=2**63), st.integers(max_value=-2**63 - 1),
    st.booleans(), st.none(), _STRINGS,
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(_STRINGS, inner, max_size=4)),
    max_leaves=24,
)


class TestRecordLayout:
    """A JSON record is json.dumps output and a newline, with non-finite floats as their quoted reprs."""

    @staticmethod
    def emitted(value) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli._emit(value, "json", None) == 0
        return out.getvalue()

    @settings(max_examples=400, deadline=None)
    @given(value=_VALUES)
    @example(value={"rows": [], "empty": {}, "nested": [[{}], {"a": [[]]}], "n": 2**64 + 1})
    @example(value={"z": [math.inf, {"w": -math.inf}], "nan": math.nan, "zero": -0.0})
    def test_is_json_dumps(self, value):
        # _quoted leaves a value without non-finite floats as it is, so such a value gives json.dumps' bytes
        text = self.emitted(value)
        assert text == json.dumps(_quoted(value)) + "\n"
        json.loads(text, parse_constant=lambda name: pytest.fail(f"{name} is not JSON"))

    @pytest.mark.parametrize("value,walked", [
        ({"rows": [{"q": 0.5, "r": -0.25}], "n": 3}, False),
        ({"rows": [{"q": 0.5, "r": math.nan}], "n": 3}, True),
    ])
    def test_only_a_non_finite_record_is_walked(self, monkeypatch, value, walked):
        calls = []
        monkeypatch.setattr(cli, "_finite", lambda v, _original=cli._finite: calls.append(v) or _original(v))
        assert self.emitted(value) == json.dumps(_quoted(value)) + "\n"
        assert bool(calls) is walked

    @pytest.mark.parametrize("value", [
        np.int64(1), Fraction(1, 2), {"rows": [{"n": np.int64(1)}]}, [Fraction(1, 2)], b"x", {1, 2}, object(),
    ])
    def test_rejects_what_json_dumps_rejects(self, value):
        with pytest.raises(TypeError):
            json.dumps(value)
        with pytest.raises(TypeError):
            self.emitted(value)


# every subcommand, defaults after set flags, usage errors after other
# subcommands, and --format csv between json commands
SEQUENCE = [
    ["analytic", "--protocol", "trine", "--attack", "gentle", "--mix", "alice", "--q", "1/3", "--depolarize", "1/7"],
    ["analytic", "--protocol", "trine"],
    ["threshold", "--protocol", "tetra", "--mix", "bob", "--depolarize", "1/20"],
    ["threshold", "--protocol", "tetra"],
    ["sweep", "--protocol", "bb84", "--attack", "gentle", "--steps", "3"],
    ["sweep", "--protocol", "bb84"],
    ["simulate", "--protocol", "six-state", "--attack", "standard", "--q", "1/2", "--n", "2000", "--seed", "9"],
    ["threshold", "--protocol", "trine", "--attack", "none"],
    ["simulate", "--protocol", "six-state", "--n", "2000"],
    ["analytic", "--protocol", "trine", "--q", "1/2"],
    ["estimate-q", "--protocol", "trine", "--sift-count", "517", "--total-count", "1000"],
    ["sweep", "--protocol", "trine", "--steps", "1"],
    ["--format", "csv", "sweep", "--protocol", "tetra", "--steps", "4"],
    ["sweep", "--protocol", "tetra", "--steps", "4"],
    ["--format", "csv", "analytic", "--protocol", "bb84", "--attack", "standard", "--q", "1"],
    ["analytic", "--protocol", "bb84", "--attack", "standard", "--q", "1"],
    ["estimate-q", "--protocol", "bb84", "--sift-count", "1", "--total-count", "2"],
    ["analytic", "--protocol", "trine"],
]


class TestOneParserPerProcess:
    """main builds its parser once; each call still sees only its own arguments."""

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_value_leaks_from_one_call_into_the_next(self, capsys):
        # each command alone, on a freshly built parser, is the reference
        alone = []
        for argv in SEQUENCE:
            cli.build_parser.cache_clear()
            alone.append(run_cli(argv, capsys))
        cli.build_parser.cache_clear()
        in_turn = [run_cli(argv, capsys) for argv in SEQUENCE]
        assert in_turn == alone
        assert {code for code, _, _ in in_turn} == {0, 1}
        assert in_turn[-1] == in_turn[1]

    def test_namespaces_hold_their_own_subcommand(self):
        parser = cli.build_parser()
        first = parser.parse_args(["--format", "csv", "simulate", "--protocol", "trine", "--n", "5"])
        second = parser.parse_args(["estimate-q", "--protocol", "trine", "--sift-count", "1", "--total-count", "2"])
        assert first.format == "csv" and second.format == "json"
        assert first.parser.prog == "scqkd simulate" and second.parser.prog == "scqkd estimate-q"
        assert second.func is cli._cmd_estimate_q
        assert not {"n", "seed", "attack", "mix", "q", "depolarize"} & set(vars(second))
