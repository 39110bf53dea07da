"""End-to-end tests for the command-line interface."""

import contextlib
import csv
import io
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import scqkd.cli as cli
from scqkd import montecarlo
from scqkd.analysis import (JointDistribution, NoThresholdError, enumerate_joint, estimate_q_from_sift, find_threshold,
                            key_rate)
from scqkd.eavesdrop import EnsembleMix, GentleIntercept, InterceptResend
from scqkd.montecarlo import ComparisonReport, SampleStats, ZScore
from scqkd.protocol import Channel, ProtocolKind

F = Fraction


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    return code, json.loads(out), err


class TestAnalytic:
    def test_full_strength_trine(self, capsys):
        code, record, _ = run_json(
            ["analytic", "--protocol", "trine", "--attack", "standard", "--q", "1"],
            capsys,
        )
        assert code == 0
        assert record["protocol"] == "trine"
        assert record["attack"] == "standard"
        assert record["mix"] == "symmetric"
        assert record["q"] == 1.0
        assert record["p_sift"] == pytest.approx(7 / 12)
        assert record["qber"] == pytest.approx(2 / 7)
        assert record["p_noguess"] == pytest.approx(2 / 7)
        joint = enumerate_joint(ProtocolKind.TRINE, InterceptResend(q=F(1)))
        report = key_rate(joint)
        assert record["i_ab"] == report.i_ab
        assert record["i_ae"] == report.i_ae
        assert record["r"] == report.r
        assert record["r"] < 0

    def test_no_attack_default(self, capsys):
        code, record, _ = run_json(["analytic", "--protocol", "six-state"], capsys)
        assert code == 0
        assert record["attack"] == "none"
        assert record["p_sift"] == pytest.approx(1 / 3)
        assert record["qber"] == 0.0
        assert record["i_ab"] == 1.0
        assert record["r"] == 1.0

    def test_fractional_q_is_exact(self, capsys):
        code, record, _ = run_json(
            ["analytic", "--protocol", "trine", "--attack", "standard", "--q", "2/7"],
            capsys,
        )
        assert code == 0
        # p_sift = (6 + q)/12 with q = 2/7
        assert record["p_sift"] == float(F(11, 21))

    def test_depolarizing_only(self, capsys):
        code, record, _ = run_json(
            ["analytic", "--protocol", "bb84", "--depolarize", "0.3"], capsys
        )
        assert code == 0
        assert record["qber"] == pytest.approx(0.15)

    def test_q_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analytic", "--protocol", "trine", "--q", "1.5"])
        assert exc.value.code == 1

    def test_unknown_protocol_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analytic", "--protocol", "b92"])
        assert exc.value.code == 1

    def test_q_without_attack_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["analytic", "--protocol", "trine", "--attack", "none", "--q", "1/2"])
        assert exc.value.code == 1
        code, record, _ = run_json(
            ["analytic", "--protocol", "trine", "--attack", "none", "--q", "0"], capsys
        )
        assert code == 0
        assert record["q"] == 0.0


class TestThreshold:
    def test_matches_solver_rounded(self, capsys):
        code, record, _ = run_json(
            ["threshold", "--protocol", "tetra", "--attack", "standard"], capsys
        )
        assert code == 0
        want = find_threshold(ProtocolKind.TETRAHEDRON, "standard")
        assert record["q_star"] == round(want.q_star, 4)
        assert record["qber_star"] == round(want.qber_star, 4)

    def test_gentle_trine(self, capsys):
        code, record, _ = run_json(
            ["threshold", "--protocol", "trine", "--attack", "gentle"], capsys
        )
        assert code == 0
        assert record["q_star"] == pytest.approx(0.8900, abs=2e-4)
        assert record["qber_star"] == pytest.approx(0.1663, abs=2e-4)

    def test_attack_none_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["threshold", "--protocol", "trine", "--attack", "none"])
        assert exc.value.code == 1

    def test_depolarize_is_applied_and_echoed(self, capsys):
        code, record, _ = run_json(
            ["threshold", "--protocol", "trine", "--depolarize", "1/10"], capsys
        )
        assert code == 0
        assert record["depolarize"] == 0.1
        want = find_threshold(
            ProtocolKind.TRINE, "standard", channel=Channel(depolarizing=F(1, 10))
        )
        assert record["q_star"] == round(want.q_star, 4)
        assert record["qber_star"] == round(want.qber_star, 4) == 0.239

    def test_q_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["threshold", "--protocol", "trine", "--q", "1/2"])
        assert exc.value.code == 1

    def test_no_threshold_becomes_exit_1(self, capsys, monkeypatch):
        def no_crossing(*a, **kw):
            raise NoThresholdError("rate does not change sign")

        monkeypatch.setattr(cli, "find_threshold", no_crossing)
        code, out, err = run_cli(["threshold", "--protocol", "trine"], capsys)
        assert code == 1
        assert out == ""
        assert "rate does not change sign" in err


class TestSimulate:
    ARGS = [
        "simulate", "--protocol", "trine", "--attack", "standard",
        "--q", "1", "--n", "20000", "--seed", "12",
    ]

    def test_consistent_run(self, capsys):
        code, record, _ = run_json(self.ARGS, capsys)
        assert code == 0
        assert record["consistent"] is True
        assert record["n_rounds"] == 20000
        assert record["max_abs_z"] <= 4.0
        assert record["n_sifted"] == record["n_errors"] + (
            record["n_sifted"] - record["n_errors"]
        )
        for name in ("z_sift", "z_error", "z_eve_agree_alice"):
            assert name in record

    @pytest.mark.parametrize("cpus,n", [(1, 3000), (2, 40_000)])
    def test_counts_serialise_as_integers(self, capsys, monkeypatch, cpus, n):
        # a one-chunk serial trial and a pooled one; a numpy count would fail json.dumps
        argv = ["simulate", "--protocol", "six-state", "--attack", "gentle", "--q", "1/2", "--n", str(n)]
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
        code, record, _ = run_json(argv, capsys)
        assert run_cli(["--format", "csv"] + argv, capsys)[0] == code == 0
        counts = ("n_rounds", "n_sifted", "n_errors", "n_eve_agree_alice", "n_eve_agree_bob", "n_eve_abstain")
        assert all(type(record[name]) is int for name in counts)
        assert record["n_rounds"] == n

    def test_byte_identical_repeat(self, capsys):
        _, first, _ = run_cli(self.ARGS, capsys)
        _, second, _ = run_cli(self.ARGS, capsys)
        assert first == second

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
        code, record, _ = run_json(self.ARGS, capsys)
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

    def test_bad_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--protocol", "trine", "--n", "0"])
        assert exc.value.code == 1

    def test_q_without_attack_is_usage_error(self, capsys):
        argv = ["simulate", "--protocol", "bb84", "--attack", "none", "--n", "1000"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--q", "1"])
        assert exc.value.code == 1
        code, record, _ = run_json(argv + ["--q", "0"], capsys)
        assert code == 0
        assert record["q"] == 0.0


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


class TestSweep:
    def test_default_grid_has_101_rows(self, capsys):
        code, record, _ = run_json(["sweep", "--protocol", "bb84"], capsys)
        assert code == 0
        assert record["steps"] == 101
        assert len(record["rows"]) == 101
        assert record["rows"][0]["q"] == 0.0
        assert record["rows"][-1]["q"] == 1.0

    def test_five_point_trine_values(self, capsys):
        code, record, _ = run_json(
            ["sweep", "--protocol", "trine", "--steps", "5"], capsys
        )
        assert code == 0
        rows = record["rows"]
        assert [r["q"] for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        # qber = 2q/(6 + q) on the exclusion code
        for row, want in zip(rows, [F(0), F(2, 25), F(2, 13), F(2, 9), F(2, 7)]):
            assert row["qber"] == pytest.approx(float(want), abs=1e-15)
        assert rows[0]["r"] == 1.0
        qbers = [r["qber"] for r in rows]
        rs = [r["r"] for r in rows]
        assert qbers == sorted(qbers)
        assert rs == sorted(rs, reverse=True)

    def test_steps_validation(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--protocol", "trine", "--steps", "1"])
        assert exc.value.code == 1

    def test_q_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--protocol", "trine", "--q", "1/2"])
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "protocol,mix,p",
        [
            ("trine", "symmetric", "0"),
            ("tetra", "bob", "1/7"),
            ("bb84", "alice", "1/10"),
            ("six-state", "symmetric", "1/20"),
        ],
    )
    def test_standard_rows_equal_per_q_enumeration(self, capsys, protocol, mix, p):
        code, record, _ = run_json(
            ["sweep", "--protocol", protocol, "--mix", mix, "--depolarize", p, "--steps", "9"],
            capsys,
        )
        assert code == 0
        assert record["depolarize"] == float(F(p))
        channel = Channel(depolarizing=F(p))
        for i, row in enumerate(record["rows"]):
            q = F(i, 8)
            eve = InterceptResend(q=q, mix=EnsembleMix(mix))
            joint = enumerate_joint(ProtocolKind(protocol), eve, channel)
            want = {"q": float(q), **_joint_rates(joint)}
            assert json.dumps(row) == json.dumps(want)

    def test_standard_rows_keep_the_enumeration_key_order(self, capsys):
        # rows and enumerate_joint read the same corners in the same key order;
        # a key order of their own would round key_rate's float sums
        # differently (rows 7, 11, ... of this grid)
        _, record, _ = run_json(["sweep", "--protocol", "bb84"], capsys)
        for i, row in enumerate(record["rows"]):
            joint = enumerate_joint(ProtocolKind.BB84, InterceptResend(q=F(i, 100)))
            assert json.dumps(row) == json.dumps({"q": i / 100, **_joint_rates(joint)})

    def test_gentle_rows_see_the_channel(self, capsys):
        _, quiet, _ = run_json(
            ["sweep", "--protocol", "bb84", "--attack", "gentle", "--steps", "3"], capsys
        )
        _, noisy, _ = run_json(
            ["sweep", "--protocol", "bb84", "--attack", "gentle", "--steps", "3",
             "--depolarize", "0.2"],
            capsys,
        )
        assert quiet["rows"][0]["qber"] == 0.0
        assert noisy["rows"][0]["qber"] == pytest.approx(0.1)

    @pytest.mark.parametrize(
        "protocol,mix,p",
        [("trine", "symmetric", "0"), ("tetra", "bob", "1/7"), ("six-state", "alice", "1/20")],
    )
    def test_gentle_rows_follow_per_q_enumeration(self, capsys, protocol, mix, p):
        code, record, _ = run_json(
            ["sweep", "--protocol", protocol, "--attack", "gentle", "--mix", mix,
             "--depolarize", p, "--steps", "11"],
            capsys,
        )
        assert code == 0
        channel = Channel(depolarizing=F(p))
        for i, row in enumerate(record["rows"]):
            q = F(i, 10)
            eve = GentleIntercept(q=float(q), mix=EnsembleMix(mix))
            joint = enumerate_joint(ProtocolKind(protocol), eve, channel)
            want = {"q": float(q), **_joint_rates(joint)}
            assert json.dumps(row) == json.dumps(want)  # one evaluation path

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
        code, record, _ = run_json(["sweep", "--protocol", protocol, "--attack", attack], capsys)
        assert code == 0 and len(record["rows"]) == 101
        assert built == {}


class TestEstimateQ:
    def test_near_full_interception(self, capsys):
        code, record, _ = run_json(
            [
                "estimate-q", "--protocol", "trine",
                "--sift-count", "583333", "--total-count", "1000000",
            ],
            capsys,
        )
        assert code == 0
        assert record["q"] == pytest.approx(0.999996)
        assert record["in_model"] is True
        assert record["qber"] == pytest.approx(2 * record["q"] / (6 + record["q"]))
        assert record["q_se"] == pytest.approx(
            12 * (0.583333 * (1 - 0.583333) / 1e6) ** 0.5
        )

    def test_idle_channel_gives_zero(self, capsys):
        code, record, _ = run_json(
            [
                "estimate-q", "--protocol", "tetra",
                "--sift-count", "333333333", "--total-count", "999999999",
            ],
            capsys,
        )
        assert code == 0
        assert record["q"] == 0.0
        assert record["qber"] == 0.0
        assert record["r"] == 1.0

    def test_out_of_model_clamps_and_flags(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning escapes: in_model is the signal
            code, record, err = run_json(
                [
                    "estimate-q", "--protocol", "trine",
                    "--sift-count", "700000", "--total-count", "1000000",
                ],
                capsys,
            )
        assert code == 0
        assert err == ""
        assert record["q"] == 1.0
        assert record["q_raw"] == pytest.approx(12 * 0.7 - 6)
        assert record["in_model"] is False

    @pytest.mark.parametrize("protocol,sift,q,r,r_gentle", [
        ("trine", 5500, 0.6, 0.0746, -0.0508),
        ("tetra", 3700, 0.33, 0.3031, 0.2173),
    ])
    def test_reports_the_gentle_rate_of_the_same_shrink(self, capsys, protocol, sift, q, r, r_gentle):
        # GentleIntercept(sqrt(q (2 - q))) shrinks the Bloch vector by 1 - q, as InterceptResend(q) does:
        # the same sift rate and QBER, and a lower R, reported as it is when negative
        code, record, _ = run_json(
            ["estimate-q", "--protocol", protocol, "--sift-count", str(sift), "--total-count", "10000"], capsys
        )
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

    def test_basis_protocols_rejected(self, capsys):
        for protocol in ("bb84", "six-state"):
            with pytest.raises(SystemExit) as exc:
                cli.main(
                    [
                        "estimate-q", "--protocol", protocol,
                        "--sift-count", "1", "--total-count", "2",
                    ]
                )
            assert exc.value.code == 1
            assert "at every interception fraction" in capsys.readouterr().err

    def test_count_validation(self, capsys):
        for sift, total in [("1", "0"), ("3", "2"), ("-1", "10")]:
            with pytest.raises(SystemExit) as exc:
                cli.main(
                    [
                        "estimate-q", "--protocol", "trine",
                        "--sift-count", sift, "--total-count", total,
                    ]
                )
            assert exc.value.code == 1


class TestOutputFormats:
    def test_csv_scalar_record(self, capsys):
        code, out, _ = run_cli(
            ["--format", "csv", "analytic", "--protocol", "trine", "--attack",
             "standard", "--q", "1"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["protocol"] == "trine"
        assert float(rows[0]["qber"]) == pytest.approx(2 / 7)

    def test_csv_table_repeats_config(self, capsys):
        code, out, _ = run_cli(
            ["--format", "csv", "sweep", "--protocol", "tetra", "--steps", "3"],
            capsys,
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert {r["protocol"] for r in rows} == {"tetra"}
        assert [float(r["q"]) for r in rows] == [0.0, 0.5, 1.0]

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

    @pytest.mark.parametrize("argv", [
        ["threshold", "--protocol", "trine", "--attack", "none"],
        ["sweep", "--protocol", "trine", "--steps", "1"],
        ["simulate", "--protocol", "trine", "--n", "0"],
        ["estimate-q", "--protocol", "bb84", "--sift-count", "1", "--total-count", "2"],
        ["analytic", "--protocol", "trine", "--q", "1/2"],
    ])
    def test_usage_errors_print_the_subcommand_usage(self, argv, capsys):
        # as argparse's own errors do, e.g. a missing --total-count
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"usage: scqkd {argv[0]} ")
        assert f"\nscqkd {argv[0]}: error: " in err

    @pytest.mark.parametrize("argv,message", [
        (["analytic", "--protocol", "trine", "--attack", "standard", "--q", "abc"], "argument --q: not a number: 'abc'"),
        (["simulate", "--protocol", "trine", "--seed", "-1"], "--seed must lie in [0, 2^64)"),
        (["simulate", "--protocol", "trine", "--seed", str(2**64)], "--seed must lie in [0, 2^64)"),
    ])
    def test_bad_values_are_one_error_line_and_exit_1(self, argv, message, capsys):
        code, out, err = _outcome(argv, capsys)
        assert (code, out) == (1, "")
        assert [line for line in err.splitlines() if "error:" in line] == [f"scqkd {argv[0]}: error: {message}"]

    def test_missing_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1


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


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one in-process command, usage errors included."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            alone.append(_outcome(argv, capsys))
        cli.build_parser.cache_clear()
        in_turn = [_outcome(argv, capsys) for argv in SEQUENCE]
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
