"""Acceptance suite: nine numbered criteria, one verdict line each.

Run with `pytest -v` so each criterion reports its own pass/fail line; the
printed `[criterion N] ...` verdicts additionally surface under `-s` or in
the captured output of a failure. Every check carries its stated tolerance
and runtime budget. Exact-rational claims are asserted with `==` on
Fractions, never via float rounding.
"""

import time
from fractions import Fraction
from unittest import mock

import numpy as np
from rate_reference import mutual_information

from scqkd import montecarlo
from scqkd.analysis import (
    AnalyticCurves,
    enumerate_joint,
    estimate_q_from_sift,
    find_threshold,
)
from scqkd.eavesdrop import EnsembleMix, InterceptResend
from scqkd.montecarlo import TrialConfig, compare_to_oracle, run_trials, simulate_rounds, stats_from_arrays
from scqkd.protocol import Channel, ProtocolKind, announcement_options

F = Fraction

ALL_PROTOCOLS = (
    ProtocolKind.TRINE,
    ProtocolKind.TETRAHEDRON,
    ProtocolKind.BB84,
    ProtocolKind.SIX_STATE,
)


def _verdict(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


class TestAcceptance:
    def test_criterion_1_trine_alice_only_exact_fractions(self):
        t0 = time.perf_counter()
        jd = enumerate_joint(
            ProtocolKind.TRINE, InterceptResend(q=F(1), mix=EnsembleMix.ALICE_ONLY)
        )
        # unconditional masses
        checks = [
            1 - jd.p_sift == F(5, 12),
            jd.p_sift * jd.mass(lambda a, b, e: e is not None and a == b == e) == F(1, 3),
            jd.p_sift * jd.mass(lambda a, b, e: e is not None and a != b and b == e) == F(1, 12),
            jd.p_sift * jd.p_eve_abstain == F(1, 6),
            # when this Eve guesses she holds Bob's bit, so the two masses above
            # exhaust the guessed region
            jd.mass(lambda a, b, e: e is not None and e != b) == 0,
            # conditional rates
            jd.mass(lambda a, b, e: a == b) == F(5, 7),
            jd.p_eve_agree_alice == F(4, 7),
            jd.mass(lambda a, b, e: e is not None) == F(5, 7),
        ]
        elapsed = time.perf_counter() - t0
        ok = all(checks) and elapsed < 1.0
        _verdict(1, ok, f"exact rational equalities, {elapsed:.3f}s (< 1s)")

    def test_criterion_2_symmetric_exact_fractions(self):
        t0 = time.perf_counter()
        trine = enumerate_joint(ProtocolKind.TRINE, InterceptResend(q=F(1)))
        tetra = enumerate_joint(ProtocolKind.TETRAHEDRON, InterceptResend(q=F(1)))
        checks = [
            trine.p_eve_abstain == F(2, 7),
            trine.p_eve_agree_alice == F(9, 14),
            trine.mass(lambda a, b, e: e is not None and e != a) == F(1, 14),
            tetra.p_sift == F(4, 9),
            tetra.mass(lambda a, b, e: a == b) == F(5, 8),
            tetra.p_eve_agree_alice == F(7, 16),
            tetra.p_eve_abstain == F(1, 2),
        ]
        elapsed = time.perf_counter() - t0
        ok = all(checks) and elapsed < 1.0
        _verdict(2, ok, f"exact rational equalities, {elapsed:.3f}s (< 1s)")

    def test_criterion_3_enumeration_matches_closed_forms(self):
        t0 = time.perf_counter()
        mismatches = []
        for protocol in (ProtocolKind.TRINE, ProtocolKind.TETRAHEDRON):
            curves = AnalyticCurves(protocol)
            for i in range(101):
                q = F(i, 100)
                jd = enumerate_joint(protocol, InterceptResend(q=q))
                same = (
                    jd.p_sift == curves.p_sift(q)
                    and jd.mass(lambda a, b, e: a == b) == curves.p_ab(q)
                    and jd.p_eve_agree_alice == curves.p_ae(q)
                    and jd.p_eve_abstain == curves.p_noguess(q)
                    and jd.qber == curves.qber(q)
                )
                if not same:
                    mismatches.append((protocol.value, q))
        elapsed = time.perf_counter() - t0
        ok = not mismatches and elapsed < 10.0
        _verdict(3, ok, f"202 grid points exact, {elapsed:.2f}s (< 10s); mismatches={mismatches}")

    def test_criterion_4_standard_thresholds(self):
        t0 = time.perf_counter()
        targets = {
            ProtocolKind.TRINE: 0.204,
            ProtocolKind.TETRAHEDRON: 0.267,
            ProtocolKind.BB84: 0.171,
            ProtocolKind.SIX_STATE: 0.227,
        }
        got = {p: find_threshold(p, "standard").qber_star for p in targets}
        errors = {p.value: got[p] - targets[p] for p in targets}
        elapsed = time.perf_counter() - t0
        ok = all(abs(e) <= 0.0005 for e in errors.values()) and elapsed < 5.0
        detail = ", ".join(f"{k} {got[p]:.4f}" for k, p in zip(errors, targets))
        _verdict(4, ok, f"{detail} all within 0.0005, {elapsed:.2f}s (< 5s)")

    def test_criterion_5_gentle_thresholds(self):
        t0 = time.perf_counter()
        targets = {
            ProtocolKind.TRINE: 0.166,
            ProtocolKind.TETRAHEDRON: 0.226,
            ProtocolKind.BB84: 0.153,
            ProtocolKind.SIX_STATE: 0.210,
        }
        got = {p: find_threshold(p, "gentle").qber_star for p in targets}
        errors = {p.value: got[p] - targets[p] for p in targets}
        elapsed = time.perf_counter() - t0
        # the abstain-on-exclusion guess rule lands inside the band, so no
        # alternative-rule deviation report is required
        ok = all(abs(e) <= 0.003 for e in errors.values()) and elapsed < 60.0
        detail = ", ".join(f"{k} {got[p]:.4f}" for k, p in zip(errors, targets))
        _verdict(5, ok, f"{detail} all within 0.003, {elapsed:.2f}s (< 60s)")

    def test_criterion_6_depolarizing_endpoint_and_grid(self):
        t0 = time.perf_counter()
        checks = []
        for protocol in ALL_PROTOCOLS:
            jd = enumerate_joint(protocol, None, Channel(depolarizing=F(1)))
            checks.append(jd.qber == F(1, 2))
        for protocol in (ProtocolKind.BB84, ProtocolKind.SIX_STATE):
            for k in range(11):
                p = F(k, 10)
                jd = enumerate_joint(protocol, None, Channel(depolarizing=p))
                checks.append(jd.qber == p / 2)
        elapsed = time.perf_counter() - t0
        ok = all(checks) and elapsed < 5.0
        _verdict(6, ok, f"p=1 gives qber 1/2 exactly, basis-pair qber == p/2, {elapsed:.2f}s (< 5s)")

    def test_criterion_7_monte_carlo_consistency(self):
        t0 = time.perf_counter()
        eve = InterceptResend(q=F(1))
        config = TrialConfig(
            protocol=ProtocolKind.TRINE, eve=eve, n_rounds=10**6, seed=20240817
        )
        stats = run_trials(config)
        report = compare_to_oracle(stats, enumerate_joint(ProtocolKind.TRINE, eve))
        rerun = run_trials(config)
        with mock.patch.object(montecarlo, "_CHUNK_ROUNDS", 37777):
            rechunked = run_trials(config)
        elapsed = time.perf_counter() - t0
        ok = (
            report.ok
            and stats == rerun == rechunked
            and elapsed < 30.0
        )
        _verdict(
            7,
            ok,
            f"max |z| = {report.max_abs_z:.2f} (<= 4), reruns bit-identical, "
            f"{elapsed:.1f}s (< 30s)",
        )

    def test_criterion_8_sift_inversion_identity(self):
        t0 = time.perf_counter()
        worst = F(0)
        in_model = True
        for protocol in (ProtocolKind.TRINE, ProtocolKind.TETRAHEDRON):
            curves = AnalyticCurves(protocol)
            for i in range(101):
                q = F(i, 100)
                est = estimate_q_from_sift(protocol, curves.p_sift(q))
                worst = max(worst, abs(est.q - q))
                in_model = in_model and est.in_model
        elapsed = time.perf_counter() - t0
        ok = worst <= F(1, 10**12) and in_model and elapsed < 1.0
        _verdict(8, ok, f"round-trip error {float(worst):.1e} (<= 1e-12), {elapsed:.3f}s (< 1s)")

    def test_criterion_9_no_eve_sanity(self):
        t0 = time.perf_counter()
        expected_sift = {
            ProtocolKind.TRINE: 0.5,
            ProtocolKind.TETRAHEDRON: 1 / 3,
            ProtocolKind.BB84: 0.5,
            ProtocolKind.SIX_STATE: 1 / 3,
        }
        details = []
        ok = True
        for protocol, p in expected_sift.items():
            config = TrialConfig(protocol=protocol, n_rounds=10**6, seed=7)
            arrays = simulate_rounds(config)
            stats = stats_from_arrays(arrays)
            z = (stats.n_sifted - config.n_rounds * p) / (
                config.n_rounds * p * (1 - p)
            ) ** 0.5
            mi = self._announcement_key_information(protocol, arrays)
            details.append(f"{protocol.value} z={z:+.2f} mi={mi:.1e}")
            ok = ok and abs(z) <= 3.0 and stats.n_errors == 0 and mi < 1e-3
        elapsed = time.perf_counter() - t0
        ok = ok and elapsed < 30.0
        _verdict(9, ok, "; ".join(details) + f"; zero key errors, {elapsed:.1f}s (< 30s)")

    @staticmethod
    def _announcement_key_information(protocol, arrays):
        """Empirical MI (bits) between the public announcement and Alice's key bit."""
        n = protocol.n_signals

        def identity(k, ai):
            ann = announcement_options(protocol, k)[ai]
            if ann.excluded:
                return ann.excluded
            return ann.bob_basis

        lut = {}
        codes = np.zeros((n, max(len(announcement_options(protocol, k)) for k in range(1, n + 1))), dtype=np.int64)
        for k in range(1, n + 1):
            for ai in range(len(announcement_options(protocol, k))):
                codes[k - 1, ai] = lut.setdefault(identity(k, ai), len(lut))
        mask = arrays.accepted
        ids = codes[arrays.bob_outcome[mask] - 1, arrays.announce_index[mask]]
        bits = arrays.alice_bit[mask].astype(np.int64)
        pairs, counts = np.unique(ids * 2 + bits, return_counts=True)
        total = counts.sum()
        joint = {(int(p) // 2, int(p) % 2): int(c) / total for p, c in zip(pairs, counts)}
        return mutual_information(joint)
