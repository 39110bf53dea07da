"""Smoke test of the benchmark: every workload at a tiny size, untraced and traced.

    python -m pytest -q bench/test_smoke.py

It checks that every metric BENCHMARK.json names is reported with its unit,
that no op fails on the current code, that a rerun with the same seed gives
bit-identical op outputs, and that the benchmark refuses to run without the
program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, seed=7):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def record_file(workload, trace, seed=7):
    path = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}-smoke.json"
    return json.loads(path.read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_and_no_op_fails(workload, trace):
    result = last_json(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert metrics["ok_ratio"] == 1.0  # fail_ratio 0
        for m in SPEC["end_to_end"]:
            assert metrics[m["name"]] > 0
        return
    provenance = record_file(workload, trace)["provenance"]
    assert {"nproc", "python", "numpy", "scqkd", "git_commit", "seed", "traced"} <= set(provenance)
    if workload == "mc-bulk":
        assert metrics["analysis.op_share"] == 0.0
        assert metrics["montecarlo.op_share"] > 0.5
        assert metrics["montecarlo.bytes_per_round"] > 64
    if workload == "exact-solve":
        assert metrics["montecarlo.op_share"] == 0.0
        assert metrics["analysis.enumerations_per_solve"] > 0
        assert metrics["analysis.op_share"] > 0.5


def test_same_seed_gives_bit_identical_outputs():
    digests = []
    for _ in range(2):
        last_json(run_bench("mc-bulk", 0))
        digests.append([op["digest"] for op in record_file("mc-bulk", 0)["ops"]])
    assert digests[0] == digests[1]
    assert all(digests[0])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = run_bench("mc-bulk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
