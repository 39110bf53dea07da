"""scqkd benchmark: one seeded, closed-loop workload per invocation.

    python3 bench/run.py --workload mc-bulk --seed 1 --seconds 10 --trace 0

One single-threaded client sends each op only after the previous one has
finished. A run executes whole cycles of its workload (see workloads.py)
until --seconds have passed and at least MIN_OPS ops are done; a traced run
does whole cycles until TRACE_OPS ops, so that its counts repeat exactly.
Every output is checked outside the timed region; a failed check is a
failed op and never aborts the run.

Standard output is a short report followed, as its last line, by one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A traced run first
runs its ops untraced, then traced, then untraced again, and reports the
traced time minus the second untraced time as the tracing overhead;
end-to-end numbers come only from untraced runs, and their times are
scaled to the speed of a reference machine (see calibration.py).
The full record (provenance, every op with its output digest, spans) goes
to .bench_out/ at the repository root.

The program is imported from src/ next to this directory; without it the
benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("mc-bulk", "cli-scan", "exact-solve")
MIN_OPS = 100  # so that op_ms_p90 has at least ten samples beyond it
SETUP_SAMPLES = 5  # setup_s is the median over this many fresh processes
PROBE_REPEATS = 5
# A traced run does whole cycles until this many ops, whatever the clock
# says, so that its counts repeat exactly for a seed.
TRACE_OPS = 50

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="least run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny op sizes, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import scqkd from this checkout's src/ and return (scqkd, workloads)."""
    if not (SRC / "scqkd" / "__init__.py").is_file():
        sys.exit(f"bench: no scqkd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import scqkd

    if Path(scqkd.__file__).resolve().parent != SRC / "scqkd":
        sys.exit(f"bench: imported scqkd from {scqkd.__file__}, not from {SRC}")
    import workloads

    return scqkd, workloads


def execute(op, trace=None) -> dict:
    """Run one op (timed), then check its output (untimed)."""
    record = {"kind": op.kind, "spec": op.spec, "rounds": op.rounds}
    t0 = time.perf_counter()
    try:
        output = op.run() if trace is None else trace.run_op(op.run)
    except Exception:
        record["seconds"] = time.perf_counter() - t0
        problems, z, digest = [traceback.format_exc()], None, None
    else:
        record["seconds"] = time.perf_counter() - t0
        digest = hashlib.sha256(repr(output).encode()).hexdigest()[:16]
        try:
            problems, z = op.check(output)
        except Exception:
            problems, z = [traceback.format_exc()], None
    for problem in problems:
        print(f"bench: {op.kind} {op.spec} failed: {problem}", file=sys.stderr)
    record.update(ok=not problems, problems=problems, max_abs_z=z, digest=digest)
    return record


def run_pass(ops: list, reference, trace=None) -> list:
    """Execute ops in order, with the calibration.Reference kernel between them.

    Each record gets "reference_ms", the mean of the kernel runs on either side.
    """
    records = []
    before = reference.measure()
    for op in ops:
        records.append(execute(op, trace))
        after = reference.measure()
        records[-1]["reference_ms"] = (before + after) / 2
        before = after
    return records


def run_cycles(schedule, seconds: float, min_ops: int, reference):
    """Whole cycles until `seconds` have passed and `min_ops` ops are done."""
    ops, records = [], []
    start = time.perf_counter()
    index = 0
    while not ops or time.perf_counter() - start < seconds or len(ops) < min_ops:
        cycle = schedule.cycle(index)
        ops += cycle
        records += run_pass(cycle, reference)
        index += 1
    return ops, records


def scaled_seconds(record: dict, reference) -> float:
    """An op's time on the reference machine (see calibration.py)."""
    return record["seconds"] * reference.nominal_ms / record["reference_ms"]


def setup(args):
    """Import scqkd and run the warm-up op.

    Returns (set-up seconds, scqkd, schedule, warm-up record); the set-up time
    is the import plus the warm-up op's own time, without its check.
    """
    t0 = time.perf_counter()
    scqkd, workloads = import_package()
    imported = time.perf_counter() - t0
    schedule = workloads.Schedule(args.workload, args.seed, args.smoke)
    warmup = execute(schedule.warmup())
    return imported + warmup["seconds"], scqkd, schedule, warmup


def setup_in_fresh_process(args, reference) -> tuple:
    """(set-up seconds, reference ms) of a new interpreter running --setup-probe.

    The reference is the mean of kernel runs just before and just after it.
    """
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.smoke:
        argv.append("--smoke")
    before = reference.measure()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    after = reference.measure()
    return float(proc.stdout.strip().splitlines()[-1]), (before + after) / 2


def timings(durations: list, setup_samples: list) -> dict:
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(durations) / sum(durations),
        "op_ms_p50": statistics.median(durations) * 1e3,
        "op_ms_p90": statistics.quantiles(durations, n=10)[-1] * 1e3,
    }


def end_to_end(records: list, warmup: dict, setups: list, reference) -> tuple:
    """The END_TO_END_UNITS metrics, and report-only extras, of an untraced run.

    Times are scaled to the reference machine; the extras keep the unscaled
    timings too.
    """
    counted = [warmup] + records
    durations = [r["seconds"] for r in records]
    scaled = [scaled_seconds(r, reference) for r in records]
    setup_s = [s for s, _ in setups]
    failed = sum(not r["ok"] for r in counted)
    rounds = sum(r["rounds"] for r in records)
    metrics = {
        **timings(scaled, [s * reference.nominal_ms / ref for s, ref in setups]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (len(counted) - failed) / len(counted),
    }
    extras = {
        "ops": len(durations),
        "ops_beyond_p90": sum(d * 1e3 > metrics["op_ms_p90"] for d in scaled),
        "fail_ratio": failed / len(counted),
        "rounds_per_s": rounds / sum(scaled) if rounds else None,
        "oracle_4sigma_flags": sum((r["max_abs_z"] or 0.0) > 4.0 for r in counted),
        "unscaled": timings(durations, setup_s),
        "setup_samples_s": setup_s,
        "op_kinds": dict(sorted(Counter(r["kind"] for r in records).items())),
    }
    return metrics, extras


def traced_run(args, scqkd, schedule, reference):
    """Per-layer metrics: TRACE_OPS ops untraced, traced, and untraced again.

    The overhead compares the traced pass with the second untraced pass, so
    that both run with the caches the first pass filled, and both scaled to
    the reference machine. Per-layer times are not scaled.
    """
    import tracing

    ops, first = run_cycles(schedule, 0, 1 if args.smoke else TRACE_OPS, reference)
    with tracing.LayerTrace(scqkd) as trace:
        traced = run_pass(ops, reference, trace)
    again = run_pass(ops, reference)
    replay = schedule.replay()
    replayed = [execute(replay)] if replay is not None else []

    fixed_ms = {}
    for key, config in trace.probe_configs.items():
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            scqkd.montecarlo.simulate_rounds(config, 0, 1)
            times.append(time.perf_counter() - t0)
        fixed_ms["/".join(key)] = statistics.median(times) * 1e3
    cache_entries = scqkd.eavesdrop._side_gentle_povm.cache_info().currsize
    overhead_s = sum(scaled_seconds(r, reference) for r in traced) - sum(
        scaled_seconds(r, reference) for r in again
    )
    metrics = tracing.layer_metrics(trace, fixed_ms, overhead_s, cache_entries)
    extras = {
        "enumerations_per_solve_values": metrics.pop("enumerations_per_solve_values"),
        "unscaled_busy_s_untraced_traced_untraced": [
            sum(r["seconds"] for r in records) for records in (first, traced, again)
        ],
        "fixed_ms_by_class": fixed_ms,
        "chunk_replay": [{k: r[k] for k in ("spec", "ok", "digest")} for r in replayed],
    }
    return metrics, extras, first + traced + again + replayed, trace.export()


def git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:  # no git executable
        return None
    return proc.stdout.strip() or None


def provenance(args, scqkd) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scqkd": scqkd.__version__,
        "git_commit": git_commit(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "smoke": args.smoke,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_s, scqkd, schedule, warmup = setup(args)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    import calibration

    reference = calibration.Reference(schedule.python_share)
    spans = None
    if args.trace:
        import tracing

        metrics, extras, records, spans = traced_run(args, scqkd, schedule, reference)
        units = tracing.PER_LAYER_UNITS
    else:
        setups = [setup_in_fresh_process(args, reference) for _ in range(SETUP_SAMPLES)]
        _, records = run_cycles(
            schedule, args.seconds, 1 if args.smoke else MIN_OPS, reference
        )
        metrics, extras = end_to_end(records, warmup, setups, reference)
        units = END_TO_END_UNITS
    records = [warmup] + records
    failed = sum(not r["ok"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    prov = provenance(args, scqkd)
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    digests = [r["digest"] or "" for r in records]
    (OUT / name).write_text(json.dumps({
        "provenance": prov,
        "result": result,
        "extras": extras,
        "run_digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "ops": records,
        "spans": spans,
    }, default=str) + "\n")

    print(f"scqkd bench  {' '.join(f'{k}={v}' for k, v in prov.items())}")
    for key, entry in result["metrics"].items():
        print(f"  {key:40s} {entry['value']:>14.6g} {entry['unit']}")
    for key, value in extras.items():
        print(f"  {key:40s} {value}")
    print(f"  record: {OUT / name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
