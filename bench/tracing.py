"""Per-layer spans around calls into scqkd, recorded from outside the package.

LayerTrace replaces module-level names at the place each caller looks them
up (``scqkd.montecarlo.simulate_rounds`` for run_trials,
``scqkd.cli.enumerate_joint`` for the CLI, ...) with timing wrappers, and
puts the originals back on exit. A wrapper records a span only inside an op
(``LayerTrace.run_op``), so checks and probes run between ops are not
counted. Spans stay in memory as [name, start, end, parent index, note].

The layers are the package modules. states, codes, protocol and eavesdrop
sit below the measured boundaries (montecarlo, analysis, cli): their time
is counted inside the callers.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections import defaultdict

# (module, attribute, span name): every place a measured function is looked up
TARGETS = (
    ("montecarlo", "run_trials", "montecarlo.run_trials"),
    ("montecarlo", "simulate_rounds", "montecarlo.simulate_rounds"),
    ("montecarlo", "round_uniforms", "montecarlo.round_uniforms"),
    ("montecarlo", "stats_from_arrays", "montecarlo.stats_from_arrays"),
    ("analysis", "enumerate_joint", "analysis.enumerate_joint"),
    ("analysis", "key_rate", "analysis.key_rate"),
    ("analysis", "find_threshold", "analysis.find_threshold"),
    ("cli", "main", "cli.main"),
    ("cli", "run_trials", "montecarlo.run_trials"),
    ("cli", "compare_to_oracle", "montecarlo.compare_to_oracle"),
    ("cli", "enumerate_joint", "analysis.enumerate_joint"),
    ("cli", "key_rate", "analysis.key_rate"),
    ("cli", "find_threshold", "analysis.find_threshold"),
    ("cli", "estimate_q_from_sift", "analysis.estimate_q_from_sift"),
)

UNIFORM_BYTES = 8 * 8  # one round's 8 double-precision uniforms

PER_LAYER_UNITS = {
    "op.calls": "count",
    "op.busy_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "montecarlo.op_share": "ratio",
    "analysis.op_share": "ratio",
    "montecarlo.simulate_rounds.calls": "count",
    "montecarlo.simulate_rounds.busy_s": "s",
    "montecarlo.rounds_per_s": "1/s",
    "montecarlo.round_uniforms.busy_s": "s",
    "montecarlo.rng_muniforms_per_s": "Muniform/s",
    "montecarlo.kernel_self_s": "s",
    "montecarlo.fixed_ms_per_call": "ms",
    "montecarlo.stats_from_arrays.busy_s": "s",
    "montecarlo.bytes_per_round": "B/round",
    "analysis.enumerate_joint.calls": "count",
    "analysis.enumerate_joint.busy_s": "s",
    "analysis.enumerate_joint.ms_p50": "ms",
    "analysis.enumerate_joint.exact.calls": "count",
    "analysis.enumerate_joint.exact.busy_s": "s",
    "analysis.enumerate_joint.exact.ms_p50": "ms",
    "analysis.enumerate_joint.float.calls": "count",
    "analysis.enumerate_joint.float.busy_s": "s",
    "analysis.enumerate_joint.float.ms_p50": "ms",
    "analysis.enumerations_per_solve": "count",
    "analysis.key_rate.calls": "count",
    "analysis.key_rate.busy_s": "s",
    "analysis.find_threshold.calls": "count",
    "analysis.find_threshold.busy_s": "s",
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.self_s": "s",
    "eavesdrop.gentle_povm_cache_entries": "count",
}


def _simulate_note(trace, args, kwargs, arrays):
    config = args[0]
    key = (config.protocol.value, type(config.eve).__name__)
    trace.probe_configs.setdefault(key, config)
    nbytes = sum(getattr(arrays, f.name).nbytes for f in dataclasses.fields(arrays))
    return {"rounds": len(arrays), "bytes": nbytes, "class": "/".join(key)}


NOTES = {
    "montecarlo.simulate_rounds": _simulate_note,
    "montecarlo.round_uniforms": lambda trace, args, kwargs, u: {"uniforms": u.size},
    "analysis.enumerate_joint": lambda trace, args, kwargs, joint: {
        "exact": not isinstance(joint.p_sift, float)
    },
}


class LayerTrace:
    """Context manager that wraps TARGETS in the given scqkd package and records spans."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []
        self.probe_configs: dict = {}  # (protocol, eve type) -> first TrialConfig simulated
        self._stack: list = []
        self._saved: list = []

    def __enter__(self):
        for module_name, attr, name in TARGETS:
            module = getattr(self.package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name):
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            if not self._stack:  # outside an op: a check or a probe
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1], None]
            result = self._timed(span, fn, args, kwargs)
            if note is not None:
                span[4] = note(self, args, kwargs, result)
            return result

        return traced

    def _timed(self, span, fn, args, kwargs):
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def run_op(self, fn):
        """Run one op as the root span of its own call tree."""
        return self._timed(["op", 0.0, 0.0, None, None], fn, (), {})

    def export(self) -> list:
        """Spans with times relative to the first span, for the result file."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, round(a - t0, 9), round(b - t0, 9), p, note] for n, a, b, p, note in self.spans]


def _ms_p50(durations) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def layer_metrics(trace: LayerTrace, fixed_ms: dict, overhead_s: float, cache_entries: int) -> dict:
    """Every PER_LAYER_UNITS metric, as {name: value}, from the recorded spans,
    plus "enumerations_per_solve_values", the distinct per-solve counts.

    fixed_ms maps a simulate_rounds note "class" to the median time of a
    one-round probe of that configuration class; overhead_s is measured by
    the caller, from traced and untraced passes over the same ops.
    """
    spans = trace.spans
    by_name = defaultdict(list)
    children = defaultdict(list)
    for i, span in enumerate(spans):
        by_name[span[0]].append(i)
        if span[3] is not None:
            children[span[3]].append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def busy(name):
        return sum(dur(i) for i in by_name[name])

    def layer_top_level(prefix):
        # spans of the layer not nested in another span of the same layer
        total = 0.0
        for i, span in enumerate(spans):
            if not span[0].startswith(prefix):
                continue
            parent = span[3]
            while parent is not None and not spans[parent][0].startswith(prefix):
                parent = spans[parent][3]
            if parent is None:
                total += dur(i)
        return total

    op_busy = busy("op")
    sim = by_name["montecarlo.simulate_rounds"]
    rounds = sum(spans[i][4]["rounds"] for i in sim)
    sim_busy = busy("montecarlo.simulate_rounds")
    rng_busy = busy("montecarlo.round_uniforms")
    uniforms = sum(spans[i][4]["uniforms"] for i in by_name["montecarlo.round_uniforms"])
    fixed_s = sum(fixed_ms[spans[i][4]["class"]] for i in sim) / 1e3
    solves = by_name["analysis.find_threshold"]
    per_solve = [
        sum(spans[c][0] == "analysis.enumerate_joint" for c in children[i]) for i in solves
    ]
    cli_main = by_name["cli.main"]

    m = {
        "op.calls": len(by_name["op"]),
        "op.busy_s": op_busy,
        "trace.overhead_s": overhead_s,
        "trace.spans": len(spans),
        "montecarlo.op_share": layer_top_level("montecarlo.") / op_busy if op_busy else 0.0,
        "analysis.op_share": layer_top_level("analysis.") / op_busy if op_busy else 0.0,
        "montecarlo.simulate_rounds.calls": len(sim),
        "montecarlo.simulate_rounds.busy_s": sim_busy,
        "montecarlo.rounds_per_s": rounds / sim_busy if sim_busy else 0.0,
        "montecarlo.round_uniforms.busy_s": rng_busy,
        "montecarlo.rng_muniforms_per_s": uniforms / rng_busy / 1e6 if rng_busy else 0.0,
        "montecarlo.kernel_self_s": sim_busy - rng_busy - fixed_s,
        "montecarlo.fixed_ms_per_call": fixed_s * 1e3 / len(sim) if sim else 0.0,
        "montecarlo.stats_from_arrays.busy_s": busy("montecarlo.stats_from_arrays"),
        "montecarlo.bytes_per_round": (
            sum(spans[i][4]["bytes"] for i in sim) / rounds + UNIFORM_BYTES if rounds else 0.0
        ),
        "analysis.enumerations_per_solve": statistics.mean(per_solve) if per_solve else 0.0,
        "analysis.key_rate.calls": len(by_name["analysis.key_rate"]),
        "analysis.key_rate.busy_s": busy("analysis.key_rate"),
        "analysis.find_threshold.calls": len(solves),
        "analysis.find_threshold.busy_s": busy("analysis.find_threshold"),
        "cli.main.calls": len(cli_main),
        "cli.main.busy_s": busy("cli.main"),
        "cli.self_s": sum(dur(i) - sum(dur(c) for c in children[i]) for i in cli_main),
        "eavesdrop.gentle_povm_cache_entries": cache_entries,
    }
    enum = by_name["analysis.enumerate_joint"]
    for suffix, selected in (
        ("", enum),
        (".exact", [i for i in enum if spans[i][4]["exact"]]),
        (".float", [i for i in enum if not spans[i][4]["exact"]]),
    ):
        durations = [dur(i) for i in selected]
        m[f"analysis.enumerate_joint{suffix}.calls"] = len(selected)
        m[f"analysis.enumerate_joint{suffix}.busy_s"] = sum(durations)
        m[f"analysis.enumerate_joint{suffix}.ms_p50"] = _ms_p50(durations)
    m["enumerations_per_solve_values"] = sorted(set(per_solve))
    return m
