"""Span tracing of ghzpurify from outside, and the per-layer report.

`Tracer.install()` rebinds each traced public function to a wrapper in every
ghzpurify module that holds it: several functions are imported by name into
other modules (`schedule.apply_step`, `cli.run_schedule`, ...), so rebinding
only the defining module would miss those calls.  `uninstall()` restores the
original objects.  While installed, a wrapper records a span only when
`recording` is set, so the benchmark's own checks stay out of the trace.

A span is (name, start, end, parent index, op id).  Spans stay in memory
until the run ends.  Counts are taken at the same boundaries by observers
that read a call's arguments and result.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

PACKAGE = "ghzpurify"
OP_SPAN = "op"

# (defining module, function, span name).  The span name's prefix is its layer.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("cli", "write_trace_csv", "cli.write"),
    ("cli", "write_summary_json", "cli.write"),
    ("schedule", "run_schedule", "schedule.run_schedule"),
    ("purify", "p1_step", "purify.p1_step"),
    ("purify", "p2_step", "purify.p2_step"),
    ("ghz", "build_werner", "ghz.build"),
    ("ghz", "build_binary_ensemble", "ghz.build"),
    ("ghz", "build_bitflip_ensemble", "ghz.build"),
    ("ghz", "random_ghz_diagonal", "ghz.build"),
    ("ghz", "ensemble_to_density", "ghz.ensemble_to_density"),
    ("exact", "p1_exact", "exact.p1_exact"),
    ("exact", "p2_exact", "exact.p2_exact"),
    ("exact", "tensor_pair", "exact.tensor_pair"),
    ("exact", "ghz_diagonal_extract", "exact.ghz_diagonal_extract"),
    ("mc", "mc_sample_step", "mc.mc_sample_step"),
    ("validation", "check_oracle_equivalence", "validation.check_oracle_equivalence"),
    ("optics", "kerr_evolve", "optics"),
    ("optics", "discriminate", "optics"),
    ("optics", "classify_phase", "optics"),
    ("optics", "qnd_parity_shift", "optics"),
    ("optics", "six_mode_keep", "optics"),
)

LAYERS = ("cli", "schedule", "purify", "ghz", "exact", "mc", "validation", "optics")

# The layer expected to hold the largest share of traced self time.
PREDICTED_DOMINANT = {"cli_run_n3": "cli", "sweep_n6": "purify",
                      "oracle_n5": "exact", "mc_noisy": "mc"}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _observe_write(c, args, kwargs, result):
    c["cli.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _observe_run_schedule(c, args, kwargs, trace):
    c["schedule.rounds"] += trace.n_rounds
    c["schedule.converged"] += trace.converged


def _observe_step(c, args, kwargs, report):
    c["purify.labels_out"] += len(report.output.weights)


def _observe_p2(c, args, kwargs, report):
    ens = _arg(args, kwargs, 0, "ens")
    mode = _arg(args, kwargs, 1, "mode")
    plus = sum(1 for label in ens.weights if label.sign == 1)
    minus = len(ens.weights) - plus
    pairs = plus * plus + minus * minus
    if mode.kind.value == "even-plus-odd" and ens.n_qubits % 2 == 1:
        pairs += 2 * plus * minus
    c["purify.p2_pairs"] += pairs
    _observe_step(c, args, kwargs, report)


def _observe_tensor_pair(c, args, kwargs, pair):
    c["exact.pair_bytes"] += pair.nbytes


def _observe_extract(c, args, kwargs, result):
    c["exact.residual_max"] = max(c["exact.residual_max"], result[1])


def _observe_mc(c, args, kwargs, report):
    trials = _arg(args, kwargs, 3, "trials")
    c["mc.trials"] += trials
    c["mc.kept"] += report.keep_probability * trials
    c["mc.spurious"] += report.branch_stats.get(("spurious", "*"), 0.0) * trials


def _observe_oracle(c, args, kwargs, result):
    n_max = _arg(args, kwargs, 0, "n_max")
    cases = _arg(args, kwargs, 2, "cases")
    c["validation.cases"] += (n_max - 1) * cases


OBSERVERS = {
    "cli.write": _observe_write,
    "schedule.run_schedule": _observe_run_schedule,
    "purify.p1_step": _observe_step,
    "purify.p2_step": _observe_p2,
    "exact.tensor_pair": _observe_tensor_pair,
    "exact.ghz_diagonal_extract": _observe_extract,
    "mc.mc_sample_step": _observe_mc,
    "validation.check_oracle_equivalence": _observe_oracle,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.recording = False
        self.op_id = -1
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def _modules(self):
        return [mod for name, mod in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def install(self):
        modules = self._modules()
        for module_name, attr, span in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
            wrapper = self._wrap(original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._rebound.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._rebound):
            setattr(mod, key, original)
        self._rebound.clear()

    def _wrap(self, fn, name):
        observe = OBSERVERS.get(name)
        counts = self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            counts[calls] += 1
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result
        wrapper.span_name = name
        return wrapper

    def span(self, name):
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append((self.name, time.perf_counter(), 0.0, parent, t.op_id))
        t._stack.append(self.index)

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        name, start, _, parent, op = t.spans[self.index]
        t.spans[self.index] = (name, start, end, parent, op)
        return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def per_layer_report(spans, counts, ops: int, overhead_s: float) -> tuple[dict[str, float], dict[str, float]]:
    """Per-op per-layer metrics, and each layer's share of traced self time."""
    self_by_name: dict[str, float] = {}
    for span, t in zip(spans, self_times(spans)):
        self_by_name[span[0]] = self_by_name.get(span[0], 0.0) + t
    total = sum(self_by_name.values())
    shares = {layer: 0.0 for layer in LAYERS + (OP_SPAN,)}
    for name, t in self_by_name.items():
        shares[layer_of(name)] += t / total if total > 0 else 0.0

    def per_op(value):
        return value / ops

    def self_s(name):
        return per_op(self_by_name.get(name, 0.0))

    def calls(name):
        return per_op(counts.get(name + ".calls", 0))

    run_calls = counts.get("schedule.run_schedule.calls", 0)
    step_calls = (counts.get("purify.p1_step.calls", 0)
                  + counts.get("purify.p2_step.calls", 0))
    mc_self = self_by_name.get("mc.mc_sample_step", 0.0)
    trials = counts.get("mc.trials", 0)
    kept = counts.get("mc.kept", 0.0)
    metrics = {
        "cli.main.self_s": self_s("cli.main"),
        "cli.write.self_s": self_s("cli.write"),
        "cli.bytes_written": per_op(counts.get("cli.bytes_written", 0)),
        "schedule.run_schedule.calls": calls("schedule.run_schedule"),
        "schedule.run_schedule.self_s": self_s("schedule.run_schedule"),
        "schedule.rounds": counts.get("schedule.rounds", 0) / run_calls if run_calls else 0.0,
        "schedule.converged_ratio":
            counts.get("schedule.converged", 0) / run_calls if run_calls else 0.0,
        "purify.p1_step.calls": calls("purify.p1_step"),
        "purify.p1_step.self_s": self_s("purify.p1_step"),
        "purify.p2_step.calls": calls("purify.p2_step"),
        "purify.p2_step.self_s": self_s("purify.p2_step"),
        "purify.p2_pairs": per_op(counts.get("purify.p2_pairs", 0)),
        "purify.labels_out":
            counts.get("purify.labels_out", 0) / step_calls if step_calls else 0.0,
        "ghz.build.self_s": self_s("ghz.build"),
        "ghz.ensemble_to_density.self_s": self_s("ghz.ensemble_to_density"),
        "exact.p1_exact.self_s": self_s("exact.p1_exact"),
        "exact.p2_exact.self_s": self_s("exact.p2_exact"),
        "exact.tensor_pair.self_s": self_s("exact.tensor_pair"),
        "exact.ghz_diagonal_extract.self_s": self_s("exact.ghz_diagonal_extract"),
        "exact.pair_bytes": per_op(counts.get("exact.pair_bytes", 0)),
        "exact.residual_max": counts.get("exact.residual_max", 0.0),
        "mc.mc_sample_step.self_s": per_op(mc_self),
        "mc.trials": per_op(trials),
        "mc.trials_per_s": trials / mc_self if mc_self > 0 else 0.0,
        "mc.keep_ratio": kept / trials if trials else 0.0,
        "mc.spurious_ratio": counts.get("mc.spurious", 0.0) / kept if kept else 0.0,
        "validation.check_oracle_equivalence.self_s":
            self_s("validation.check_oracle_equivalence"),
        "validation.cases": per_op(counts.get("validation.cases", 0)),
        "optics.calls": calls("optics"),
        "trace.overhead_s": overhead_s,
    }
    return metrics, shares
