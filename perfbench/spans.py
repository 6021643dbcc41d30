"""Span tracing by rebinding the names lettucesim's callers look up.

The package is not edited: `Tracer.install` replaces each bound name
(for example ``lettucesim.cli.simulate_field``) with a wrapper that
records a span around the call, and `Tracer.uninstall` puts the
original back. Spans stay in memory; the worker writes them out when
its run ends. Wrappers record nothing while the tracer is inactive, so
oracles and input preparation outside the timed region leave no spans.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict

LAYERS = ("config", "model", "integrator", "field", "control", "metrics", "fitting", "cli")


def _steps(result, args):
    return {"steps": len(result.times) - 1}


def _lane_steps(result, args):
    n, t = result.states.shape[:2]
    return {"plants": n, "lane_steps": n * (t - 1)}


def _file_bytes(result, args):
    return {"bytes": os.path.getsize(args[1])}


def _fit(result, args):
    return {"iterations": result.iterations, "converged": result.converged}


def _samples(result, args):
    return {"samples": result.sample_count}


def _cells(result, args):
    return {"cells": int(result.final_b.size)}


# (module, attribute, span name, attributes taken from (result, call arguments))
# Span names are "<layer>.<function>"; the layer is the module that
# defines the function, whichever module the binding lives in.
BINDINGS = (
    ("lettucesim.cli", "load_config", "config.load_config", None),
    ("lettucesim.cli", "simulate_field", "field.simulate_field", _lane_steps),
    ("lettucesim.cli", "summarize", "metrics.summarize", None),
    ("lettucesim.cli", "export_trajectory_csv", "field.export_trajectory_csv", _file_bytes),
    ("lettucesim.cli", "export_ledger_csv", "field.export_ledger_csv", None),
    ("lettucesim.cli", "export_params_csv", "field.export_params_csv", None),
    ("lettucesim.cli", "fit", "fitting.fit", _fit),
    ("lettucesim.cli", "dose_response_sweep", "metrics.dose_response_sweep", _cells),
    ("lettucesim.cli", "check_cooperativity", "model.check_cooperativity", _samples),
    ("lettucesim.field", "sample_params", "field.sample_params", None),
    ("lettucesim.field", "observe", "control.observe", None),
    ("lettucesim.field", "apply_policy", "control.apply_policy", None),
    ("lettucesim.metrics", "integrate", "integrator.integrate", _steps),
    ("lettucesim.fitting", "integrate", "integrator.integrate", _steps),
    ("lettucesim.fitting", "cost", "fitting.cost", None),
    # entry points the benchmark's own library-level workload calls
    ("lettucesim.config", "load_config", "config.load_config", None),
    ("lettucesim.field", "simulate_field", "field.simulate_field", _lane_steps),
    ("lettucesim.metrics", "summarize", "metrics.summarize", None),
    # the CLI itself, called by the benchmark as a user's `lettucesim ...` would
    ("lettucesim.cli", "main", "cli.main", None),
)


class Tracer:
    """Records spans (id, name, start, end, parent, thread id, run id, attrs)."""

    def __init__(self):
        self.spans = []
        self.failed = defaultdict(int)
        self.active = False
        self.run_id = None
        self._root = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []

    def install(self, modules):
        for module_name, attr, span_name, attrs in BINDINGS:
            module = modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name, attrs))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def start_run(self, run_id):
        """Record spans under `run_id`; a span opened by a worker thread while a
        top-level span is open becomes that span's child."""
        self.run_id = run_id
        self._root = None
        self.active = True

    def stop_run(self):
        self.active = False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, attrs):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            span_id = next(self._ids)
            is_root = parent is None
            if is_root:
                self._root = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
                record = [span_id, name, start, end, parent, threading.get_ident(), self.run_id, None]
                self.spans.append(record)
            if attrs is not None:
                record[7] = attrs(result, args)
            return result

        return wrapper


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0.0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start > last_end:
            total += end - start
            last_end = end
        elif end > last_end:
            total += end - last_end
            last_end = end
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span_id, _, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        s[0]: (s[3] - s[2]) - _covered(children.get(s[0], ())) for s in spans
    }


def top_level_coverage(spans):
    """Seconds covered by spans with no parent (one per operation, or per library call)."""
    return _covered([(s[2], s[3]) for s in spans if s[4] is None])


def _report_layer(name):
    """A span's row in the self-time table: its layer, with the field exporters apart."""
    return "field.export" if name.startswith("field.export") else name.split(".", 1)[0]


REPORT_LAYERS = ("config", "model", "integrator", "field", "field.export", "control", "metrics", "fitting", "cli")


def layer_self_seconds(spans):
    """Layer -> summed self time of its spans (summed over threads)."""
    selfs = self_times(spans)
    out = {layer: 0.0 for layer in REPORT_LAYERS}
    for s in spans:
        out[_report_layer(s[1])] += selfs[s[0]]
    return out


def per_layer_metrics(spans, failed, passes, fit_command_seconds):
    """The traced run's per-layer metrics; a layer that did no work reports 0."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
    by_id = {s[0]: s for s in spans}

    def dur(s):
        return s[3] - s[2]

    def total(name):
        return sum(dur(s) for s in by_name[name])

    def mean(name):
        calls = by_name[name]
        return total(name) / len(calls) if calls else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    def inside(name, ancestor_name):
        """Spans called `name` grouped by their closest ancestor called `ancestor_name`."""
        out = defaultdict(list)
        for s in by_name[name]:
            parent = by_id.get(s[4])
            while parent is not None and parent[1] != ancestor_name:
                parent = by_id.get(parent[4])
            if parent is not None:
                out[parent[0]].append(s)
        return out

    def per_field_run(name):
        """Seconds of `name` spans summed per simulate_field call."""
        grouped = inside(name, "field.simulate_field")
        runs = len(by_name["field.simulate_field"])
        return ratio(sum(dur(s) for group in grouped.values() for s in group), runs)

    m = {}
    m["config.load_s"] = mean("config.load_config")
    main_spans = by_name["cli.main"]
    m["cli.self_s"] = ratio(sum(selfs[s[0]] for s in main_spans), len(main_spans))

    checks = by_name["model.check_cooperativity"]
    m["model.check_cooperativity_s"] = mean("model.check_cooperativity")
    m["model.samples_per_s"] = ratio(sum(s[7]["samples"] for s in checks), total("model.check_cooperativity"))

    integ = by_name["integrator.integrate"]
    steps = sum(s[7]["steps"] for s in integ)
    m["integrator.calls"] = len(integ) / passes
    m["integrator.steps"] = steps / passes
    m["integrator.ns_per_step"] = ratio(sum(selfs[s[0]] for s in integ), steps) * 1e9

    runs = by_name["field.simulate_field"]
    m["field.lane_steps"] = sum(s[7]["lane_steps"] for s in runs) / passes
    for plants in (100, 1000):
        sized = [s for s in runs if s[7]["plants"] == plants]
        m[f"field.ns_per_lane_step.n{plants}"] = 1e9 * ratio(
            sum(selfs[s[0]] for s in sized), sum(s[7]["lane_steps"] for s in sized)
        )
    m["field.sample_params_s"] = per_field_run("field.sample_params")
    exports = by_name["field.export_trajectory_csv"]
    export_bytes = sum(s[7]["bytes"] for s in exports)
    m["field.export_trajectory_s"] = mean("field.export_trajectory_csv")
    m["field.export_trajectory_bytes"] = ratio(export_bytes, len(exports))
    m["field.export_trajectory_mb_per_s"] = ratio(export_bytes / 1e6, total("field.export_trajectory_csv"))
    m["field.export_ledger_s"] = mean("field.export_ledger_csv")
    m["field.export_params_s"] = mean("field.export_params_csv")

    m["control.epochs"] = len(by_name["control.observe"]) / passes
    m["control.observe_s"] = per_field_run("control.observe")
    m["control.apply_policy_s"] = per_field_run("control.apply_policy")

    sweeps = by_name["metrics.dose_response_sweep"]
    m["metrics.summarize_s"] = mean("metrics.summarize")
    m["metrics.sweep_cells"] = sum(s[7]["cells"] for s in sweeps) / passes
    m["metrics.dose_response_sweep_s"] = mean("metrics.dose_response_sweep")

    fits = by_name["fitting.fit"]
    iterations = sum(s[7]["iterations"] for s in fits)
    cost_in_fit = inside("fitting.cost", "fitting.fit")
    cost_calls = sum(len(group) for group in cost_in_fit.values())
    m["fitting.fit_s"] = mean("fitting.fit")
    m["fitting.iterations_per_fit"] = ratio(iterations, len(fits))
    m["fitting.cost_calls_per_fit"] = ratio(cost_calls, len(fits))
    m["fitting.cost_calls_per_iteration"] = ratio(cost_calls, iterations)
    m["fitting.cost_ms"] = 1e3 * mean("fitting.cost")
    m["fitting.converged_ratio"] = ratio(sum(bool(s[7]["converged"]) for s in fits), len(fits))
    m["fitting.parallelism"] = ratio(total("fitting.fit"), fit_command_seconds)

    for layer in LAYERS:
        m[f"{layer}.failed"] = failed.get(layer, 0)
    return m


PER_LAYER_UNITS = {
    "config.load_s": "s",
    "cli.self_s": "s",
    "model.check_cooperativity_s": "s",
    "model.samples_per_s": "1/s",
    "integrator.calls": "count",
    "integrator.steps": "count",
    "integrator.ns_per_step": "ns",
    "field.lane_steps": "count",
    "field.ns_per_lane_step.n100": "ns",
    "field.ns_per_lane_step.n1000": "ns",
    "field.sample_params_s": "s",
    "field.export_trajectory_s": "s",
    "field.export_trajectory_bytes": "count",
    "field.export_trajectory_mb_per_s": "MB/s",
    "field.export_ledger_s": "s",
    "field.export_params_s": "s",
    "control.epochs": "count",
    "control.observe_s": "s",
    "control.apply_policy_s": "s",
    "metrics.summarize_s": "s",
    "metrics.sweep_cells": "count",
    "metrics.dose_response_sweep_s": "s",
    "fitting.fit_s": "s",
    "fitting.iterations_per_fit": "count",
    "fitting.cost_calls_per_fit": "count",
    "fitting.cost_calls_per_iteration": "count",
    "fitting.cost_ms": "ms",
    "fitting.converged_ratio": "ratio",
    "fitting.parallelism": "ratio",
    **{f"{layer}.failed": "count" for layer in LAYERS},
}
