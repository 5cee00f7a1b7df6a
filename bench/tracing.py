"""Per-layer spans for the benchmark's traced runs.

The spans are recorded from the benchmark's own code: `install` rebinds
parvikit functions, in every parvikit module that imported them and in the
module-level dispatch tables that hold them, to wrappers that time each call.
Methods are wrapped on the classes that define them. No file of the package
is edited, and an untraced run installs none of these wrappers.

Spans are aggregated in memory as they close: calls, total seconds and self
seconds (total minus the time covered by nested spans) per span name, plus
per-call durations for the spans whose percentiles are reported.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute, span): free functions, rebound wherever they were imported
FUNCTION_SPANS = [
    ("parvikit.core", "squared_distances", "core.squared_distances"),
    ("parvikit.core", "bandwidth_nn_from_d2", "core.bandwidth"),
    ("parvikit.core", "empirical_moments", "core.empirical_moments"),
    ("parvikit.smoothing", "first_variation", "smoothing.first_variation"),
    ("parvikit.smoothing", "blob_first_variation", "smoothing.blob"),
    ("parvikit.smoothing", "gfsd_first_variation", "smoothing.gfsd"),
    ("parvikit.smoothing", "ksdd_first_variation", "smoothing.ksdd"),
    ("parvikit.targets", "cho_factor", "targets.cho_factor"),
    ("parvikit.dynamics", "ca_weight_update", "dynamics.weight"),
    ("parvikit.dynamics", "dk_resample", "dynamics.weight"),
    ("parvikit.metrics", "wasserstein2_exact", "metrics.w2_exact"),
    ("parvikit.metrics", "linprog", "metrics.linprog"),
    ("parvikit.metrics", "moment_errors", "metrics.moments"),
    ("parvikit.metrics", "mode_mass", "metrics.moments"),
    ("parvikit.harness", "run_experiment", "harness.run_experiment"),
    ("parvikit.harness", "write_csv", "harness.output"),
    ("parvikit.harness", "write_svg_lineplot", "harness.output"),
    ("parvikit.cli", "main", "cli.main"),
]

# (module, class or None for every class of the module defining it, method, span)
METHOD_SPANS = [
    ("parvikit.targets", None, "potential_and_score", "targets.potential_and_score"),
    ("parvikit.targets", None, "score_and_hessian", "targets.score_and_hessian"),
    ("parvikit.dynamics", "Stepper", "__call__", "dynamics.step"),
    ("parvikit.harness", "_Recorder", "row", "harness.record"),
]

SAMPLED_SPANS = ("dynamics.step", "metrics.w2_exact")

# (metric, unit, how it is read from one round's span deltas)
PER_LAYER = [
    ("core.squared_distances.calls", "count", ("calls", "core.squared_distances")),
    ("core.squared_distances.s", "s", ("s", "core.squared_distances")),
    ("core.bandwidth.s", "s", ("s", "core.bandwidth")),
    ("core.empirical_moments.s", "s", ("s", "core.empirical_moments")),
    ("smoothing.first_variation.s", "s", ("s", "smoothing.first_variation")),
    ("smoothing.blob.self_s", "s", ("self_s", "smoothing.blob")),
    ("smoothing.gfsd.self_s", "s", ("self_s", "smoothing.gfsd")),
    ("smoothing.ksdd.self_s", "s", ("self_s", "smoothing.ksdd")),
    ("targets.potential_and_score.calls", "count", ("calls", "targets.potential_and_score")),
    ("targets.potential_and_score.s", "s", ("s", "targets.potential_and_score")),
    ("targets.score_and_hessian.s", "s", ("s", "targets.score_and_hessian")),
    ("targets.cho_factor.calls", "count", ("calls", "targets.cho_factor")),
    ("dynamics.step.calls", "count", ("calls", "dynamics.step")),
    ("dynamics.step.s", "s", ("s", "dynamics.step")),
    ("dynamics.step.self_s", "s", ("self_s", "dynamics.step")),
    ("dynamics.step.p50_us", "us", ("p50_us", "dynamics.step")),
    ("dynamics.step.p99_us", "us", ("p99_us", "dynamics.step")),
    ("dynamics.weight.s", "s", ("s", "dynamics.weight")),
    ("metrics.w2_exact.calls", "count", ("calls", "metrics.w2_exact")),
    ("metrics.w2_exact.s", "s", ("s", "metrics.w2_exact")),
    ("metrics.w2_exact.p50_s", "s", ("p50_s", "metrics.w2_exact")),
    ("metrics.lp_vars", "count", ("counter", "lp_vars")),
    ("metrics.lp_iterations", "count", ("counter", "lp_iterations")),
    ("metrics.moments.s", "s", ("s", "metrics.moments")),
    ("harness.checkpoints", "count", ("calls", "harness.record")),
    ("harness.record.s", "s", ("s", "harness.record")),
    ("harness.output.s", "s", ("s", "harness.output")),
]


def _count_lp(counters, args, kwargs, result):
    """linprog observer: variables are the cost vector's length, iterations HiGHS's nit."""
    counters["lp_vars"] += len(args[0] if args else kwargs["c"])
    counters["lp_iterations"] += int(result.nit)


OBSERVERS = {"metrics.linprog": _count_lp}


class Tracer:
    """In-memory span aggregator; `wrap` returns a timed replacement for a callable."""

    def __init__(self):
        self._stack = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, seconds, self seconds
        self.samples = {name: [] for name in SAMPLED_SPANS}
        self.counters = defaultdict(int)

    def wrap(self, span, fn):
        stack = self._stack
        stat = self.stats[span]
        samples = self.samples.get(span)
        observe = OBSERVERS.get(span)
        counters = self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nested = [0.0]
            stack.append(nested)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - nested[0]
                if samples is not None:
                    samples.append(elapsed)
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def snapshot(self):
        """Copy of the running totals, for per-round differences."""
        return (
            {name: tuple(v) for name, v in self.stats.items()},
            dict(self.counters),
        )

    def clear_samples(self):
        for values in self.samples.values():
            values.clear()


def round_figures(before, after):
    """Per-layer figures of one round from two snapshots (percentiles excluded)."""
    (stats0, count0), (stats1, count1) = before, after
    out = {}
    for metric, _unit, (kind, key) in PER_LAYER:
        if kind == "counter":
            out[metric] = count1.get(key, 0) - count0.get(key, 0)
        elif kind in ("calls", "s", "self_s"):
            idx = ("calls", "s", "self_s").index(kind)
            out[metric] = stats1.get(key, (0, 0.0, 0.0))[idx] - stats0.get(key, (0, 0.0, 0.0))[idx]
    return out


def percentile_figures(tracer):
    """Step p50/p99 in microseconds and W2 p50 in seconds, pooled over the timed rounds."""
    steps = sorted(tracer.samples["dynamics.step"])
    w2 = tracer.samples["metrics.w2_exact"]
    out = {"dynamics.step.p50_us": 0.0, "dynamics.step.p99_us": 0.0, "metrics.w2_exact.p50_s": 0.0}
    if steps:
        out["dynamics.step.p50_us"] = 1e6 * statistics.median(steps)
        out["dynamics.step.p99_us"] = 1e6 * steps[min(len(steps) - 1, int(0.99 * len(steps)))]
    if w2:
        out["metrics.w2_exact.p50_s"] = statistics.median(w2)
    return out


def _parvikit_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "parvikit" or name.startswith("parvikit.")]


def rebind(original, replacement):
    """Replace `original` by `replacement` in every parvikit module and module-level dict."""
    for module in _parvikit_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement


def wrap_method(module_name, class_name, method, make_wrapper):
    """Replace `method` on the named class, or on every class of the module defining it."""
    module = sys.modules[module_name]
    found = False
    for name, cls in list(vars(module).items()):
        if not isinstance(cls, type) or cls.__module__ != module_name:
            continue
        if class_name not in (None, name) or method not in vars(cls):
            continue
        setattr(cls, method, make_wrapper(vars(cls)[method]))
        found = True
    if not found:
        raise LookupError("no class in %s defines %s" % (module_name, method))


def install(tracer):
    """Wrap every span of FUNCTION_SPANS and METHOD_SPANS with the tracer."""
    for module_name, attr, span in FUNCTION_SPANS:
        original = getattr(sys.modules[module_name], attr)
        rebind(original, tracer.wrap(span, original))
    for module_name, class_name, method, span in METHOD_SPANS:
        wrap_method(module_name, class_name, method, functools.partial(tracer.wrap, span))
