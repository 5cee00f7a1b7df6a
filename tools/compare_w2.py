"""Compare the exact-W2 solvers of two parvikit source trees in one process.

    python3 tools/compare_w2.py OLD_SRC NEW_SRC --seeds 36:48 --default-seeds 0:1 --repeats 3

The W2 instances are captured from `run_experiment` of the new tree, one
(particle cloud, reference cloud) pair per checkpoint, in two configs:
WGAD-CA-BLOB on gmm:2 with M=64, 200 iterations, a checkpoint every 100 and a
512-sample reference (the `gmm2-run` benchmark config, one run per --seeds
entry), and the same method and target at the defaults, M=64 against 2000
reference samples over 2000 iterations (one run per --default-seeds entry).

Each tree's `parvikit` package is imported under its own name, so both solve
every instance in one interpreter with BLAS pinned to one thread, and the two
sides alternate which goes first. The LP solves are timed at the tree's solve
seam: `metrics._solve_lp` where it exists, else `metrics.linprog`. Per config
it prints each side's total time over the instances (best of --repeats),
split into the support seed, the LP solves and the rest (certificate and
set-up), the mean number of cells in an instance's first LP (`cells1`), the
number of instances whose support HiGHS found infeasible before it was
joined with the north-west staircase (`infeas`), the total simplex
iterations (`iters`), the mean number of entropic semi-dual evaluations
(`evals/i`, calls of `metrics._semi_dual`) and of Newton steps (`steps/i`,
linear systems solved through the module's `np.linalg.solve`) per instance,
the histogram of LP solves per instance, and on a second line the histogram
of simplex iterations in each instance's first LP. A tree whose seed is not
the Newton one reports 0 evaluations and steps.
It ends with the largest relative deviation between the two sides' values.
The exit status is 1 if that deviation exceeds 1e-12 on any instance, else 0.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import importlib  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare_steps import load_tree  # noqa: E402

# the support seed's name in each generation of the solver
SEED_FUNCTIONS = ("_newton_support", "_entropic_support")
# the LP solve seam, newest first; both return a linprog-style result
SOLVE_FUNCTIONS = ("_solve_lp", "linprog")
MAX_DEVIATION = 1e-12
INFEASIBLE = 2  # the seam's status for an infeasible LP, as linprog's
# bins of the first-LP iteration histogram: [0], [1, 25), [25, 50), ...
ITERATION_BINS = (0, 1, 25, 50, 100, 250, 500, 1000, 2000)
CONFIGS = {
    "gmm2-run": dict(method="WGAD-CA-BLOB", target="gmm:2", particles=64, iterations=200,
                     record_every=100, reference_samples=512),
    "default": dict(method="WGAD-CA-BLOB", target="gmm:2", particles=64),
}


class Side:
    """One tree's wasserstein2_exact, timed in total, in its support seed and in its LP seam,
    with its semi-dual evaluations and Newton steps counted."""

    def __init__(self, src, alias):
        load_tree(src, alias)
        self.metrics = importlib.import_module(alias + ".metrics")
        self.harness = importlib.import_module(alias + ".harness")
        self.seed_s = self.lp_s = 0.0
        self.evals = self.steps = 0
        self.calls = []  # (variables, status, simplex iterations) of each solve
        solve = next(name for name in SOLVE_FUNCTIONS if hasattr(self.metrics, name))
        self._wrap(solve, "lp_s",
                   observe=lambda args, res: self.calls.append((len(args[0]), res.status, res.nit)))
        for name in SEED_FUNCTIONS:
            if hasattr(self.metrics, name):
                self._wrap(name, "seed_s")
                break
        if hasattr(self.metrics, "_semi_dual"):
            self._count("_semi_dual", "evals", self.metrics._semi_dual)
            # the module's only linear solves are the Newton systems; its `np`
            # becomes a copy of numpy whose linalg.solve counts them
            linalg = types.ModuleType(np.linalg.__name__)
            linalg.__dict__.update(np.linalg.__dict__)
            self._count("solve", "steps", np.linalg.solve, linalg)
            counted_np = types.ModuleType(np.__name__)
            counted_np.__dict__.update(np.__dict__)
            counted_np.linalg = linalg
            self.metrics.np = counted_np

    def _count(self, name, total, real, owner=None):
        """Replace `name` on owner (the metrics module by default) by a wrapper of real
        that adds one to the attribute `total` per call."""

        def counted(*args, **kwargs):
            setattr(self, total, getattr(self, total) + 1)
            return real(*args, **kwargs)

        setattr(self.metrics if owner is None else owner, name, counted)

    def _wrap(self, name, total, observe=None):
        """Time calls of the module-level `name`; recursive calls count once."""
        real = getattr(self.metrics, name)
        depth = [0]

        def timed(*args, **kwargs):
            depth[0] += 1
            start = time.perf_counter()
            try:
                result = real(*args, **kwargs)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    setattr(self, total, getattr(self, total) + time.perf_counter() - start)
            if observe is not None:
                observe(args, result)
            return result

        setattr(self.metrics, name, timed)

    def time_all(self, instances):
        """(values, LP calls per instance, total s, seed s, LP s, semi-dual evaluations,
        Newton steps) of one pass."""
        self.seed_s = self.lp_s = 0.0
        self.evals = self.steps = 0
        values, calls = [], []
        start = time.perf_counter()
        for a, b in instances:
            del self.calls[:]
            values.append(self.metrics.wasserstein2_exact(a, b))
            calls.append(list(self.calls))
        return (values, calls, time.perf_counter() - start, self.seed_s, self.lp_s, self.evals,
                self.steps)


def capture(side, config, seeds):
    """The (cloud, reference) pairs that run_experiment hands to wasserstein2_exact."""
    harness = side.harness
    real = harness.wasserstein2_exact
    instances = []

    def recording(a, b):
        instances.append((a, b))
        return real(a, b)

    harness.wasserstein2_exact = recording
    try:
        for seed in seeds:
            harness.run_experiment(harness.ExperimentConfig(seed=seed, **config))
    finally:
        harness.wasserstein2_exact = real
    return instances


def iteration_histogram(counts):
    """'0: n, 1-24: n, 25-49: n, ...' over the bins of ITERATION_BINS."""
    edges = ITERATION_BINS + (float("inf"),)
    parts = []
    for low, high in zip(edges[:-1], edges[1:]):
        label = "%d" % low if high == low + 1 else (
            "%d+" % low if high == float("inf") else "%d-%d" % (low, high - 1))
        parts.append("%s: %d" % (label, sum(low <= n < high for n in counts)))
    return ", ".join(parts)


def seed_range(text):
    start, _, stop = text.partition(":")
    return range(int(start), int(stop)) if stop else range(int(start), int(start) + 1)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src", help="src/ directory of the reference tree")
    parser.add_argument("new_src", help="src/ directory of the tree under test")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("36:48"),
                        help="experiment seeds START:STOP of the gmm2-run config (default 36:48)")
    parser.add_argument("--default-seeds", type=seed_range, default=seed_range("0:1"),
                        help="experiment seeds START:STOP of the default config (default 0:1)")
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    sides = [Side(src, "parvikit_w2cmp%d" % i) for i, src in enumerate((args.old_src, args.new_src))]
    worst = 0.0
    print("%-9s %5s %-4s %9s %9s %9s %9s %7s %6s %7s %7s %7s  %s" % (
        "config", "inst", "side", "total_s", "seed_s", "lp_s", "other_s", "cells1", "infeas",
        "iters", "evals/i", "steps/i", "solves: instances"))
    for name, seeds in (("gmm2-run", args.seeds), ("default", args.default_seeds)):
        instances = capture(sides[1], CONFIGS[name], seeds)
        if not instances:
            continue
        best = [None, None]
        for rep in range(args.repeats):
            runs = [None, None]
            for i in ((0, 1) if rep % 2 == 0 else (1, 0)):
                runs[i] = sides[i].time_all(instances)
                if best[i] is None or runs[i][2] < best[i][2]:
                    best[i] = runs[i]
            for old, new in zip(runs[0][0], runs[1][0]):
                worst = max(worst, abs(new - old) / max(abs(old), 1e-300))
        for label, (_, calls, total, seed_s, lp_s, evals, steps) in zip(("old", "new"), best):
            hist = collections.Counter(len(c) for c in calls)
            cells = sum(c[0][0] for c in calls) / len(calls)
            infeasible = sum(any(status == INFEASIBLE for _, status, _ in c) for c in calls)
            iterations = sum(nit for c in calls for _, _, nit in c)
            print("%-9s %5d %-4s %9.3f %9.3f %9.3f %9.3f %7.0f %6d %7d %7.1f %7.1f  %s" % (
                name, len(instances), label, total, seed_s, lp_s, total - seed_s - lp_s,
                cells, infeasible, iterations, evals / len(calls), steps / len(calls),
                ", ".join("%d: %d" % kv for kv in sorted(hist.items()))))
            print("%-9s %5s %-4s first-LP iterations: %s" % ("", "", "", iteration_histogram(
                [c[0][2] for c in calls])))
        print("%-9s new/old total %.3f" % (name, best[1][2] / best[0][2]))
    print("max relative deviation %.3g (bound %g); best of %d repeats, one BLAS thread"
          % (worst, MAX_DEVIATION, args.repeats))
    return 1 if worst > MAX_DEVIATION else 0


if __name__ == "__main__":
    sys.exit(main())
