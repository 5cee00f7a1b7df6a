"""Compare two parvikit source trees in one process: steppers, exact W2 or the GP target.

    python3 tools/compare.py steps OLD_SRC NEW_SRC --target sg:10 --particles 512 \\
        --steps 20 --repeats 5 --methods KSDD,SGAD-CA-KSDD
    python3 tools/compare.py w2 OLD_SRC NEW_SRC --seeds 36:48 --default-seeds 0:1 --repeats 3
    python3 tools/compare.py gp OLD_SRC NEW_SRC --points 100 --batch 32 --repeats 7

Each tree's `parvikit` package is imported under its own name, so both run in
one interpreter with BLAS pinned to one thread. Each repeat runs both sides on
every item (a method, a W2 config or a GP data set), alternating from repeat
to repeat which side goes first, so a host whose speed drifts over time drifts
for both sides alike. `compare.py SUBCOMMAND -h` says what each one prints.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import collections  # noqa: E402
import importlib.util  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

import numpy as np  # noqa: E402


def load_tree(src, alias):
    """Import the parvikit package under src as the top-level package `alias`."""
    pkg_dir = os.path.join(os.path.abspath(src), "parvikit")
    spec = importlib.util.spec_from_file_location(
        alias, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    if spec is None:
        raise SystemExit("error: no parvikit package under %s" % src)
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def alternate(repeats, items, run, compare):
    """Call run(side, item) for side 0 (old) and 1 (new) on every item, `repeats` times, the
    sides taking turns to go first; compare(item, old, new) sees each repeat's two results.
    Returns {item: [old, new]}, each side's fastest call as (seconds, minor faults, result)."""
    best = {item: [(float("inf"), 0, None)] * 2 for item in items}
    for rep in range(repeats):
        for item in items:
            results = [None, None]
            for i in ((0, 1) if rep % 2 == 0 else (1, 0)):
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.perf_counter()
                results[i] = run(i, item)
                seconds = time.perf_counter() - start
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
                if seconds < best[item][i][0]:
                    best[item][i] = (seconds, faults, results[i])
            compare(item, *results)
    return best


class Tally:
    """Seconds and calls of owner's attribute, the first of `names` that it has: the attribute
    is replaced by a wrapper that adds to both (a call nested in another call of it adds
    nothing) and hands each call's (args, result) to observe. With no such attribute both stay 0."""

    def __init__(self, owner, *names, observe=None):
        self.reset()
        name = next((name for name in names if hasattr(owner, name)), None)
        if name is None:
            return
        real = getattr(owner, name)
        depth = [0]

        def tallied(*args, **kwargs):
            depth[0] += 1
            start = time.perf_counter()
            try:
                result = real(*args, **kwargs)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    self.seconds += time.perf_counter() - start
                    self.calls += 1
            if observe is not None:
                observe(args, result)
            return result

        setattr(owner, name, tallied)

    def reset(self):
        self.seconds, self.calls = 0.0, 0


def deviation(old, new, size=np.abs):
    """The largest size(new - old) / size(old), a deviation relative to the old side's scale;
    `size` maps an array to the magnitudes compared (elementwise |x| by default)."""
    old, new = np.asarray(old, dtype=float), np.asarray(new, dtype=float)
    return float(np.max(size(new - old) / np.maximum(size(old), 1e-300)))


def steps(args, pkgs):
    """Compare the steppers of two trees: soaks of fresh steppers from one start.

For every method and repeat, each side makes a fresh stepper and runs a soak
of --steps steps from the same start (N(0, I) positions from --seed, zero
velocities, uniform weights), with the defaults-table step sizes.

Per method it prints the best (over repeats) mean time per step of each side,
their ratio, the minor page faults (`ru_minflt`) per step of each side's best
repeat, and whether the two final states are bit-identical. For each method
whose final states differ it then prints the largest relative deviation of
positions and of weights, max |new - old| / max |old|, and whether the
steppers' counters agree. The exit status is 1 if any final state differs,
else 0.

--methods takes method ids or a preset: `canonical` (the 26 canonical
methods), `all` (every id) or `sg10` (the canonical methods whose smoothing
is KSDD or whose metric is S, the M x M-bound ones that the benchmark's
sg10-soak-m512 workload runs).
"""
    kind, _, dim = args.target.partition(":")
    m, d = args.particles, int(dim)
    targets = [getattr(pkg, kind + "_target")(d) for pkg in pkgs]
    positions = np.random.default_rng(args.seed).standard_normal((m, d))
    starts = [pkg.ParticleState(positions=positions.copy(), velocities=np.zeros((m, d)),
                                weights=np.full(m, 1.0 / m)) for pkg in pkgs]
    names = method_names(args.methods, pkgs[1].dynamics)
    configs = {name: [pkg.DynamicsConfig(total_steps=args.steps,
                                         **pkg.harness.default_hyperparameters(name, kind))
                      for pkg in pkgs] for name in names}

    def soak(i, name):
        """(final state, counters) of one fresh-stepper soak; the stepper's release (the
        workspace's unmapping) is timed with it."""
        pkg = pkgs[i]
        stepper = pkg.make_stepper(name, targets[i], configs[name][i], pkg.KernelConfig(),
                                   pkg.StepRng(args.seed))
        state = starts[i]
        for _ in range(args.steps):
            state = stepper(state)
        return state, dict(stepper.counters)

    same = dict.fromkeys(names, True)
    differing = {}  # name -> ((old final, old counters), (new final, new counters))

    def compare(name, old, new):
        if not identical(old[0], new[0]):
            same[name] = False
            differing.setdefault(name, (old, new))

    best = alternate(args.repeats, names, soak, compare)
    print("%-16s %11s %11s %7s %9s %9s  %s" % (
        "method", "old_us", "new_us", "ratio", "old_flt", "new_flt", "identical"))
    per_step = {name: [(s / args.steps, f / args.steps) for s, f, _ in best[name]] for name in names}
    for name, ((t0, f0), (t1, f1)) in per_step.items():
        print("%-16s %11.1f %11.1f %7.3f %9.1f %9.1f  %s" % (
            name, 1e6 * t0, 1e6 * t1, t1 / t0, f0, f1, "yes" if same[name] else "NO"))
    t0, t1 = (sum(row[i][0] for row in per_step.values()) for i in (0, 1))
    print("%-16s %11.1f %11.1f %7.3f" % ("sum", 1e6 * t0, 1e6 * t1, t1 / t0))
    print("target %s, M=%d, %d steps per soak, best of %d repeats, one BLAS thread"
          % (args.target, args.particles, args.steps, args.repeats))
    whole = lambda a: np.abs(a).max()  # noqa: E731
    for name, ((old, old_counters), (new, new_counters)) in differing.items():
        print("%-16s positions %.2e, weights %.2e relative; counters %s" % (
            name, deviation(old.positions, new.positions, whole),
            deviation(old.weights, new.weights, whole),
            "equal" if old_counters == new_counters else "%s vs %s" % (old_counters, new_counters)))
    return 0 if all(same.values()) else 1


def identical(a, b):
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in (
        (a.positions, b.positions), (a.velocities, b.velocities), (a.weights, b.weights)))


def method_names(preset, dynamics):
    """The method ids of a --methods value: a preset or a comma-separated list."""
    if preset == "canonical":
        return list(dynamics.CANONICAL_METHODS)
    if preset == "all":
        return list(dynamics.METHODS)
    if preset == "sg10":
        return [name for name in dynamics.CANONICAL_METHODS
                if dynamics.METHODS[name].smoothing == "KSDD" or dynamics.METHODS[name].metric == "S"]
    return [n.strip().upper() for n in preset.split(",") if n.strip()]


# the support seed's name in each generation of the solver
SEED_FUNCTIONS = ("_newton_support", "_entropic_support")
# the LP solve seam, newest first; both return a linprog-style result
SOLVE_FUNCTIONS = ("_solve_lp", "linprog")
W2_MAX_DEVIATION = 1e-12
INFEASIBLE = 2  # the seam's status for an infeasible LP, as linprog's
# bins of the first-LP iteration histogram: [0], [1, 25), [25, 50), ...
ITERATION_BINS = (0, 1, 25, 50, 100, 250, 500, 1000, 2000)
W2_CONFIGS = {
    "gmm2-run": dict(method="WGAD-CA-BLOB", target="gmm:2", particles=64, iterations=200,
                     record_every=100, reference_samples=512),
    "default": dict(method="WGAD-CA-BLOB", target="gmm:2", particles=64),
}


def w2(args, pkgs):
    """Compare the exact-W2 solvers of two trees on instances captured from runs.

The W2 instances are captured from `run_experiment` of the new tree, one
(particle cloud, reference cloud) pair per checkpoint, in two configs:
WGAD-CA-BLOB on gmm:2 with M=64, 200 iterations, a checkpoint every 100 and a
512-sample reference (the `gmm2-run` benchmark config, one run per --seeds
entry), and the same method and target at the defaults, M=64 against 2000
reference samples over 2000 iterations (one run per --default-seeds entry).

Both sides solve every instance. The LP solves are timed at the tree's solve
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
    sides = [W2Side(pkg) for pkg in pkgs]
    harness = pkgs[1].harness
    captured = []  # the (cloud, reference) pairs that the runs hand to wasserstein2_exact
    Tally(harness, "wasserstein2_exact", observe=lambda pair, _: captured.append(pair))
    instances = {}
    for name, seeds in (("gmm2-run", args.seeds), ("default", args.default_seeds)):
        for seed in seeds:
            harness.run_experiment(harness.ExperimentConfig(seed=seed, **W2_CONFIGS[name]))
        if captured:
            instances[name] = captured[:]
            del captured[:]
    worst = [0.0]

    def compare(name, old, new):
        worst[0] = max(worst[0], deviation(old[0], new[0]))

    best = alternate(args.repeats, list(instances),
                     lambda i, name: sides[i].solve_all(instances[name]), compare)
    print("%-9s %5s %-4s %9s %9s %9s %9s %7s %6s %7s %7s %7s  %s" % (
        "config", "inst", "side", "total_s", "seed_s", "lp_s", "other_s", "cells1", "infeas",
        "iters", "evals/i", "steps/i", "solves: instances"))
    for name in instances:
        for label, (total, _, result) in zip(("old", "new"), best[name]):
            _, calls, seed_s, lp_s, evals, newton = result
            hist = collections.Counter(len(c) for c in calls)
            cells = sum(c[0][0] for c in calls) / len(calls)
            infeasible = sum(any(status == INFEASIBLE for _, status, _ in c) for c in calls)
            iterations = sum(nit for c in calls for _, _, nit in c)
            print("%-9s %5d %-4s %9.3f %9.3f %9.3f %9.3f %7.0f %6d %7d %7.1f %7.1f  %s" % (
                name, len(instances[name]), label, total, seed_s, lp_s, total - seed_s - lp_s,
                cells, infeasible, iterations, evals / len(calls), newton / len(calls),
                ", ".join("%d: %d" % kv for kv in sorted(hist.items()))))
            print("%-9s %5s %-4s first-LP iterations: %s" % ("", "", "", iteration_histogram(
                [c[0][2] for c in calls])))
        print("%-9s new/old total %.3f" % (name, best[name][1][0] / best[name][0][0]))
    print("max relative deviation %.3g (bound %g); best of %d repeats, one BLAS thread"
          % (worst[0], W2_MAX_DEVIATION, args.repeats))
    return 1 if worst[0] > W2_MAX_DEVIATION else 0


class W2Side:
    """One tree's wasserstein2_exact, timed in its support seed and in its LP seam, with its
    semi-dual evaluations and Newton steps counted."""

    def __init__(self, pkg):
        metrics = self.metrics = pkg.metrics
        self.calls = []  # (variables, status, simplex iterations) of each solve
        self.lp = Tally(metrics, *SOLVE_FUNCTIONS,
                        observe=lambda args, res: self.calls.append((len(args[0]), res.status, res.nit)))
        self.seed = Tally(metrics, *SEED_FUNCTIONS)
        self.evals = Tally(metrics, "_semi_dual")
        # the module's only linear solves are the Newton systems; its `np`
        # becomes a copy of numpy whose linalg.solve counts them
        linalg = types.SimpleNamespace(**vars(np.linalg))
        self.steps = Tally(linalg, "solve")
        if hasattr(metrics, "_semi_dual"):
            metrics.np = types.SimpleNamespace(**{**vars(np), "linalg": linalg})

    def solve_all(self, instances):
        """(values, LP calls per instance, seed s, LP s, semi-dual evaluations, Newton steps)
        of one pass."""
        for tally in (self.lp, self.seed, self.evals, self.steps):
            tally.reset()
        values, calls = [], []
        for a, b in instances:
            del self.calls[:]
            values.append(self.metrics.wasserstein2_exact(a, b))
            calls.append(list(self.calls))
        return values, calls, self.seed.seconds, self.lp.seconds, self.evals.calls, self.steps.calls


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


GP_MAX_DEVIATION = 1e-10


def gp(args, pkgs):
    """Compare the GP hyperparameter targets of two trees: potential_and_score per point.

Two data sets are used: the built-in synthetic scan (`synthetic_gp_data()`,
n=221 on a uniform grid) and a 90-point cloud at irregular, sorted inputs. On
each, --points hyperparameters phi are drawn uniformly from [-1, 1] x
[-11, -8] (the range the tests use), and each side calls
`potential_and_score` on them in batches of --batch points (default 32, the
particle count of the `gp-run` benchmark), so its time per point is the one a
stepper's call sees.

Per data set it prints each side's time per point (best of --repeats), their
ratio, the minor page faults (`ru_minflt`) per point of that best repeat,
each side's `cho_factor` calls per point (1 is one factorization per point),
and the largest deviation between the two sides over the points: of the
potential, |new - old| / |old|, and of the score, ||new - old|| / ||old||.
The exit status is 1 if either deviation exceeds 1e-10 on any point, else 0.
"""
    modules = [pkg.targets for pkg in pkgs]
    factorizations = [Tally(targets, "cho_factor") for targets in modules]
    rng = np.random.default_rng(args.seed)
    phis = np.column_stack([rng.uniform(-1.0, 1.0, args.points),
                            rng.uniform(-11.0, -8.0, args.points)])
    synthetic = modules[1].synthetic_gp_data()
    rng = np.random.default_rng(21)  # the irregular cloud's inputs and noise
    x = np.sort(rng.uniform(390.0, 720.0, size=90))
    data = {"synthetic": (synthetic.x, synthetic.y),
            "irregular": (x, np.tanh((x - 600.0) / 40.0) + 0.1 * rng.standard_normal(x.size))}
    gp_targets = {name: [targets.gp_target(targets.GPData(x=x, y=y)) for targets in modules]
                  for name, (x, y) in data.items()}

    def run(i, name):
        """(potential, -score, cho_factor calls) over the batches."""
        factorizations[i].reset()
        potential, neg_score = np.empty(len(phis)), np.empty_like(phis)
        for lo in range(0, len(phis), args.batch):
            potential[lo:lo + args.batch], neg_score[lo:lo + args.batch] = (
                gp_targets[name][i].potential_and_score(phis[lo:lo + args.batch]))
        return potential, neg_score, factorizations[i].calls

    dev = {name: [0.0, 0.0] for name in data}  # potential, score

    def compare(name, old, new):
        dev[name][0] = max(dev[name][0], deviation(old[0], new[0]))
        dev[name][1] = max(dev[name][1], deviation(
            old[1], new[1], lambda g: np.linalg.norm(g, axis=1)))

    best = alternate(args.repeats, list(data), run, compare)
    print("%-10s %4s %9s %9s %7s %8s %8s %6s %6s %10s %10s" % (
        "data", "n", "old_us", "new_us", "ratio", "old_flt", "new_flt", "old_cf", "new_cf",
        "potential", "score"))
    for name, (x, _) in data.items():
        (t0, f0, cf0), (t1, f1, cf1) = ((s / args.points, f / args.points, r[2] / args.points)
                                        for s, f, r in best[name])
        print("%-10s %4d %9.1f %9.1f %7.3f %8.1f %8.1f %6.2f %6.2f %10.2e %10.2e" % (
            name, x.size, 1e6 * t0, 1e6 * t1, t1 / t0, f0, f1, cf0, cf1, *dev[name]))
    worst = max(max(d) for d in dev.values())
    print("%d points per data set in batches of %d, best of %d repeats, one BLAS thread; "
          "max deviation %.3g (bound %g)" % (args.points, args.batch, args.repeats, worst,
                                             GP_MAX_DEVIATION))
    return 1 if worst > GP_MAX_DEVIATION else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def command(func, repeats):
        sub = commands.add_parser(func.__name__, help=func.__doc__.split("\n")[0],
                                  description=func.__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
        sub.add_argument("old_src", help="src/ directory of the reference tree")
        sub.add_argument("new_src", help="src/ directory of the tree under test")
        sub.add_argument("--repeats", type=int, default=repeats)
        sub.set_defaults(func=func)
        return sub

    sub = command(steps, 5)
    sub.add_argument("--target", default="gmm:2",
                     help="gmm:D or sg:D (default gmm:2)")
    sub.add_argument("--particles", type=int, default=16)
    sub.add_argument("--steps", type=int, default=200, help="steps per soak")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--methods", default="canonical",
                     help="comma-separated method ids, or 'canonical', 'all' or 'sg10'")
    sub = command(w2, 3)
    sub.add_argument("--seeds", type=seed_range, default=seed_range("36:48"),
                     help="experiment seeds START:STOP of the gmm2-run config (default 36:48)")
    sub.add_argument("--default-seeds", type=seed_range, default=seed_range("0:1"),
                     help="experiment seeds START:STOP of the default config (default 0:1)")
    sub = command(gp, 7)
    sub.add_argument("--points", type=int, default=100, help="phi values per data set")
    sub.add_argument("--batch", type=int, default=32,
                     help="points per potential_and_score call")
    sub.add_argument("--seed", type=int, default=5, help="seed of the phi draw")
    args = parser.parse_args(argv)
    for name, low in (("repeats", 1), ("particles", 2), ("steps", 1), ("points", 1), ("batch", 1)):
        if getattr(args, name, low) < low:
            commands.choices[args.command].error("--%s must be >= %d" % (name, low))
    if getattr(args, "target", "gmm").partition(":")[0] not in ("gmm", "sg"):
        commands.choices[args.command].error("--target must be gmm:D or sg:D")
    return args


def main(argv=None):
    args = parse_args(argv)
    return args.func(args, [load_tree(src, "parvikit_cmp%d" % i)
                            for i, src in enumerate((args.old_src, args.new_src))])


if __name__ == "__main__":
    sys.exit(main())
