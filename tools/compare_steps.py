"""Compare the steppers of two parvikit source trees in one process.

    python3 tools/compare_steps.py OLD_SRC NEW_SRC --target sg:10 --particles 512 \\
        --steps 20 --repeats 5 --methods KSDD,SGAD-CA-KSDD

Each tree's `parvikit` package is imported under its own name, so both run in
one interpreter with BLAS pinned to one thread. For every method and repeat,
each side makes a fresh stepper and runs a soak of --steps steps from the same
start (N(0, I) positions from --seed, zero velocities, uniform weights), with
the defaults-table step sizes; the two sides alternate which goes first. A
host whose speed drifts over time drifts for both sides alike.

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

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

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


class Side:
    """One tree's stepper factory for a fixed target and start state."""

    def __init__(self, src, alias, target_spec, particles, seed, steps):
        pkg = load_tree(src, alias)
        harness = importlib.import_module(alias + ".harness")
        kind, _, dim = target_spec.partition(":")
        self.kind = kind
        self.target = getattr(pkg, kind + "_target")(int(dim))
        self.pkg = pkg
        self.harness = harness
        self.steps = steps
        rng = np.random.default_rng(seed)
        m, d = particles, int(dim)
        self.start = pkg.ParticleState(positions=rng.standard_normal((m, d)),
                                       velocities=np.zeros((m, d)), weights=np.full(m, 1.0 / m))
        self.seed = seed

    def soak(self, name):
        """(seconds per step, minor faults per step, final state, counters) of one fresh-stepper soak."""
        pkg = self.pkg
        cfg = pkg.DynamicsConfig(total_steps=self.steps,
                                 **self.harness.default_hyperparameters(name, self.kind))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        stepper = pkg.make_stepper(name, self.target, cfg, pkg.KernelConfig(), pkg.StepRng(self.seed))
        state = self.start
        for _ in range(self.steps):
            state = stepper(state)
        counters = dict(stepper.counters)
        del stepper  # its release (the workspace's unmapping) is part of the cost
        seconds = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return seconds / self.steps, faults / self.steps, state, counters


def identical(a, b):
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in (
        (a.positions, b.positions), (a.velocities, b.velocities), (a.weights, b.weights)))


def deviation(old, new):
    """max |new - old| / max |old|, the largest deviation relative to the old array's scale."""
    scale = float(np.abs(old).max())
    return float(np.abs(new - old).max()) / (scale if scale > 0.0 else 1.0)


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


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src", help="src/ directory of the reference tree")
    parser.add_argument("new_src", help="src/ directory of the tree under test")
    parser.add_argument("--target", default="gmm:2", help="gmm:D or sg:D (default gmm:2)")
    parser.add_argument("--particles", type=int, default=16)
    parser.add_argument("--steps", type=int, default=200, help="steps per soak")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--methods", default="canonical",
                        help="comma-separated method ids, or 'canonical', 'all' or 'sg10'")
    args = parser.parse_args(argv)
    if args.particles < 2 or args.steps < 1 or args.repeats < 1:
        parser.error("--particles must be >= 2, --steps and --repeats >= 1")
    if args.target.partition(":")[0] not in ("gmm", "sg"):
        parser.error("--target must be gmm:D or sg:D")
    return args


def main(argv=None):
    args = parse_args(argv)
    sides = [Side(src, "parvikit_cmp%d" % i, args.target, args.particles, args.seed, args.steps)
             for i, src in enumerate((args.old_src, args.new_src))]
    dynamics = importlib.import_module(sides[1].pkg.__name__ + ".dynamics")
    names = method_names(args.methods, dynamics)
    best = {name: [(float("inf"), 0.0), (float("inf"), 0.0)] for name in names}
    same = {}
    differing = {}  # name -> ((old final, old counters), (new final, new counters))
    for rep in range(args.repeats):
        order = (0, 1) if rep % 2 == 0 else (1, 0)
        for name in names:
            finals = [None, None]
            for i in order:
                per_step, faults, state, counters = sides[i].soak(name)
                finals[i] = (state, counters)
                if per_step < best[name][i][0]:
                    best[name][i] = (per_step, faults)
            same[name] = same.get(name, True) and identical(finals[0][0], finals[1][0])
            if not same[name]:
                differing.setdefault(name, finals)
    print("%-16s %11s %11s %7s %9s %9s  %s" % (
        "method", "old_us", "new_us", "ratio", "old_flt", "new_flt", "identical"))
    totals = [0.0, 0.0]
    for name in names:
        (t0, f0), (t1, f1) = best[name]
        totals[0] += t0
        totals[1] += t1
        print("%-16s %11.1f %11.1f %7.3f %9.1f %9.1f  %s" % (
            name, 1e6 * t0, 1e6 * t1, t1 / t0, f0, f1, "yes" if same[name] else "NO"))
    print("%-16s %11.1f %11.1f %7.3f" % ("sum", 1e6 * totals[0], 1e6 * totals[1],
                                          totals[1] / totals[0]))
    print("target %s, M=%d, %d steps per soak, best of %d repeats, one BLAS thread"
          % (args.target, args.particles, args.steps, args.repeats))
    for name, ((old, old_counters), (new, new_counters)) in differing.items():
        print("%-16s positions %.2e, weights %.2e relative; counters %s" % (
            name, deviation(old.positions, new.positions), deviation(old.weights, new.weights),
            "equal" if old_counters == new_counters else "%s vs %s" % (old_counters, new_counters)))
    return 0 if all(same.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
