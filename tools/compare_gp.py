"""Compare the GP hyperparameter targets of two parvikit source trees in one process.

    python3 tools/compare_gp.py OLD_SRC NEW_SRC --points 100 --batch 32 --repeats 7

Each tree's `parvikit` package is imported under its own name, so both run in
one interpreter with BLAS pinned to one thread, and the two sides alternate
which goes first. Two data sets are used: the built-in synthetic scan
(`synthetic_gp_data()`, n=221 on a uniform grid) and a 90-point cloud at
irregular, sorted inputs. On each, --points hyperparameters phi are drawn
uniformly from [-1, 1] x [-11, -8] (the range the tests use), and each side
calls `potential_and_score` on them in batches of --batch points (default
32, the particle count of the `gp-run` benchmark), so its time per point is
the one a stepper's call sees.

Per data set it prints each side's time per point (best of --repeats), their
ratio, the minor page faults (`ru_minflt`) per point of that best repeat,
each side's `cho_factor` calls per point (1 is one factorization per point),
and the largest deviation between the two sides over the points: of the
potential, |new - old| / |old|, and of the score, ||new - old|| / ||old||.
The exit status is 1 if either deviation exceeds 1e-10 on any point, else 0.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from compare_steps import load_tree  # noqa: E402

MAX_DEVIATION = 1e-10


def data_sets(targets):
    """{name: (x, y)} of the synthetic n=221 scan and a 90-point irregular cloud."""
    synthetic = targets.synthetic_gp_data()
    rng = np.random.default_rng(21)
    x = np.sort(rng.uniform(390.0, 720.0, size=90))
    y = np.tanh((x - 600.0) / 40.0) + 0.1 * rng.standard_normal(x.size)
    return {"synthetic": (synthetic.x, synthetic.y), "irregular": (x, y)}


def count_factorizations(targets):
    """Wrap the targets module's `cho_factor`; the returned list grows by one per call."""
    calls = []
    factor = targets.cho_factor

    def counting_factor(*args, **kwargs):
        calls.append(1)
        return factor(*args, **kwargs)

    targets.cho_factor = counting_factor
    return calls


class Side:
    """One tree's GP target on one data set."""

    def __init__(self, targets, x, y):
        self.target = targets.gp_target(targets.GPData(x=x, y=y))

    def run(self, phis, batch):
        """(potential, -score, seconds per point, minor faults per point) over the batches."""
        potential, neg_score = np.empty(len(phis)), np.empty_like(phis)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        for lo in range(0, len(phis), batch):
            potential[lo:lo + batch], neg_score[lo:lo + batch] = (
                self.target.potential_and_score(phis[lo:lo + batch]))
        seconds = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return potential, neg_score, seconds / len(phis), faults / len(phis)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old_src", help="src/ directory of the reference tree")
    parser.add_argument("new_src", help="src/ directory of the tree under test")
    parser.add_argument("--points", type=int, default=100, help="phi values per data set")
    parser.add_argument("--batch", type=int, default=32, help="points per potential_and_score call")
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--seed", type=int, default=5, help="seed of the phi draw")
    args = parser.parse_args(argv)
    if min(args.points, args.batch, args.repeats) < 1:
        parser.error("--points, --batch and --repeats must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    modules = []
    for i, src in enumerate((args.old_src, args.new_src)):
        load_tree(src, "parvikit_gpcmp%d" % i)
        modules.append(importlib.import_module("parvikit_gpcmp%d.targets" % i))
    factorizations = [count_factorizations(targets) for targets in modules]
    rng = np.random.default_rng(args.seed)
    phis = np.column_stack([rng.uniform(-1.0, 1.0, args.points),
                            rng.uniform(-11.0, -8.0, args.points)])
    worst = 0.0
    print("%-10s %4s %9s %9s %7s %8s %8s %6s %6s %10s %10s" % (
        "data", "n", "old_us", "new_us", "ratio", "old_flt", "new_flt", "old_cf", "new_cf",
        "potential", "score"))
    for name, (x, y) in data_sets(modules[1]).items():
        sides = [Side(targets, x, y) for targets in modules]
        best = [(float("inf"), 0.0), (float("inf"), 0.0)]
        dev_u = dev_g = 0.0
        for calls in factorizations:
            calls.clear()
        for rep in range(args.repeats):
            runs = [None, None]
            for i in ((0, 1) if rep % 2 == 0 else (1, 0)):
                runs[i] = sides[i].run(phis, args.batch)
                best[i] = min(best[i], runs[i][2:])
            (u0, g0, _, _), (u1, g1, _, _) = runs
            dev_u = max(dev_u, float(np.max(np.abs(u1 - u0) / np.abs(u0))))
            dev_g = max(dev_g, float(np.max(
                np.linalg.norm(g1 - g0, axis=1) / np.linalg.norm(g0, axis=1))))
        worst = max(worst, dev_u, dev_g)
        (t0, f0), (t1, f1) = best
        cf0, cf1 = (len(calls) / (args.points * args.repeats) for calls in factorizations)
        print("%-10s %4d %9.1f %9.1f %7.3f %8.1f %8.1f %6.2f %6.2f %10.2e %10.2e" % (
            name, x.size, 1e6 * t0, 1e6 * t1, t1 / t0, f0, f1, cf0, cf1, dev_u, dev_g))
    print("%d points per data set in batches of %d, best of %d repeats, one BLAS thread; "
          "max deviation %.3g (bound %g)" % (args.points, args.batch, args.repeats, worst,
                                             MAX_DEVIATION))
    return 1 if worst > MAX_DEVIATION else 0


if __name__ == "__main__":
    sys.exit(main())
