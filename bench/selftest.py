"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Run from the root of a source checkout. Each check in checks.py gets a valid
output, which it must pass, and a corrupted one, which it must fail: weights
pushed off the simplex, a W2 value scaled by 1.1, a score with a flipped
sign, and so on. Exits 1 if any check passes a corrupted output or fails a
valid one.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from parvikit.core import ParticleState  # noqa: E402
from parvikit.metrics import WeightedCloud, wasserstein2_exact  # noqa: E402
from parvikit.smoothing import first_variation  # noqa: E402
from parvikit.targets import gp_target, sg_target, synthetic_gp_data  # noqa: E402


def cases():
    """Yield (name, failures of the valid output, failures of the corrupted output)."""
    rng = np.random.default_rng(0)
    w = rng.random(12) + 0.1
    w /= w.sum()
    off = w.copy()
    off[0] += 1e-9
    yield "simplex: sum off by 1e-9", checks.simplex("w", w), checks.simplex("w", off)
    neg = w.copy()
    neg[0], neg[1] = -neg[0], neg[1] + 2 * neg[0]
    yield "simplex: negative weight", checks.simplex("w", w), checks.simplex("w", neg)
    u = np.full(12, 1 / 12)
    yield "simplex: DK weights not uniform", checks.simplex("w", u, True), checks.simplex("w", w, True)

    x = rng.normal(size=(12, 2))
    bad = x.copy()
    bad[3, 1] = np.nan
    yield "finite", checks.finite("x", x), checks.finite("x", bad)

    names = ("mean_err", "cov_err")
    yield ("errors decrease", checks.errors_decrease("m", names, (1.0, 2.0), (0.5, 1.9)),
           checks.errors_decrease("m", names, (1.0, 2.0), (0.5, 2.1)))

    xa, xb = rng.normal(size=(8, 2)), rng.normal(size=(8, 2)) + 1.0
    w2 = wasserstein2_exact(WeightedCloud.uniform(xa), WeightedCloud.uniform(xb))
    yield ("W2 vs assignment: W2 x 1.1", checks.w2_assignment("w2", w2, xa, xb),
           checks.w2_assignment("w2", 1.1 * w2, xa, xb))

    # a one-point cloud admits only the product coupling: W2 sits on the upper bound
    one, wone = xa[:1], np.ones(1)
    w2 = wasserstein2_exact(WeightedCloud(one, wone), WeightedCloud.uniform(xb))
    ub = np.full(8, 1 / 8)
    yield ("W2 bounds: W2 x 1.1 above the product coupling",
           checks.w2_bounds("w2", w2, one, wone, xb, ub),
           checks.w2_bounds("w2", 1.1 * w2, one, wone, xb, ub))
    # a translated copy is at W2 = the mean gap: W2 sits on the lower bound
    w2 = wasserstein2_exact(WeightedCloud.uniform(xa), WeightedCloud.uniform(xa + 0.3))
    yield ("W2 bounds: W2 / 1.1 below the mean gap",
           checks.w2_bounds("w2", w2, xa, ub, xa + 0.3, ub),
           checks.w2_bounds("w2", w2 / 1.1, xa, ub, xa + 0.3, ub))

    v = rng.normal(size=(12, 2))
    nudged = x.copy()
    nudged[5, 0] = np.nextafter(nudged[5, 0], np.inf)
    yield ("repeat: one position moved by one ulp", checks.identical("s", (x, v, w), (x.copy(), v, w)),
           checks.identical("s", (x, v, w), (nudged, v, w)))
    yield "repeat: CSV bytes differ", checks.identical("c", b"1,2\n", b"1,2\n"), checks.identical("c", b"1,2\n", b"1,3\n")

    target = sg_target(3)
    state = ParticleState(positions=rng.normal(size=(24, 3)), velocities=np.zeros((24, 3)),
                          weights=np.full(24, 1 / 24))
    h = checks.nn_bandwidth(state.positions)
    u = first_variation(state, target, h, "KSDD").u
    precision = np.linalg.inv(0.2 * np.eye(3) + 0.8 * np.ones((3, 3)))
    idx = (0, 7, 23)
    yield ("KSDD u: flipped sign", checks.ksdd_u("k", u, state.positions, state.weights, h, precision, idx),
           checks.ksdd_u("k", -u, state.positions, state.weights, h, precision, idx))

    gp = gp_target(synthetic_gp_data())
    phi = np.array([[0.2, -9.5], [-0.4, -10.3]])
    score = gp.score(phi)
    yield ("GP score: flipped sign", checks.score_fd("gp", score, gp.log_density, phi),
           checks.score_fd("gp", -score, gp.log_density, phi))

    yield "count cross-check", checks.equal_count("n", 5, 5), checks.equal_count("n", 5, 4)


def main():
    missed = 0
    for name, valid, corrupted in cases():
        ok = not valid and bool(corrupted)
        missed += not ok
        print("%-6s %s%s" % ("ok" if ok else "MISSED", name,
                             "" if ok else " (valid: %s, corrupted: %s)" % (valid, corrupted)))
    print("%d check(s) missed" % missed)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
