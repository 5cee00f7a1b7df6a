"""Output checks made apart from the program.

Each check takes outputs as plain arrays and numbers and returns a list of
failure messages; an empty list means the check passed. Reference values are
computed here with numpy and scipy, not with parvikit, except where a check
compares two parvikit paths that must agree (the GP score against finite
differences of the GP log-density). `selftest.py` feeds each check a
corrupted output and expects a failure.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

SIMPLEX_TOL = 1e-12


def simplex(label, weights, uniform=False):
    """Weights nonnegative and summing to 1 within 1e-12; exactly equal when `uniform`."""
    w = np.asarray(weights, dtype=float)
    out = []
    if not np.all(np.isfinite(w)):
        return ["%s: non-finite weights" % label]
    if w.min() < 0.0:
        out.append("%s: negative weight %.3g" % (label, w.min()))
    if abs(w.sum() - 1.0) > SIMPLEX_TOL:
        out.append("%s: weights sum to %.17g" % (label, w.sum()))
    if uniform and not np.all(w == w[0]):
        out.append("%s: weights are not uniform (spread %.3g)" % (label, w.max() - w.min()))
    return out


def finite(label, *arrays):
    if all(np.all(np.isfinite(a)) for a in arrays):
        return []
    return ["%s: non-finite positions or velocities" % label]


def moments(points, weights):
    """Weighted mean and population covariance."""
    w = np.asarray(weights, dtype=float)
    x = np.asarray(points, dtype=float)
    mean = w @ x
    c = x - mean
    return mean, (c * w[:, None]).T @ c


def moment_errors(points, weights, target_mean, target_cov):
    mean, cov = moments(points, weights)
    return (float(np.linalg.norm(mean - target_mean)),
            float(np.linalg.norm(cov - target_cov, ord="fro")))


def errors_decrease(label, names, start, final):
    """Each named error in `final` below the same error in `start`."""
    out = []
    for name, a, b in zip(names, start, final):
        if not b < a:
            out.append("%s: %s went from %.6g to %.6g" % (label, name, a, b))
    return out


def w2_assignment(label, w2_value, x, y):
    """A uniform n-vs-n W2 equals sqrt(assignment cost / n) to 1e-9 relative."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cost = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2)
    rows, cols = linear_sum_assignment(cost)
    expected = float(np.sqrt(cost[rows, cols].sum() / x.shape[0]))
    if abs(w2_value - expected) <= 1e-9 * expected:
        return []
    return ["%s: W2 %.17g, assignment gives %.17g" % (label, w2_value, expected)]


def w2_bounds(label, w2_value, xa, wa, xb, wb):
    """Mean gap <= W2 <= sqrt(cost of the product coupling)."""
    xa, wa, xb, wb = (np.asarray(v, dtype=float) for v in (xa, wa, xb, wb))
    lower = float(np.linalg.norm(wa @ xa - wb @ xb))
    cost = ((xa[:, None, :] - xb[None, :, :]) ** 2).sum(axis=2)
    upper = float(np.sqrt(wa @ cost @ wb))
    slack = 1e-9 * upper
    if lower - slack <= w2_value <= upper + slack:
        return []
    return ["%s: W2 %.17g outside [%.17g, %.17g]" % (label, w2_value, lower, upper)]


def identical(label, a, b):
    """Bit-for-bit equality of two sequences of arrays (or of two byte strings)."""
    if isinstance(a, bytes):
        return [] if a == b else ["%s: outputs differ between repeats" % label]
    same = len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a, b))
    return [] if same else ["%s: state differs between repeats" % label]


def gaussian_stein_u(x, w, h, precision, idx):
    """u_i = sum_j w_j k_pi(x_j, x_i) for the Stein kernel of N(0, precision^-1)
    built on exp(-|x - y|^2 / h), at the rows `idx`."""
    x = np.asarray(x, dtype=float)
    s = -x @ precision
    d = x.shape[1]
    out = np.empty(len(idx))
    for n, i in enumerate(idx):
        e = x - x[i]  # e_j = x_j - x_i; x_j plays x, x_i plays y
        r2 = (e * e).sum(axis=1)
        k = np.exp(-r2 / h)
        grad_y = (2.0 / h) * e * k[:, None]  # d/dy exp(-|x - y|^2 / h)
        grad_x = -grad_y
        kp = ((s @ s[i]) * k + (s * grad_y).sum(axis=1) + grad_x @ s[i]
              + (2.0 * d / h - 4.0 * r2 / (h * h)) * k)
        out[n] = w @ kp
    return out


def ksdd_u(label, u_program, x, w, h, precision, idx):
    expected = gaussian_stein_u(x, w, h, precision, idx)
    got = np.asarray(u_program, dtype=float)[list(idx)]
    scale = np.maximum(np.abs(expected), 1.0)
    worst = float(np.max(np.abs(got - expected) / scale))
    if worst <= 1e-9:
        return []
    return ["%s: KSDD u off by %.3g relative" % (label, worst)]


def nn_bandwidth(x):
    """Mean squared distance to the nearest other point."""
    x = np.asarray(x, dtype=float)
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    return float(d2.min(axis=1).mean())


def score_fd(label, scores, log_density, points, eps=1e-5, tol=1e-5):
    """Each score row matches central differences of log_density to `tol` (norm-relative)."""
    out = []
    for n, (s, p) in enumerate(zip(np.asarray(scores, dtype=float), np.asarray(points, dtype=float))):
        fd = np.empty_like(p)
        for k in range(p.size):
            e = np.zeros_like(p)
            e[k] = eps
            fd[k] = (log_density(p + e) - log_density(p - e)) / (2.0 * eps)
        err = np.linalg.norm(s - fd) / max(np.linalg.norm(fd), 1e-12)
        if not err <= tol:
            out.append("%s: score at particle %d off finite differences by %.3g" % (label, n, err))
    return out


def equal_count(label, got, expected):
    return [] if got == expected else ["%s: %s != %s" % (label, got, expected)]
