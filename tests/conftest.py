"""Shared test helpers: random states and finite-difference oracles.

BLAS runs on one thread unless the caller says otherwise: the suite's small
factorisations are many times slower on several OpenBLAS threads, and the
CPU-time criteria assume one. The variables must be set before numpy loads.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from parvikit.core import ParticleState  # noqa: E402


def random_state(m, d, seed=0, nonuniform=False, with_velocity=False):
    rng = np.random.default_rng(seed)
    positions = rng.normal(size=(m, d))
    velocities = rng.normal(size=(m, d)) if with_velocity else np.zeros((m, d))
    if nonuniform:
        w = rng.random(m) + 0.1
        w = w / w.sum()
    else:
        w = np.full(m, 1.0 / m)
    return ParticleState(positions=positions, velocities=velocities, weights=w)


def fd_gradient(f, x, eps=1e-5):
    """Central finite-difference gradient of a scalar function at a point."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e.flat[i] = eps
        grad.flat[i] = (f(x + e) - f(x - e)) / (2.0 * eps)
    return grad


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    scale = max(float(np.linalg.norm(exact)), 1e-12)
    return float(np.linalg.norm(approx - exact)) / scale
