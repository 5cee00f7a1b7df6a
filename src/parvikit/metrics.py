"""Approximation-quality metrics: exact and entropic 2-Wasserstein distance,
moment errors, and mode-mass diagnostics for weighted particle clouds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .core import InvalidArgumentError, ParticleState, empirical_moments, squared_distances

MASS_SUM_TOL = 1e-12
SIZE_GUARD = 2_000_000


class SizeGuardError(ValueError):
    """Raised when the dense exact solver would exceed the cost-matrix size guard."""


class ConvergenceError(RuntimeError):
    """Raised when the entropic solver fails to converge; carries the last violation."""

    def __init__(self, message, marginal_violation):
        super().__init__(message)
        self.marginal_violation = marginal_violation


@dataclass
class WeightedCloud:
    """Finite discrete measure: points (K, d) with a simplex mass vector."""

    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.masses = np.asarray(self.masses, dtype=float)
        if self.masses.shape != (self.points.shape[0],):
            raise InvalidArgumentError("masses must be a length-K vector")
        if np.any(self.masses < 0):
            raise InvalidArgumentError("masses must be nonnegative")
        if abs(self.masses.sum() - 1.0) > MASS_SUM_TOL:
            raise InvalidArgumentError("masses must sum to 1 (got %.17g)" % self.masses.sum())

    @classmethod
    def from_state(cls, state: ParticleState) -> "WeightedCloud":
        return cls(points=state.positions.copy(), masses=state.weights.copy())

    @classmethod
    def uniform(cls, points: np.ndarray) -> "WeightedCloud":
        points = np.atleast_2d(np.asarray(points, dtype=float))
        k = points.shape[0]
        return cls(points=points, masses=np.full(k, 1.0 / k))


def _cost_matrix(a: WeightedCloud, b: WeightedCloud) -> np.ndarray:
    if a.points.shape[1] != b.points.shape[1]:
        raise InvalidArgumentError("clouds live in different dimensions")
    return squared_distances(a.points, b.points)


def wasserstein2_exact(a: WeightedCloud, b: WeightedCloud) -> float:
    """Exact 2-Wasserstein distance via an LP on the dense squared-distance cost.

    Solved with the HiGHS simplex at a primal feasibility tolerance of 1e-10;
    the optimal plan's marginals are verified against the input masses to
    1e-9. Instances with K_a*K_b beyond the size guard must use
    wasserstein2_sinkhorn instead.
    """
    ka, kb = a.points.shape[0], b.points.shape[0]
    if ka * kb > SIZE_GUARD:
        raise SizeGuardError(
            "cost matrix %d x %d exceeds the exact-solver guard; "
            "use wasserstein2_sinkhorn" % (ka, kb)
        )
    cost = _cost_matrix(a, b)
    # Equality constraints: row sums = a.masses, column sums = b.masses.
    # One row is redundant (both sides sum to 1) and dropped for rank.
    row_idx = np.repeat(np.arange(ka), kb)
    col_idx = ka + np.tile(np.arange(kb), ka)
    var_idx = np.arange(ka * kb)
    a_eq = sparse.coo_matrix(
        (
            np.ones(2 * ka * kb),
            (np.concatenate([row_idx, col_idx]), np.concatenate([var_idx, var_idx])),
        ),
        shape=(ka + kb, ka * kb),
    ).tocsr()[:-1]
    b_eq = np.concatenate([a.masses, b.masses])[:-1]
    # HiGHS's default primal feasibility (1e-7) would let plans fail the 1e-9 check
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError("transport LP failed: %s" % res.message)
    plan = res.x.reshape(ka, kb)
    viol = max(
        np.abs(plan.sum(axis=1) - a.masses).max(),
        np.abs(plan.sum(axis=0) - b.masses).max(),
    )
    if viol > 1e-9:
        raise RuntimeError("optimal plan marginals violate masses by %g" % viol)
    return float(np.sqrt(max(res.fun, 0.0)))


def wasserstein2_sinkhorn(a: WeightedCloud, b: WeightedCloud, eps: float,
                          max_iter: int = 10000, tol: float = 1e-9):
    """Entropic-regularized 2-Wasserstein value via log-domain Sinkhorn iterations.

    Returns (value, iterations). Convergence is declared when the worst
    marginal violation of the implied plan drops below tol.
    """
    if not eps > 0:
        raise InvalidArgumentError("entropic regularization eps must be positive")
    if max_iter < 1:
        raise InvalidArgumentError("max_iter must be >= 1")
    cost = _cost_matrix(a, b)
    # Zero-mass atoms contribute nothing; drop them so the log potentials stay finite.
    ia = a.masses > 0
    ib = b.masses > 0
    cost = cost[np.ix_(ia, ib)]
    wa = a.masses[ia]
    wb = b.masses[ib]
    log_wa = np.log(wa)
    log_wb = np.log(wb)
    f = np.zeros(wa.shape[0])
    g = np.zeros(wb.shape[0])
    viol = np.inf
    for it in range(1, max_iter + 1):
        mat = (-cost + f[:, None] + g[None, :]) / eps
        f = f + eps * (log_wa - _logsumexp_rows(mat))
        mat = (-cost + f[:, None] + g[None, :]) / eps
        g = g + eps * (log_wb - _logsumexp_rows(mat.T))
        plan = np.exp((-cost + f[:, None] + g[None, :]) / eps)
        viol = max(
            np.abs(plan.sum(axis=1) - wa).max(),
            np.abs(plan.sum(axis=0) - wb).max(),
        )
        if viol < tol:
            value = float(np.sqrt(max((plan * cost).sum(), 0.0)))
            return value, it
    raise ConvergenceError(
        "no convergence in %d iterations (marginal violation %g)" % (max_iter, viol),
        marginal_violation=viol,
    )


def _logsumexp_rows(mat: np.ndarray) -> np.ndarray:
    top = mat.max(axis=1, keepdims=True)
    return (top + np.log(np.exp(mat - top).sum(axis=1, keepdims=True)))[:, 0]


def moment_errors(state: ParticleState, target_mean: np.ndarray, target_cov: np.ndarray):
    """(L2 error of the weighted mean, Frobenius error of the weighted covariance)."""
    target_mean = np.asarray(target_mean, dtype=float)
    target_cov = np.asarray(target_cov, dtype=float)
    if target_mean.shape != (state.dim,) or target_cov.shape != (state.dim, state.dim):
        raise InvalidArgumentError("target moment shapes do not match the particle dimension")
    moments = empirical_moments(state)
    mean_err = float(np.linalg.norm(moments.mean - target_mean))
    cov_err = float(np.linalg.norm(moments.covariance - target_cov, ord="fro"))
    return mean_err, cov_err


def mode_mass(state: ParticleState, center_a: np.ndarray, center_b: np.ndarray) -> float:
    """Total weight of particles strictly closer to center_a; ties split evenly."""
    center_a = np.asarray(center_a, dtype=float)
    center_b = np.asarray(center_b, dtype=float)
    da = ((state.positions - center_a) ** 2).sum(axis=1)
    db = ((state.positions - center_b) ** 2).sum(axis=1)
    closer = state.weights[da < db].sum()
    tied = state.weights[da == db].sum()
    return float(closer + 0.5 * tied)
