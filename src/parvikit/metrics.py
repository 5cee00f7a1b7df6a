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
# The exact solver's tolerances. HiGHS's are absolute, so the LP sees costs
# scaled to a largest entry of LP_COST_SCALE: its 1e-10 feasibility tolerances
# are then 1e-13 of the largest cost, whatever the clouds' units.
LP_COST_SCALE = 1e3
GAP_RTOL = 1e-13
# Entropic seed of its support: SEED_SWEEPS Sinkhorn sweeps at each eps of a
# schedule that shrinks by SEED_FACTOR from max C down to SEED_EPS * max C.
SEED_EPS = 3e-3
SEED_FACTOR = 0.5
SEED_SWEEPS = 5


class SizeGuardError(ValueError):
    """Raised when the exact solver's cost matrix would exceed the size guard."""


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
    # W2 is translation-invariant; one common centre keeps the squared-distance
    # expansion from cancelling away the cost of clouds far from the origin.
    centre = 0.5 * (a.masses @ a.points + b.masses @ b.points)
    return squared_distances(a.points - centre, b.points - centre)


def _positive_atoms(a: WeightedCloud, b: WeightedCloud):
    """Cost and masses restricted to the atoms with positive mass.

    Zero-mass atoms carry no transport, and dropping them keeps log masses finite.
    """
    cost = _cost_matrix(a, b)
    ia = a.masses > 0
    ib = b.masses > 0
    return cost[np.ix_(ia, ib)], a.masses[ia], b.masses[ib]


def _sinkhorn(cost, wa, wb, eps, f, g, max_iter, tol):
    """Log-domain Sinkhorn sweeps from the potentials (f, g).

    Stops once the implied plan's marginals are within tol of (wa, wb) or
    after max_iter sweeps; returns (f, g, sweeps, violation). After each
    g-update the column marginals hold exactly, so only the rows are checked,
    from the log-sums that the next f-update needs anyway.
    """
    log_wa = np.log(wa)
    log_wb = np.log(wb)
    neg = -cost
    lse = _logsumexp_rows(_exponent(neg, f, g, eps))
    viol = np.inf
    for it in range(1, max_iter + 1):
        f = f + eps * (log_wa - lse)
        g = g + eps * (log_wb - _logsumexp_rows(_exponent(neg, f, g, eps).T))
        lse = _logsumexp_rows(_exponent(neg, f, g, eps))
        viol = np.abs(np.exp(lse) - wa).max()
        if viol < tol:
            return f, g, it, viol
    return f, g, max_iter, viol


def _exponent(neg_cost, f, g, eps):
    """(-C_ij + f_i + g_j) / eps in one new array."""
    mat = neg_cost + f[:, None]
    mat += g[None, :]
    mat /= eps
    return mat


def _logsumexp_rows(mat: np.ndarray) -> np.ndarray:
    """Row-wise log-sum-exp; overwrites mat."""
    top = mat.max(axis=1, keepdims=True)
    mat -= top
    np.exp(mat, out=mat)
    return (top + np.log(mat.sum(axis=1, keepdims=True)))[:, 0]


def _entropic_support(cost, wa, wb):
    """Cells whose reduced cost under scaled Sinkhorn potentials is within 2 eps.

    The column potential is the c-transform g_j = min_i (C_ij - f_i) of the
    row potential, so every reduced cost is >= 0 and each column has a zero.
    """
    f = np.zeros(wa.shape[0])
    g = np.zeros(wb.shape[0])
    eps = top = cost.max()
    while eps > 0:
        f, g, _, _ = _sinkhorn(cost, wa, wb, eps, f, g, SEED_SWEEPS, 0.0)
        if eps <= SEED_EPS * top:
            break
        eps = max(SEED_FACTOR * eps, SEED_EPS * top)
    reduced = cost - f[:, None]
    return reduced - reduced.min(axis=0) <= 2.0 * eps


def _north_west_corner(wa, wb):
    """Cells (rows, cols) of the north-west-corner plan.

    The staircase of K_a + K_b - 1 cells meets every row and column, so an LP
    restricted to a support containing it stays feasible. Its moves down and
    right follow the merged order of the two cumulative mass sums.
    """
    moves = np.argsort(np.concatenate((np.cumsum(wa)[:-1], np.cumsum(wb)[:-1])), kind="stable")
    rows = np.concatenate(([0], np.cumsum(moves < wa.shape[0] - 1)))
    return rows, np.arange(rows.shape[0]) - rows


def _transport_lp(cost, wa, wb, rows, cols):
    """Transport LP restricted to the cells (rows, cols).

    Returns (value, plan entries, row duals u, column duals v). One equality
    (the last column's) is redundant and dropped, which fixes its dual at 0.
    """
    ka, kb = cost.shape
    nvar = rows.shape[0]
    var_idx = np.arange(nvar)
    a_eq = sparse.csr_matrix(
        (np.ones(2 * nvar), (np.concatenate([rows, ka + cols]), np.concatenate([var_idx, var_idx]))),
        shape=(ka + kb, nvar),
    )[:-1]
    b_eq = np.concatenate([wa, wb])[:-1]
    # At HiGHS's default tolerances (1e-7) plans fail the 1e-9 marginal check, and
    # duals left infeasible on the support open a gap that no added cell closes.
    res = linprog(cost[rows, cols], A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if not res.success:
        raise RuntimeError("transport LP failed: %s" % res.message)
    duals = res.eqlin.marginals
    return res.fun, res.x, duals[:ka], np.append(duals[ka:], 0.0)


def wasserstein2_exact(a: WeightedCloud, b: WeightedCloud) -> float:
    """Exact 2-Wasserstein distance via a transport LP on a certified sparse support.

    The support starts from the cells whose reduced cost is within 2 eps
    under log-domain Sinkhorn potentials, scaled down to eps = 3e-3 * max C,
    joined with the north-west-corner plan, which keeps the LP feasible. The
    HiGHS simplex solves the LP restricted to the support at primal and dual
    feasibility tolerances of 1e-10 (on costs scaled to a largest entry of
    1e3). Its row duals u give the lower bound
    D = sum_i a_i u_i + sum_j b_j min_i (C_ij - u_i), dual-feasible on every
    cell by construction, so once the restricted optimum P satisfies
    P - D <= 1e-13 * P + ulp(max C) it is the dense LP's optimum to that
    gap. Otherwise the cells with negative reduced cost under the LP duals
    join the support and the LP is solved again; a round that would add no
    cell raises RuntimeError. The optimal plan's marginals are verified
    against the input masses to 1e-9. Instances with K_a*K_b beyond the size
    guard must use wasserstein2_sinkhorn instead.
    """
    ka, kb = a.points.shape[0], b.points.shape[0]
    if ka * kb > SIZE_GUARD:
        raise SizeGuardError(
            "cost matrix %d x %d exceeds the exact-solver guard; "
            "use wasserstein2_sinkhorn" % (ka, kb)
        )
    cost, wa, wb = _positive_atoms(a, b)
    unit = cost.max() / LP_COST_SCALE or 1.0
    cost = cost / unit
    support = _entropic_support(cost, wa, wb)
    support[_north_west_corner(wa, wb)] = True
    # the support grows every round, so the loop ends
    while True:
        rows, cols = np.nonzero(support)
        value, x, u, v = _transport_lp(cost, wa, wb, rows, cols)
        reduced = cost - u[:, None]
        gap = value - (wa @ u + wb @ reduced.min(axis=0))
        if gap <= GAP_RTOL * value + np.spacing(LP_COST_SCALE):
            break
        grow = (reduced < v) & ~support
        if not grow.any():
            raise RuntimeError("transport LP duality gap %g stays open with no cell to add"
                               % (gap * unit))
        support |= grow
    viol = max(
        np.abs(np.bincount(rows, x, wa.shape[0]) - wa).max(),
        np.abs(np.bincount(cols, x, wb.shape[0]) - wb).max(),
    )
    if viol > 1e-9:
        raise RuntimeError("optimal plan marginals violate masses by %g" % viol)
    return float(np.sqrt(max(value * unit, 0.0)))


def wasserstein2_sinkhorn(a: WeightedCloud, b: WeightedCloud, eps: float,
                          max_iter: int = 10000, tol: float = 1e-9):
    """Entropic-regularized 2-Wasserstein value via log-domain Sinkhorn iterations.

    Returns (value, iterations). Convergence is declared when the worst
    marginal violation of the implied plan drops below tol; the plan itself
    is formed once, at convergence, for the value.
    """
    if not eps > 0:
        raise InvalidArgumentError("entropic regularization eps must be positive")
    if max_iter < 1:
        raise InvalidArgumentError("max_iter must be >= 1")
    cost, wa, wb = _positive_atoms(a, b)
    f, g, it, viol = _sinkhorn(cost, wa, wb, eps, np.zeros(wa.shape[0]), np.zeros(wb.shape[0]),
                               max_iter, tol)
    if viol < tol:
        plan = np.exp(_exponent(-cost, f, g, eps))
        return float(np.sqrt(max((plan * cost).sum(), 0.0))), it
    raise ConvergenceError(
        "no convergence in %d iterations (marginal violation %g)" % (max_iter, viol),
        marginal_violation=viol,
    )


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
