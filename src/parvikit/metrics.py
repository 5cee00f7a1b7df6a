"""Approximation-quality metrics: exact and entropic 2-Wasserstein distance,
moment errors, and mode-mass diagnostics for weighted particle clouds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.csgraph import connected_components

from .core import InvalidArgumentError, ParticleState, empirical_moments, squared_distances

MASS_SUM_TOL = 1e-12
SIZE_GUARD = 2_000_000
# The exact solver's tolerances. HiGHS's are absolute, so the LP sees costs
# scaled to a largest entry of LP_COST_SCALE: its 1e-10 feasibility tolerances
# are then 1e-13 of the largest cost, whatever the clouds' units.
LP_COST_SCALE = 1e3
GAP_RTOL = 1e-13
# Newton seed of its support: at most NEWTON_STEPS damped Newton steps on the
# entropic semi-dual at each eps of a schedule that shrinks by NEWTON_FACTOR
# from max C down to NEWTON_EPS * max C.
NEWTON_EPS = 1e-3
NEWTON_FACTOR = 0.25
NEWTON_STEPS = 30


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
        if not np.all(np.isfinite(self.points)):
            raise InvalidArgumentError("points contain non-finite entries")
        # a NaN mass would pass both checks below, since NaN compares False
        if not np.all(np.isfinite(self.masses)):
            raise InvalidArgumentError("masses contain non-finite entries")
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


def _semi_dual(cost, wa, wb, u, eps):
    """Entropic semi-dual F(u) and its plan, for row potentials u.

    F(u) = sum_i a_i u_i + sum_j b_j g_j with the soft c-transform
    g_j = -eps log sum_i exp((u_i - C_ij) / eps). The plan
    P_ij = b_j softmax_i((u_i - C_ij) / eps) has the column sums b exactly,
    and the gradient of F is a - P1.
    """
    mat = u[:, None] - cost
    mat /= eps
    top = mat.max(axis=0)
    mat -= top
    np.exp(mat, out=mat)
    col = mat.sum(axis=0)
    mat *= wb / col
    return wa @ u - eps * (wb @ (top + np.log(col))), mat


def _newton_support(cost, wa, wb):
    """Cells whose reduced cost under Newton semi-dual potentials is within 2 eps.

    Damped Newton ascends the entropic semi-dual in the potentials u of the
    smaller side, so the linear system is min(K_a, K_b) square, and eps
    shrinks as it converges. The other side's potential is the c-transform
    g_j = min_i (C_ij - u_i), so every reduced cost is >= 0 and each column
    has a zero.
    """
    if wa.shape[0] > wb.shape[0]:
        return _newton_support(cost.T, wb, wa).T
    ka = wa.shape[0]
    u = np.zeros(ka)
    tol = 1e-3 * wa.min()
    eps = top = cost.max()
    while eps > 0:
        value, plan = _semi_dual(cost, wa, wb, u, eps)
        for _ in range(NEWTON_STEPS):
            mass = plan.sum(axis=1)
            grad = wa - mass
            if np.abs(grad).max() < tol:
                break
            # minus the Hessian of F; the constant direction, which F does not
            # see, is lifted by a rank-one term and rows whose mass underflowed
            # by a ridge
            hess = np.diag(mass) - (plan / wb) @ plan.T
            hess /= eps
            hess += hess.trace() / ka ** 2
            hess.flat[::ka + 1] += 1e-9
            step = np.linalg.solve(hess, grad)
            slope = grad @ step
            t = 1.0
            while t > 1e-10:  # Armijo backtracking
                trial, trial_plan = _semi_dual(cost, wa, wb, u + t * step, eps)
                if trial >= value + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                break
            u = u + t * step
            value, plan = trial, trial_plan
        if eps <= NEWTON_EPS * top:
            break
        eps = max(NEWTON_FACTOR * eps, NEWTON_EPS * top)
    reduced = cost - u[:, None]
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


def _components(shape, rows, cols):
    """(count, labels) of the connected components of the bipartite graph whose
    edges are the cells (rows, cols), rows sorted: the labels of the rows, then
    the columns."""
    nodes = shape[0] + shape[1]
    graph = sparse.csr_matrix(
        (np.ones(rows.shape[0]), shape[0] + cols, np.searchsorted(rows, np.arange(nodes + 1))),
        shape=(nodes, nodes))
    return connected_components(graph, directed=False)


def _may_carry(support, wa, wb):
    """A necessary check that the LP restricted to support is feasible: each
    connected component of the support must hold as much row mass as column
    mass, to HiGHS's 1e-10 tolerance. An atom with no cell is a component of
    its own, so every atom needs a cell."""
    count, label = _components(support.shape, *np.nonzero(support))
    excess = np.bincount(label, np.concatenate((wa, -wb)), count)
    return np.abs(excess).max() <= 1e-10


def _transport_lp(cost, wa, wb, rows, cols):
    """Transport LP restricted to the cells (rows, cols).

    Returns (value, plan entries, row duals u, column duals v), or None if
    the cells cannot carry the masses. One equality (the last column's) is
    redundant and dropped, which fixes its dual at 0.
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
    if res.status == 2:
        return None
    if not res.success:
        raise RuntimeError("transport LP failed: %s" % res.message)
    duals = res.eqlin.marginals
    return res.fun, res.x, duals[:ka], np.append(duals[ka:], 0.0)


def _shifted_duals(cost, rows, cols, x, u, v):
    """Row duals u shifted per connected component of the plan's positive cells.

    The LP duals are tight on the plan, and a common offset s_p on a
    component's rows (and -s_p on its columns) keeps them so. The offsets
    solve the difference constraints s_p - s_q <= min reduced cost over the
    rows of p and the columns of q, by shortest paths over the components,
    which each hold a row and a column. A degenerate plan has several, and
    the LP's duals may then violate feasibility between them although a
    shifted set does not.
    """
    positive = x > 0
    count, label = _components(cost.shape, rows[positive], cols[positive])
    row_label, col_label = label[:cost.shape[0]], label[cost.shape[0]:]
    by_row = np.full((count, v.shape[0]), np.inf)
    np.minimum.at(by_row, row_label, cost - u[:, None] - v[None, :])
    # dist[q, p] bounds s_p - s_q: Floyd-Warshall from the edges w(p, q)
    dist = np.full((count, count), np.inf)
    np.minimum.at(dist, col_label, by_row.T)
    np.fill_diagonal(dist, 0.0)
    for k in range(count):
        np.minimum(dist, dist[:, k:k + 1] + dist[k:k + 1, :], out=dist)
    if np.diag(dist).min() < 0:
        # a negative cycle: no shift is feasible, and the distances it leaves can
        # be large enough to round the c-transform bound above the optimum
        return u
    return u + dist.min(axis=0)[row_label]


def wasserstein2_exact(a: WeightedCloud, b: WeightedCloud) -> float:
    """Exact 2-Wasserstein distance via a transport LP on a certified sparse support.

    The support starts from the cells whose reduced cost is within 2 eps
    under entropic semi-dual potentials of the smaller side, found by damped
    Newton steps as eps shrinks to 1e-3 * max C. This band is joined with the
    north-west-corner plan, which keeps the LP feasible, only when it cannot
    carry the masses: before the first solve if an atom has no cell or a
    connected component of the band holds unequal row and column mass, and
    after it if HiGHS finds the restricted LP infeasible. The HiGHS simplex
    solves the LP restricted to the support at primal and dual feasibility
    tolerances of 1e-10 (on costs scaled to a largest entry of 1e3). Row
    duals u give the lower bound D = sum_i a_i u_i + sum_j b_j min_i (C_ij - u_i),
    dual-feasible on every cell by construction, so once the restricted
    optimum P satisfies P - D <= 1e-13 * P + ulp(max C) it is the dense LP's
    optimum to that gap. The bound is tried with the LP's row duals, then
    with those duals shifted per connected component of the plan. Otherwise
    the cells with negative reduced cost under the LP's own duals
    join the support and the LP is solved again; a round that would add no
    cell, or an infeasible LP on a support that holds the north-west-corner
    plan, raises RuntimeError. The optimal plan's marginals are verified
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
    support = _newton_support(cost, wa, wb)
    staircase = _north_west_corner(wa, wb)
    if not _may_carry(support, wa, wb):
        support[staircase] = True
    # the support grows every round, so the loop ends
    while True:
        rows, cols = np.nonzero(support)
        solved = _transport_lp(cost, wa, wb, rows, cols)
        if solved is None:
            if support[staircase].all():
                raise RuntimeError("transport LP infeasible on a support holding the "
                                   "north-west-corner plan")
            support[staircase] = True
            continue
        value, x, u, v = solved
        reduced = cost - u[:, None]
        gap = value - (wa @ u + wb @ reduced.min(axis=0))
        slack = GAP_RTOL * value + np.spacing(LP_COST_SCALE)
        if gap <= slack:
            break
        shifted = _shifted_duals(cost, rows, cols, x, u, v)
        if value - (wa @ shifted + wb @ (cost - shifted[:, None]).min(axis=0)) <= slack:
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
