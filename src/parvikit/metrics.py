"""Approximation-quality metrics: exact and entropic 2-Wasserstein distance,
moment errors, and mode-mass diagnostics for weighted particle clouds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import OptimizeResult, linprog
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree

try:  # scipy's bundled HiGHS bindings; linprog, which loads them, takes no basis
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # then every solve is a cold linprog call
    _highs = None

from .core import InvalidArgumentError, ParticleState, empirical_moments, squared_distances

MASS_SUM_TOL = 1e-12
SIZE_GUARD = 2_000_000
# The exact solver's tolerances. HiGHS's are absolute, so the LP sees costs
# scaled to a largest entry of LP_COST_SCALE: its 1e-10 feasibility tolerances
# are then 1e-13 of the largest cost, whatever the clouds' units.
LP_COST_SCALE = 1e3
GAP_RTOL = 1e-13
# At HiGHS's default tolerances (1e-7) plans fail the 1e-9 marginal check, and
# duals left infeasible on the support open a gap that no added cell closes.
LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
# Newton seed of its support: at most NEWTON_STEPS damped Newton steps on the
# entropic semi-dual at each eps of a schedule that shrinks by NEWTON_FACTOR
# from max C down to NEWTON_EPS * max C. The last level, whose potentials
# define the band, stops once the row marginals are within NEWTON_TOL * min a
# of a; the levels above it only need to land near their central path, and
# stop at NEWTON_PATH_TOL * min a. Much looser, whole levels take no step and
# the last one pays for the jump in damped steps.
NEWTON_EPS = 1e-3
NEWTON_FACTOR = 0.25
NEWTON_STEPS = 30
NEWTON_TOL = 1e-3
NEWTON_PATH_TOL = 0.5


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


def _semi_dual(scaled, wa, wb, u, eps):
    """Entropic semi-dual F(u) and its plan, for row potentials u and the
    scaled cost -C / eps.

    F(u) = sum_i a_i u_i + sum_j b_j g_j with the soft c-transform
    g_j = -eps log sum_i exp((u_i - C_ij) / eps). The plan
    P_ij = b_j softmax_i((u_i - C_ij) / eps) has the column sums b exactly,
    and the gradient of F is a - P1.
    """
    mat = scaled + (u / eps)[:, None]
    top = mat.max(axis=0)
    mat -= top
    np.exp(mat, out=mat)
    col = mat.sum(axis=0)
    mat *= wb / col
    return wa @ u - eps * (wb @ (top + np.log(col))), mat


def _newton_support(cost, wa, wb):
    """(reduced costs C - u - v under Newton semi-dual potentials, final eps).

    Damped Newton ascends the entropic semi-dual in the potentials u of the
    smaller side, so the linear system is min(K_a, K_b) square, and eps
    shrinks as it converges. The schedule is path-following: each level
    above the last stops once its row marginals are within
    NEWTON_PATH_TOL * min a, near enough to its central path to start the
    next, and only the last level converges to NEWTON_TOL * min a. The other
    side's potential is the c-transform v_j = min_i (C_ij - u_i), so every
    reduced cost is >= 0 and each column has a zero (each row, when the
    smaller side is b). The support seed is the band of cells with reduced
    cost <= 2 eps.
    """
    if wa.shape[0] > wb.shape[0]:
        reduced, eps = _newton_support(cost.T, wb, wa)
        return reduced.T, eps
    ka = wa.shape[0]
    u = np.zeros(ka)
    eps = top = cost.max()
    while eps > 0:
        last = eps <= NEWTON_EPS * top
        tol = (NEWTON_TOL if last else NEWTON_PATH_TOL) * wa.min()
        scaled = cost / -eps
        value, plan = _semi_dual(scaled, wa, wb, u, eps)
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
                trial, trial_plan = _semi_dual(scaled, wa, wb, u + t * step, eps)
                if trial >= value + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:
                break
            u = u + t * step
            value, plan = trial, trial_plan
        if last:
            break
        eps = max(NEWTON_FACTOR * eps, NEWTON_EPS * top)
    reduced = cost - u[:, None]
    reduced -= reduced.min(axis=0)
    return reduced, eps


def _north_west_corner(wa, wb):
    """Cells (rows, cols) of the north-west-corner plan.

    The staircase of K_a + K_b - 1 cells meets every row and column, so an LP
    restricted to a support containing it stays feasible. Its moves down and
    right follow the merged order of the two cumulative mass sums.
    """
    moves = np.argsort(np.concatenate((np.cumsum(wa)[:-1], np.cumsum(wb)[:-1])), kind="stable")
    rows = np.concatenate(([0], np.cumsum(moves < wa.shape[0] - 1)))
    return rows, np.arange(rows.shape[0]) - rows


def _cells(mask):
    """(rows, cols) of the True cells of a 2-D mask, in row-major order; np.nonzero's
    result, several times faster on a wide mask."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def _graph(shape, rows, cols, weight=1.0):
    """Bipartite graph on the rows then the columns, with an edge of `weight` per cell
    (rows, cols). Edges of weight 0 count as missing."""
    nodes = shape[0] + shape[1]
    weight = np.broadcast_to(weight, rows.shape)
    return sparse.csr_matrix((weight, (rows, shape[0] + cols)), shape=(nodes, nodes))


def _components(shape, rows, cols):
    """(count, labels) of the connected components of the bipartite graph whose
    edges are the cells (rows, cols): the labels of the rows, then the columns."""
    return connected_components(_graph(shape, rows, cols), directed=False)


def _may_carry(support, wa, wb):
    """A necessary check that the LP restricted to support is feasible: each
    connected component of the support must hold as much row mass as column
    mass, to HiGHS's 1e-10 tolerance. An atom with no cell is a component of
    its own, so every atom needs a cell."""
    count, label = _components(support.shape, *_cells(support))
    excess = np.bincount(label, np.concatenate((wa, -wb)), count)
    return np.abs(excess).max() <= 1e-10


def _forest_basis(shape, rows, cols, weight):
    """A transport basis on the cells (rows, cols), in row-major order.

    Returns (basic cells, basic equality rows) as masks. The basic cells are
    a minimum spanning forest of the cells under `weight`, and each forest
    component without the dropped last column's equality gets one basic
    equality row, its first, so the basis has one member per equality.
    """
    # shifted to >= 1, because the forest drops edges of weight 0
    tree = minimum_spanning_tree(_graph(shape, rows, cols, weight - weight.min() + 1.0)).tocoo()
    row, col = np.minimum(tree.row, tree.col), np.maximum(tree.row, tree.col) - shape[0]
    basic = np.zeros(rows.shape[0], dtype=bool)
    basic[np.searchsorted(rows * shape[1] + cols, row * shape[1] + col)] = True
    _, label = connected_components(tree, directed=False)
    _, first = np.unique(label, return_index=True)
    basic_rows = np.zeros(shape[0] + shape[1] - 1, dtype=bool)
    basic_rows[first[label[first] != label[-1]]] = True
    return basic, basic_rows


class _TransportLP:
    """Transport LP between the masses (wa, wb), restricted to cells that only grow.

    One equality (the last column's) is redundant and dropped, which fixes
    its dual at 0. `highs` is the live HiGHS model once _solve_lp has built
    it, holding the first `loaded` cells; `basis` is the start it is built
    from, as _forest_basis returns it.
    """

    def __init__(self, wa, wb, rows, cols, basis=None):
        self.wa, self.wb = wa, wb
        self.rows, self.cols = rows, cols
        self.basis = basis
        self.highs = None
        self.loaded = 0

    def add(self, rows, cols):
        self.rows = np.concatenate((self.rows, rows))
        self.cols = np.concatenate((self.cols, cols))

    def columns(self, start=0):
        """CSC (starts, row indices) of the equality columns of cells start:; every
        entry is 1."""
        rows, cols = self.rows[start:], self.cols[start:]
        ka, kb = self.wa.shape[0], self.wb.shape[0]
        index = np.stack((rows, ka + cols), axis=1).ravel()
        index = index[index < ka + kb - 1].astype(np.int32)
        starts = np.zeros(rows.shape[0] + 1, dtype=np.int32)
        np.cumsum(np.where(cols < kb - 1, 2, 1), out=starts[1:])
        return starts, index


def _load(c, lp):
    """The live HiGHS model of lp with costs c, started from lp.basis."""
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    for option, value in LP_OPTIONS.items():
        highs.setOptionValue(option, value)
    masses = np.concatenate((lp.wa, lp.wb))[:-1]
    highs.addRows(masses.shape[0], masses, masses, 0, np.zeros(0, np.int32), np.zeros(0, np.int32),
                  np.zeros(0))
    _add_columns(highs, c, lp)
    if lp.basis is not None:
        status = np.array([_highs.HighsBasisStatus.kLower, _highs.HighsBasisStatus.kBasic],
                          dtype=object)
        basis = _highs.HighsBasis()
        basis.col_status = status[lp.basis[0].view(np.int8)]
        basis.row_status = status[lp.basis[1].view(np.int8)]
        highs.setBasis(basis)
    return highs


def _add_columns(highs, c, lp):
    """Append lp's cells from lp.loaded on to the live model."""
    starts, index = lp.columns(lp.loaded)
    count = starts.shape[0] - 1
    highs.addCols(count, c[lp.loaded:], np.zeros(count), np.full(count, _highs.kHighsInf),
                  index.shape[0], starts[:-1], index, np.ones(index.shape[0]))
    lp.loaded += count


def _solve_lp(c, lp):
    """Minimise c @ x over the plans on lp's cells; a linprog-style OptimizeResult.

    With scipy's HiGHS bindings the model stays live across calls: the first
    builds it from lp.basis, later ones append the cells added since, so
    HiGHS starts from its last basis. Without them each call is a cold
    linprog solve. `status` is 0 (optimal), 2 (infeasible) or 4 with the
    solver's message.
    """
    if _highs is None:
        starts, index = lp.columns()
        a_eq = sparse.csc_matrix((np.ones(index.shape[0]), index, starts),
                                 shape=(lp.wa.shape[0] + lp.wb.shape[0] - 1, c.shape[0]))
        return linprog(c, A_eq=a_eq, b_eq=np.concatenate((lp.wa, lp.wb))[:-1], bounds=(0, None),
                       method="highs", options=LP_OPTIONS)
    if lp.highs is None:
        lp.highs = _load(c, lp)
    elif lp.loaded < c.shape[0]:
        _add_columns(lp.highs, c, lp)
    highs = lp.highs
    highs.run()
    model_status = highs.getModelStatus()
    info = highs.getInfo()
    res = OptimizeResult(status=4, success=False, message=highs.modelStatusToString(model_status),
                         nit=info.simplex_iteration_count)
    if model_status == _highs.HighsModelStatus.kInfeasible:
        res.status = 2
    elif model_status == _highs.HighsModelStatus.kOptimal:
        solution = highs.getSolution()
        res.update(status=0, success=True, fun=info.objective_function_value,
                   x=np.array(solution.col_value),
                   eqlin=OptimizeResult(marginals=np.array(solution.row_dual)))
    return res


def _transport_lp(cost, lp):
    """Solve lp on the cost matrix's cells.

    Returns (value, plan entries, row duals u, column duals v), or None if
    the cells cannot carry the masses.
    """
    ka = lp.wa.shape[0]
    res = _solve_lp(cost[lp.rows, lp.cols], lp)
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
    Newton steps as eps shrinks by 4x per level to 1e-3 * max C. The schedule
    is path-following: each level above the last stops once the row
    marginals are within 0.5 * min a, and only the last converges to
    1e-3 * min a. This band is joined with the north-west-corner plan, which
    keeps the LP feasible, only when it cannot carry the masses: before the first solve if an atom has no cell or a
    connected component of the band holds unequal row and column mass, and
    after it if HiGHS finds the restricted LP infeasible. The HiGHS simplex
    solves the LP restricted to the support at primal and dual feasibility
    tolerances of 1e-10 (on costs scaled to a largest entry of 1e3), started
    from the basis of the support's minimum spanning forest under the Newton
    reduced costs. The model stays live: cells that join the support later
    are appended to it, and HiGHS goes on from its last basis. Without
    scipy's HiGHS bindings each solve is a cold linprog call instead. Row
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
    newton_reduced, eps = _newton_support(cost, wa, wb)
    support = newton_reduced <= 2.0 * eps
    staircase = _north_west_corner(wa, wb)
    if not _may_carry(support, wa, wb):
        support[staircase] = True
    rows, cols = _cells(support)
    lp = _TransportLP(wa, wb, rows, cols,
                      _forest_basis(cost.shape, rows, cols, newton_reduced[rows, cols]))
    # the support grows every round, so the loop ends
    while True:
        solved = _transport_lp(cost, lp)
        if solved is None:
            missing = ~support[staircase]
            if not missing.any():
                raise RuntimeError("transport LP infeasible on a support holding the "
                                   "north-west-corner plan")
            lp.add(staircase[0][missing], staircase[1][missing])
            support[staircase] = True
            continue
        value, x, u, v = solved
        reduced = cost - u[:, None]
        gap = value - (wa @ u + wb @ reduced.min(axis=0))
        slack = GAP_RTOL * value + np.spacing(LP_COST_SCALE)
        if gap <= slack:
            break
        shifted = _shifted_duals(cost, lp.rows, lp.cols, x, u, v)
        if value - (wa @ shifted + wb @ (cost - shifted[:, None]).min(axis=0)) <= slack:
            break
        grow = (reduced < v) & ~support
        if not grow.any():
            raise RuntimeError("transport LP duality gap %g stays open with no cell to add"
                               % (gap * unit))
        lp.add(*_cells(grow))
        support |= grow
    viol = max(
        np.abs(np.bincount(lp.rows, x, wa.shape[0]) - wa).max(),
        np.abs(np.bincount(lp.cols, x, wb.shape[0]) - wb).max(),
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
