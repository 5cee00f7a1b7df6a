"""Shared particle-system primitives: state container, RBF kernel, bandwidth, moments."""

from __future__ import annotations

import mmap
from dataclasses import dataclass, field

import numpy as np

BANDWIDTH_FLOOR = 1e-8

WEIGHT_SUM_TOL = 1e-12


class InvalidArgumentError(ValueError):
    """Raised when an operation receives out-of-domain arguments."""


class DegenerateInputError(ValueError):
    """Raised when the input is too degenerate for the operation (e.g. a single particle)."""


@dataclass
class ParticleState:
    """Augmented weighted particle system: positions, velocities and simplex weights.

    positions and velocities are (M, d) arrays, weights a length-M simplex vector.
    """

    positions: np.ndarray
    velocities: np.ndarray
    weights: np.ndarray
    iteration: int = 0

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        self.velocities = np.asarray(self.velocities, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.positions.ndim != 2:
            raise InvalidArgumentError("positions must be an (M, d) matrix")
        if self.velocities.shape != self.positions.shape:
            raise InvalidArgumentError(
                "velocities shape %s != positions shape %s"
                % (self.velocities.shape, self.positions.shape)
            )
        if self.weights.shape != (self.positions.shape[0],):
            raise InvalidArgumentError("weights must be a length-M vector")
        if self.iteration < 0:
            raise InvalidArgumentError("iteration must be nonnegative")
        if not np.all(np.isfinite(self.positions)) or not np.all(np.isfinite(self.velocities)):
            raise InvalidArgumentError("positions/velocities contain non-finite entries")
        # a NaN weight would pass both checks below, since NaN compares False
        if not np.all(np.isfinite(self.weights)):
            raise InvalidArgumentError("weights contain non-finite entries")
        if np.any(self.weights < 0):
            raise InvalidArgumentError("weights must be nonnegative")
        if abs(self.weights.sum() - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidArgumentError(
                "weights must sum to 1 (got %.17g)" % self.weights.sum()
            )

    @classmethod
    def _trusted(cls, positions, velocities, weights, iteration):
        """Construct without re-validating; for steppers whose outputs are checked already."""
        state = object.__new__(cls)
        state.positions = positions
        state.velocities = velocities
        state.weights = weights
        state.iteration = iteration
        return state

    @property
    def num_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def dim(self) -> int:
        return self.positions.shape[1]

    def replace(self, *, positions=None, velocities=None, weights=None, iteration=None):
        return ParticleState(
            positions=self.positions if positions is None else positions,
            velocities=self.velocities if velocities is None else velocities,
            weights=self.weights if weights is None else weights,
            iteration=self.iteration if iteration is None else iteration,
        )


@dataclass
class KernelConfig:
    """Bandwidth policy for the RBF kernel: per-iteration nearest-neighbor rule or a frozen value."""

    bandwidth_mode: str = "nearest_neighbor"  # nearest_neighbor | fixed
    fixed_h: float = 1.0

    def __post_init__(self):
        if self.bandwidth_mode not in ("nearest_neighbor", "fixed"):
            raise InvalidArgumentError("unknown bandwidth_mode %r" % self.bandwidth_mode)
        if self.bandwidth_mode == "fixed" and not self.fixed_h > 0:
            raise InvalidArgumentError("fixed_h must be positive")

    def resolve(self, positions: np.ndarray, d2: np.ndarray | None = None) -> float:
        """Bandwidth for the cloud; d2 is its squared-distance matrix when already at hand."""
        if self.bandwidth_mode == "fixed":
            return self.fixed_h
        return bandwidth_nn(positions) if d2 is None else bandwidth_nn_from_d2(d2)


@dataclass
class EmpiricalMoments:
    """Weighted mean, covariance, and ridge-regularized covariance of a particle cloud."""

    mean: np.ndarray
    covariance: np.ndarray
    regularized_covariance: np.ndarray
    ridge: float = field(default=0.0)


def rbf_kernel(x: np.ndarray, y: np.ndarray, h: float) -> float:
    """exp(-||x - y||^2 / h) for a pair of points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InvalidArgumentError("non-finite kernel inputs")
    if not h > 0 or not np.isfinite(h):
        raise InvalidArgumentError("bandwidth must be a positive finite number")
    if x.shape != y.shape:
        raise InvalidArgumentError("x and y must have the same dimension")
    d = x - y
    return float(np.exp(-d.dot(d) / h))


def rbf_kernel_grad(x: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    """Gradient of rbf_kernel in its first argument: -(2/h)(x - y) K(x, y)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    k = rbf_kernel(x, y, h)
    return -(2.0 / h) * (x - y) * k


# Doubles per row block of one (M, M) matrix of a step (see Workspace). The
# six such blocks a KSDD step touches (d2, K, a, c, b and t) then take
# 1.5 MiB, inside a 2 MiB per-core L2. Chosen by measurement: summed over the
# 11 KSDD and S-metric steps on sg:10, the best block was 64 rows at M=512
# (50.1 ms, against 51.4 and 52.1 ms at 32 and 128 rows and 63.0 ms
# unblocked), 32 rows at M=1024, 104 at M=300 and one block at M=100 and 200,
# where splitting cost more calls than it saved in cache misses.
BLOCK_DOUBLES = 64 * 512


def block_rows(n: int, m: int) -> int:
    """Rows per block of an (n, m) stage: the nearest whole number of blocks
    of BLOCK_DOUBLES, with rows rounded up to a multiple of 8.

    A multiple of 8 keeps each row at its place within BLAS's 4- and 8-row
    kernels. At M=256, 512 and 1024 the blocked step is bit-identical to the
    unblocked one; at other M some entries may differ in the last bit.
    """
    blocks = round(n * m / BLOCK_DOUBLES)
    if blocks <= 1:
        return n
    rows = -(-n // blocks)  # ceil(n / blocks)
    return min(n, -(-rows // 8) * 8)


class Workspace:
    """Scratch of one stepper for clouds of shape (M, d).

    d2 and k hold a step's squared distances and RBF kernel, and a and c are
    free (M, M) work buffers. b and t hold one row block of rows =
    block_rows(M, M) rows: the (M, M) stage walks the cloud in such blocks
    (64 rows at M=512, one block up to M=221), so each elementwise pass runs
    over rows that are still in L2 instead of streaming whole (M, M)
    matrices from L3. The products with the (M, d) cloud run on the full a
    and c that the blocks fill, because row blocks of them would round
    differently. tr is a (d, M)
    buffer for the transpose of an (M, d) operand: numpy sends a @ a.T to
    BLAS syrk, which at M=512 is ~4x slower than gemm and at some M rounds
    differently, so a one-block self product multiplies by a transposed copy
    instead. A block of rows times a.T is no self product, so several blocks
    take the view a.T. ridge is lambda * I_d for the KW metric.

    Nothing written to them outlives the call that wrote it, and nothing a
    step returns is a view of them. They share one anonymous memory mapping,
    so their pages are faulted in once, only those a method touches, and go
    back to the OS whole when the workspace is dropped, instead of cycling
    through the heap on every step.
    """

    __slots__ = ("shape", "rows", "ridge", "d2", "k", "a", "c", "b", "t", "tr", "_map")

    def __init__(self, m: int, d: int, ridge: float = 0.0):
        self.shape = (m, d)
        self.ridge = ridge * np.eye(d)
        self.rows = rows = block_rows(m, m)
        shapes = [(m, m)] * 4 + [(rows, m)] * 2 + [(d, m)]
        strides = [-(-r * n // 8) * 8 for r, n in shapes]  # doubles, rounded to 64 bytes
        self._map = mmap.mmap(-1, 8 * sum(strides))
        flat = np.frombuffer(self._map, dtype=float)
        offsets = np.cumsum([0] + strides)
        self.d2, self.k, self.a, self.c, self.b, self.t, self.tr = (
            flat[o:o + r * n].reshape(r, n) for o, (r, n) in zip(offsets, shapes)
        )


def row_blocks(n: int, *arrays):
    """The arrays' rows in blocks of n: one tuple of row slices per block.

    When one block covers them, the arrays themselves, so that a small cloud
    pays for no views.
    """
    m = len(arrays[0])
    if m <= n:
        return (arrays,)
    return [tuple(a[lo:lo + n] for a in arrays) for lo in range(0, m, n)]


def squared_distances(x: np.ndarray, y: np.ndarray | None = None,
                      out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of x and rows of y.

    out receives the result and work is overwritten as scratch; both are
    (len(x), len(y)) float arrays, allocated afresh when not given. The
    product 2 x y^T is formed as (x + x) y^T, which doubling makes exact, and
    whose fresh left operand keeps numpy off its syrk path when y is x, so
    a self product and a cross product of equal operands agree bit for bit.
    """
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    # np.add.reduce is ndarray.sum without its Python wrapper: same bits, less overhead at small M
    xn = np.add.reduce(x * x, axis=1)
    yn = xn if y is x else np.add.reduce(y * y, axis=1)
    if out is None:
        out = np.empty((len(x), len(y)))
    if work is None:
        work = np.empty_like(out)
    # (xn_i + yn_j) - 2 (x y^T)_ij in place, one L2-sized block of rows at a time
    n = block_rows(len(x), len(y))
    for x2, xn_i, d2, xy2 in row_blocks(n, x + x, xn[:, None], out, work):
        np.matmul(x2, y.T, out=xy2)
        np.add(xn_i, yn, out=d2)
        d2 -= xy2
        # rounding can push tiny true distances slightly negative
        np.maximum(d2, 0.0, out=d2)
    return out


def rbf_kernel_matrix(x: np.ndarray, y: np.ndarray | None = None, h: float = 1.0) -> np.ndarray:
    """Gram matrix of the RBF kernel between two point sets."""
    if not h > 0:
        raise InvalidArgumentError("bandwidth must be positive")
    return np.exp(-squared_distances(x, y) / h)


def bandwidth_nn_from_d2(d2: np.ndarray) -> float:
    """Nearest-neighbor bandwidth from a precomputed squared-distance matrix.

    Masks the diagonal with +inf for the row minima, then writes 0.0 on it: the caller's
    matrix comes back with a zero diagonal even where `squared_distances` left rounding
    residue there, so a kernel built from it afterwards has K_ii = 1 exactly.
    """
    m = d2.shape[0]
    if m < 2:
        raise DegenerateInputError("nearest-neighbor bandwidth needs at least 2 particles")
    d2 = np.ascontiguousarray(d2)  # so that the diagonal below is a view, not a copy
    diag = d2.reshape(-1)[:: m + 1]  # cheaper than d2.flat or np.fill_diagonal at small M
    diag.fill(np.inf)
    h = float(np.add.reduce(np.minimum.reduce(d2, axis=1))) / m
    diag.fill(0.0)
    if h <= 0.0:
        return BANDWIDTH_FLOOR
    return h


def bandwidth_nn(positions: np.ndarray) -> float:
    """Mean squared distance to the nearest other particle, floored at BANDWIDTH_FLOOR.

    Requires at least two particles; with one particle there is no neighbor
    and the caller must supply a fixed bandwidth instead.
    """
    positions = np.asarray(positions, dtype=float)
    return bandwidth_nn_from_d2(squared_distances(positions))


def weighted_mean_covariance(x: np.ndarray, w: np.ndarray):
    """Weighted mean and symmetrized population covariance of the rows of x."""
    mean = w @ x
    centered = x - mean
    cov = (centered * w[:, None]).T @ centered
    return mean, 0.5 * (cov + cov.T)


def empirical_moments(state: ParticleState, ridge: float = 0.0) -> EmpiricalMoments:
    """Weighted mean and population covariance of the particle cloud, plus covariance + ridge*I."""
    if ridge < 0:
        raise InvalidArgumentError("ridge must be nonnegative")
    mean, cov = weighted_mean_covariance(state.positions, state.weights)
    reg = cov + ridge * np.eye(state.dim)
    return EmpiricalMoments(mean=mean, covariance=cov, regularized_covariance=reg, ridge=ridge)
