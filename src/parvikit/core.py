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


class Workspace:
    """Scratch of one stepper for clouds of shape (M, d).

    d2 and k hold a step's squared distances and RBF kernel, and a, b and c
    are free (M, M) work buffers; ridge is lambda * I_d for the KW metric.
    Nothing written to them outlives the call that wrote it, and nothing a
    step returns is a view of them. The five matrices share one anonymous
    memory mapping, so their pages are faulted in once and go back to the OS
    whole when the workspace is dropped, instead of cycling through the heap
    on every step.
    """

    __slots__ = ("shape", "ridge", "d2", "k", "a", "b", "c", "_map")

    def __init__(self, m: int, d: int, ridge: float = 0.0):
        self.shape = (m, d)
        self.ridge = ridge * np.eye(d)
        stride = -(-m * m // 8) * 8  # doubles per matrix, rounded to 64 bytes
        self._map = mmap.mmap(-1, 5 * 8 * stride)
        flat = np.frombuffer(self._map, dtype=float)
        self.d2, self.k, self.a, self.b, self.c = (
            flat[i * stride:i * stride + m * m].reshape(m, m) for i in range(5)
        )


def squared_distances(x: np.ndarray, y: np.ndarray | None = None,
                      out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Pairwise squared Euclidean distances between rows of x and rows of y.

    out receives the result and work is overwritten as scratch; both are
    (len(x), len(y)) float arrays, allocated afresh when not given.
    """
    x = np.asarray(x, dtype=float)
    y = x if y is None else np.asarray(y, dtype=float)
    xn = (x * x).sum(axis=1)
    yn = xn if y is x else (y * y).sum(axis=1)
    # (xn_i + yn_j) - 2 (x y^T)_ij with the same rounding steps, written in place
    xy2 = np.matmul(x, y.T, out=work)
    xy2 *= 2.0
    d2 = np.add(xn[:, None], yn[None, :], out=out)
    d2 -= xy2
    # rounding can push tiny true distances slightly negative
    np.maximum(d2, 0.0, out=d2)
    return d2


def rbf_kernel_matrix(x: np.ndarray, y: np.ndarray | None = None, h: float = 1.0) -> np.ndarray:
    """Gram matrix of the RBF kernel between two point sets."""
    if not h > 0:
        raise InvalidArgumentError("bandwidth must be positive")
    return np.exp(-squared_distances(x, y) / h)


def bandwidth_nn_from_d2(d2: np.ndarray) -> float:
    """Nearest-neighbor bandwidth from a precomputed squared-distance matrix.

    Temporarily masks the diagonal; the matrix is restored before returning.
    """
    m = d2.shape[0]
    if m < 2:
        raise DegenerateInputError("nearest-neighbor bandwidth needs at least 2 particles")
    d2.flat[:: m + 1] = np.inf  # the diagonal; cheaper than np.fill_diagonal at small M
    h = float(d2.min(axis=1).sum()) / m
    d2.flat[:: m + 1] = 0.0
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
