"""Target log-densities, scores and Hessians for the synthetic and GP experiments."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor
from scipy.linalg.lapack import dlauum, dpotrs, dtrtri
from scipy.special import logsumexp

from .core import InvalidArgumentError

# numpy's C einsum, which np.einsum calls when optimize is off, without the
# Python dispatch around it: the same contraction and bits at half the cost
# of a small call
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:  # numpy 1.x
    try:
        from numpy.core.multiarray import c_einsum as _einsum
    except ImportError:
        _einsum = np.einsum


class UnsupportedOperationError(RuntimeError):
    """Raised when a target does not provide the requested derivative."""


class GramFactorError(FloatingPointError):
    """Raised when the GP Gram matrix at the batch's point `row` is non-finite or not PD."""

    def __init__(self, message, row):
        super().__init__(message)
        self.row = row


class ParseError(ValueError):
    """Raised on malformed CSV input; the message names the offending line."""


class TargetModel:
    """Interface for an unnormalized target density on R^d.

    log_density and score accept a single point (d,) or a batch (n, d) and
    return a scalar/vector accordingly. hessian_log_density is optional.
    """

    dim: int
    has_hessian: bool = False

    def log_density(self, x):
        raise NotImplementedError

    def score(self, x):
        raise NotImplementedError

    def hessian_log_density(self, x):
        raise UnsupportedOperationError(
            "%s does not provide a log-density Hessian" % type(self).__name__
        )

    def potential_and_score(self, x):
        """(-log_density, -score) in one call; overridden where intermediates are shared."""
        x = np.asarray(x, dtype=float)
        return -self.log_density(x), -self.score(x)

    def score_and_hessian(self, x):
        """(score, hessian) in one call; overridden where intermediates are shared."""
        return self.score(x), self.hessian_log_density(x)


_FLOAT = np.dtype(float)


def _as_batch(x, dim):
    if type(x) is not np.ndarray or x.dtype is not _FLOAT:  # skips asarray on the hot path
        x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != dim:
        raise InvalidArgumentError("expected points of dimension %d, got %d" % (dim, x.shape[1]))
    return x, single


class GaussianTarget(TargetModel):
    """Gaussian with a fixed covariance matrix and optional nonzero mean."""

    has_hessian = True

    def __init__(self, cov: np.ndarray, mean: np.ndarray | None = None):
        cov = np.asarray(cov, dtype=float)
        self.dim = cov.shape[0]
        self.cov = cov
        self.mean = np.zeros(self.dim) if mean is None else np.asarray(mean, dtype=float)
        self.precision = np.linalg.inv(cov)
        self.precision = 0.5 * (self.precision + self.precision.T)

    def log_density(self, x):
        xb, single = _as_batch(x, self.dim)
        xb = xb - self.mean
        v = -0.5 * _einsum("ni,ij,nj->n", xb, self.precision, xb)
        return float(v[0]) if single else v

    def score(self, x):
        xb, single = _as_batch(x, self.dim)
        s = -(xb - self.mean) @ self.precision
        return s[0] if single else s

    def hessian_log_density(self, x):
        xb, single = _as_batch(x, self.dim)
        h = np.broadcast_to(-self.precision, (xb.shape[0], self.dim, self.dim)).copy()
        return h[0] if single else h

    def potential_and_score(self, x):
        xb, single = _as_batch(x, self.dim)
        xp = (xb - self.mean) @ self.precision
        u = 0.5 * _einsum("ni,ni->n", xb - self.mean, xp)
        if single:
            return float(u[0]), xp[0]
        return u, xp


def sg_target(d: int) -> GaussianTarget:
    """Equicorrelated Gaussian: unit variances, pairwise correlation 0.8."""
    if d < 1:
        raise InvalidArgumentError("dimension must be >= 1")
    cov = 0.2 * np.eye(d) + 0.8 * np.ones((d, d))
    return GaussianTarget(cov)


class GaussianMixtureTarget(TargetModel):
    """Two-component isotropic Gaussian mixture at +/-offset with unequal weights."""

    has_hessian = True

    def __init__(self, offset: np.ndarray, weight_plus: float = 2.0 / 3.0):
        self.offset = np.asarray(offset, dtype=float)
        self.dim = self.offset.shape[0]
        self.weights = np.array([weight_plus, 1.0 - weight_plus])
        self.means = np.stack([self.offset, -self.offset])
        self._offset_outer = np.outer(self.offset, self.offset)
        self._neg_eye = -np.eye(self.dim)
        # log w_k - 0.5||mean_k||^2: component constants for the +/-offset form
        na = float(self.offset @ self.offset)
        self._const_p = np.log(self.weights[0]) - 0.5 * na
        self._const_m = np.log(self.weights[1]) - 0.5 * na
        self._delta_c = self._const_m - self._const_p  # log_m - log_p at x = 0

    @property
    def mean(self) -> np.ndarray:
        return self.weights[0] * self.offset - self.weights[1] * self.offset

    @property
    def cov(self) -> np.ndarray:
        m = self.mean
        c = np.eye(self.dim)
        for wk, mk in zip(self.weights, self.means):
            c = c + wk * np.outer(mk - m, mk - m)
        return c

    def _component_logs(self, xb):
        # (n, 2) log of weighted component densities, up to a shared constant
        d2 = ((xb[:, None, :] - self.means[None, :, :]) ** 2).sum(axis=2)
        return np.log(self.weights)[None, :] - 0.5 * d2

    def log_density(self, x):
        xb, single = _as_batch(x, self.dim)
        v = logsumexp(self._component_logs(xb), axis=1)
        return float(v[0]) if single else v

    def _responsibilities(self, xb):
        logs = self._component_logs(xb)
        logs = logs - logs.max(axis=1, keepdims=True)
        r = np.exp(logs)
        return r / r.sum(axis=1, keepdims=True)

    def score(self, x):
        xb, single = _as_batch(x, self.dim)
        r = self._responsibilities(xb)
        s = r[:, 0:1] * (self.means[0] - xb) + r[:, 1:2] * (self.means[1] - xb)
        return s[0] if single else s

    def potential_and_score(self, x):
        # hot path: log-density via log(1 + e^delta) and 2 r_plus - 1 = -tanh(delta/2),
        # where delta = log_m - log_p for the +/-offset pair; fewest temporaries
        xb, single = _as_batch(x, self.dim)
        xa = xb @ self.offset
        delta = self._delta_c - 2.0 * xa
        potential = 0.5 * _einsum("ni,ni->n", xb, xb) - xa - np.logaddexp(0.0, delta)
        potential -= self._const_p
        neg_score = xb + np.tanh(0.5 * delta)[:, None] * self.offset
        if single:
            return float(potential[0]), neg_score[0]
        return potential, neg_score

    def _r_plus(self, xb):
        """Responsibility of the +offset component, skipping the log-density bookkeeping."""
        delta = self._delta_c - 2.0 * (xb @ self.offset)  # log_m - log_p
        return 1.0 / (1.0 + np.exp(np.minimum(delta, 700.0)))

    def _hessian_from_responsibility(self, r_p):
        # -I + sum_k r_k g_k g_k^T - s s^T collapses to -I + 4 r_+ r_- a a^T
        # because g_+ - g_- = 2a and the middle terms are a two-point variance.
        return self._neg_eye[None, :, :] + (4.0 * r_p * (1.0 - r_p))[:, None, None] * self._offset_outer

    def hessian_log_density(self, x):
        xb, single = _as_batch(x, self.dim)
        h = self._hessian_from_responsibility(self._r_plus(xb))
        return h[0] if single else h

    def score_and_hessian(self, x):
        xb, single = _as_batch(x, self.dim)
        r_p = self._r_plus(xb)
        s = (2.0 * r_p - 1.0)[:, None] * self.offset - xb
        h = self._hessian_from_responsibility(r_p)
        if single:
            return s[0], h[0]
        return s, h


def gmm_target(d: int) -> GaussianMixtureTarget:
    """Mixture of N(1.2*1, I) with weight 2/3 and N(-1.2*1, I) with weight 1/3."""
    if d < 1:
        raise InvalidArgumentError("dimension must be >= 1")
    return GaussianMixtureTarget(1.2 * np.ones(d))


@dataclass
class GPData:
    """Paired scalar inputs/responses for the GP hyperparameter posterior."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise InvalidArgumentError("x and y must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise InvalidArgumentError("data contains non-finite values")

    @property
    def n(self) -> int:
        return self.x.shape[0]


TRI_LEAF = 48  # diagonal blocks up to this many rows are inverted by dtrtri
_LEAF_UPPER = np.triu(np.ones((TRI_LEAF, TRI_LEAF), dtype=bool), 1)


def _negated_inverse(f, lo, hi):
    """Overwrite the lower-triangular block f[lo:hi, lo:hi] with minus its inverse.

    With L = [[L11, 0], [L21, L22]] split in halves, L^-1 = W has W11 = L11^-1,
    W22 = L22^-1 and W21 = -W22 L21 W11, so -W21 = (-W22) L21 (-W11): once both
    halves hold minus their inverses, the off-diagonal block takes no sign
    change. The halves recurse down to TRI_LEAF rows, which dtrtri inverts.
    The block above the diagonal may hold anything on entry and holds zeros
    on return: each leaf's strict upper triangle is zeroed after dtrtri,
    which reads only the lower one, so the two products below, gemm calls
    through matmul on views of f, see triangular halves. The block opposite
    W21 holds L21 (-W11) in between, is fully overwritten before it is read
    and is refilled with zeros, so nothing is allocated but the leaves'
    copies. This is the blocked triangular inverse whose stability Du Croz &
    Higham (1992) analyse, with the off-diagonal work done by gemm.
    """
    m = hi - lo
    if m <= TRI_LEAF:
        # info is 0: a Cholesky factor's diagonal is positive
        inv, _ = dtrtri(f[lo:hi, lo:hi], lower=1)
        leaf = f[lo:hi, lo:hi]
        np.negative(inv, out=leaf)
        np.copyto(leaf, 0.0, where=_LEAF_UPPER[:m, :m])
        return
    mid = lo + m // 2
    _negated_inverse(f, lo, mid)
    _negated_inverse(f, mid, hi)
    t = f[lo:mid, mid:hi].T
    np.matmul(f[mid:hi, lo:mid], f[lo:mid, lo:mid], out=t)
    np.matmul(f[mid:hi, mid:hi], t, out=f[mid:hi, lo:mid])
    t.fill(0.0)


def _cho_inverse(f):
    """Overwrite a lower Cholesky factor L of K with the lower triangle of K^-1.

    f is L in Fortran order, with anything above the diagonal, such as the
    input that `cho_factor` leaves there; on return it holds zeros there.
    K^-1 = W^T W with W = L^-1: `_negated_inverse` turns f into -W in place,
    and LAPACK dlauum multiplies out (-W)^T (-W), which is the same product.
    These are the two halves of LAPACK dpotri, whose triangular inverse
    (OpenBLAS dtrtri) runs at a fraction of gemm speed at a few hundred rows.
    """
    _negated_inverse(f, 0, f.shape[0])
    return dlauum(f, lower=1, overwrite_c=1)[0]


class GPHyperparameterTarget(TargetModel):
    """2-D posterior over (log-amplitude, log-inverse-lengthscale) of a GP regression.

    Kernel K_ij = exp(phi1 - exp(phi2) * (x_i - x_j)^2), noisy Gram
    K_y = K + 0.04 I. Each point costs one Cholesky factorization
    K_y = L L^T, shared by the potential and the score: alpha = K_y^-1 y
    (LAPACK dpotrs) and log det K_y come from the factor, and
    K_y^-1 = L^-T L^-1 from `_cho_inverse` in the factor's own array. The
    marginal-likelihood gradient is 1/2 sum((alpha alpha^T - K_y^-1) o dK)
    (Rasmussen & Williams, GPML 2006, sec. 5.4.1), with the trace part taken
    as an elementwise sum over the triangle of K_y^-1 that `_cho_inverse`
    fills, so no n x n matrix product with K_y^-1 is formed. No Hessian is
    provided.

    Every point is worked in two n x n scratch arrays, built on first use:
    the kernel buffer holds K and then d2 o K, and the Gram buffer holds K_y,
    its factor and K_y^-1. The potential alone factors the kernel buffer.
    Nothing returned is a view of them, and pickles and copies leave them
    out. Like a stepper, a target is not for concurrent use from two threads.
    """

    has_hessian = False
    JITTER = 0.04

    def __init__(self, data: GPData, prior_mode: str = "log1p_quadratic"):
        if data.n < 2:
            raise InvalidArgumentError("need at least 2 observations")
        if prior_mode not in ("none", "log1p_quadratic"):
            raise InvalidArgumentError("unknown prior_mode %r" % prior_mode)
        self.dim = 2
        self.data = data
        self.prior_mode = prior_mode
        diff = data.x[:, None] - data.x[None, :]
        self._d2 = diff * diff
        self._scratch = None

    def __getstate__(self):
        # a pickled diagonal view comes back as a copy, not a view: rebuild the scratch
        return {**self.__dict__, "_scratch": None}

    def _prior_terms(self, phi):
        if self.prior_mode == "none":
            return 0.0, np.zeros(2)
        q = 1.0 + phi @ phi
        return -np.log(q), -2.0 * phi / q

    def _evaluate(self, xb, with_score):
        """(log density, score or None) at the batch xb (m, 2), one factorization per row."""
        n, y, d2 = self.data.n, self.data.y, self._d2
        if self._scratch is None:
            kb, gb = np.empty((n, n)), np.empty((n, n))
            # each buffer with a writable view of its diagonal
            self._scratch = kb, kb.reshape(-1)[:: n + 1], gb, gb.reshape(-1)[:: n + 1]
        kb, kdiag, gb, gdiag = self._scratch
        logp = np.empty(xb.shape[0])
        grad = np.empty_like(xb) if with_score else None
        with np.errstate(over="ignore", invalid="ignore"):  # finiteness is checked per point
            for i, phi in enumerate(xb):
                inv_len = np.exp(phi[1])
                np.multiply(d2, -inv_len, out=kb)
                kb += phi[0]
                np.exp(kb, out=kb)
                if with_score:
                    np.copyto(gb, kb)
                    ky, diag = gb, gdiag
                else:
                    ky, diag = kb, kdiag
                diag += self.JITTER
                # 0 <= K_ij <= K_ii = exp(phi1), and a nan phi or an infinite exp(phi2)
                # makes the diagonal nan, so ky is finite iff its diagonal is
                if not np.isfinite(diag).all():
                    raise GramFactorError("noisy Gram matrix is not finite at phi=%s" % phi, i)
                try:
                    # ky is symmetric, so ky.T is it in Fortran order: LAPACK factors in place
                    c, _ = cho_factor(ky.T, lower=True, overwrite_a=True, check_finite=False)
                except np.linalg.LinAlgError as exc:
                    raise GramFactorError(
                        "noisy Gram matrix is not positive definite at phi=%s: %s" % (phi, exc), i
                    ) from exc
                alpha, _ = dpotrs(c, y, lower=1)
                logdet = 2.0 * np.log(np.diagonal(c)).sum()
                lp, gp = self._prior_terms(phi)
                logp[i] = -0.5 * y @ alpha - 0.5 * logdet + lp
                if not with_score:
                    continue
                ka = alpha @ (kb @ alpha)
                # In c.T, the C-ordered view, _cho_inverse leaves the triangle of
                # K_y^-1 on and above the diagonal and zeros below it, so its view
                # tri gives tr(K_y^-1 S) = 2<tri, S> - <diag tri, diag S> for any
                # symmetric S.
                tri = _cho_inverse(c).T
                tr1 = 2.0 * np.vdot(tri, kb) - np.diagonal(tri) @ kdiag
                # d2 o K has a zero diagonal, so its trace needs no diagonal correction
                np.multiply(d2, kb, out=kb)
                tr2 = 2.0 * np.vdot(tri, kb)
                grad[i, 0] = 0.5 * (ka - tr1) + gp[0]
                grad[i, 1] = -0.5 * inv_len * (alpha @ (kb @ alpha) - tr2) + gp[1]
        return logp, grad

    def log_density(self, x):
        xb, single = _as_batch(x, self.dim)
        logp, _ = self._evaluate(xb, with_score=False)
        return float(logp[0]) if single else logp

    def score(self, x):
        xb, single = _as_batch(x, self.dim)
        _, grad = self._evaluate(xb, with_score=True)
        return grad[0] if single else grad

    def potential_and_score(self, x):
        xb, single = _as_batch(x, self.dim)
        logp, grad = self._evaluate(xb, with_score=True)
        if single:
            return -float(logp[0]), -grad[0]
        return -logp, -grad


def gp_target(data: GPData, prior_mode: str = "log1p_quadratic") -> GPHyperparameterTarget:
    return GPHyperparameterTarget(data, prior_mode=prior_mode)


def load_two_column_csv(path) -> GPData:
    """Parse the first two numeric columns of a CSV file, tolerating one header line."""
    xs, ys = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < 2:
                raise ParseError("line %d: expected at least 2 columns" % lineno)
            try:
                xs.append(float(row[0]))
                ys.append(float(row[1]))
            except ValueError:
                if lineno == 1 and not xs:
                    continue  # header line
                raise ParseError("line %d: non-numeric cell in %r" % (lineno, row)) from None
    if len(xs) < 2:
        raise ParseError("need at least 2 data rows, got %d" % len(xs))
    return GPData(x=np.array(xs), y=np.array(ys))


def synthetic_gp_data(n: int = 221, seed: int = 0, noise: float = 0.1) -> GPData:
    """Deterministic smooth-curve-plus-noise dataset shaped like a small range/log-ratio scan."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    x = np.linspace(390.0, 720.0, n)
    y = -0.05 - 0.7 / (1.0 + np.exp(-(x - 600.0) / 25.0))
    y = y + noise * rng.standard_normal(n)
    return GPData(x=x, y=y)
