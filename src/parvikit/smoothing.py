"""Smoothed first-variation values and gradients evaluated at the particle locations.

Three smoothing rules are provided: a kernel-density rule with an extra
repulsive sum (blob), a plain kernel-density rule (gfsd), and a Stein-kernel
rule (ksdd). Each returns the vector u of first-variation values at the
particles and the matrix grad_u of its spatial gradients, both computed from
the frozen particle cloud.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import ParticleState, Workspace, row_blocks, squared_distances
from .targets import TargetModel, UnsupportedOperationError

# Kernel mixture sums are floored here before taking logs, so that a cloud of
# extremely distant particles degrades gracefully instead of producing -inf.
MIXTURE_FLOOR = 1e-300


@dataclass
class FirstVariation:
    """First-variation values u[i] and gradients grad_u[i] at each particle.

    Finiteness is checked by the steppers after the state update, not here.
    """

    u: np.ndarray
    grad_u: np.ndarray
    floored: int = field(default=0)

    @classmethod
    def zero(cls, m: int, d: int) -> "FirstVariation":
        return cls(u=np.zeros(m), grad_u=np.zeros((m, d)))


def _kernel_mixture(state: ParticleState, h: float, d2=None, k=None):
    if k is None:
        if d2 is None:
            d2 = squared_distances(state.positions)
        k = np.exp(d2 / -h)
    raw = k @ state.weights  # raw[i] = sum_j w_j K(x_i, x_j)
    floored = int(np.count_nonzero(raw < MIXTURE_FLOOR))
    mix = np.maximum(raw, MIXTURE_FLOOR) if floored else raw
    return k, raw, mix, floored


def gfsd_first_variation(state: ParticleState, target: TargetModel, h: float,
                         d2=None, k=None, ws=None) -> FirstVariation:
    """u[i] = -log pi(x_i) + log(sum_j w_j K_ij), with its gradient in the evaluation point."""
    x = state.positions
    w = state.weights
    k, raw, mix, floored = _kernel_mixture(state, h, d2, k)
    potential, neg_score = target.potential_and_score(x)
    u = potential + np.log(mix)
    # sum_j w_j dK/dx_i / mix_i = -(2/h)(x_i raw_i - (K (w∘x))_i) / mix_i;
    # scaling the (M, d) operand is cheaper than scaling the (M, M) kernel
    grad_u = neg_score - (2.0 / h) * (x * raw[:, None] - k @ (w[:, None] * x)) / mix[:, None]
    return FirstVariation(u=u, grad_u=grad_u, floored=floored)


def blob_first_variation(state: ParticleState, target: TargetModel, h: float,
                         d2=None, k=None, ws=None) -> FirstVariation:
    """Kernel-density first variation with the extra repulsive sum sum_j w_j K_ij / mix_j."""
    x = state.positions
    w = state.weights
    k, raw, mix, floored = _kernel_mixture(state, h, d2, k)
    ratio = w / mix  # ratio[j] = w_j / sum_l w_l K(x_j, x_l)
    rep = k @ ratio
    potential, neg_score = target.potential_and_score(x)
    u = potential + np.log(mix) + rep
    # both kernel sums scale the (M, d) operand instead of the (M, M) kernel
    grad_u = neg_score - (2.0 / h) * (
        (x * raw[:, None] - k @ (w[:, None] * x)) / mix[:, None]
        + x * rep[:, None] - k @ (ratio[:, None] * x)
    )
    return FirstVariation(u=u, grad_u=grad_u, floored=floored)


def stein_kernel(x: np.ndarray, y: np.ndarray, target: TargetModel, h: float) -> float:
    """Score-weighted positive semidefinite kernel built on the RBF kernel."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = x.shape[0]
    e = x - y
    r2 = e @ e
    k = float(np.exp(-r2 / h))
    sx = target.score(x)
    sy = target.score(y)
    grad_y_k = (2.0 / h) * e * k
    grad_x_k = -(2.0 / h) * e * k
    div = (2.0 * d / h - 4.0 * r2 / (h * h)) * k
    return float(sx @ sy * k + sx @ grad_y_k + grad_x_k @ sy + div)


def stein_kernel_grad_y(x: np.ndarray, y: np.ndarray, target: TargetModel, h: float) -> np.ndarray:
    """Gradient of stein_kernel in its second argument; needs the target's Hessian."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not target.has_hessian:
        raise UnsupportedOperationError("stein kernel gradient needs a log-density Hessian")
    d = x.shape[0]
    e = x - y
    r2 = e @ e
    k = float(np.exp(-r2 / h))
    sx = target.score(x)
    sy = target.score(y)
    hy = target.hessian_log_density(y)
    c = 2.0 / h
    # d/dy of sx.sy K
    g = k * (hy @ sx) + (sx @ sy) * c * e * k
    # d/dy of sx . grad_y K
    g += c * k * (-sx + c * e * (e @ sx))
    # d/dy of grad_x K . sy
    g += hy @ (-c * e * k) + c * k * (sy - c * e * (e @ sy))
    # d/dy of the divergence term
    g += (8.0 / (h * h) + 4.0 * d / (h * h) - 8.0 * r2 / (h * h * h)) * e * k
    return g


def ksdd_first_variation(state: ParticleState, target: TargetModel, h: float,
                         d2=None, k=None, ws=None) -> FirstVariation:
    """First variation of the kernelized Stein discrepancy under the particle cloud.

    The (M, M) stage runs over blocks of rows in ws's buffers (see
    Workspace): b and t hold a block's intermediates, a and c receive the
    rows of the full matrices that the (M, M) x (M, d) products read, and d2
    and k are only read. Without a workspace a fresh one is used.
    """
    if not target.has_hessian:
        raise UnsupportedOperationError("this smoothing rule needs a log-density Hessian")
    x = state.positions
    w = state.weights
    m, d = x.shape
    r2 = squared_distances(x) if d2 is None else d2
    if k is None:
        k = np.exp(r2 / -h)
    if ws is None:
        ws = Workspace(m, d)
    s, hess = target.score_and_hessian(x)  # (M, d), (M, d, d)
    c = 2.0 / h
    sx_dot = np.add.reduce(s * x, axis=1)  # ndarray.sum without its Python wrapper
    n = ws.rows
    st = s.T
    if n == m:  # s @ s.T would go to syrk; a transposed copy keeps it on gemm (see Workspace)
        st = ws.tr
        st[...] = s.T
    u, kw_row, coeff_row = np.empty(m), np.empty(m), np.empty(m)
    for s_i, x_i, sx_i, r2_i, k_i, inner, kw, u_i, kw_row_i, coeff_row_i in row_blocks(
            n, s, x, sx_dot[:, None], r2, k, ws.a, ws.c, u, kw_row, coeff_row):
        b, t = ws.b, ws.t
        if len(s_i) < n:  # the last block of several
            b, t = b[:len(s_i)], t[:len(s_i)]
        # b[i, j] = s_i . (x_i - x_j), and
        # inner = s s^T + c (b + b^T) + (2d/h - (4/h^2) r2), built in place
        np.matmul(s_i, x.T, out=b)
        np.subtract(sx_i, b, out=b)
        np.matmul(s_i, st, out=inner)
        if n == m:
            np.add(b, b.T, out=t)
        else:  # the rows of b^T, computed like b instead of read with a stride
            np.matmul(x_i, st, out=t)
            np.subtract(sx_dot, t, out=t)
            t += b
        t *= c
        inner += t
        np.multiply(r2_i, 4.0 / (h * h), out=t)
        np.subtract(2.0 * d / h, t, out=t)
        inner += t
        gram = np.multiply(inner, k_i, out=b)
        np.matmul(gram, w, out=u_i)  # u[i] = sum_j w_j k(x_j, x_i); gram is symmetric
        np.multiply(k_i, w, out=kw)
        np.add.reduce(kw, axis=1, out=kw_row_i)
        # e[i, j] = x_j - x_i ("x" role is particle j, "y" role the evaluation point x_i);
        # every sum over j of coeff_ij * e_ij collapses to (C x)_i - (C 1)_i x_i.
        # In this convention e_ij . s_j = b[j, i] and e_ij . s_i = -b[i, j], and the
        # full e-directed coefficient c*sxsy + c^2(b + b^T) + 8/h^2 + 4d/h^2 - 8 r2/h^3
        # simplifies to c*inner + 8/h^2.
        coeff = inner
        coeff *= c
        coeff += 8.0 / (h * h)
        coeff *= kw
        np.add.reduce(coeff, axis=1, out=coeff_row_i)
    # the (M, M) x (M, d) products run on the full matrices: row blocks of
    # them would round differently
    kw, coeff = ws.c, ws.a
    grad = coeff @ x - coeff_row[:, None] * x
    # Hessian-directed terms: H(x_i) [sum_j w_j K_ij s_j - c sum_j w_j K_ij e_ij]
    kws = kw @ s
    hvec = kws - c * (kw @ x - kw_row[:, None] * x)
    grad += np.matmul(hess, hvec[:, :, None])[:, :, 0]
    # score-directed terms
    grad += c * (kw_row[:, None] * s - kws)
    return FirstVariation(u=u, grad_u=grad)


SMOOTHING_RULES = {
    "BLOB": blob_first_variation,
    "GFSD": gfsd_first_variation,
    "KSDD": ksdd_first_variation,
}


def first_variation(state: ParticleState, target: TargetModel, h: float, rule: str,
                    d2=None, k=None, ws=None) -> FirstVariation:
    """The rule's first variation; d2 and k are reused when given, ws is scratch (see Workspace)."""
    try:
        fn = SMOOTHING_RULES[rule.upper()]
    except KeyError:
        raise ValueError("unknown smoothing rule %r" % rule) from None
    return fn(state, target, h, d2=d2, k=k, ws=ws)
