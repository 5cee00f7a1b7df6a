"""Single-iteration steppers for all accelerated, first-order and baseline methods.

Every stepper is a pure map from the iteration-k state to the iteration-k+1
state: positions, velocities and weights are each updated from frozen
iteration-k quantities (Jacobi order), so the three sub-updates commute.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    InvalidArgumentError,
    KernelConfig,
    ParticleState,
    Workspace,
    rbf_kernel_matrix,
    row_blocks,
    squared_distances,
    weighted_mean_covariance,
)
from .smoothing import SMOOTHING_RULES, FirstVariation
from .targets import TargetModel

METRICS = ("W", "KW", "S")
SMOOTHINGS = ("BLOB", "GFSD", "KSDD")
WEIGHT_MODES = ("fixed", "CA", "DK")


class NumericalDivergenceError(FloatingPointError):
    """Raised when a sub-update produces a non-finite particle."""


class ConfigurationError(ValueError):
    """Raised for incompatible method/target combinations or unknown method ids."""


@dataclass
class DynamicsConfig:
    """Weight mode, step sizes and damping of a stepper.

    The metric and the smoothing rule come from the method id alone, and
    make_stepper sets weight_mode from it too; weight_mode matters only to the
    step functions called directly. eta_wei is ramped up over total_steps
    when warmup is on; ca_variant picks the CA weight rule.
    """

    weight_mode: str = "fixed"
    eta_pos: float = 1e-2
    eta_vel: float = 1.0
    eta_wei: float = 1e-2
    gamma: float = 0.3
    lambda_kw: float = 1.0
    warmup: bool = True
    total_steps: int = 2000
    ca_variant: str = "multiplicative"  # multiplicative | as_printed

    def __post_init__(self):
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigurationError("weight_mode must be one of %s" % (WEIGHT_MODES,))
        if self.ca_variant not in ("multiplicative", "as_printed"):
            raise ConfigurationError("unknown ca_variant %r" % self.ca_variant)
        for name in ("eta_pos", "eta_vel", "eta_wei", "gamma", "lambda_kw"):
            if getattr(self, name) < 0:
                raise ConfigurationError("%s must be nonnegative" % name)
        if self.total_steps < 1:
            raise ConfigurationError("total_steps must be >= 1")
        decay = 1.0 - self.gamma * self.eta_vel
        if not -1.0 <= decay <= 1.0:
            raise ConfigurationError(
                "velocity decay factor 1 - gamma*eta_vel = %g is outside [-1, 1]" % decay
            )
        if decay < 0.0:
            warnings.warn(
                "velocity decay factor 1 - gamma*eta_vel = %g is negative; "
                "the velocity field will oscillate" % decay,
                stacklevel=2,
            )


class StepRng:
    """Counter-based random streams addressed by (seed, iteration, tag).

    Streams are rewound to the addressed counter on demand, so identical
    addresses produce identical draws regardless of evaluation order. The
    returned generator is a shared handle; it is only valid until the next
    stream() call on the same StepRng.
    """

    DK_TAG = 2**48
    INIT_TAG = 2**48 + 1
    REFERENCE_TAG = 2**48 + 2

    def __init__(self, seed: int):
        self.seed = int(seed) & (2**64 - 1)
        # one kept state dict, its counter set in place, rewinds the cached
        # bit generator far more cheaply than a new Philox or state dict per
        # call, which matters on the DK path
        self._bitgen = np.random.Philox(key=self.seed)
        self._state = self._bitgen.state
        self._counter = self._state["state"]["counter"]
        self._gen = np.random.Generator(self._bitgen)

    def stream(self, iteration: int, tag: int) -> np.random.Generator:
        self._counter[2] = iteration
        self._counter[3] = tag
        self._bitgen.state = self._state
        return self._gen


def effective_eta_wei(cfg: DynamicsConfig, iteration: int) -> float:
    """Weight step size at a given iteration, with the optional tanh ramp-up schedule."""
    if not cfg.warmup:
        return cfg.eta_wei
    t = iteration / cfg.total_steps
    return cfg.eta_wei * math.tanh(2.0 * t**5)


def _require_finite(arr: np.ndarray, what: str, iteration: int):
    finite = np.isfinite(arr)
    if not finite.all():
        bad = int(np.argwhere(~finite.reshape(arr.shape[0], -1).all(axis=1))[0, 0])
        raise NumericalDivergenceError(
            "non-finite %s for particle %d at iteration %d" % (what, bad, iteration)
        )


def ca_weight_update(weights, u, eta, variant="multiplicative"):
    """Deterministic weight step driven by the centered first variation.

    Returns (new_weights, clamp_count). The multiplicative variant moves each
    weight by -eta*(u - mean_u)*w, which telescopes to zero net mass change;
    the as_printed variant drops the trailing w factor. Negative results are
    clamped to zero and the vector renormalized.
    """
    weights = np.asarray(weights, dtype=float)
    u = np.asarray(u, dtype=float)
    centered = u - weights @ u
    if variant == "multiplicative":
        new = weights - eta * centered * weights
    elif variant == "as_printed":
        new = weights - eta * centered
    else:
        raise InvalidArgumentError("unknown ca_variant %r" % variant)
    clamps = int(np.count_nonzero(new < 0.0))
    if clamps:
        new = np.maximum(new, 0.0)
    total = np.add.reduce(new)
    if total <= 0.0:
        raise NumericalDivergenceError(
            "all weights clamped to zero; eta_wei is too large for this state"
        )
    return new / total, clamps


@dataclass
class DkOutcome:
    state: ParticleState
    events: list
    skipped: int

    @property
    def event_count(self) -> int:
        return len(self.events)


def dk_resample(state: ParticleState, u, eta, rng: StepRng) -> DkOutcome:
    """Stochastic duplicate/kill reweighting that keeps the weights uniform.

    Rates are frozen from the pre-step state; events are applied sequentially
    in a seeded random permutation. A positive rate duplicates the owning
    particle onto a uniformly chosen victim slot; a negative rate replaces the
    owner with a uniformly chosen survivor. Kill events with a single particle
    are skipped (the system may never empty) and counted separately.
    """
    w = state.weights
    m = state.num_particles
    if not (w == w[0]).all():
        raise InvalidArgumentError("duplicate/kill requires uniform weights")
    u = np.asarray(u, dtype=float)
    rates = -eta * (u - w @ u)
    gen = rng.stream(state.iteration, StepRng.DK_TAG)
    coin = gen.random(m)
    # fire with probability 1 - exp(-|rate|); -expm1 of a nonpositive value never
    # overflows, and a zero rate gives probability 0, which coin in [0, 1) never beats
    fire = coin < -np.expm1(-np.abs(rates))
    if not fire.any():
        return DkOutcome(state=state, events=[], skipped=0)
    order = gen.permutation(m)
    partner = gen.integers(0, max(m - 1, 1), size=m)
    pos = state.positions.copy()
    vel = state.velocities.copy()
    events = []
    skipped = 0
    for i in order:
        if not fire[i]:
            continue
        if m == 1:
            skipped += 1
            continue
        p = partner[i] if partner[i] < i else partner[i] + 1
        if rates[i] > 0.0:
            pos[p] = pos[i]
            vel[p] = vel[i]
            events.append(("duplicate", int(i), int(p)))
        else:
            pos[i] = pos[p]
            vel[i] = vel[p]
            events.append(("kill", int(i), int(p)))
    new_state = ParticleState._trusted(pos, vel, w.copy(), state.iteration)
    return DkOutcome(state=new_state, events=events, skipped=skipped)


def _fixed_weights(state, cfg, rng, new_pos, new_vel, u, counters):
    return new_pos, new_vel, state.weights.copy()


def _ca_weights(state, cfg, rng, new_pos, new_vel, u, counters):
    eta = effective_eta_wei(cfg, state.iteration)
    if eta == 0.0:
        return new_pos, new_vel, state.weights.copy()
    new_w, clamps = ca_weight_update(state.weights, u, eta, cfg.ca_variant)
    if counters is not None:
        counters["clamp_count"] += clamps
    return new_pos, new_vel, new_w


def _dk_weights(state, cfg, rng, new_pos, new_vel, u, counters):
    eta = effective_eta_wei(cfg, state.iteration)
    if eta == 0.0:
        return new_pos, new_vel, state.weights.copy()
    # DK may also rewrite particle rows; a step without events returns staged as is
    staged = ParticleState._trusted(new_pos, new_vel, state.weights.copy(), state.iteration)
    out = dk_resample(staged, u, eta, rng)
    if counters is not None:
        counters["dk_event_count"] += out.event_count + out.skipped
    return out.state.positions, out.state.velocities, out.state.weights


# weight mode -> rule(state, cfg, rng, new_pos, new_vel, u, counters) -> (pos, vel, weights)
WEIGHT_RULES = {"fixed": _fixed_weights, "CA": _ca_weights, "DK": _dk_weights}


def _finish(state, cfg, rng, new_pos, new_vel, u, counters, weigh):
    """Check the moved particles, apply the weight rule weigh and stamp iteration k+1."""
    # a finite sum implies all entries finite; fall back to the slow scan for the message
    # np.add.reduce(a, None) is a.sum() without the Python wrapper around it
    if not math.isfinite(float(np.add.reduce(new_pos, None) + np.add.reduce(new_vel, None)
                               + np.add.reduce(u))):
        _require_finite(new_pos, "position", state.iteration)
        _require_finite(new_vel, "velocity", state.iteration)
        _require_finite(u, "first variation", state.iteration)
    new_pos, new_vel, new_w = weigh(state, cfg, rng, new_pos, new_vel, u, counters)
    return ParticleState._trusted(new_pos, new_vel, new_w, state.iteration + 1)


# Metric terms of the accelerated step: (position move eta_pos*T(v), velocity coupling C(v)).


def _w_terms(state, cfg, h, k, ws):
    """Flat transport: the particles move along their own velocities, with no coupling."""
    return cfg.eta_pos * state.velocities, None


def _kw_terms(state, cfg, h, k, ws):
    """Transport preconditioned by the regularized weighted covariance C + lambda I."""
    mean, cov = weighted_mean_covariance(state.positions, state.weights)
    ridge = cfg.lambda_kw * np.eye(state.dim) if ws is None else ws.ridge
    move = cfg.eta_pos * state.velocities @ (cov + ridge).T
    # coupling[i] = [sum_j w_j v_j v_j^T] (x_i - m)
    vv = (state.velocities * state.weights[:, None]).T @ state.velocities
    return move, (state.positions - mean) @ vv.T


def _s_terms(state, cfg, h, k, ws):
    """Kernel-averaged transport with its velocity coupling."""
    x, v = state.positions, state.velocities
    if k is None:
        k = rbf_kernel_matrix(x, h=h)
    if ws is None:
        ws = Workspace(*x.shape)
    vt = v.T
    if ws.rows == len(x):  # v @ v.T would go to syrk; a transposed copy keeps it on gemm
        vt = ws.tr
        vt[...] = v.T
    coeff_row = np.empty(len(x))
    # coupling[i] = sum_j w_j (v_i . v_j) dK/dx_i(x_i, x_j), built one block of rows at a time
    for k_i, v_i, kw, coeff, coeff_row_i in row_blocks(
            ws.rows, k, v, ws.a, ws.c, coeff_row):
        np.multiply(k_i, state.weights, out=kw)
        np.matmul(v_i, vt, out=coeff)
        coeff *= kw
        np.add.reduce(coeff, axis=1, out=coeff_row_i)
        kw *= cfg.eta_pos
    coupling = -(2.0 / h) * (x * coeff_row[:, None] - ws.c @ x)
    return ws.a @ v, coupling


METRIC_TERMS = {"W": _w_terms, "KW": _kw_terms, "S": _s_terms}


def _accelerate(terms, weigh, state, fv, cfg, rng, counters, h, k, ws):
    """gad_step with its metric terms and weight rule resolved."""
    move, coupling = terms(state, cfg, h, k, ws)
    new_vel = (1.0 - cfg.gamma * cfg.eta_vel) * state.velocities
    if coupling is not None:
        new_vel = new_vel - cfg.eta_vel * coupling
    new_vel = new_vel - cfg.eta_vel * fv.grad_u
    return _finish(state, cfg, rng, state.positions + move, new_vel, fv.u, counters, weigh)


def gad_step(metric, state, fv: FirstVariation, cfg: DynamicsConfig, rng: StepRng,
             counters=None, h=None, k=None, ws=None):
    """Accelerated step: x += eta_pos T(v), v <- (1 - gamma eta_vel) v - eta_vel (C(v) + grad u).

    The metric fixes the transport T and the coupling C; h and k (the RBF
    bandwidth and kernel matrix) are read by the S metric only. ws is the
    caller's Workspace, if any, for the S metric's scratch and KW's ridge.
    """
    return _accelerate(METRIC_TERMS[metric], WEIGHT_RULES[cfg.weight_mode], state, fv, cfg, rng,
                       counters, h, k, ws)


wgad_step = functools.partial(gad_step, "W")
kwgad_step = functools.partial(gad_step, "KW")
sgad_step = functools.partial(gad_step, "S")


def _descend(weigh, state, fv, cfg, rng, counters, h=None, k=None, ws=None):
    """first_order_step with its weight rule resolved; h, k and ws are not read."""
    new_pos = state.positions - cfg.eta_pos * fv.grad_u
    return _finish(state, cfg, rng, new_pos, state.velocities.copy(), fv.u, counters, weigh)


def first_order_step(state, fv: FirstVariation, cfg: DynamicsConfig, rng: StepRng, counters=None):
    """Plain descent on the smoothed first variation; velocities stay untouched."""
    return _descend(WEIGHT_RULES[cfg.weight_mode], state, fv, cfg, rng, counters)


def svgd_step(state: ParticleState, target: TargetModel, h: float, eta_pos: float, k=None):
    """Kernelized score-ascent step with pairwise repulsion; fixed uniform weights."""
    w = state.weights
    if not (w == w[0]).all():
        raise InvalidArgumentError("this stepper requires uniform weights")
    x = state.positions
    m = state.num_particles
    if k is None:
        k = rbf_kernel_matrix(x, h=h)
    scores = np.atleast_2d(target.score(x))
    repulsion = (2.0 / h) * (x * np.add.reduce(k, axis=1)[:, None] - k @ x)
    drift = (k @ scores + repulsion) / m
    new_pos = x + eta_pos * drift
    _require_finite(new_pos, "position", state.iteration)
    return ParticleState._trusted(new_pos, state.velocities.copy(), w.copy(), state.iteration + 1)


def wnes_lookahead(state: ParticleState, k: int) -> np.ndarray:
    """Nesterov lookahead x_k + (k-1)/(k+2) v, where WNES keeps v = x_k - x_{k-1}."""
    return state.positions + (k - 1.0) / (k + 2.0) * state.velocities


def wnes_step(state, fv_at_lookahead: FirstVariation, eta_pos: float, k: int):
    """Momentum-extrapolated descent: gradient taken at the lookahead point."""
    if k < 1:
        raise InvalidArgumentError("step counter k must be >= 1")
    new_pos = wnes_lookahead(state, k) - eta_pos * fv_at_lookahead.grad_u
    _require_finite(new_pos, "position", state.iteration)
    return ParticleState._trusted(new_pos, new_pos - state.positions, state.weights.copy(),
                                  state.iteration + 1)


def _wnes_update(state, fv, cfg, rng, counters, h, k, ws):
    return wnes_step(state, fv, cfg.eta_pos, state.iteration + 1)


# ---------------------------------------------------------------------------
# Method registry


@dataclass(frozen=True)
class MethodSpec:
    name: str
    kind: str  # gad | first_order | svgd | wnes
    metric: str = "W"
    smoothing: str = "BLOB"
    weight_mode: str = "fixed"


# every accepted id: the metric x weight-mode x smoothing grid of accelerated
# methods (fixed weights: WAIG/KWAIG/SAIG), its first-order row (fixed: the
# bare smoothing name, else DPVI), the momentum baseline WNES and SVGD
METHODS = {spec.name: spec for spec in (
    [MethodSpec("%sGAD-%s-%s" % (m, w, s) if w != "fixed" else "%sAIG-%s" % (m, s), "gad", m, s, w)
     for m in METRICS for w in WEIGHT_MODES for s in SMOOTHINGS]
    + [MethodSpec("DPVI-%s-%s" % (w, s) if w != "fixed" else s, "first_order", "W", s, w)
       for w in WEIGHT_MODES for s in SMOOTHINGS]
    + [MethodSpec("WNES-" + s, "wnes", "W", s) for s in SMOOTHINGS]
    + [MethodSpec("SVGD", "svgd")]
)}

BASELINE_METHODS = ["BLOB", "GFSD", "KSDD", "SVGD", "WAIG-BLOB", "WNES-BLOB", "DPVI-CA-BLOB",
                    "DPVI-DK-BLOB"]

CANONICAL_METHODS = [
    name for name, spec in METHODS.items() if spec.kind == "gad" and spec.weight_mode != "fixed"
] + BASELINE_METHODS


def parse_method(name: str) -> MethodSpec:
    """Resolve a method id (case-insensitive) to its family, metric, smoothing rule and weight mode.

    Beyond the canonical registry, every other combination of the grid
    (e.g. WAIG-GFSD, DPVI-CA-GFSD) is accepted.
    """
    spec = METHODS.get(name.strip().upper())
    if spec is None:
        raise ConfigurationError(
            "unknown method %r; valid ids include: %s" % (name, ", ".join(CANONICAL_METHODS))
        )
    return spec


class Stepper:
    """Deterministic one-iteration stepper for a registered method.

    A pure map of ParticleState apart from the weight-clamp, duplicate/kill and
    floored-mixture counters it accumulates across calls. It also keeps a
    Workspace of scratch buffers, sized on the first call and again only when
    the cloud's shape changes; their contents never outlive a call, and the
    returned state shares no memory with them. One stepper is therefore not
    for concurrent use from two threads. The method's smoothing rule and its
    update (metric terms and weight rule included) are looked up once, here,
    not on every call.
    """

    def __init__(self, spec: MethodSpec, target: TargetModel, cfg: DynamicsConfig,
                 kernel: KernelConfig, rng: StepRng):
        self.spec = spec
        self.target = target
        self.cfg = cfg
        self.kernel = kernel
        self.rng = rng
        self.counters = {"clamp_count": 0, "dk_event_count": 0, "floored_count": 0}
        self._ws = None
        self._lookahead = spec.kind == "wnes"
        # SVGD needs no first variation; every other update is
        # (state, fv, cfg, rng, counters, h, k, ws) -> next state
        self._smooth = None if spec.kind == "svgd" else SMOOTHING_RULES[spec.smoothing]
        weigh = WEIGHT_RULES[cfg.weight_mode]
        self._update = {
            "gad": functools.partial(_accelerate, METRIC_TERMS[spec.metric], weigh),
            "first_order": functools.partial(_descend, weigh),
            "wnes": _wnes_update,
            "svgd": None,
        }[spec.kind]

    def __getstate__(self):
        # the workspace is scratch that the next call rebuilds, and its mmap cannot be pickled
        return {**self.__dict__, "_ws": None}

    def __call__(self, state: ParticleState) -> ParticleState:
        cfg = self.cfg
        at = state  # WNES evaluates the smoothing at its lookahead point
        if self._lookahead:
            at = ParticleState._trusted(wnes_lookahead(state, state.iteration + 1),
                                        state.velocities, state.weights, state.iteration)
        ws = self._ws
        if ws is None or ws.shape != state.positions.shape:
            ws = self._ws = Workspace(*state.positions.shape, ridge=cfg.lambda_kw)
        d2 = squared_distances(at.positions, out=ws.d2, work=ws.k)
        h = self.kernel.resolve(at.positions, d2)
        k = np.divide(d2, -h, out=ws.k)
        np.exp(k, out=k)
        if self._smooth is None:
            return svgd_step(state, self.target, h, cfg.eta_pos, k=k)
        try:
            fv = self._smooth(at, self.target, h, d2=d2, k=k, ws=ws)
        except (FloatingPointError, OverflowError) as exc:
            row = getattr(exc, "row", None)  # set by targets that know the failing point
            raise NumericalDivergenceError(
                "first variation diverged%s at iteration %d: %s"
                % ("" if row is None else " for particle %d" % row, state.iteration, exc)
            ) from exc
        self.counters["floored_count"] += fv.floored
        return self._update(state, fv, cfg, self.rng, self.counters, h, k, ws)


def make_stepper(method: str, target: TargetModel, cfg: DynamicsConfig | None = None,
                 kernel: KernelConfig | None = None, rng: StepRng | None = None) -> Stepper:
    """Build a stepper for any registered method id against a target."""
    spec = parse_method(method)
    cfg = cfg if cfg is not None else DynamicsConfig()
    cfg = replace(cfg, weight_mode=spec.weight_mode)
    if spec.smoothing == "KSDD" and spec.kind != "svgd" and not target.has_hessian:
        raise ConfigurationError(
            "method %s needs a target with a log-density Hessian" % spec.name
        )
    return Stepper(spec, target, cfg, kernel or KernelConfig(), rng or StepRng(0))
