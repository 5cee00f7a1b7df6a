"""Experiment orchestration: config parsing, seeding, the run loop, and CSV/SVG output."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import InvalidArgumentError, KernelConfig, ParticleState, empirical_moments
from .dynamics import (
    CANONICAL_METHODS,
    ConfigurationError,
    DynamicsConfig,
    StepRng,
    make_stepper,
    parse_method,
)
from .metrics import WeightedCloud, mode_mass, moment_errors, wasserstein2_exact
from .targets import (
    GaussianMixtureTarget,
    GaussianTarget,
    ParseError,
    gmm_target,
    gp_target,
    load_two_column_csv,
    sg_target,
    synthetic_gp_data,
)

_UNSET = float("nan")


def default_hyperparameters(method: str, target_kind: str) -> dict:
    """Per-method step sizes and damping used when the config leaves them unset."""
    spec = parse_method(method)
    gp = target_kind == "gp"
    blob = spec.smoothing == "BLOB"

    eta_pos = 1e-2
    eta_vel = 1.0
    gamma = 0.3
    if spec.kind == "gad":
        if spec.metric == "S":
            if gp:
                eta_pos = 2e-2 if blob else 1e-2
                gamma = 0.7 if blob else 0.6
            else:
                eta_pos = 5e-2 if target_kind == "sg" else 2.5e-2
                gamma = 0.9
        elif spec.metric == "KW":
            # The quadratic velocity coupling makes eta_vel = 1 unstable at
            # desk scale; keep the velocity decay factor but integrate the
            # velocity field with a smaller step.
            eta_vel = 0.1
            if gp:
                eta_pos = 5e-3 if blob else 1e-3
                gamma = 8.0 if blob else 7.0
            else:
                gamma = 9.0
        else:  # W metric
            gamma = (0.4 if blob else 0.3) if gp else 0.3

    if spec.weight_mode == "fixed":
        ratio = 0.0
    elif spec.weight_mode == "DK":
        if gp:
            ratio = 0.01
        elif spec.kind == "first_order":
            ratio = 1.0
        else:
            ratio = 5e-2
    else:  # CA
        if gp:
            ratio = 0.1 if blob else 0.3
        elif spec.kind == "first_order" or spec.metric == "W":
            ratio = 0.8 if (target_kind == "gmm" and spec.smoothing == "GFSD") else 1.0
        else:
            ratio = 5e-3

    return {
        "eta_pos": eta_pos,
        "eta_wei": ratio * eta_pos,
        "eta_vel": eta_vel,
        "gamma": gamma,
    }


@dataclass
class ExperimentConfig:
    """Flat description of one run: method, target, sizes, seeding and step sizes.

    Step sizes left as NaN are filled from the per-method defaults table.
    Target ids: sg10 / sg:<d> / gmm10 / gmm:<d> / gp.
    """

    method: str = "WGAD-CA-BLOB"
    target: str = "gmm10"
    particles: int = 64
    iterations: int = 0  # 0 -> per-target default (2000 synthetic, 10000 gp)
    record_every: int = 100
    seed: int = 0
    init_mean: float | None = None
    init_scale: float | None = None  # sigma_0^2
    eta_pos: float = _UNSET
    eta_vel: float = _UNSET
    eta_wei: float = _UNSET
    gamma: float = _UNSET
    lambda_kw: float = 1.0
    warmup: bool = True
    ca_variant: str = "multiplicative"
    reference_samples: int = 2000
    data_path: str | None = None
    prior_mode: str = "log1p_quadratic"
    timing: bool = False
    bandwidth_mode: str = "nearest_neighbor"
    fixed_h: float = 1.0

    def __post_init__(self):
        if self.particles < 1:
            raise ConfigurationError("particles must be >= 1")
        if self.iterations < 0:
            raise ConfigurationError("iterations must be >= 1 (or 0 for the default)")
        if self.record_every < 1:
            raise ConfigurationError("record_every must be >= 1")
        if self.reference_samples < 1:
            raise ConfigurationError("reference_samples must be >= 1")
        parse_method(self.method)  # validates the id
        self.target_kind, self.target_dim = _parse_target_id(self.target)

    def run_stem(self) -> str:
        """File stem of this run's outputs: <method>_<target>_M<particles>_seed<seed>."""
        return "%s_%s_M%d_seed%d" % (self.method, self.target, self.particles, self.seed)

    def resolved_iterations(self) -> int:
        if self.iterations:
            return self.iterations
        return 10000 if self.target_kind == "gp" else 2000

    def resolved_init(self):
        defaults = {
            "sg": (0.0, 0.5),
            "gmm": (0.0, 1.0),
            "gp": (np.array([0.0, -10.0]), 0.09),
        }
        mean, scale = defaults[self.target_kind]
        if self.init_mean is not None:
            mean = self.init_mean
        if self.init_scale is not None:
            scale = self.init_scale
        if scale <= 0:
            raise ConfigurationError("init_scale must be positive")
        return mean, scale

    def dynamics_config(self) -> DynamicsConfig:
        hyper = default_hyperparameters(self.method, self.target_kind)
        for key in ("eta_pos", "eta_vel", "eta_wei", "gamma"):
            value = getattr(self, key)
            if not np.isnan(value):
                hyper[key] = value
        return DynamicsConfig(
            lambda_kw=self.lambda_kw,
            warmup=self.warmup,
            total_steps=self.resolved_iterations(),
            ca_variant=self.ca_variant,
            **hyper,
        )


def _parse_target_id(ident: str):
    ident = ident.strip().lower()
    if ident == "gp":
        return "gp", 2
    for kind in ("sg", "gmm"):
        if ident.startswith(kind):
            rest = ident[len(kind):]
            if rest.startswith(":"):
                rest = rest[1:]
            if not rest.isdigit() or int(rest) < 1:
                raise ConfigurationError("bad target id %r; expected e.g. %s10 or %s:4" % (ident, kind, kind))
            return kind, int(rest)
    raise ConfigurationError(
        "unknown target %r; valid kinds: sg10, sg:<d>, gmm10, gmm:<d>, gp" % ident
    )


def _parse_bool(text: str) -> bool:
    if text.lower() not in ("true", "false", "0", "1"):
        raise ValueError("expected a boolean")
    return text.lower() in ("true", "1")


def _field_parsers(cls) -> dict:
    """Field name -> parser of its text form, read from the annotation string
    (this module defers annotations); "float | None" parses as float."""
    by_type = {"bool": _parse_bool, "int": int, "float": float, "str": str}
    return {f.name: by_type[f.type.split(" | ")[0]] for f in fields(cls)}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key=value config format ('#' starts a comment)."""
    parsers = _field_parsers(ExperimentConfig)
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("line %d: expected key=value, got %r" % (lineno, raw))
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in parsers:
            raise ParseError("line %d: unknown config key %r" % (lineno, key))
        try:
            values[key] = parsers[key](value.strip())
        except ValueError as exc:
            raise ParseError("line %d: bad value for %s: %s" % (lineno, key, exc)) from None
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def build_target(cfg: ExperimentConfig):
    if cfg.target_kind == "sg":
        return sg_target(cfg.target_dim)
    if cfg.target_kind == "gmm":
        return gmm_target(cfg.target_dim)
    data = load_two_column_csv(cfg.data_path) if cfg.data_path else synthetic_gp_data()
    return gp_target(data, prior_mode=cfg.prior_mode)


def init_particles(cfg: ExperimentConfig, rng: StepRng) -> ParticleState:
    """Gaussian positions N(mu0, sigma0^2 I), zero velocities, uniform weights."""
    mean, scale = cfg.resolved_init()
    gen = rng.stream(0, StepRng.INIT_TAG)
    m, d = cfg.particles, cfg.target_dim
    positions = np.asarray(mean, dtype=float) + np.sqrt(scale) * gen.standard_normal((m, d))
    return ParticleState(
        positions=positions,
        velocities=np.zeros((m, d)),
        weights=np.full(m, 1.0 / m),
        iteration=0,
    )


def reference_cloud(cfg: ExperimentConfig, target, rng: StepRng) -> WeightedCloud | None:
    """Fixed-seed i.i.d. sample from the closed-form target (synthetic targets only)."""
    gen = rng.stream(0, StepRng.REFERENCE_TAG)
    n = cfg.reference_samples
    if isinstance(target, GaussianMixtureTarget):
        comp = gen.random(n) < target.weights[0]
        points = np.where(comp[:, None], target.means[0], target.means[1])
        points = points + gen.standard_normal((n, target.dim))
        return WeightedCloud.uniform(points)
    if isinstance(target, GaussianTarget):
        chol = np.linalg.cholesky(target.cov)
        points = gen.standard_normal((n, target.dim)) @ chol.T
        return WeightedCloud.uniform(points)
    return None  # no closed-form sampler; moment drift is recorded instead


@dataclass
class ExperimentRecord:
    """One checkpoint's diagnostics. Its fields, in order, are the CSV columns;
    a None is written as an empty cell."""

    iteration: int
    wall_seconds: float
    w2: float | None
    mean_err: float
    cov_err: float
    mode_mass: float | None
    min_weight: float
    max_weight: float
    clamp_count: int
    dk_event_count: int

    def __post_init__(self):
        values = [v for f in fields(self) if (v := getattr(self, f.name)) is not None]
        if not np.all(np.isfinite(values)):
            raise InvalidArgumentError("record at iteration %d has non-finite fields" % self.iteration)


class _Recorder:
    """Computes one diagnostics row per checkpoint against the fixed reference."""

    def __init__(self, cfg: ExperimentConfig, target, reference):
        self.cfg = cfg
        self.target = target
        self.reference = reference
        self._prev_moments = None
        self._start = time.perf_counter()

    def row(self, state: ParticleState, stepper) -> ExperimentRecord:
        cfg = self.cfg
        wall = time.perf_counter() - self._start if cfg.timing else 0.0
        w2 = None
        if self.reference is not None:
            w2 = wasserstein2_exact(WeightedCloud.from_state(state), self.reference)
        moments = empirical_moments(state)
        if cfg.target_kind != "gp":
            mean_err, cov_err = moment_errors(state, self.target.mean, self.target.cov)
        elif self._prev_moments is None:
            # no closed-form GP moments: record drift since the previous checkpoint
            mean_err, cov_err = 0.0, 0.0
        else:
            pm, pc = self._prev_moments
            mean_err = float(np.linalg.norm(moments.mean - pm))
            cov_err = float(np.linalg.norm(moments.covariance - pc, ord="fro"))
        self._prev_moments = (moments.mean, moments.covariance)
        mm = None
        if cfg.target_kind == "gmm":
            mm = mode_mass(state, self.target.means[0], self.target.means[1])
        return ExperimentRecord(
            iteration=state.iteration,
            wall_seconds=wall,
            w2=w2,
            mean_err=mean_err,
            cov_err=cov_err,
            mode_mass=mm,
            min_weight=float(state.weights.min()),
            max_weight=float(state.weights.max()),
            clamp_count=stepper.counters["clamp_count"],
            dk_event_count=stepper.counters["dk_event_count"],
        )


def run_experiment(cfg: ExperimentConfig):
    """Run one configured experiment; returns (records, final_state)."""
    target = build_target(cfg)
    rng = StepRng(cfg.seed)
    state = init_particles(cfg, rng)
    kernel = KernelConfig(bandwidth_mode=cfg.bandwidth_mode, fixed_h=cfg.fixed_h)
    stepper = make_stepper(cfg.method, target, cfg.dynamics_config(), kernel, rng)
    recorder = _Recorder(cfg, target, reference_cloud(cfg, target, rng))
    total = cfg.resolved_iterations()
    records = []
    for k in range(total):
        if k % cfg.record_every == 0:
            records.append(recorder.row(state, stepper))
        state = stepper(state)
    records.append(recorder.row(state, stepper))
    return records, state


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


CSV_HEADER = ",".join(f.name for f in fields(ExperimentRecord))


def write_csv(records, path):
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join(_cell(getattr(r, f.name)) for f in fields(ExperimentRecord)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv_records(path):
    """Round-trip reader for write_csv output; empty cells come back as None."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ParseError("unexpected CSV header in %s" % path)
    parsers = _field_parsers(ExperimentRecord).items()
    return [
        ExperimentRecord(**{name: parse(cell) if cell else None
                            for (name, parse), cell in zip(parsers, line.split(","), strict=True)})
        for line in lines[1:]
    ]


def write_svg_lineplot(records, field_name: str, path, width=640, height=480):
    """Self-contained SVG line plot of one record field against iteration."""
    pairs = [(r.iteration, getattr(r, field_name)) for r in records
             if getattr(r, field_name) is not None]
    if not pairs:
        raise InvalidArgumentError("no values recorded for field %r" % field_name)
    xs = np.array([p[0] for p in pairs], dtype=float)
    ys = np.array([p[1] for p in pairs], dtype=float)
    margin = 50.0
    x_span = xs.max() - xs.min() or 1.0
    y_span = ys.max() - ys.min() or 1.0
    px = margin + (xs - xs.min()) / x_span * (width - 2 * margin)
    py = height - margin - (ys - ys.min()) / y_span * (height - 2 * margin)
    points = " ".join("%.2f,%.2f" % (a, b) for a, b in zip(px, py))
    svg = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>'
        % (margin, height - margin, width - margin, height - margin),
        '<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>'
        % (margin, margin, margin, height - margin),
        '<text x="%.1f" y="%.1f" font-size="12">%s</text>'
        % (width / 2.0, height - 10.0, field_name),
        '<text x="%.1f" y="%.1f" font-size="10">%g</text>' % (margin, margin - 6.0, ys.max()),
        '<text x="%.1f" y="%.1f" font-size="10">%g</text>'
        % (margin, height - margin + 14.0, ys.min()),
        '<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="%s"/>' % points,
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(svg) + "\n")


# record fields whose final values sweep aggregates into summary.csv
_SUMMARY_FIELDS = ("w2", "mean_err", "cov_err")


def sweep(cfg: ExperimentConfig, particle_grid, seeds, out_dir):
    """Run a particle-count x seed grid and aggregate final-record metrics.

    Writes one CSV per run plus summary.csv with per-cell mean/std of the
    final w2, mean_err and cov_err across seeds.
    """
    seeds = list(seeds)  # iterated once per particle count
    os.makedirs(out_dir, exist_ok=True)
    summary = [",".join(["method", "target", "particles", "seeds"]
                        + ["%s_%s" % (name, stat) for name in _SUMMARY_FIELDS
                           for stat in ("mean", "std")])]
    for m in particle_grid:
        finals = []
        for seed in seeds:
            run_cfg = replace(cfg, particles=m, seed=seed)
            records, _ = run_experiment(run_cfg)
            write_csv(records, os.path.join(out_dir, run_cfg.run_stem() + ".csv"))
            finals.append(records[-1])
        row = [cfg.method, cfg.target, str(m), str(len(seeds))]
        for name in _SUMMARY_FIELDS:
            values = np.array([getattr(f, name) for f in finals
                               if getattr(f, name) is not None], dtype=float)
            row += [_cell(values.mean()), _cell(values.std())] if values.size else ["", ""]
        summary.append(",".join(row))
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(summary) + "\n")
    return summary_path


def load_point_cloud_csv(path) -> WeightedCloud:
    """Read a cloud from CSV: coordinate columns, optional 'mass' column, optional header."""
    import csv as _csv

    rows = []
    mass_col = None
    width = None  # the header's column count, else the first data row's
    with open(path, newline="", encoding="utf-8") as fh:
        reader = _csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                values = [float(c) for c in row]
            except ValueError:
                if lineno == 1 and not rows:
                    names = [c.strip().lower() for c in row]
                    if "mass" in names:
                        mass_col = names.index("mass")
                    width = len(row)
                    continue
                raise ParseError("line %d: non-numeric cell in %r" % (lineno, row)) from None
            if not np.all(np.isfinite(values)):
                raise ParseError("line %d: non-finite cell in %r" % (lineno, row))
            width = width or len(values)
            if len(values) != width:
                raise ParseError("line %d: %d columns where the cloud has %d"
                                 % (lineno, len(values), width))
            rows.append(values)
    if not rows:
        raise ParseError("no data rows in %s" % path)
    arr = np.array(rows, dtype=float)
    if mass_col is not None:
        masses = arr[:, mass_col]
        points = np.delete(arr, mass_col, axis=1)
        total = masses.sum()
        if total <= 0:
            raise ParseError("masses in %s sum to %g" % (path, total))
        return WeightedCloud(points=points, masses=masses / total)
    return WeightedCloud.uniform(arr)


def list_methods():
    return list(CANONICAL_METHODS)
