"""The benchmark's four workloads.

A workload builds its inputs from the seed in `setup` (untimed apart from the
set-up figure), runs whole rounds of identical operations in `run_round`,
which times each operation, and checks the outputs of its rounds in `check`.
An operation is one `parvikit run` experiment or one method's soak.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time

import numpy as np

import checks
import parvikit.cli
import parvikit.harness
import parvikit.metrics
from parvikit.core import KernelConfig, ParticleState
from parvikit.dynamics import CANONICAL_METHODS, DynamicsConfig, StepRng, make_stepper, parse_method
from parvikit.harness import default_hyperparameters, load_config, read_csv_records
from parvikit.smoothing import first_variation
from parvikit.targets import gmm_target, sg_target


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class RunWorkload:
    """`parvikit run` through `parvikit.cli.main` in this process.

    A round runs one config for each of `experiments` seeds drawn from the
    workload seed (`--seed` of the CLI). Every round runs the same
    experiments, so each CSV must equal the first round's byte for byte. The
    diagnostics rows are captured from `_Recorder.row` (state, reference
    cloud, record) for the checks.
    """

    config = ""  # key=value body without a seed
    warmup_config = ""
    experiments = 1

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.rows = {}  # experiment seed -> captured rows of the latest round
        self._current = []
        self.failed_seeds = set()
        self.first_csv = None
        self.repeat_failures = []

    def setup(self, seed):
        self.cfg_path = os.path.join(self.out_dir, "run.cfg")
        _write(self.cfg_path, self.config)
        self.cfg = load_config(self.cfg_path)
        self.seeds = [seed * self.experiments + j for j in range(self.experiments)]
        self._capture_rows()
        warm_path = os.path.join(self.out_dir, "warmup.cfg")
        _write(warm_path, self.warmup_config)
        warm_dir = os.path.join(self.out_dir, "warmup")
        if self._cli(["run", "--config", warm_path, "--out", warm_dir, "--seed", str(seed)]) != 0:
            raise RuntimeError("warm-up run failed")

    def _capture_rows(self):
        row = parvikit.harness._Recorder.row

        def captured(recorder, state, stepper):
            record = row(recorder, state, stepper)
            self._current.append((state, recorder.reference, record))
            return record

        parvikit.harness._Recorder.row = captured

    @staticmethod
    def _cli(argv):
        # the CLI prints the output paths and a final: line; keep them off stdout
        with contextlib.redirect_stdout(io.StringIO()):
            return parvikit.cli.main(argv)

    def csv_path(self, seed):
        cfg = self.cfg
        return os.path.join(self.out_dir, "%s_%s_M%d_seed%d.csv"
                            % (cfg.method, cfg.target, cfg.particles, seed))

    def run_round(self):
        """One experiment per seed; returns (seconds per experiment, failed)."""
        self.failed_seeds = set()
        seconds = []
        for seed in self.seeds:
            self._current = self.rows[seed] = []
            argv = ["run", "--config", self.cfg_path, "--out", self.out_dir, "--seed", str(seed)]
            start = time.perf_counter()
            rc = self._cli(argv)
            seconds.append(time.perf_counter() - start)
            if rc != 0:  # the CLI has printed the error to stderr
                self.failed_seeds.add(seed)
        return seconds, len(self.failed_seeds)

    def after_round(self):
        """Untimed: compare this round's CSVs with the first round's."""
        csv = b"\0".join(_read(self.csv_path(seed)) for seed in self.seeds
                         if seed not in self.failed_seeds)
        if self.first_csv is None:
            self.first_csv = csv
        elif not self.repeat_failures:
            self.repeat_failures = checks.identical("CSV", self.first_csv, csv)

    def check(self):
        out = list(self.repeat_failures)
        expected_rows = self.cfg.resolved_iterations() // self.cfg.record_every + 1
        for seed in sorted(set(self.seeds) - self.failed_seeds):
            records = read_csv_records(self.csv_path(seed))
            rows = self.rows[seed]
            out += checks.equal_count("seed %d: CSV rows" % seed, len(records), expected_rows)
            out += checks.equal_count("seed %d: captured rows" % seed, len(rows), len(records))
            for state, _, _ in rows:
                label = "seed %d, iteration %d" % (seed, state.iteration)
                out += checks.simplex(label, state.weights)
                out += checks.finite(label, state.positions, state.velocities)
            out += self.check_experiment(seed, records, rows)
        return out

    def check_experiment(self, seed, records, rows):
        return []

    def cross_check(self, figures):
        records = [r for seed in self.seeds for r in read_csv_records(self.csv_path(seed))]
        with_w2 = sum(r.w2 is not None for r in records)
        steps = self.cfg.resolved_iterations() * len(self.seeds)
        return (checks.equal_count("dynamics.step.calls", figures["dynamics.step.calls"], steps)
                + checks.equal_count("metrics.w2_exact.calls", figures["metrics.w2_exact.calls"], with_w2)
                + checks.equal_count("harness.checkpoints", figures["harness.checkpoints"], len(records)))


class Gmm2Run(RunWorkload):
    # One 2000-sample run's LP work varies by +-25% with the seed, so a round
    # averages 12 seeds on a 512-sample reference instead (see README.md).
    config = ("method=WGAD-CA-BLOB\ntarget=gmm:2\nparticles=64\niterations=200\n"
              "record_every=100\nreference_samples=512\n")
    experiments = 12
    # same code path on a small instance: first steps, first LP solve, CSV and SVG
    warmup_config = ("method=WGAD-CA-BLOB\ntarget=gmm:2\nparticles=16\niterations=2\n"
                     "record_every=1\nreference_samples=16\n")

    def check_experiment(self, seed, records, rows):
        out = []
        if any(r.w2 is None for r in records):
            return ["seed %d: a checkpoint has no W2" % seed]
        for (state, ref, _), rec in zip(rows, records):
            out += checks.w2_bounds("seed %d, W2 at iteration %d" % (seed, rec.iteration), rec.w2,
                                    state.positions, state.weights, ref.points, ref.masses)
        first, last = records[0], records[-1]
        out += checks.errors_decrease("seed %d" % seed, ("w2", "mean_err", "cov_err"),
                                      (first.w2, first.mean_err, first.cov_err),
                                      (last.w2, last.mean_err, last.cov_err))
        final, ref, _ = rows[-1]
        x = final.positions
        y = ref.points[: x.shape[0]]
        value = parvikit.metrics.wasserstein2_exact(
            parvikit.metrics.WeightedCloud.uniform(x), parvikit.metrics.WeightedCloud.uniform(y))
        out += checks.w2_assignment("seed %d, uniform 64-vs-64 W2" % seed, value, x, y)
        return out


class GpRun(RunWorkload):
    config = "method=WGAD-CA-BLOB\ntarget=gp\nparticles=32\niterations=16\nrecord_every=8\n"
    warmup_config = "method=WGAD-CA-BLOB\ntarget=gp\nparticles=4\niterations=1\nrecord_every=1\n"

    def check_experiment(self, seed, records, rows):
        out = []
        if any(r.w2 is not None for r in records):
            out.append("seed %d: W2 recorded without a reference cloud" % seed)
        final = rows[-1][0]
        target = parvikit.harness.build_target(self.cfg)
        out += checks.score_fd("seed %d, gp score" % seed, target.score(final.positions),
                               target.log_density, final.positions)
        return out


class SoakWorkload:
    """The README's library loop: make_stepper, then repeated calls, per method.

    A fresh stepper is made for every method in every round, because a
    stepper object keeps state between calls (the WNES lookahead memory).
    """

    target_kind = ""
    dim = 0
    particles = 0
    steps = 0

    def __init__(self, out_dir):
        self.finals = {}
        self.first_finals = None
        self.repeat_failures = []

    def methods(self):
        return list(CANONICAL_METHODS)

    def start_positions(self, rng):
        raise NotImplementedError

    def setup(self, seed):
        self.target = gmm_target(self.dim) if self.target_kind == "gmm" else sg_target(self.dim)
        self.seed = seed
        rng = np.random.default_rng(seed)
        m, d = self.particles, self.dim
        self.start = ParticleState(positions=self.start_positions(rng), velocities=np.zeros((m, d)),
                                   weights=np.full(m, 1.0 / m))
        self.configs = {
            name: DynamicsConfig(total_steps=self.steps,
                                 **default_hyperparameters(name, self.target_kind))
            for name in self.methods()
        }
        for name, cfg in self.configs.items():  # warm-up: two steps of each method
            stepper = make_stepper(name, self.target, cfg, KernelConfig(), StepRng(seed))
            stepper(stepper(self.start))

    def run_round(self):
        """One soak per method; returns (seconds per soak, failed)."""
        failed = 0
        seconds = []
        for name, cfg in self.configs.items():
            start = time.perf_counter()
            stepper = make_stepper(name, self.target, cfg, KernelConfig(), StepRng(self.seed))
            state = self.start
            try:
                for _ in range(self.steps):
                    state = stepper(state)
            except (FloatingPointError, ValueError) as exc:
                print("%s failed: %s" % (name, exc), file=sys.stderr)
                state = None
                failed += 1
            seconds.append(time.perf_counter() - start)
            self.finals[name] = state
        return seconds, failed

    def after_round(self):
        if self.first_finals is None:
            self.first_finals = dict(self.finals)
            return
        if self.repeat_failures:
            return
        for name, state in self.finals.items():
            first = self.first_finals[name]
            if state is not None and first is not None:
                self.repeat_failures += checks.identical(
                    name, (first.positions, first.velocities, first.weights),
                    (state.positions, state.velocities, state.weights))

    def target_moments(self):
        raise NotImplementedError

    def check(self):
        out = list(self.repeat_failures)
        mean, cov = self.target_moments()
        start_err = checks.moment_errors(self.start.positions, self.start.weights, mean, cov)
        for name, state in self.finals.items():
            if state is None:  # counted as failed
                continue
            spec = parse_method(name)
            uniform = spec.weight_mode in ("DK", "fixed") or spec.kind in ("svgd", "wnes")
            out += checks.finite(name, state.positions, state.velocities)
            out += checks.simplex(name, state.weights, uniform=uniform)
            final_err = checks.moment_errors(state.positions, state.weights, mean, cov)
            out += self.check_errors(name, start_err, final_err)
        return out

    def check_errors(self, name, start_err, final_err):
        return checks.errors_decrease(name, ("mean_err", "cov_err"), start_err, final_err)

    def cross_check(self, figures):
        return checks.equal_count("dynamics.step.calls", figures["dynamics.step.calls"],
                                  self.steps * len(self.configs))


class Gmm2SoakM16(SoakWorkload):
    target_kind, dim, particles, steps = "gmm", 2, 16, 2000

    def start_positions(self, rng):
        # far from both modes and wider than the target, so that every method,
        # the mode-seeking KSDD ones included, must cut both moment errors
        return -3.0 + 3.0 * rng.standard_normal((self.particles, self.dim))

    def target_moments(self):
        # mixture of N(+a, I) w.p. 2/3 and N(-a, I) w.p. 1/3 with a = 1.2 * 1
        a = np.full(self.dim, 1.2)
        return a / 3.0, np.eye(self.dim) + (8.0 / 9.0) * np.outer(a, a)


class Sg10SoakM512(SoakWorkload):
    target_kind, dim, particles, steps = "sg", 10, 512, 20

    def methods(self):
        specs = [parse_method(name) for name in CANONICAL_METHODS]
        return [s.name for s in specs if s.kind in ("gad", "first_order")
                and (s.smoothing == "KSDD" or s.metric == "S")]

    def start_positions(self, rng):
        return rng.standard_normal((self.particles, self.dim))

    def target_moments(self):
        return np.zeros(self.dim), 0.2 * np.eye(self.dim) + 0.8 * np.ones((self.dim, self.dim))

    def check_errors(self, name, start_err, final_err):
        # the N(0, I) start's mean error is sampling noise (about 0.16), and in
        # 20 steps at M=512 the S-metric transport (scaled by w_j K_ij ~ 1/M)
        # barely moves the cloud, so only the covariance error must fall
        return checks.errors_decrease(name, ("cov_err",), start_err[1:], final_err[1:])

    def check(self):
        out = super().check()
        state = self.finals.get("SGAD-CA-KSDD")
        if state is not None:
            _, cov = self.target_moments()
            h = checks.nn_bandwidth(state.positions)
            u = first_variation(state, self.target, h, "KSDD").u
            idx = (0, 1, self.particles // 2, self.particles - 1)
            out += checks.ksdd_u("SGAD-CA-KSDD", u, state.positions, state.weights, h,
                                 np.linalg.inv(cov), idx)
        return out


WORKLOADS = {
    "gmm2-run": Gmm2Run,
    "gp-run": GpRun,
    "gmm2-soak-m16": Gmm2SoakM16,
    "sg10-soak-m512": Sg10SoakM512,
}
