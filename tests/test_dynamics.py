"""Stepper, weight-update, resampling and method-registry tests."""

import numpy as np
import pytest

from conftest import random_state
from parvikit.core import InvalidArgumentError, KernelConfig, ParticleState
from parvikit.dynamics import (
    CANONICAL_METHODS,
    ConfigurationError,
    DynamicsConfig,
    NumericalDivergenceError,
    StepRng,
    ca_weight_update,
    dk_resample,
    effective_eta_wei,
    first_order_step,
    kwgad_step,
    make_stepper,
    parse_method,
    sgad_step,
    svgd_step,
    wgad_step,
    wnes_lookahead,
    wnes_step,
)
from parvikit.harness import default_hyperparameters
from parvikit.smoothing import FirstVariation, blob_first_variation
from parvikit.targets import GaussianTarget, gmm_target, gp_target, synthetic_gp_data


def _std_normal(d=1):
    return GaussianTarget(np.eye(d))


def _fv_zero(state):
    return FirstVariation.zero(state.num_particles, state.dim)


class TestDynamicsConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DynamicsConfig(weight_mode="BD")
        with pytest.raises(ConfigurationError):
            DynamicsConfig(eta_pos=-1.0)
        with pytest.raises(ConfigurationError):
            DynamicsConfig(ca_variant="other")
        with pytest.raises(ConfigurationError):
            DynamicsConfig(total_steps=0)

    def test_decay_factor_bounds(self):
        with pytest.raises(ConfigurationError):
            DynamicsConfig(gamma=3.0, eta_vel=1.0)  # decay -2 outside [-1, 1]
        with pytest.warns(UserWarning):
            DynamicsConfig(gamma=1.5, eta_vel=1.0)  # decay -0.5: oscillatory

    def test_warmup_schedule(self):
        cfg = DynamicsConfig(eta_wei=0.4, warmup=True, total_steps=100)
        assert effective_eta_wei(cfg, 0) == 0.0
        assert effective_eta_wei(cfg, 100) == pytest.approx(0.4 * np.tanh(2.0), abs=1e-15)
        assert effective_eta_wei(cfg, 50) == pytest.approx(0.4 * np.tanh(2.0 * 0.5**5), abs=1e-15)
        flat = DynamicsConfig(eta_wei=0.4, warmup=False)
        assert effective_eta_wei(flat, 0) == 0.4


class TestStepRng:
    def test_counter_addressing(self):
        rng = StepRng(42)
        a = rng.stream(7, StepRng.DK_TAG).random(5)
        b = rng.stream(7, StepRng.DK_TAG).random(5)
        assert np.array_equal(a, b)
        c = rng.stream(8, StepRng.DK_TAG).random(5)
        assert not np.array_equal(a, c)
        d = rng.stream(7, StepRng.INIT_TAG).random(5)
        assert not np.array_equal(a, d)


class TestCaWeightUpdate:
    def test_hand_computed_step(self):
        w, clamps = ca_weight_update(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.1)
        assert np.allclose(w, [0.475, 0.525], atol=1e-15)
        assert clamps == 0

    def test_constant_u_is_identity(self):
        w0 = np.array([0.2, 0.3, 0.5])
        u = np.full(3, 7.7)
        for variant in ("multiplicative", "as_printed"):
            w, clamps = ca_weight_update(w0, u, 0.5, variant)
            assert np.allclose(w, w0, atol=1e-15)
            assert clamps == 0

    def test_mass_telescopes_before_renormalization(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.random(8) + 0.01
            w = w / w.sum()
            u = rng.normal(size=8) * 3.0
            eta = float(rng.uniform(0.0, 0.2))
            centered = u - w @ u
            new = w - eta * centered * w
            assert abs(new.sum() - 1.0) <= 1e-15

    def test_dissipation_identity_and_sign(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            w = rng.random(10) + 0.01
            w = w / w.sum()
            u = rng.normal(size=10) * 5.0
            eta = float(rng.uniform(0.0, 0.5))
            centered = u - w @ u
            delta = -eta * centered * w
            lhs = float(u @ delta)
            rhs = -eta * (w @ u**2 - (w @ u) ** 2)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)
            assert lhs <= 1e-15

    def test_clamping_counts_and_renormalizes(self):
        w, clamps = ca_weight_update(
            np.array([0.5, 0.5]), np.array([10.0, 0.0]), 1.0
        )
        assert clamps == 1
        assert w.min() == 0.0
        assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_unknown_variant(self):
        with pytest.raises(InvalidArgumentError):
            ca_weight_update(np.array([1.0]), np.array([0.0]), 0.1, variant="other")


class TestDkResample:
    def test_requires_uniform_weights(self):
        state = ParticleState(
            positions=np.zeros((2, 1)),
            velocities=np.zeros((2, 1)),
            weights=np.array([0.6, 0.4]),
        )
        with pytest.raises(InvalidArgumentError):
            dk_resample(state, np.zeros(2), 0.1, StepRng(0))

    def test_constant_u_is_identity(self):
        state = random_state(5, 2, seed=0)
        out = dk_resample(state, np.full(5, 3.0), 0.5, StepRng(0))
        assert out.event_count == 0
        assert np.array_equal(out.state.positions, state.positions)

    def test_single_particle_never_fires(self):
        state = random_state(1, 2, seed=1)
        out = dk_resample(state, np.array([5.0]), 1.0, StepRng(0))
        assert out.event_count == 0 and out.skipped == 0

    def test_duplicate_copies_position_and_velocity(self):
        # huge rate -> fire with probability ~1
        pos = np.array([[0.0], [1.0]])
        vel = np.array([[2.0], [3.0]])
        state = ParticleState(pos, vel, np.array([0.5, 0.5]))
        u = np.array([-100.0, 100.0])  # rates (+50, -50) at eta = 1
        out = dk_resample(state, u, 1.0, StepRng(3))
        assert out.event_count == 2
        # both events move particle 0's (x, v) into slot 1 or vice versa;
        # whichever is applied last, rows are exact copies of one original row
        assert np.array_equal(out.state.positions[0], out.state.positions[1])
        assert np.array_equal(out.state.velocities[0], out.state.velocities[1])
        row = out.state.positions[0]
        assert any(np.array_equal(row, pos[i]) for i in range(2))
        assert np.array_equal(out.state.weights, state.weights)

    def test_bernoulli_law(self):
        # duplication frequency of a rate-0.2 particle over 2e4 trials
        pos = np.array([[0.0], [1.0]])
        vel = np.zeros((2, 1))
        w = np.array([0.5, 0.5])
        u = np.array([-0.2, 0.2])  # rates (+0.2, -0.2) at eta = 1
        rng = StepRng(11)
        n = 20000
        hits = 0
        for i in range(n):
            state = ParticleState._trusted(pos, vel, w, i)
            out = dk_resample(state, u, 1.0, rng)
            hits += ("duplicate", 0, 1) in out.events
        p = 1.0 - np.exp(-0.2)
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= 3.0 * sigma

    def test_mean_mass_drift_matches_ca_direction(self):
        # E[duplications - kills] per particle has the sign of -eta*(u - mean u)
        m = 8
        st = random_state(m, 2, seed=4)
        u = np.random.default_rng(5).normal(size=m)
        eta = 0.3
        rates = -eta * (u - st.weights @ u)
        rng = StepRng(17)
        drift = np.zeros(m)
        n = 4000
        for i in range(n):
            state = ParticleState._trusted(st.positions, st.velocities, st.weights, i)
            out = dk_resample(state, u, eta, rng)
            for kind, owner, _ in out.events:
                drift[owner] += 1.0 if kind == "duplicate" else -1.0
        drift /= n
        expected = np.sign(rates)
        # only assert where the rate is large enough to dominate noise
        strong = np.abs(rates) > 0.05
        assert np.all(np.sign(drift[strong]) == expected[strong])


class TestSteppers:
    def test_wgad_zero_step_identity(self):
        cfg = DynamicsConfig(eta_pos=0.0, eta_vel=0.0, weight_mode="fixed")
        state = random_state(4, 2, seed=0, with_velocity=True)
        out = wgad_step(state, _fv_zero(state), cfg, StepRng(0))
        assert np.array_equal(out.positions, state.positions)
        assert np.array_equal(out.velocities, state.velocities)
        assert out.iteration == state.iteration + 1

    def test_wgad_update_rule(self):
        cfg = DynamicsConfig(eta_pos=0.1, eta_vel=0.5, gamma=0.4)
        state = random_state(3, 2, seed=1, with_velocity=True)
        fv = FirstVariation(
            u=np.zeros(3), grad_u=np.random.default_rng(2).normal(size=(3, 2))
        )
        out = wgad_step(state, fv, cfg, StepRng(0))
        assert np.array_equal(out.positions, state.positions + 0.1 * state.velocities)
        assert np.allclose(
            out.velocities, (1 - 0.4 * 0.5) * state.velocities - 0.5 * fv.grad_u, atol=1e-15
        )

    def test_kwgad_single_particle_scales_by_lambda(self):
        lam = 2.5
        cfg = DynamicsConfig(eta_pos=0.1, eta_vel=0.5, gamma=0.4, lambda_kw=lam)
        state = random_state(1, 2, seed=3, with_velocity=True)
        out = kwgad_step(state, _fv_zero(state), cfg, StepRng(0))
        # C^lambda = lambda I and the coupling term vanishes at the mean
        assert np.allclose(
            out.positions, state.positions + 0.1 * lam * state.velocities, atol=1e-15
        )

    def test_kwgad_zero_velocity_first_step(self):
        cfg = DynamicsConfig(eta_pos=0.1, eta_vel=0.5, gamma=0.4, lambda_kw=1.0)
        state = random_state(3, 2, seed=4)
        grad = np.random.default_rng(6).normal(size=(3, 2))
        out = kwgad_step(state, FirstVariation(u=np.zeros(3), grad_u=grad), cfg, StepRng(0))
        assert np.array_equal(out.positions, state.positions)
        assert np.allclose(out.velocities, -0.5 * grad, atol=1e-15)

    def test_kwgad_two_particle_hand_value(self):
        # w = (1/2, 1/2), x = (0, 2), v = (1, -1): m = 1, C = 1, sum w v v^T = 1
        cfg = DynamicsConfig(eta_pos=0.1, eta_vel=0.5, gamma=0.4, lambda_kw=0.3)
        state = ParticleState(
            positions=np.array([[0.0], [2.0]]),
            velocities=np.array([[1.0], [-1.0]]),
            weights=np.array([0.5, 0.5]),
        )
        out = kwgad_step(state, _fv_zero(state), cfg, StepRng(0))
        c_lam = 1.0 + 0.3
        assert np.allclose(
            out.positions, state.positions + 0.1 * c_lam * state.velocities, atol=1e-15
        )
        coupling = state.positions - 1.0
        assert np.allclose(
            out.velocities, (1 - 0.2) * state.velocities - 0.5 * coupling, atol=1e-15
        )

    def test_sgad_single_particle_reduces_to_wgad(self):
        cfg = DynamicsConfig(eta_pos=0.1, eta_vel=0.5, gamma=0.4)
        state = random_state(1, 2, seed=7, with_velocity=True)
        grad = np.random.default_rng(8).normal(size=(1, 2))
        fv = FirstVariation(u=np.zeros(1), grad_u=grad)
        out = sgad_step(state, fv, cfg, StepRng(0), h=2.0)
        ref = wgad_step(state, fv, cfg, StepRng(0))
        assert np.allclose(out.positions, ref.positions, atol=1e-15)
        assert np.allclose(out.velocities, ref.velocities, atol=1e-15)

    def test_sgad_zero_velocity_keeps_positions(self):
        cfg = DynamicsConfig(eta_pos=0.1, eta_vel=0.5, gamma=0.4)
        state = random_state(4, 2, seed=9)
        grad = np.random.default_rng(10).normal(size=(4, 2))
        out = sgad_step(state, FirstVariation(u=np.zeros(4), grad_u=grad), cfg, StepRng(0), h=2.0)
        assert np.array_equal(out.positions, state.positions)
        assert np.allclose(out.velocities, -0.5 * grad, atol=1e-15)

    def test_sgad_two_particle_hand_value(self):
        # positions (0, 2), h = 4, v = (1, 0): particle-1 drift = w1*1*1 + w2*e^-1*0
        cfg = DynamicsConfig(eta_pos=0.1, eta_vel=0.5, gamma=0.4)
        state = ParticleState(
            positions=np.array([[0.0], [2.0]]),
            velocities=np.array([[1.0], [0.0]]),
            weights=np.array([0.5, 0.5]),
        )
        out = sgad_step(state, _fv_zero(state), cfg, StepRng(0), h=4.0)
        assert out.positions[0, 0] == pytest.approx(0.1 * 0.5, abs=1e-15)
        assert out.positions[1, 0] == pytest.approx(2.0 + 0.1 * 0.5 * np.exp(-1.0), abs=1e-15)

    def test_first_order_identity_and_rule(self):
        state = random_state(3, 2, seed=11)
        grad = np.random.default_rng(12).normal(size=(3, 2))
        fv = FirstVariation(u=np.zeros(3), grad_u=grad)
        idle = first_order_step(state, fv, DynamicsConfig(eta_pos=0.0), StepRng(0))
        assert np.array_equal(idle.positions, state.positions)
        out = first_order_step(state, fv, DynamicsConfig(eta_pos=0.2), StepRng(0))
        assert np.allclose(out.positions, state.positions - 0.2 * grad, atol=1e-15)
        assert np.array_equal(out.velocities, state.velocities)

    def test_first_order_gradient_descent_oracle(self):
        # M = 1, Gaussian target: x_{k+1} = x_k - eta * x_k
        target = _std_normal(1)
        stepper = make_stepper(
            "BLOB", target, DynamicsConfig(eta_pos=0.2),
            KernelConfig(bandwidth_mode="fixed", fixed_h=1.0),
        )
        state = ParticleState(np.array([[1.5]]), np.zeros((1, 1)), np.array([1.0]))
        x = 1.5
        for _ in range(10):
            state = stepper(state)
            x = x - 0.2 * x
            assert state.positions[0, 0] == pytest.approx(x, abs=1e-12)

    def test_dpvi_ca_weight_trajectory_matches_composition(self):
        target = gmm_target(2)
        cfg = DynamicsConfig(eta_pos=1e-2, eta_wei=1e-2, warmup=False)
        kernel = KernelConfig()
        stepper = make_stepper("DPVI-CA-BLOB", target, cfg, kernel, StepRng(0))
        state = random_state(6, 2, seed=13)
        for _ in range(5):
            h = kernel.resolve(state.positions)
            fv = blob_first_variation(state, target, h)
            expected_w, _ = ca_weight_update(state.weights, fv.u, 1e-2)
            state = stepper(state)
            assert np.allclose(state.weights, expected_w, atol=1e-15)

    def test_divergence_error_names_iteration(self):
        state = random_state(2, 1, seed=14).replace(iteration=7)
        bad = FirstVariation(u=np.zeros(2), grad_u=np.array([[np.inf], [0.0]]))
        with pytest.raises(NumericalDivergenceError, match="iteration 7"):
            wgad_step(state, bad, DynamicsConfig(eta_vel=1.0), StepRng(0))


class TestSvgd:
    def test_single_particle_follows_score(self):
        target = _std_normal(2)
        state = random_state(1, 2, seed=0)
        out = svgd_step(state, target, h=2.0, eta_pos=0.3)
        expected = state.positions + 0.3 * target.score(state.positions)
        assert np.allclose(out.positions, expected, atol=1e-15)

    def test_symmetric_pair_repels(self):
        target = _std_normal(1)
        b = 0.4
        state = ParticleState(
            np.array([[-b], [b]]), np.zeros((2, 1)), np.array([0.5, 0.5])
        )
        h = 2.0
        k = np.exp(-(2 * b) ** 2 / h)
        # drift on the right particle: (1/2)[k*(b) + 1*(-b) + (2/h)(2b)k]
        drift = 0.5 * (k * b - b + (2.0 / h) * 2 * b * k)
        out = svgd_step(state, target, h=h, eta_pos=0.1)
        assert out.positions[1, 0] == pytest.approx(b + 0.1 * drift, abs=1e-14)
        assert out.positions[0, 0] == pytest.approx(-out.positions[1, 0], abs=1e-14)

    def test_zero_step_identity(self):
        target = _std_normal(2)
        state = random_state(4, 2, seed=1)
        out = svgd_step(state, target, h=2.0, eta_pos=0.0)
        assert np.array_equal(out.positions, state.positions)

    def test_requires_uniform_weights(self):
        state = ParticleState(
            np.zeros((2, 1)), np.zeros((2, 1)), np.array([0.7, 0.3])
        )
        with pytest.raises(InvalidArgumentError):
            svgd_step(state, _std_normal(1), h=1.0, eta_pos=0.1)


class TestWnes:
    def test_k1_equals_first_order(self):
        target = gmm_target(2)
        cfg = DynamicsConfig(eta_pos=0.05)
        kernel = KernelConfig()
        state = random_state(5, 2, seed=2)
        a = make_stepper("WNES-BLOB", target, cfg, kernel, StepRng(0))(state)
        b = make_stepper("BLOB", target, cfg, kernel, StepRng(0))(state)
        assert np.array_equal(a.positions, b.positions)

    def test_zero_eta_is_pure_extrapolation(self):
        # the velocity slot holds x_k - x_{k-1}
        state = random_state(3, 2, seed=3).replace(iteration=4, velocities=np.full((3, 2), 0.5))
        fv = FirstVariation(
            u=np.zeros(3), grad_u=np.random.default_rng(4).normal(size=(3, 2))
        )
        out = wnes_step(state, fv, eta_pos=0.0, k=5)
        assert np.allclose(out.positions, state.positions + 0.5 * 4.0 / 7.0, atol=1e-15)
        assert np.array_equal(out.positions, wnes_lookahead(state, 5))
        assert np.array_equal(out.velocities, out.positions - state.positions)

    def test_rejects_bad_counter(self):
        state = random_state(2, 1, seed=5)
        with pytest.raises(InvalidArgumentError):
            wnes_step(state, _fv_zero(state), eta_pos=0.1, k=0)

    def test_resume_from_mid_run_state_is_bit_identical(self):
        # the stepper is a pure map: a fresh stepper given a saved state
        # continues exactly as the stepper that produced it
        target = gmm_target(2)
        cfg = DynamicsConfig(**default_hyperparameters("WNES-BLOB", "gmm"))
        state = random_state(16, 2, seed=0)
        stepper = make_stepper("WNES-BLOB", target, cfg, KernelConfig(), StepRng(0))
        for _ in range(5):
            state = stepper(state)
        resumed = make_stepper("WNES-BLOB", target, cfg, KernelConfig(), StepRng(0))
        saved = ParticleState(state.positions.copy(), state.velocities.copy(),
                              state.weights.copy(), state.iteration)
        for _ in range(20):
            before = state.positions
            state, saved = stepper(state), resumed(saved)
            assert np.array_equal(saved.positions, state.positions)
            assert np.array_equal(saved.velocities, state.velocities)
            assert np.array_equal(saved.weights, state.weights)
            assert np.array_equal(state.velocities, state.positions - before)
        assert state.iteration == 25

    def test_nesterov_recursion_oracle(self):
        # M = 1, Gaussian target, fixed h: grad_u(y) = y
        target = _std_normal(1)
        eta = 0.1
        stepper = make_stepper(
            "WNES-BLOB", target, DynamicsConfig(eta_pos=eta),
            KernelConfig(bandwidth_mode="fixed", fixed_h=1.0),
        )
        state = ParticleState(np.array([[2.0]]), np.zeros((1, 1)), np.array([1.0]))
        x_prev, x = 2.0, 2.0
        for step in range(20):
            k = step + 1
            y = x + (k - 1.0) / (k + 2.0) * (x - x_prev)
            x_prev, x = x, y - eta * y
            state = stepper(state)
            assert state.positions[0, 0] == pytest.approx(x, abs=1e-12)


class TestRegistry:
    def test_canonical_registry_has_26_methods(self):
        assert len(CANONICAL_METHODS) == 26
        assert len(set(CANONICAL_METHODS)) == 26
        for name in CANONICAL_METHODS:
            spec = parse_method(name)
            assert spec.name == name

    def test_parse_structure(self):
        spec = parse_method("KWGAD-DK-GFSD")
        assert (spec.kind, spec.metric, spec.smoothing, spec.weight_mode) == (
            "gad", "KW", "GFSD", "DK",
        )
        assert parse_method("svgd").kind == "svgd"
        assert parse_method("WAIG-GFSD").weight_mode == "fixed"
        assert parse_method("DPVI-DK-KSDD").kind == "first_order"
        with pytest.raises(ConfigurationError):
            parse_method("WGAD-BLOB")
        with pytest.raises(ConfigurationError):
            parse_method("XGAD-CA-BLOB")

    def test_ksdd_requires_hessian_target(self):
        gp = gp_target(synthetic_gp_data(n=5))
        with pytest.raises(ConfigurationError):
            make_stepper("WGAD-CA-KSDD", gp)
        make_stepper("WGAD-CA-BLOB", gp)  # fine without a Hessian

    def test_waig_equals_wgad_with_zero_eta_wei(self):
        target = gmm_target(2)
        kernel = KernelConfig()
        state = random_state(8, 2, seed=6)
        cfg = DynamicsConfig(eta_pos=1e-2, eta_vel=1.0, gamma=0.3, eta_wei=0.0)
        a = make_stepper("WAIG-BLOB", target, cfg, kernel, StepRng(0))
        b = make_stepper("WGAD-CA-BLOB", target, cfg, kernel, StepRng(0))
        sa = sb = state
        for _ in range(50):
            sa, sb = a(sa), b(sb)
            assert np.array_equal(sa.positions, sb.positions)
            assert np.array_equal(sa.velocities, sb.velocities)
            assert np.array_equal(sa.weights, sb.weights)

    def test_lag_one_gradient_descent_reduction(self):
        # M = 1, gamma*eta_vel = 1, v0 = 0: x_{k+1} = x_k - eta_pos*eta_vel*grad_u(x_{k-1})
        target = _std_normal(1)
        eta_pos, eta_vel = 0.05, 1.0
        stepper = make_stepper(
            "WAIG-BLOB", target,
            DynamicsConfig(eta_pos=eta_pos, eta_vel=eta_vel, gamma=1.0),
            KernelConfig(bandwidth_mode="fixed", fixed_h=1.0),
        )
        state = ParticleState(np.array([[1.0]]), np.zeros((1, 1)), np.array([1.0]))
        xs = [1.0]
        for step in range(20):
            state = stepper(state)
            # v_0 = 0 makes the first step a no-op; afterwards lag-one descent
            xs.append(xs[-1] if len(xs) == 1 else xs[-1] - eta_pos * eta_vel * xs[-2])
            assert state.positions[0, 0] == pytest.approx(xs[-1], abs=1e-12)

    def test_stationarity_of_all_steppers(self):
        # zero drive, constant u, zero velocities: identity on every component
        state = random_state(5, 2, seed=7, nonuniform=True)
        fv = FirstVariation(u=np.full(5, 3.3), grad_u=np.zeros((5, 2)))
        cfg_by_metric = {
            "W": DynamicsConfig(weight_mode="CA", eta_wei=0.1, warmup=False),
            "KW": DynamicsConfig(weight_mode="CA", eta_wei=0.1, warmup=False),
            "S": DynamicsConfig(weight_mode="CA", eta_wei=0.1, warmup=False),
        }
        for metric, cfg in cfg_by_metric.items():
            step = {"W": wgad_step, "KW": kwgad_step}.get(metric)
            if step is None:
                out = sgad_step(state, fv, cfg, StepRng(0), h=2.0)
            else:
                out = step(state, fv, cfg, StepRng(0))
            assert np.array_equal(out.positions, state.positions)
            assert np.array_equal(out.velocities, state.velocities)
            assert np.allclose(out.weights, state.weights, atol=1e-15)
        out = first_order_step(state, fv, DynamicsConfig(eta_pos=0.5), StepRng(0))
        assert np.array_equal(out.positions, state.positions)

    def test_translation_equivariance_of_w_metric(self):
        c = np.array([5.0, -3.0])
        base = GaussianTarget(np.array([[1.0, 0.4], [0.4, 1.0]]))
        shifted = GaussianTarget(base.cov, mean=c)
        cfg = DynamicsConfig(eta_pos=1e-2, eta_vel=1.0, gamma=0.3, eta_wei=1e-2, warmup=False)
        kernel = KernelConfig()
        state = random_state(6, 2, seed=8)
        moved = state.replace(positions=state.positions + c)
        a = make_stepper("WGAD-CA-BLOB", base, cfg, kernel, StepRng(0))
        b = make_stepper("WGAD-CA-BLOB", shifted, cfg, kernel, StepRng(0))
        for _ in range(20):
            state, moved = a(state), b(moved)
            assert np.allclose(moved.positions, state.positions + c, atol=1e-9)
            assert np.allclose(moved.velocities, state.velocities, atol=1e-9)
            assert np.allclose(moved.weights, state.weights, atol=1e-12)

    def test_jacobi_row_order_independence(self):
        # every per-particle sub-update reads only frozen iteration-k state, so
        # recomputing rows one at a time in any order is bit-identical
        cfg = DynamicsConfig(eta_pos=0.1, eta_vel=0.5, gamma=0.4)
        state = random_state(6, 2, seed=9, with_velocity=True)
        grad = np.random.default_rng(10).normal(size=(6, 2))
        fv = FirstVariation(u=np.random.default_rng(11).normal(size=6), grad_u=grad)
        full = wgad_step(state, fv, cfg, StepRng(0))
        pos = np.empty_like(state.positions)
        vel = np.empty_like(state.velocities)
        decay = 1.0 - cfg.gamma * cfg.eta_vel
        for i in np.random.default_rng(12).permutation(6):
            pos[i] = state.positions[i] + cfg.eta_pos * state.velocities[i]
            vel[i] = decay * state.velocities[i] - cfg.eta_vel * grad[i]
        assert np.array_equal(full.positions, pos)
        assert np.array_equal(full.velocities, vel)
