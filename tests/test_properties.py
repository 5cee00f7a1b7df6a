"""Property tests: permutation and translation equivariance of the steppers, the
weights' simplex and uniformity invariants, and ParticleState validation."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import rel_err
from parvikit.core import InvalidArgumentError, ParticleState
from parvikit.dynamics import (
    CANONICAL_METHODS,
    METHODS,
    DynamicsConfig,
    NumericalDivergenceError,
    StepRng,
    make_stepper,
)
from parvikit.harness import default_hyperparameters
from parvikit.targets import GaussianTarget, gmm_target

# DK kills and duplicates particles by their index in a random stream, so only
# its distribution, not its output, commutes with relabelling the particles
NON_DK_METHODS = sorted(name for name, spec in METHODS.items() if spec.weight_mode != "DK")
# the ids on the W metric: WGAD, WAIG, the first-order rows and WNES
W_METRIC_METHODS = sorted(name for name, spec in METHODS.items()
                          if spec.metric == "W" and spec.kind != "svgd")
PROPERTY_SETTINGS = settings(max_examples=30, derandomize=True, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@st.composite
def _states_and_permutations(draw):
    """A 3-10 particle state in 1-3 dimensions with random velocities and weights,
    and a permutation of its particles."""
    m = draw(st.integers(3, 10))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = rng.uniform(0.1, 1.0, m)
    state = ParticleState(positions=rng.normal(size=(m, dim)),
                          velocities=0.5 * rng.normal(size=(m, dim)),
                          weights=weights / weights.sum(), iteration=draw(st.integers(0, 5)))
    return state, np.array(draw(st.permutations(range(m))))


@st.composite
def _malformed_states(draw):
    """Keyword arguments of ParticleState with exactly one malformed field."""
    m = draw(st.integers(2, 6))
    dim = draw(st.integers(1, 3))
    fields = dict(positions=np.zeros((m, dim)), velocities=np.zeros((m, dim)),
                  weights=np.full(m, 1.0 / m))
    defect = draw(st.sampled_from(["positions_1d", "velocities_shape", "weights_shape",
                                   "negative_weight", "bad_weight", "bad_position",
                                   "bad_velocity"]))
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    i = draw(st.integers(0, m - 1))
    if defect == "positions_1d":
        fields["positions"] = np.zeros(m)
    elif defect == "velocities_shape":
        fields["velocities"] = np.zeros((m + 1, dim))
    elif defect == "weights_shape":
        fields["weights"] = np.full(m + 1, 1.0 / (m + 1))
    elif defect == "negative_weight":
        # moving a unit of mass keeps the sum at 1, so only the sign check catches it
        fields["weights"][i] -= 1.0
        fields["weights"][(i + 1) % m] += 1.0
    elif defect == "bad_weight":
        fields["weights"][i] = bad
    elif defect == "bad_position":
        fields["positions"][i, draw(st.integers(0, dim - 1))] = bad
    else:
        fields["velocities"][i, draw(st.integers(0, dim - 1))] = bad
    return fields


class TestPermutationEquivariance:
    @PROPERTY_SETTINGS
    @given(_states_and_permutations())
    def test_one_step_commutes_with_a_permutation(self, case):
        weighted, perm = case
        target = gmm_target(weighted.dim)
        # SVGD keeps its weights uniform and rejects any other
        uniform = weighted.replace(weights=np.full(weighted.num_particles,
                                                   1.0 / weighted.num_particles))
        for name in NON_DK_METHODS:
            state = uniform if name == "SVGD" else weighted
            permuted = state.replace(positions=state.positions[perm],
                                     velocities=state.velocities[perm],
                                     weights=state.weights[perm])
            cfg = DynamicsConfig(**default_hyperparameters(name, "gmm"))
            out = make_stepper(name, target, cfg, rng=StepRng(3))(state)
            out_p = make_stepper(name, target, cfg, rng=StepRng(3))(permuted)
            for field in ("positions", "velocities", "weights"):
                expected = getattr(out, field)[perm]
                assert rel_err(getattr(out_p, field), expected) <= 1e-12, (name, field)
            assert out_p.iteration == out.iteration

    def test_the_method_set(self):
        assert len(NON_DK_METHODS) == 28
        assert "SVGD" in NON_DK_METHODS and "WNES-KSDD" in NON_DK_METHODS
        assert not any("-DK-" in name for name in NON_DK_METHODS)


@st.composite
def _states_and_shifts(draw):
    """A 3-10 particle state in 1-3 dimensions with random velocities and weights,
    a Gaussian covariance with eigenvalues >= 0.5 and a shift of up to 10 per axis."""
    m = draw(st.integers(3, 10))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = rng.uniform(0.1, 1.0, m)
    state = ParticleState(positions=rng.normal(size=(m, dim)),
                          velocities=0.5 * rng.normal(size=(m, dim)),
                          weights=weights / weights.sum())
    a = rng.normal(size=(dim, dim))
    return state, a @ a.T + 0.5 * np.eye(dim), rng.uniform(-10.0, 10.0, dim)


class TestTranslationEquivariance:
    # Shifting the cloud and the target's mean together shifts the W-metric
    # steps' positions and leaves velocities and weights as they are. Exactly
    # so in real arithmetic; squared_distances expands |x|^2 + |y|^2 - 2 x.y
    # without centring, so at offset 10 each squared distance carries ~100 eps
    # of absolute error, which the kernel divides by the nearest-neighbour
    # bandwidth. Over 340 random cases of this kind the worst relative
    # deviation after 5 steps was 6e-10 (a KSDD method), and 3e-12 without KSDD.
    TOLERANCE = 1e-8

    @PROPERTY_SETTINGS
    @given(_states_and_shifts())
    def test_five_steps_commute_with_a_shift(self, case):
        weighted, cov, shift = case
        uniform = weighted.replace(weights=np.full(weighted.num_particles,
                                                   1.0 / weighted.num_particles))
        for name in W_METRIC_METHODS:
            state = uniform if METHODS[name].weight_mode == "DK" else weighted
            # no warm-up, so that the weight rules act from the first step
            cfg = DynamicsConfig(warmup=False, **default_hyperparameters(name, "sg"))
            step = make_stepper(name, GaussianTarget(cov), cfg, rng=StepRng(3))
            step_shifted = make_stepper(name, GaussianTarget(cov, mean=shift), cfg,
                                        rng=StepRng(3))
            out, out_s = state, state.replace(positions=state.positions + shift)
            for _ in range(5):
                out, out_s = step(out), step_shifted(out_s)
            assert rel_err(out_s.positions - shift, out.positions) <= self.TOLERANCE, name
            assert rel_err(out_s.velocities, out.velocities) <= self.TOLERANCE, name
            assert rel_err(out_s.weights, out.weights) <= self.TOLERANCE, name

    def test_the_method_set(self):
        assert len(W_METRIC_METHODS) == 21
        assert "WNES-KSDD" in W_METRIC_METHODS and "DPVI-DK-GFSD" in W_METRIC_METHODS
        assert not any(name.startswith(("KW", "S")) for name in W_METRIC_METHODS)


@st.composite
def _weighted_runs(draw):
    """(method, start state, eta_wei, steps): a canonical method on an M <= 24
    cloud in 1-3 dimensions, up to 20 times the table's eta_wei and <= 30 steps.
    CA starts from random weights, every other weight rule from uniform ones."""
    name = draw(st.sampled_from(CANONICAL_METHODS))
    m = draw(st.integers(2, 24))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = np.full(m, 1.0 / m)
    if METHODS[name].weight_mode == "CA":
        weights = rng.dirichlet(np.ones(m))
    state = ParticleState(positions=rng.normal(size=(m, dim)),
                          velocities=np.zeros((m, dim)), weights=weights)
    eta_wei = draw(st.floats(0.0, 20.0)) * default_hyperparameters(name, "gmm")["eta_wei"]
    return name, state, eta_wei, draw(st.integers(1, 30))


class TestWeightInvariants:
    @settings(PROPERTY_SETTINGS, max_examples=100)
    @given(_weighted_runs())
    def test_weights_stay_on_the_simplex_or_uniform(self, run):
        name, state, eta_wei, steps = run
        hyper = default_hyperparameters(name, "gmm")
        hyper["eta_wei"] = eta_wei
        stepper = make_stepper(name, gmm_target(state.dim), DynamicsConfig(**hyper),
                               rng=StepRng(7))
        uniform = np.full(state.num_particles, 1.0 / state.num_particles)
        for _ in range(steps):
            try:
                state = stepper(state)
            except NumericalDivergenceError:
                # a diverged step returns no state to check; at d = 1 some S- and
                # KW-metric methods diverge within 30 steps at the table's step sizes
                break
            w = state.weights
            if METHODS[name].weight_mode == "CA":
                assert w.min() >= 0.0, name
                assert abs(w.sum() - 1.0) <= 1e-12, name
            else:  # DK, fixed weights, SVGD and WNES
                assert np.array_equal(w, uniform), name


class TestParticleStateRejectsMalformedInput:
    @PROPERTY_SETTINGS
    @given(_malformed_states())
    def test_one_malformed_field_is_rejected(self, fields):
        with pytest.raises(InvalidArgumentError):
            ParticleState(**fields)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weight_is_rejected(self, bad):
        # NaN compares False with both the sign and the sum check
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            ParticleState(positions=np.zeros((2, 1)), velocities=np.zeros((2, 1)),
                          weights=np.array([bad, 0.5]))
