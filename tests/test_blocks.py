"""The cache-blocked (M, M) stage: a self product and a cross product take
one path, a cloud split into several row blocks gives the one-block result,
and a stepper's block buffers follow the cloud's shape.
"""

import numpy as np
import pytest

from conftest import random_state
from parvikit import core
from parvikit.core import KernelConfig, ParticleState, Workspace, bandwidth_nn, squared_distances
from parvikit.dynamics import DynamicsConfig, StepRng, gad_step, make_stepper
from parvikit.harness import default_hyperparameters
from parvikit.smoothing import ksdd_first_variation
from parvikit.targets import gmm_target, sg_target

SEVERAL = 300  # blocks of 104, 104 and 92 rows


def _max_rel(got, want):
    return float(np.abs(got - want).max()) / float(np.abs(want).max())


@pytest.mark.parametrize("m", [16, 20, 100, 300, 512])
@pytest.mark.parametrize("d", [2, 10])
def test_self_and_cross_products_agree_bit_for_bit(m, d):
    # numpy sends x @ x.T to BLAS syrk, which rounds unlike gemm at some M (20 and 100 here)
    x = np.random.default_rng(m + d).normal(size=(m, d))
    assert squared_distances(x).tobytes() == squared_distances(x, x.copy()).tobytes()


def _one_block_and_several(monkeypatch, call):
    """call() with the default blocks, then with one block covering the cloud."""
    assert Workspace(SEVERAL, 2).rows == 104
    several = call()
    with monkeypatch.context() as patch:
        patch.setattr(core, "BLOCK_DOUBLES", SEVERAL * SEVERAL)
        assert Workspace(SEVERAL, 2).rows == SEVERAL
        one = call()
    return several, one


@pytest.mark.parametrize("kind,d", [("sg", 3), ("gmm", 2)])
def test_several_blocks_match_one_block(monkeypatch, kind, d):
    target = sg_target(d) if kind == "sg" else gmm_target(d)
    state = random_state(SEVERAL, d, seed=7, nonuniform=True, with_velocity=True)
    x = state.positions
    h = bandwidth_nn(x)

    several, one = _one_block_and_several(monkeypatch, lambda: squared_distances(x))
    assert _max_rel(several, one) <= 1e-13

    several, one = _one_block_and_several(
        monkeypatch, lambda: ksdd_first_variation(state, target, h))
    assert _max_rel(several.u, one.u) <= 1e-13
    assert _max_rel(several.grad_u, one.grad_u) <= 1e-13

    cfg = DynamicsConfig(weight_mode="CA", warmup=False, **default_hyperparameters("SGAD-CA-KSDD", kind))

    def s_step():
        ws = Workspace(SEVERAL, d)
        k = np.exp(squared_distances(x) / -h)
        fv = ksdd_first_variation(state, target, h, k=k, ws=ws)
        return gad_step("S", state, fv, cfg, StepRng(0), h=h, k=k, ws=ws)

    several, one = _one_block_and_several(monkeypatch, s_step)
    for name in ("positions", "velocities", "weights"):
        assert _max_rel(getattr(several, name), getattr(one, name)) <= 1e-13, name


@pytest.mark.parametrize("name", ["KSDD", "SGAD-CA-KSDD", "SGAD-DK-BLOB", "KWGAD-DK-KSDD"])
def test_block_buffers_follow_the_cloud_shape(name):
    hyper = default_hyperparameters(name, "sg")
    hyper["eta_wei"] *= 20.0  # so that duplicate/kill events fire
    cfg = DynamicsConfig(warmup=False, **hyper)

    def stepper():
        return make_stepper(name, sg_target(3), cfg, KernelConfig(), StepRng(2))

    used = stepper()
    for i, m in enumerate((64, SEVERAL, 64)):  # one block, three blocks, one block again
        state = random_state(m, 3, seed=i, with_velocity=True)
        state = ParticleState(state.positions, state.velocities, state.weights, iteration=5)
        out, fresh = used(state), stepper()(state)
        assert used._ws.b.shape == (core.block_rows(m, m), m)
        for a, b in ((out.positions, fresh.positions), (out.velocities, fresh.velocities),
                     (out.weights, fresh.weights)):
            assert a.tobytes() == b.tobytes()
