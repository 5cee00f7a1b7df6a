"""The stepper's scratch workspace: no (M, M) temporaries, no state carried
between calls, no memory shared with what a step returns, and the same bits
as before at sizes where BLAS and the reused buffers matter.
"""

import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest

from conftest import random_state
from parvikit.core import KernelConfig, ParticleState, Workspace, squared_distances
from parvikit.dynamics import CANONICAL_METHODS, DynamicsConfig, StepRng, make_stepper, parse_method
from parvikit.harness import default_hyperparameters
from parvikit.smoothing import ksdd_first_variation
from parvikit.targets import gmm_target, sg_target

# the KSDD and S-metric methods, whose steps build the most (M, M) arrays
LARGE_M_METHODS = [s.name for s in map(parse_method, CANONICAL_METHODS)
                   if s.kind in ("gad", "first_order") and (s.smoothing == "KSDD" or s.metric == "S")]


def test_one_step_makes_no_m_by_m_temporaries():
    m = 256
    target = sg_target(3)
    start = random_state(m, 3, seed=1, with_velocity=True)
    peaks = {}
    tracemalloc.start()
    try:
        for name in CANONICAL_METHODS:
            cfg = DynamicsConfig(**default_hyperparameters(name, "sg"))
            stepper = make_stepper(name, target, cfg, KernelConfig(), StepRng(0))
            state = stepper(start)  # the warm step sizes the workspace
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            stepper(state)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / (m * m * 8)
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 0.5, peaks


# SVGD, a WNES lookahead, and KSDD smoothing under the KW and S metrics, the
# last with duplicate/kill events firing
REUSE_CASES = ["SVGD", "WNES-KSDD", "KWGAD-CA-KSDD", "SGAD-DK-KSDD"]


def _stepper(name):
    hyper = default_hyperparameters(name, "gmm")
    hyper["eta_wei"] = 5.0  # so that duplicate/kill events fire
    cfg = DynamicsConfig(warmup=False, **hyper)
    return make_stepper(name, gmm_target(2), cfg, KernelConfig(), StepRng(3))


def _arrays(state):
    return (state.positions, state.velocities, state.weights)


@pytest.mark.parametrize("name", REUSE_CASES)
def test_workspace_carries_nothing_between_calls(name):
    uniform = parse_method(name).weight_mode != "CA"
    first = random_state(64, 2, seed=4, with_velocity=True, nonuniform=not uniform)
    other = random_state(32, 2, seed=5, with_velocity=True, nonuniform=not uniform)
    last = random_state(64, 2, seed=6, with_velocity=True, nonuniform=not uniform)
    last = ParticleState(last.positions, last.velocities, last.weights, iteration=7)
    used = _stepper(name)
    out_first = used(first)
    out_other = used(other)
    events = used.counters["dk_event_count"]
    copied = pickle.loads(pickle.dumps(used))  # the workspace is not part of a copy
    out = used(last)
    fresh = _stepper(name)(last)
    for a, b, c in zip(_arrays(out), _arrays(fresh), _arrays(copied(last))):
        assert a.tobytes() == b.tobytes() == c.tobytes()
    if parse_method(name).weight_mode == "DK":
        assert used.counters["dk_event_count"] > events
    returned = _arrays(out)
    for i, a in enumerate(returned):
        for b in returned[i + 1:] + _arrays(out_first) + _arrays(out_other) + _arrays(last):
            assert not np.shares_memory(a, b)


def test_dk_step_without_events_returns_fresh_weights():
    cfg = DynamicsConfig(warmup=False, eta_wei=1e-9)
    stepper = make_stepper("WGAD-DK-BLOB", gmm_target(2), cfg, KernelConfig(), StepRng(0))
    state = random_state(16, 2, seed=0)
    out = stepper(state)
    assert stepper.counters["dk_event_count"] == 0
    assert not np.shares_memory(out.weights, state.weights)


def test_workspace_and_fresh_buffers_agree():
    state = random_state(40, 3, seed=2, nonuniform=True)
    ws = Workspace(40, 3)
    for buf in (ws.a, ws.b, ws.c):
        buf.fill(np.nan)  # stale scratch must not leak into the result
    d2 = squared_distances(state.positions, out=ws.d2, work=ws.k)
    assert d2 is ws.d2
    assert d2.tobytes() == squared_distances(state.positions).tobytes()
    target = sg_target(3)
    with_ws = ksdd_first_variation(state, target, 0.7, d2=d2, ws=ws)
    without = ksdd_first_variation(state, target, 0.7)
    assert with_ws.u.tobytes() == without.u.tobytes()
    assert with_ws.grad_u.tobytes() == without.grad_u.tobytes()
    assert not np.shares_memory(with_ws.u, ws.a) and not np.shares_memory(with_ws.grad_u, ws.c)


# name -> (positions, velocities, weights, (clamp_count, dk_event_count,
# floored_count)): 20 steps on sg:10 at M=256 from random_state(256, 10, seed=0),
# defaults-table step sizes with the weight step 20x the table's and no
# warm-up, recorded from the code before the steppers kept a workspace
PINNED_M256 = {
    'WGAD-CA-KSDD': ('ab8093a4e846fb14', '495182279791bb52', '199aff63cd822c29', (0, 0, 0)),
    'WGAD-DK-KSDD': ('bd89f361e744145c', '0cc1e3e60881538e', '62fd56f6dba82940', (0, 28, 0)),
    'KWGAD-CA-KSDD': ('90b6467674675f70', 'bd5a68bd5de9c0e0', 'fbf32cc151b6f868', (0, 0, 0)),
    'KWGAD-DK-KSDD': ('c02282163ea23e66', '4cf5b141f407920c', '62fd56f6dba82940', (0, 27, 0)),
    'SGAD-CA-BLOB': ('82fd75b3373035c4', '3af698c9756f680a', 'dcc74e827da470be', (0, 0, 0)),
    'SGAD-CA-GFSD': ('a5d1ada754cfb4ba', '19a0baa7ca35c108', 'f4cad62191b1e5ef', (0, 0, 0)),
    'SGAD-CA-KSDD': ('f0f3fecdbe2138f7', '93de8393d07cb996', '04625e6221dd938e', (0, 0, 0)),
    'SGAD-DK-BLOB': ('c53b1bf9b9bacd56', '75bc802ac1c3a604', '62fd56f6dba82940', (0, 625, 0)),
    'SGAD-DK-GFSD': ('a5eb56f87e5b1746', '2e437886c6d498d3', '62fd56f6dba82940', (0, 630, 0)),
    'SGAD-DK-KSDD': ('c85b31f0d03363f8', '2f35310e177c0ab0', '62fd56f6dba82940', (0, 96, 0)),
    'KSDD': ('8c7bbc184341f634', 'cc61635da46b2c99', '62fd56f6dba82940', (0, 0, 0)),
}


def test_large_m_table_covers_the_ksdd_and_s_methods():
    assert list(PINNED_M256) == LARGE_M_METHODS


@pytest.mark.parametrize("name", LARGE_M_METHODS)
def test_large_m_final_state_matches_pinned_digests(name):
    hyper = default_hyperparameters(name, "sg")
    hyper["eta_wei"] *= 20.0
    stepper = make_stepper(name, sg_target(10), DynamicsConfig(warmup=False, **hyper),
                           KernelConfig(), StepRng(0))
    state = random_state(256, 10, seed=0)
    for _ in range(20):
        state = stepper(state)
    counters = stepper.counters
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16] for a in _arrays(state)) + (
        (counters["clamp_count"], counters["dk_event_count"], counters["floored_count"]),)
    assert got == PINNED_M256[name]
