"""Pinned 50-step final states of every canonical method.

Each method runs 50 steps on gmm:2 from the same 16-particle start (seed 0,
zero velocities, uniform weights) with its defaults-table step sizes, except
that the weight step is 20x the table's value without warm-up, so that every
duplicate/kill method fires events within the 50 steps. The sha256 digests
(first 16 hex digits) of the final positions, velocities and weights, and the
stepper's counters, were recorded from the code before the steppers were
merged into one accelerated step; any change to the arithmetic of a step
shows up here.

WNES-BLOB's velocity digest is the one deliberate change: WNES now keeps
x_k - x_{k-1} in its velocity slot instead of leaving the zero velocities of
the start untouched.
"""

import hashlib

import pytest

from conftest import random_state
from parvikit.core import KernelConfig
from parvikit.dynamics import CANONICAL_METHODS, DynamicsConfig, StepRng, make_stepper
from parvikit.harness import default_hyperparameters
from parvikit.targets import gmm_target

# name -> (positions, velocities, weights, (clamp_count, dk_event_count, floored_count))
PINNED = {
    'WGAD-CA-BLOB': ('11afb04e00796e05', '7e012e103bda82ee', '5398af43ec41b12a', (0, 0, 0)),
    'WGAD-CA-GFSD': ('fbb4652ed5c59711', 'a36446e3ae28a2dd', '229aec9b86b79452', (0, 0, 0)),
    'WGAD-CA-KSDD': ('ad3c4d126de4a0f9', '55fe5f029fc5171f', 'e89bfc0b23a16865', (0, 0, 0)),
    'WGAD-DK-BLOB': ('a6eff5e7a34b8a44', '4a5edf6003fdb886', 'd5ced4a0fdc0dcd8', (0, 3, 0)),
    'WGAD-DK-GFSD': ('6a9cc748407ad438', '4e1d876d6d24ad37', 'd5ced4a0fdc0dcd8', (0, 3, 0)),
    'WGAD-DK-KSDD': ('2f6eb0f1a9f029a3', 'e9a64154b7f39f9a', 'd5ced4a0fdc0dcd8', (0, 1, 0)),
    'KWGAD-CA-BLOB': ('f8ccd48ebe37ff61', '4a6babf4e6c7704b', '6ed7e5f3470dfe63', (0, 0, 0)),
    'KWGAD-CA-GFSD': ('696749122115b885', 'ce2300b4c0fd568c', 'c60958a4658a0567', (0, 0, 0)),
    'KWGAD-CA-KSDD': ('e4907550194beb0d', '961f79a872088c67', '0fc70b982273d4d6', (0, 0, 0)),
    'KWGAD-DK-BLOB': ('2ed804818355d95d', '433766adfccba318', 'd5ced4a0fdc0dcd8', (0, 3, 0)),
    'KWGAD-DK-GFSD': ('2038c593927acf8c', '5530431be2dd6e55', 'd5ced4a0fdc0dcd8', (0, 3, 0)),
    'KWGAD-DK-KSDD': ('f63bf99bdcd44f4e', '20e038de359a45b4', 'd5ced4a0fdc0dcd8', (0, 2, 0)),
    'SGAD-CA-BLOB': ('ef391bab1a0ec265', '9d95c7f722661d87', 'a3c2e1a56c798af3', (0, 0, 0)),
    'SGAD-CA-GFSD': ('bcc4d4604d52d62b', '6ef83568feb26199', '7cf00b94681cd8d4', (0, 0, 0)),
    'SGAD-CA-KSDD': ('ddf28f9c8c613620', '4e8a7f857f1ec766', 'cb74c372f0b60ff0', (0, 0, 0)),
    'SGAD-DK-BLOB': ('1f4a233388d3719e', '42b6fbb9766a295e', 'd5ced4a0fdc0dcd8', (0, 8, 0)),
    'SGAD-DK-GFSD': ('c09253119ab6b10a', 'fa5aa486d05a463e', 'd5ced4a0fdc0dcd8', (0, 6, 0)),
    'SGAD-DK-KSDD': ('8ce4e509c96a00d8', '7e5dc12912ef4eac', 'd5ced4a0fdc0dcd8', (0, 5, 0)),
    'BLOB': ('65582585f1f1dd5f', '5341e6b2646979a7', 'd5ced4a0fdc0dcd8', (0, 0, 0)),
    'GFSD': ('60c5087245bf41d7', '5341e6b2646979a7', 'd5ced4a0fdc0dcd8', (0, 0, 0)),
    'KSDD': ('514caf1106888c6d', '5341e6b2646979a7', 'd5ced4a0fdc0dcd8', (0, 0, 0)),
    'SVGD': ('4e3b0b68e75a1827', '5341e6b2646979a7', 'd5ced4a0fdc0dcd8', (0, 0, 0)),
    'WAIG-BLOB': ('433f830994f967ff', '5c1de7a4e6686ce9', 'd5ced4a0fdc0dcd8', (0, 0, 0)),
    'WNES-BLOB': ('d9ac0ede9a360611', '517083bb4376e438', 'd5ced4a0fdc0dcd8', (0, 0, 0)),
    'DPVI-CA-BLOB': ('df08e4f9ee814060', '5341e6b2646979a7', '8e71b212a23ba085', (0, 0, 0)),
    'DPVI-DK-BLOB': ('6563660d70f8c419', '5341e6b2646979a7', 'd5ced4a0fdc0dcd8', (0, 38, 0)),
}


def final_state(name, steps=50):
    hyper = default_hyperparameters(name, "gmm")
    hyper["eta_wei"] *= 20.0
    cfg = DynamicsConfig(warmup=False, **hyper)
    stepper = make_stepper(name, gmm_target(2), cfg, KernelConfig(), StepRng(0))
    state = random_state(16, 2, seed=0)
    for _ in range(steps):
        state = stepper(state)
    return state, stepper.counters


def digests(name):
    state, counters = final_state(name)
    hashes = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:16]
                   for a in (state.positions, state.velocities, state.weights))
    counts = (counters["clamp_count"], counters["dk_event_count"], counters["floored_count"])
    return hashes + (counts,)


def test_pinned_table_covers_every_canonical_method():
    assert list(PINNED) == list(CANONICAL_METHODS)


@pytest.mark.parametrize("name", CANONICAL_METHODS)
def test_final_state_matches_pinned_digests(name):
    assert digests(name) == PINNED[name]
