"""Property test: snapshots survive plain-JSON serialization exactly.

The runtime complement to the static SIM001/SIM004 rules: for every
registered fabric backend, at any split point, under any seed,
``restore(json.loads(json.dumps(snapshot())))`` on a fresh, differently
seeded instance snapshots back to the same dict, and the remaining
epochs are bit-identical to never having stopped. Uses stdlib ``json``
directly — stricter than the result cache's encoder, which would mask
a payload that only *its* custom hooks can carry.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import (
    BACKENDS,
    Episode,
    Scenario,
    ScenarioEvent,
    make_backend,
)

N_NODES = 8
MAX_EPOCHS = 6

#: Constructor settings the round trip runs at, per backend: awgr also
#: broadcasts every third slot, at phases drawn from its seed.
VARIANTS = {"awgr": ({}, {"state_update_period": 3})}


def probe_scenario(n_epochs):
    return Scenario(
        name="jsonprop", n_nodes=N_NODES, n_epochs=n_epochs,
        episodes=(
            Episode(kind="uniform",
                    flows={"dist": "poisson", "mean": 6}, gbps=30.0),
            Episode(kind="hotspot",
                    flows={"dist": "pareto", "minimum": 2,
                           "alpha": 1.4},
                    gbps=60.0, params={"hotspot": 1}),
        ),
        events=(
            ScenarioEvent(epoch=1, action="fail_plane", value=0),
            ScenarioEvent(epoch=3, action="repair_plane", value=0),
        ))


def drive(backend, scenario, start, stop, base_seed):
    reports = []
    for epoch in range(start, stop):
        for event in scenario.events_at(epoch):
            backend.apply_event(event)
        reports.append(backend.step(scenario.flow_batch_at(epoch, base_seed)))
    return [r.to_dict() for r in reports]


@pytest.mark.parametrize("name", BACKENDS)
class TestJsonRoundTripProperty:
    @given(seed=st.integers(0, 2**32 - 1),
           n_epochs=st.integers(2, MAX_EPOCHS),
           split_num=st.integers(1, MAX_EPOCHS - 1))
    @settings(max_examples=12, deadline=None)
    def test_restore_after_json_is_bit_identical(self, name, seed,
                                                 n_epochs, split_num):
        split = min(split_num, n_epochs - 1)
        scenario = probe_scenario(n_epochs)
        for params in VARIANTS.get(name, ({},)):
            original = make_backend(name, N_NODES, seed=11, **params)
            drive(original, scenario, 0, split, base_seed=seed)

            wire = json.dumps(original.snapshot())
            # Another seed: whatever the constructor seeds must come
            # back from the snapshot.
            restored = make_backend(name, N_NODES, seed=12, **params)
            restored.restore(json.loads(wire))
            assert restored.snapshot() == json.loads(wire)

            tail_original = drive(original, scenario, split, n_epochs,
                                  base_seed=seed)
            tail_restored = drive(restored, scenario, split, n_epochs,
                                  base_seed=seed)
            assert tail_original == tail_restored

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_snapshot_is_json_pure(self, name, seed):
        """The snapshot dict itself survives the round trip unchanged
        (no tuples/sets/numpy values hiding anywhere)."""
        scenario = probe_scenario(3)
        backend = make_backend(name, N_NODES, seed=11)
        drive(backend, scenario, 0, 3, base_seed=seed)
        snapshot = backend.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
