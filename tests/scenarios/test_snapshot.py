"""Per-backend snapshot/restore round trips (the carry-mode contract).

For every fabric backend: ``restore(snapshot())`` on an identically
configured fresh instance, then N epochs, must be bit-identical to
stepping the original instance those N epochs without the round trip —
including after ``fail_plane``/``repair_plane`` events. All snapshots
are pushed through the result cache's JSON encoding first, exactly as
the sharded runner stores them.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.cache import decode_metrics, encode_metrics
from repro.scenarios import (
    Episode,
    Scenario,
    ScenarioEvent,
    make_backend,
)

N_NODES = 10
RACKMIX = Path(__file__).resolve().parents[2] / "perfbench" / "rackmix.py"


def json_round_trip(snapshot: dict) -> dict:
    return decode_metrics(encode_metrics(snapshot))


def scenario_with_events(n_epochs=8):
    return Scenario(
        name="snapshot-probe", n_nodes=N_NODES, n_epochs=n_epochs,
        episodes=(
            Episode(kind="uniform",
                    flows={"dist": "poisson", "mean": 8}, gbps=25.0),
            Episode(kind="hotspot",
                    flows={"dist": "pareto", "minimum": 3,
                           "alpha": 1.5},
                    gbps=75.0, params={"hotspot": 0}),
        ),
        events=(
            ScenarioEvent(epoch=1, action="fail_plane", value=0),
            ScenarioEvent(epoch=2, action="set_reconfig_time",
                          value=0.05),
            ScenarioEvent(epoch=5, action="repair_plane", value=0),
        ))


def drive(backend, scenario, start, stop, base_seed=3):
    """Step epochs [start, stop) with events, exactly as runners do."""
    reports = []
    for epoch in range(start, stop):
        for event in scenario.events_at(epoch):
            backend.apply_event(event)
        reports.append(backend.step(scenario.flow_batch_at(epoch, base_seed)))
    return [r.to_dict() for r in reports]


def backend_under_test(name, **params):
    return make_backend(name, N_NODES, seed=7, **params)


BACKEND_PARAMS = [
    ("awgr", {}),
    ("wss", {"n_switches": 3, "wavelengths_per_port": 8,
             "reconfig_period": 2}),
    ("electronic", {}),
    ("full_mesh", {"links_per_pair": 2, "gbps_per_link": 40.0}),
    ("dragonfly", {"n_groups": 5, "routing": "minimal",
                   "gbps_per_global_link": 25.0}),
    ("dragonfly", {"n_groups": 5, "routing": "valiant",
                   "gbps_per_global_link": 25.0}),
]


@pytest.mark.parametrize("name,params", BACKEND_PARAMS)
class TestBackendSnapshotRoundTrip:
    def test_restore_then_epochs_bit_identical(self, name, params):
        scenario = scenario_with_events()
        split = 4
        original = backend_under_test(name, **params)
        drive(original, scenario, 0, split)
        snap = json_round_trip(original.snapshot())

        tail_a = drive(original, scenario, split, scenario.n_epochs)
        restored = backend_under_test(name, **params)
        restored.restore(snap)
        tail_b = drive(restored, scenario, split, scenario.n_epochs)
        assert tail_a == tail_b

    def test_snapshot_between_fail_and_repair(self, name, params):
        # The boundary lands at epoch 3: plane 0 failed at 1, repair
        # not until 5 — restored state must still know the failure.
        scenario = scenario_with_events()
        split = 3
        original = backend_under_test(name, **params)
        drive(original, scenario, 0, split)
        restored = backend_under_test(name, **params)
        restored.restore(json_round_trip(original.snapshot()))
        assert (drive(original, scenario, split, scenario.n_epochs)
                == drive(restored, scenario, split, scenario.n_epochs))

    def test_wrong_backend_snapshot_rejected(self, name, params):
        other = {"awgr": "electronic"}.get(name, "awgr")
        snap = backend_under_test(other).snapshot()
        with pytest.raises(ValueError, match="backend"):
            backend_under_test(name, **params).restore(snap)


def test_rack_wss_snapshot_is_compact_and_restores_the_bank():
    # One rack_mix epoch on the paper's 350-MCM rack plans five
    # 350 x 350 switch assignments. As nested JSON lists they took
    # 1.8 MB; as typed envelopes they must fit in 64 KB.
    spec = importlib.util.spec_from_file_location("rackmix", RACKMIX)
    rackmix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rackmix)
    scenario = Scenario.from_config(rackmix.rack_mix(350, 1))
    backend = make_backend("wss", 350)
    backend.step(scenario.flow_batch_at(0))
    encoded = json.dumps(backend.snapshot())
    assert len(encoded) < 64 * 1024
    restored = make_backend("wss", 350)
    restored.restore(json.loads(encoded))
    assert len(restored.fabric.configs) == len(backend.fabric.configs)
    for cfg, twin in zip(restored.fabric.configs, backend.fabric.configs):
        assert cfg.assignment.dtype == np.int64
        assert cfg.assignment.flags.writeable
        np.testing.assert_array_equal(cfg.assignment, twin.assignment)
    assert restored.snapshot() == backend.snapshot()


def test_wss_snapshot_of_another_radix_rejected():
    snapshot = json_round_trip(make_backend("wss", 6).snapshot())
    with pytest.raises(ValueError, match="shape"):
        make_backend("wss", 8).restore(snapshot)
