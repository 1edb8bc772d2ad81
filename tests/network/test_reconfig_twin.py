"""The one-pass WSS bank scheduler equals its per-destination oracle.

``ReconfigurableFabric.reconfigure`` plans every switch in one masked
pass per source row; ``tests.oracles.reconfig`` keeps the loop that
walked each switch and each destination one at a time. Every
assignment and every counter must match exactly.
"""

import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.reconfig import ReconfigurableFabric, schedule_demand
from repro.network.wss_simulator import WSSNetworkSimulator
from repro.scenarios.backends import WSSBackend
from repro.scenarios.scenario import Scenario
from tests.oracles import reconfig as oracle

RACKMIX = Path(__file__).resolve().parents[2] / "perfbench" / "rackmix.py"


@st.composite
def demands(draw) -> np.ndarray:
    """Square demand with remainder ties, a hot column, idle rows and
    single-destination rows."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # Small integers: many equal shares and tied remainders.
        top = draw(st.integers(1, 4))
        demand = rng.integers(0, top + 1, (n, n)).astype(float)
    else:
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        demand = rng.random((n, n)) * scale
    demand *= rng.random((n, n)) < draw(st.floats(0.05, 1.0))
    if draw(st.booleans()):
        # Every source wants one output far beyond its port budget.
        demand[:, draw(st.integers(0, n - 1))] = 1e6
    demand[rng.random(n) < draw(st.floats(0.0, 0.5))] = 0.0
    for src in np.flatnonzero(rng.random(n) < draw(st.floats(0.0, 0.5))):
        demand[src] = 0.0
        demand[src, rng.integers(n)] = float(rng.integers(1, 9))
    return demand


def assert_same_bank(fabric: ReconfigurableFabric,
                     twin: ReconfigurableFabric) -> None:
    assert len(fabric.configs) == len(twin.configs)
    for cfg, expected in zip(fabric.configs, twin.configs):
        np.testing.assert_array_equal(cfg.assignment, expected.assignment)
    assert fabric.ports_disturbed == twin.ports_disturbed
    assert fabric.reconfigurations == twin.reconfigurations
    assert fabric.time_reconfiguring_s == twin.time_reconfiguring_s


@given(demand=demands(), w=st.integers(1, 32), switches=st.integers(1, 11))
@settings(max_examples=150, deadline=None)
def test_bank_matches_oracle_switch_by_switch(demand, w, switches):
    n = len(demand)
    fabric = ReconfigurableFabric(n_switches=switches, radix=n,
                                  wavelengths_per_port=w)
    twin = ReconfigurableFabric(n_switches=switches, radix=n,
                                wavelengths_per_port=w)
    # The second plan starts from a populated bank, so ports_disturbed
    # counts real changes.
    for step in (demand, demand[::-1]):
        fabric.reconfigure(step)
        oracle.reconfigure(twin, step)
        assert_same_bank(fabric, twin)
    stagger = ((switches - 1) * n) // switches
    np.testing.assert_array_equal(
        schedule_demand(demand, w, stagger=stagger),
        oracle.schedule_demand(demand, w, stagger=stagger))


def test_tied_remainders_follow_argsort_tie_order():
    # Demand j + (j % 2) toward destination j sums to 4 * n * w at
    # n = 40, w = 5, so each share is within rounding of its stagger
    # bias j / 4n plus 0 or 1/4n. The sort keys collapse into a few
    # tie groups, and the leftovers land where np.argsort's own tie
    # order puts them (a stable sort would pick differently).
    n, w = 40, 5
    demand = np.zeros((n, n))
    demand[0] = np.arange(n) + np.arange(n) % 2
    assert demand.sum() == 4 * n * w
    np.testing.assert_array_equal(schedule_demand(demand, w),
                                  oracle.schedule_demand(demand, w))


def test_rack_mix_bank_matches_oracle_across_plane_events():
    spec = importlib.util.spec_from_file_location("rackmix", RACKMIX)
    rackmix = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rackmix)
    # 64 MCMs over 6 epochs: fail_plane at epoch 2 drops a switch,
    # repair_plane at epoch 4 brings back an empty one.
    scenario = Scenario.from_config(rackmix.rack_mix(64, 6))
    backend, twin = WSSBackend(n_nodes=64), WSSBackend(n_nodes=64)
    bank_sizes = []
    for epoch in range(scenario.n_epochs):
        for event in scenario.events_at(epoch):
            assert backend.apply_event(event)
            assert twin.apply_event(event)
        demand = WSSNetworkSimulator.demand_matrix(
            scenario.flow_batch_at(epoch), scenario.n_nodes)
        backend.fabric.reconfigure(demand)
        oracle.reconfigure(twin.fabric, demand)
        assert_same_bank(backend.fabric, twin.fabric)
        bank_sizes.append(len(backend.fabric.configs))
    assert bank_sizes == [5, 5, 4, 4, 5, 5]
    assert backend.fabric.reconfigurations == 6
