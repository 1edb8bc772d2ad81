"""The sparse-row WSS bank scheduler equals its per-destination oracle.

``ReconfigurableFabric.reconfigure`` plans every switch at once, a
dependency level of sources per step, each source over its
positive-demand columns only; ``tests.oracles.reconfig`` keeps the loop
that walked each switch and each destination one at a time. Every
assignment and every counter must match exactly.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import reconfig
from repro.network.reconfig import ReconfigurableFabric, schedule_demand
from repro.network.wss_simulator import WSSNetworkSimulator
from repro.scenarios.backends import WSSBackend
from repro.scenarios.scenario import Scenario
from tests.oracles import reconfig as oracle

RACKMIX = Path(__file__).resolve().parents[2] / "perfbench" / "rackmix.py"


@st.composite
def demands(draw) -> np.ndarray:
    """Square demand with remainder ties, a hot column, idle rows and
    single-destination rows; or, in the rack's shape, up to 120 ports
    with 1-4 positive destinations per source."""
    if draw(st.booleans()):
        return draw(sparse_demands())
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


@st.composite
def sparse_demands(draw) -> np.ndarray:
    """Up to 120 ports, each source wanting 1-4 destinations, as an
    aggregated rack epoch does; some sources idle, an optional hot
    column."""
    n = draw(st.integers(2, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    integral = draw(st.booleans())
    demand = np.zeros((n, n))
    for src in range(n):
        peers = np.delete(np.arange(n), src)
        dsts = rng.choice(peers, min(n - 1, int(rng.integers(1, 5))),
                          replace=False)
        if integral:
            # Small integers: equal shares and tied remainders.
            demand[src, dsts] = rng.integers(1, 5, len(dsts))
        else:
            demand[src, dsts] = rng.random(len(dsts)) * 1e3
    if draw(st.booleans()):
        # A hot column, like the I/O node during a checkpoint burst.
        demand[rng.random(n) < 0.5, draw(st.integers(0, n - 1))] = 1e3
    demand[rng.random(n) < draw(st.floats(0.0, 0.3))] = 0.0
    return demand


def row_columns(demand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(bounds, cols)`` of the active rows' positive columns, the
    grouping :func:`reconfig._levels` reads."""
    demand = demand.copy()
    np.fill_diagonal(demand, 0.0)
    lists = [np.flatnonzero(row) for row in demand if row.any()]
    bounds = np.cumsum([0] + [len(cols) for cols in lists])
    return bounds, np.concatenate([np.zeros(0, np.int64)] + lists)


def brute_force_levels(bounds: np.ndarray, cols: np.ndarray) -> list[int]:
    """1 + the highest level among earlier rows sharing a column, or 1."""
    sets = [set(cols[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
    levels = []
    for row, mine in enumerate(sets):
        levels.append(1 + max((levels[earlier] for earlier in range(row)
                               if sets[earlier] & mine), default=0))
    return levels


@given(demand=demands())
@settings(max_examples=200, deadline=None)
def test_levels_match_their_definition(demand):
    bounds, cols = row_columns(demand)
    levels = reconfig._levels(bounds, cols, len(demand))
    assert levels.tolist() == brute_force_levels(bounds, cols)


def hot_column_chain(n: int) -> np.ndarray:
    """Every source but the last wants the last port (the I/O node in
    a checkpoint burst) and one other peer, so each active row waits
    for the one before it."""
    rng = np.random.default_rng(n)
    demand = np.zeros((n, n))
    demand[:-1, -1] = 1e3
    for src in range(n - 1):
        peer = rng.choice(np.delete(np.arange(n - 1), src))
        demand[src, peer] = rng.random() * 1e3
    return demand


def permutation_demand(n: int) -> np.ndarray:
    """Each source wants one peer and no two want the same one."""
    rng = np.random.default_rng(n)
    demand = np.zeros((n, n))
    demand[np.arange(n), (np.arange(n) + 1 + rng.integers(n - 1)) % n] = (
        rng.random(n) * 1e3 + 1.0)
    return demand


@pytest.mark.parametrize("w", [1, 3, 16])
@pytest.mark.parametrize("build, levels", [
    pytest.param(hot_column_chain, lambda n: list(range(1, n)),
                 id="chain"),
    pytest.param(permutation_demand, lambda n: [1] * n,
                 id="permutation"),
])
def test_level_extremes_match_oracle(build, levels, w):
    # A level per row and one level for every row: the planner's two
    # extremes plan the bank exactly as source order does.
    n = 48
    demand = build(n)
    bounds, cols = row_columns(demand)
    assert reconfig._levels(bounds, cols, n).tolist() == levels(n)
    fabric = ReconfigurableFabric(n_switches=3, radix=n,
                                  wavelengths_per_port=w)
    twin = ReconfigurableFabric(n_switches=3, radix=n,
                                wavelengths_per_port=w)
    for step in (demand, demand[::-1]):
        fabric.reconfigure(step)
        oracle.reconfigure(twin, step)
        assert_same_bank(fabric, twin)


@pytest.fixture
def grant_orders(monkeypatch):
    """What each plan handed ``_grant_order`` and which rows it found
    tied."""
    calls = []
    real = reconfig._grant_order

    def spy(demand, totals, w, bias):
        result = real(demand, totals, w, bias)
        calls.append({"demand": demand.copy(), "totals": totals.copy(),
                      "tied": result[-1].tolist()})
        return result

    monkeypatch.setattr(reconfig, "_grant_order", spy)
    return calls


def assert_same_bank(fabric: ReconfigurableFabric,
                     twin: ReconfigurableFabric) -> None:
    assert len(fabric.configs) == len(twin.configs)
    for cfg, expected in zip(fabric.configs, twin.configs):
        np.testing.assert_array_equal(cfg.assignment, expected.assignment)
    assert fabric.ports_disturbed == twin.ports_disturbed
    assert fabric.reconfigurations == twin.reconfigurations
    assert fabric.time_reconfiguring_s == twin.time_reconfiguring_s


@given(demand=demands(), w=st.integers(1, 32), switches=st.integers(1, 11))
@settings(max_examples=300, deadline=None)
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


def test_sparse_row_tie_takes_the_full_row_order(grant_orders):
    # Source 7 wants ports 32, 38 and 48 of a 64-port bank of four
    # 8-wavelength switches. Each switch sees a quarter of the demand,
    # so the shares are exactly 0.5, 1.1875 and 6.3125: floors 0, 1
    # and 6 and one leftover. On switch 3 (stagger 48) the keys of 32
    # and 48 tie exactly: -(0.5 - 48/256) == -(0.3125 - 0/256). The
    # full-row np.argsort puts one of them first, and that order has
    # to hold although only three of the row's 64 columns are planned.
    n = 64
    rng = np.random.default_rng(7)
    demand = np.zeros((n, n))
    for src in range(n):
        dsts = rng.choice(np.delete(np.arange(n), src),
                          int(rng.integers(1, 5)), replace=False)
        demand[src, dsts] = rng.integers(1, 5, len(dsts))
    demand[7] = 0.0
    demand[7, [32, 38, 48]] = [16.0, 38.0, 202.0]
    fabric = ReconfigurableFabric(n_switches=4, radix=n,
                                  wavelengths_per_port=8)
    twin = ReconfigurableFabric(n_switches=4, radix=n,
                                wavelengths_per_port=8)
    fabric.reconfigure(demand)
    oracle.reconfigure(twin, demand)
    assert_same_bank(fabric, twin)
    assert 7 in grant_orders[-1]["tied"]


@given(demand=demands())
@settings(max_examples=50, deadline=None)
def test_batched_row_sums_equal_each_row_sum(demand):
    # The planner takes every source's total from one demand.sum(axis=1)
    # where the one-row scheduler took row.sum(); shares match only if
    # the two agree bit for bit.
    each = np.array([row.sum() for row in demand])
    assert demand.sum(axis=1).tobytes() == each.tobytes()


def test_fortran_ordered_demand_plans_from_exact_row_sums(grant_orders):
    # Summed along axis 1, a Fortran-ordered array accumulates column by
    # column instead of pairwise along each row, so the planner must
    # sum a C-ordered copy.
    rng = np.random.default_rng(3)
    demand = np.asfortranarray(rng.random((120, 120)) * 1e3)
    np.testing.assert_array_equal(schedule_demand(demand, 16),
                                  oracle.schedule_demand(demand, 16))
    seen = grant_orders[-1]
    each = np.array([row.sum() for row in seen["demand"]])
    assert seen["totals"].tobytes() == each.tobytes()


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
