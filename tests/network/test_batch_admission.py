"""Scalar-vs-batched admission equivalence (the PR 3 hot path).

The batched path (:meth:`AWGRNetworkSimulator.offer_batch`) must be an
*exact* replay of sequential per-flow admission, which
``ScalarAWGRNetworkSimulator.offer`` in ``tests/oracles/simulator.py``
keeps: identical :class:`SimulationReport` aggregates (bit-identical
floats), identical wavelength occupancy, identical stale
mispredictions and RNG consumption — on uniform, hotspot, stale-state, and
failure-injected workloads. These are seeded property-style suites:
each case loops over several seeds rather than one hand-picked
instance.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.simulator import (
    BLOCKED,
    DIRECT,
    AWGRNetworkSimulator,
    sequential_sum,
)
from repro.network.traffic import FlowBatch, hotspot_batch, uniform_batch
from tests.oracles.flows import Flow, from_flows
from tests.oracles.routing import _KIND_BY_CODE, RouteKind
from tests.oracles.simulator import ScalarAWGRNetworkSimulator


def make_pair(seed: int, **kwargs) -> tuple[ScalarAWGRNetworkSimulator,
                                            AWGRNetworkSimulator]:
    """Twin simulators: scalar reference and batched hot path."""
    scalar = ScalarAWGRNetworkSimulator(rng_seed=seed, **kwargs)
    batched = AWGRNetworkSimulator(rng_seed=seed, **kwargs)
    return scalar, batched


def assert_equivalent(scalar: ScalarAWGRNetworkSimulator,
                      batched: AWGRNetworkSimulator,
                      batches, duration_slots: int):
    """Run both paths and require bit-identical observable state;
    return the batched path's report."""
    report_scalar = scalar.run(batches, duration_slots)
    report_batched = batched.run(batches, duration_slots)
    assert report_scalar.as_dict() == report_batched.as_dict()
    assert report_scalar.hop_histogram == report_batched.hop_histogram
    assert report_scalar.offered_gbps == report_batched.offered_gbps
    assert report_scalar.carried_gbps == report_batched.carried_gbps
    assert np.array_equal(scalar.allocator._occupancy,
                          batched.allocator._occupancy)
    assert (scalar.router.stale_mispredictions
            == batched.router.stale_mispredictions)
    return report_batched


class TestSeededEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_uniform_light_all_direct(self, seed):
        scalar, batched = make_pair(seed, n_nodes=20, planes=4,
                                    flows_per_wavelength=4)
        batches = [uniform_batch(20, 30, gbps=5.0, rng=100 + seed)
                   for _ in range(5)]
        assert_equivalent(scalar, batched, batches, duration_slots=2)

    @pytest.mark.parametrize("seed", range(6))
    def test_uniform_heavy_with_indirection(self, seed):
        scalar, batched = make_pair(seed, n_nodes=16, planes=2,
                                    flows_per_wavelength=1)
        batches = [uniform_batch(16, 40, gbps=25.0, rng=200 + seed)
                   for _ in range(6)]
        assert_equivalent(scalar, batched, batches, duration_slots=3)

    @pytest.mark.parametrize("seed", range(6))
    def test_hotspot_overload_blocks(self, seed):
        scalar, batched = make_pair(seed, n_nodes=12, planes=2,
                                    flows_per_wavelength=1)
        batches = [hotspot_batch(12, 0, 30, gbps=25.0, rng=300 + seed)
                   for _ in range(4)]
        report = assert_equivalent(scalar, batched, batches,
                                   duration_slots=4)
        # The workload must actually exercise blocking.
        assert report.blocked > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_stale_state_fallback(self, seed):
        kwargs = dict(n_nodes=12, planes=2, flows_per_wavelength=1,
                      state_update_period=25)
        scalar, batched = make_pair(seed, **kwargs)
        batches = [hotspot_batch(12, 0, 8, gbps=25.0, rng=seed)
                   for _ in range(5)]
        assert_equivalent(scalar, batched, batches, duration_slots=3)
        # Staleness was actually exercised (fallback path + RNG draws).
        assert batched.router.stale_mispredictions > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_multi_slot_flows(self, seed):
        """Flows wider than one sub-slot hit the argpartition fill."""
        scalar, batched = make_pair(seed, n_nodes=10, planes=3,
                                    flows_per_wavelength=8)
        batches = [uniform_batch(10, 20, gbps=60.0, rng=400 + seed)
                   for _ in range(4)]
        assert_equivalent(scalar, batched, batches, duration_slots=2)

    def test_mixed_demand_same_pair_interleaving(self):
        """Same-pair flows straddling the direct budget split exactly
        like the sequential loop (prefix direct, rest indirect)."""
        scalar, batched = make_pair(0, n_nodes=8, planes=2,
                                    flows_per_wavelength=1)
        batch = FlowBatch(src=[1, 1, 1, 1, 1, 2, 1],
                          dst=[0, 0, 0, 0, 0, 3, 0], gbps=[25.0] * 7)
        assert_equivalent(scalar, batched, [batch], duration_slots=2)

    def test_indirect_reservation_steals_later_direct_capacity(self):
        """An indirect flow's intermediate-hop reservation must count
        against a later flow's direct check, exactly as sequentially.

        On a 3-node, 1-plane fabric: two (0, 1) flows exhaust the
        direct wavelength and force one through intermediate 2, which
        reserves (0, 2) and (2, 1). The next (2, 1) flow then cannot
        go direct even though nothing was offered on that pair yet.
        """
        scalar, batched = make_pair(0, n_nodes=3, planes=1,
                                    flows_per_wavelength=1)
        batch = FlowBatch(src=[0, 0, 2], dst=[1, 1, 1], gbps=[25.0] * 3)
        report = assert_equivalent(scalar, batched, [batch],
                                   duration_slots=2)
        # Sanity: the third flow really was displaced.
        assert report.carried_direct == 1
        assert report.blocked >= 1


def spy_route_tokens(sim: AWGRNetworkSimulator) -> list[int]:
    """Record the kind code of every ``route_tokens`` answer."""
    codes: list[int] = []
    route_tokens = sim.router.route_tokens

    def spy(*args, **kwargs):
        result = route_tokens(*args, **kwargs)
        codes.append(result[0])
        return result

    sim.router.route_tokens = spy
    return codes


@st.composite
def admission_cases(draw):
    """A fabric, planes failed up front, and a few slots of flows.

    Flows run between at most four nodes, so one pair sees several
    flows of mixed sub-slot sizes (some larger than the pair's whole
    capacity) and routed hops land on pairs with direct flows later
    in the batch. A drawn hot destination gets its column saturated
    at the head of the first slot.
    """
    n = draw(st.integers(3, 5))
    planes = draw(st.integers(1, 4))
    fpw = draw(st.integers(1, 3))
    config = dict(n_nodes=n, planes=planes, flows_per_wavelength=fpw,
                  state_update_period=draw(st.integers(1, 3)),
                  seed=draw(st.integers(0, 2**32 - 1)))
    failed = draw(st.lists(st.integers(0, planes - 1), unique=True,
                           max_size=planes - 1))
    capacity = (planes - len(failed)) * fpw
    slot_gbps = 25.0 / fpw
    nodes = st.integers(0, min(n, 4) - 1)
    flow = st.builds(
        lambda pair, k: Flow(pair[0], pair[1], k * slot_gbps),
        st.tuples(nodes, nodes).filter(lambda p: p[0] != p[1]),
        st.just(1) | st.integers(1, planes * fpw + 1))
    slots = draw(st.lists(st.lists(flow, max_size=30), min_size=1,
                          max_size=3))
    hot = draw(st.none() | st.integers(0, n - 1))
    if hot is not None:
        slots[0] = [Flow(x, hot, capacity * slot_gbps)
                    for x in range(n) if x != hot] + slots[0]
    return (config, failed, slots, draw(st.integers(1, 3)),
            draw(st.integers(0, planes - 1)))


class TestGeneratedEquivalence:
    @given(case=admission_cases())
    @settings(max_examples=200, deadline=None)
    # A (0, 1) flow wider than the pair's capacity, then ones it takes.
    @example(case=({"n_nodes": 4, "planes": 2, "flows_per_wavelength": 1,
                    "state_update_period": 1, "seed": 0}, [],
                   [[Flow(0, 1, 75.0), Flow(0, 1, 25.0),
                     Flow(0, 1, 25.0), Flow(0, 1, 25.0)]], 2, 0))
    # A routed (0, 1) flow reserves (0, 2) and (2, 1) ahead of the
    # direct (2, 1) flow behind it.
    @example(case=({"n_nodes": 3, "planes": 1, "flows_per_wavelength": 1,
                    "state_update_period": 1, "seed": 0}, [],
                   [[Flow(0, 1, 25.0), Flow(0, 1, 25.0),
                     Flow(0, 2, 25.0), Flow(2, 1, 25.0)]], 1, 0))
    def test_offer_batch_replays_offer(self, case):
        """``offer_batch`` against the per-flow ``offer`` loop: kinds,
        hops, stale mispredictions and occupancy after every slot, then the
        dropped count and occupancy after a later plane failure and
        after everything expires. ``route_tokens`` never answers
        DIRECT, so the scan routes only flows their pair cannot
        take."""
        config, failed, slots, duration, later = case
        scalar, batched = make_pair(**config)
        codes = spy_route_tokens(batched)
        for plane in failed:
            assert scalar.fail_plane(plane) == batched.fail_plane(plane) == 0
        for flows in slots:
            expected = [scalar.offer(flow, duration) for flow in flows]
            decisions = batched.offer_batch(from_flows(flows), duration)
            assert [_KIND_BY_CODE[k] for k in decisions.kinds.tolist()] \
                == [d.kind for d in expected]
            assert decisions.hops.tolist() == [d.hops for d in expected]
            assert (scalar.router.stale_mispredictions
                    == batched.router.stale_mispredictions)
            assert np.array_equal(scalar.allocator._occupancy,
                                  batched.allocator._occupancy)
            scalar.step()
            batched.step()
        assert DIRECT not in codes
        if later not in batched.allocator.failed_planes and (
                batched.allocator.healthy_planes > 1):
            assert scalar.fail_plane(later) == batched.fail_plane(later)
            assert np.array_equal(scalar.allocator._occupancy,
                                  batched.allocator._occupancy)
        for _ in range(duration):
            scalar.step()
            batched.step()
        assert not scalar.allocator._occupancy.any()
        assert not batched.allocator._occupancy.any()

    def test_routes_only_flows_their_pair_cannot_take(self):
        """A flow too big for its pair goes to the router once; the
        smaller flow behind it on the same pair stays direct."""
        sim = AWGRNetworkSimulator(n_nodes=4, planes=5,
                                   flows_per_wavelength=1)
        codes = spy_route_tokens(sim)
        decisions = sim.offer_batch(
            FlowBatch(src=[0, 0], dst=[1, 1], gbps=[150.0, 25.0]))
        assert codes == [BLOCKED]
        assert decisions.kinds.tolist() == [BLOCKED, DIRECT]


class TestFailureInjectedEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_mid_run_failure_and_repair(self, seed):
        kwargs = dict(n_nodes=14, planes=4, flows_per_wavelength=2)
        scalar, batched = make_pair(seed, **kwargs)
        rng_a = np.random.default_rng(500 + seed)
        rng_b = np.random.default_rng(500 + seed)

        def drive(sim, rng):
            dropped = []
            reports = []
            for phase in range(3):
                batches = [uniform_batch(14, 25, gbps=25.0, rng=rng)
                           for _ in range(3)]
                reports.append(sim.run(batches, duration_slots=4))
                if phase == 0:
                    dropped.append(sim.fail_plane(1))
                elif phase == 1:
                    dropped.append(sim.fail_plane(3))
                    sim.repair_plane(1)
                else:
                    sim.repair_plane(3)
            return dropped, reports

        dropped_scalar, reports_scalar = drive(scalar, rng_a)
        dropped_batched, reports_batched = drive(batched, rng_b)
        assert dropped_scalar == dropped_batched
        for ra, rb in zip(reports_scalar, reports_batched):
            assert ra.as_dict() == rb.as_dict()
        assert np.array_equal(scalar.allocator._occupancy,
                              batched.allocator._occupancy)

    @pytest.mark.parametrize("seed", range(4))
    def test_occupancy_never_negative_across_fail_repair_cycles(self, seed):
        sim = AWGRNetworkSimulator(n_nodes=12, planes=3,
                                   flows_per_wavelength=2,
                                   rng_seed=seed, track_state=False)
        rng = np.random.default_rng(seed)
        occupancy = sim.allocator._occupancy
        for cycle in range(4):
            sim.offer_batch(uniform_batch(12, 40, gbps=25.0, rng=rng),
                            duration_slots=3)
            assert (occupancy >= 0).all()
            plane = cycle % 3
            sim.fail_plane(plane)
            assert (occupancy >= 0).all()
            sim.offer_batch(uniform_batch(12, 20, gbps=25.0, rng=rng),
                            duration_slots=2)
            sim.step()
            assert (occupancy >= 0).all()
            sim.repair_plane(plane)
            sim.step()
            sim.step()
            assert (occupancy >= 0).all()
        sim.drain()
        assert (occupancy == 0).all()
        assert sim.allocator.utilization() == 0.0


class TestOfferBatchAPI:
    def test_empty_batch(self):
        sim = AWGRNetworkSimulator(n_nodes=6)
        decisions = sim.offer_batch(FlowBatch.empty(), duration_slots=2)
        assert len(decisions.kinds) == 0
        assert len(decisions.gbps) == 0

    def test_single_flow_matches_offer(self):
        a = ScalarAWGRNetworkSimulator(n_nodes=6)
        b = AWGRNetworkSimulator(n_nodes=6)
        decision = a.offer(Flow(0, 1, gbps=25.0), duration_slots=2)
        decisions = b.offer_batch(
            FlowBatch(src=[0], dst=[1], gbps=[25.0]), duration_slots=2)
        assert decision.kind is RouteKind.DIRECT
        assert decisions.kinds[0] == DIRECT
        assert decisions.hops[0] == 1
        assert np.array_equal(a.allocator._occupancy,
                              b.allocator._occupancy)

    def test_out_of_range_endpoints_rejected(self):
        """Numpy negative-index wraparound must not admit bad flows."""
        sim = AWGRNetworkSimulator(n_nodes=6)
        bad = FlowBatch(src=[-1], dst=[2], gbps=[5.0])
        with pytest.raises(ValueError, match="out of range"):
            sim.offer_batch(bad)
        assert (sim.allocator._occupancy == 0).all()

    def test_blocked_flow_reported(self):
        sim = AWGRNetworkSimulator(n_nodes=2, planes=1,
                                   flows_per_wavelength=1)
        decisions = sim.offer_batch(
            FlowBatch(src=[0, 0], dst=[1, 1], gbps=[25.0, 25.0]),
            duration_slots=2)
        assert decisions.kinds.tolist() == [DIRECT, BLOCKED]
        assert decisions.hops.tolist() == [1, 0]
        assert decisions.carried_mask.tolist() == [True, False]

    def test_batched_flows_retire_on_schedule(self):
        sim = AWGRNetworkSimulator(n_nodes=6, planes=1,
                                   flows_per_wavelength=1)
        sim.offer_batch(FlowBatch(src=[0], dst=[1], gbps=[25.0]),
                        duration_slots=2)
        assert sim.allocator.used_slots(0, 1) == 1
        sim.step()
        assert sim.allocator.used_slots(0, 1) == 1
        sim.step()
        assert sim.allocator.used_slots(0, 1) == 0

    def test_sequential_sum_matches_python_accumulation(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(2.0, 1.5, size=257)
        total = 0.1
        for value in values:
            total += float(value)
        assert sequential_sum(0.1, values) == total
