"""Flow-level AWGR simulator (paper §IV / §VI-A)."""

import pytest

from repro.network.simulator import DIRECT, AWGRNetworkSimulator
from repro.network.traffic import FlowBatch, hotspot_batch, uniform_batch


def offer(sim: AWGRNetworkSimulator, src: int, dst: int,
          duration_slots: int = 1) -> int:
    """Admit one 25 Gbps flow; the kind code it was carried (or
    blocked) as."""
    decisions = sim.offer_batch(
        FlowBatch(src=[src], dst=[dst], gbps=[25.0]), duration_slots)
    return int(decisions.kinds[0])


class TestAdmission:
    def test_single_flow_direct(self):
        sim = AWGRNetworkSimulator(n_nodes=8)
        assert offer(sim, 0, 1) == DIRECT

    def test_slot_granularity(self):
        sim = AWGRNetworkSimulator(n_nodes=8)
        assert sim.slot_gbps == pytest.approx(25.0 / 8)

    def test_flow_retires_after_duration(self):
        sim = AWGRNetworkSimulator(n_nodes=4, planes=1,
                                   flows_per_wavelength=1)
        offer(sim, 0, 1, duration_slots=1)
        assert sim.allocator.used_slots(0, 1) == 1
        sim.step()
        assert sim.allocator.used_slots(0, 1) == 0

    def test_long_flow_persists(self):
        sim = AWGRNetworkSimulator(n_nodes=4, planes=1,
                                   flows_per_wavelength=1)
        offer(sim, 0, 1, duration_slots=3)
        sim.step()
        assert sim.allocator.used_slots(0, 1) == 1

    def test_drain_releases_all(self):
        sim = AWGRNetworkSimulator(n_nodes=6)
        for dst in range(1, 6):
            offer(sim, 0, dst, duration_slots=10)
        sim.drain()
        assert sim.allocator.utilization() == 0.0


class TestMidRunPlaneFailure:
    def test_fail_plane_drops_riding_flows_only(self):
        sim = AWGRNetworkSimulator(n_nodes=8, planes=2,
                                   flows_per_wavelength=1)
        # Two same-pair flows land on planes 0 and 1 (least-loaded
        # fill); a third pair rides its own wavelengths.
        offer(sim, 1, 0, duration_slots=10)
        offer(sim, 1, 0, duration_slots=10)
        offer(sim, 2, 3, duration_slots=10)
        dropped = sim.fail_plane(0)
        assert dropped == 2  # one of pair (1,0) and one of (2,3)
        assert sim.allocator.healthy_planes == 1

    def test_fail_plane_releases_survivor_reservations(self):
        sim = AWGRNetworkSimulator(n_nodes=8, planes=2,
                                   flows_per_wavelength=1)
        # Overload one pair so some flows route indirectly and hold
        # reservations on two hops across both planes.
        for _ in range(6):
            offer(sim, 1, 0, duration_slots=10)
        sim.fail_plane(0)
        sim.repair_plane(0)
        sim.drain()
        assert sim.allocator.utilization() == 0.0

    def test_repair_restores_capacity(self):
        sim = AWGRNetworkSimulator(n_nodes=4, planes=3,
                                   flows_per_wavelength=1)
        sim.fail_plane(1)
        assert sim.allocator.healthy_planes == 2
        sim.repair_plane(1)
        assert sim.allocator.healthy_planes == 3
        assert sim.allocator.free_slots(0, 1) == 3

    def test_drain_frees_capacity_for_subsequent_offers(self):
        """After drain(), a previously saturated pair admits direct
        again — the freed slots are really back in the allocator."""
        sim = AWGRNetworkSimulator(n_nodes=4, planes=1,
                                   flows_per_wavelength=1)
        first = offer(sim, 0, 1, duration_slots=100)
        assert first == DIRECT
        assert sim.allocator.free_slots(0, 1) == 0
        # The direct wavelength is taken: the next offer must detour.
        second = offer(sim, 0, 1, duration_slots=100)
        assert second != DIRECT
        sim.drain()
        assert sim.allocator.free_slots(0, 1) == 1
        again = offer(sim, 0, 1, duration_slots=1)
        assert again == DIRECT

    def test_drain_is_idempotent(self):
        sim = AWGRNetworkSimulator(n_nodes=4)
        offer(sim, 0, 1, duration_slots=5)
        sim.drain()
        sim.drain()
        assert sim.allocator.utilization() == 0.0


class TestRunReports:
    def test_light_uniform_all_direct(self):
        sim = AWGRNetworkSimulator(n_nodes=16, rng_seed=1)
        batches = [uniform_batch(16, 8, gbps=3.0) for _ in range(5)]
        report = sim.run(batches, duration_slots=1)
        assert report.offered == 40
        assert report.acceptance_ratio == 1.0
        assert report.carried_direct == 40
        assert report.indirect_fraction == 0.0

    def test_hotspot_triggers_indirection(self):
        sim = AWGRNetworkSimulator(n_nodes=16, planes=2,
                                   flows_per_wavelength=1, rng_seed=2)
        # One source demands five full wavelengths toward node 0 but
        # owns only two direct ones, so indirection must appear.
        batches = [FlowBatch(src=[1] * 5, dst=[0] * 5, gbps=[25.0] * 5)]
        report = sim.run(batches, duration_slots=4)
        assert report.carried_direct == 2
        assert report.carried_indirect + report.carried_double == 3

    def test_overload_blocks(self):
        sim = AWGRNetworkSimulator(n_nodes=4, planes=1,
                                   flows_per_wavelength=1, rng_seed=3)
        batches = [hotspot_batch(4, 0, 12, gbps=25.0)]
        report = sim.run(batches, duration_slots=10)
        assert report.blocked > 0
        assert report.acceptance_ratio < 1.0

    def test_throughput_ratio_accounts_bandwidth(self):
        sim = AWGRNetworkSimulator(n_nodes=8, rng_seed=4)
        batches = [uniform_batch(8, 4, gbps=10.0)]
        report = sim.run(batches)
        assert report.throughput_ratio == pytest.approx(1.0)
        assert report.offered_gbps == pytest.approx(40.0)

    def test_hop_histogram_populated(self):
        sim = AWGRNetworkSimulator(n_nodes=8, rng_seed=5)
        report = sim.run([uniform_batch(8, 6, gbps=5.0)])
        assert sum(report.hop_histogram.values()) == 6
        assert report.hop_histogram.get(1, 0) > 0

    def test_as_dict_keys(self):
        sim = AWGRNetworkSimulator(n_nodes=6)
        report = sim.run([uniform_batch(6, 3, gbps=2.0)])
        d = report.as_dict()
        assert {"offered", "carried", "blocked", "acceptance_ratio",
                "indirect_fraction"} <= set(d)

    def test_zero_offered_run_is_not_a_perfect_fabric(self):
        # Regression: an idle run used to report acceptance_ratio and
        # throughput_ratio of 1.0, reading as "perfect fabric" in
        # benchmark tables (same bug the scenario-layer ratios had).
        sim = AWGRNetworkSimulator(n_nodes=6)
        report = sim.run([FlowBatch.empty(), FlowBatch.empty()])
        assert report.offered == 0
        assert report.acceptance_ratio == 0.0
        assert report.throughput_ratio == 0.0


class TestStaleness:
    def test_stale_state_still_carries_traffic(self):
        fresh = AWGRNetworkSimulator(n_nodes=12, planes=2,
                                     flows_per_wavelength=1,
                                     state_update_period=1, rng_seed=6)
        stale = AWGRNetworkSimulator(n_nodes=12, planes=2,
                                     flows_per_wavelength=1,
                                     state_update_period=50, rng_seed=6)
        batches = [hotspot_batch(12, 0, 6, gbps=25.0) for _ in range(3)]
        rf = fresh.run(batches, duration_slots=2)
        rs = stale.run(batches, duration_slots=2)
        # The two-stage fallback keeps acceptance close to fresh-state.
        assert rs.acceptance_ratio >= rf.acceptance_ratio - 0.25
