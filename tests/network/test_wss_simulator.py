"""Case-(B) WSS fabric simulator."""

import numpy as np
import pytest

from repro.network.traffic import FlowBatch, uniform_batch
from repro.network.wss_simulator import WSSNetworkSimulator


def batches(n_nodes, n_slots, seed=0, gbps=10.0, per_slot=8):
    rng = np.random.default_rng(seed)
    return [uniform_batch(n_nodes, per_slot, gbps=gbps, rng=rng)
            for _ in range(n_slots)]


class TestDemandMatrix:
    def test_aggregation(self):
        flows = FlowBatch(src=[0, 0, 2], dst=[1, 1, 3],
                          gbps=[10.0, 5.0, 7.0])
        demand = WSSNetworkSimulator.demand_matrix(flows, 4)
        assert demand[0, 1] == 15.0
        assert demand[2, 3] == 7.0
        assert demand.sum() == 22.0


class TestRun:
    def test_steady_demand_served_well(self):
        sim = WSSNetworkSimulator(n_nodes=16, slot_time_s=10.0)
        # The same batch every slot: after the first reconfiguration
        # the configuration matches demand exactly.
        batch = uniform_batch(16, 8, gbps=20.0,
                              rng=np.random.default_rng(1))
        report = sim.run([batch] * 6)
        assert report.throughput_ratio > 0.85
        assert report.reconfigurations >= 1

    def test_reconfig_period_trades_lag(self):
        fast = WSSNetworkSimulator(n_nodes=16, reconfig_period=1,
                                   slot_time_s=10.0)
        slow = WSSNetworkSimulator(n_nodes=16, reconfig_period=4,
                                   slot_time_s=10.0)
        shifting = batches(16, 8, seed=2, gbps=25.0)
        fr = fast.run(shifting)
        sr = slow.run(shifting)
        # The lazy scheduler reconfigures less but serves less of the
        # shifting demand.
        assert sr.reconfigurations < fr.reconfigurations
        assert sr.throughput_ratio <= fr.throughput_ratio + 1e-9

    def test_downtime_accounting(self):
        sim = WSSNetworkSimulator(n_nodes=8, slot_time_s=1.0)
        report = sim.run(batches(8, 3, seed=3))
        expected = report.reconfigurations * (
            sim.fabric.reconfig_time_s + sim.fabric.scheduler_latency_s)
        assert report.downtime_s == pytest.approx(expected)

    def test_tiny_slot_time_makes_downtime_visible(self):
        # If slots are 1 ms and reconfiguration costs 2 ms, every
        # reconfiguring slot is wiped out — the §III-D3 inversion.
        sim = WSSNetworkSimulator(n_nodes=8, slot_time_s=1e-3,
                                  reconfig_period=1)
        report = sim.run(batches(8, 4, seed=4))
        assert report.throughput_ratio == pytest.approx(0.0)

    def test_empty_slots_ok(self):
        # An idle run must not read as a perfect fabric, with or
        # without slots.
        for slots in ([FlowBatch.empty(), FlowBatch.empty()], []):
            report = WSSNetworkSimulator(n_nodes=8).run(slots)
            assert report.throughput_ratio == 0.0
            assert report.worst_slot_served == 0.0
            assert report.offered_gbps == 0.0
            assert report.as_dict()["worst_slot_served"] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            WSSNetworkSimulator(n_nodes=1)
        with pytest.raises(ValueError):
            WSSNetworkSimulator(n_nodes=8, reconfig_period=0)
        with pytest.raises(ValueError):
            WSSNetworkSimulator(n_nodes=8, slot_time_s=0.0)
