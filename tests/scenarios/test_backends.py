"""Fabric backends behind the step/apply_event protocol."""

import pytest

from repro.network.reconfig import ReconfigurableFabric
from repro.network.traffic import FlowBatch, uniform_batch
from repro.scenarios import (
    AWGRBackend,
    ElectronicBackend,
    EpochReport,
    FabricBackend,
    WSSBackend,
    ScenarioEvent,
    make_backend,
)


def wavelength_flows(n, dst=0, gbps=25.0):
    return FlowBatch(src=range(1, n + 1), dst=[dst] * n, gbps=[gbps] * n)


class TestEpochReport:
    def test_blocked_gbps(self):
        report = EpochReport(epoch=0, offered_gbps=100.0,
                             carried_gbps=80.0)
        assert report.blocked_gbps == 20.0

    def test_idle_epoch_ratios(self):
        # Regression: a zero-offered epoch used to report a perfect
        # 1.0 acceptance ratio, so idle runs read as "perfect fabric"
        # in aggregated tables (the same bug throughput_ratio had).
        report = EpochReport(epoch=0)
        assert report.acceptance_ratio == 0.0
        assert report.indirect_fraction == 0.0

    def test_nonzero_offered_acceptance(self):
        report = EpochReport(epoch=0, offered=4, carried=3)
        assert report.acceptance_ratio == 0.75


class TestMakeBackend:
    @pytest.mark.parametrize("name", ["awgr", "wss", "electronic"])
    def test_constructs_protocol_instances(self, name):
        backend = make_backend(name, n_nodes=8, seed=1)
        assert isinstance(backend, FabricBackend)
        assert backend.name == name

    def test_unknown_backend(self):
        with pytest.raises(KeyError, match="awgr"):
            make_backend("quantum", n_nodes=8)

    def test_params_forwarded(self):
        backend = make_backend("awgr", n_nodes=8, planes=3)
        assert backend.sim.allocator.planes == 3


class TestAWGRBackend:
    def test_direct_flows_have_unity_slowdown(self):
        backend = AWGRBackend(n_nodes=8, duration_slots=1)
        report = backend.step(wavelength_flows(4))
        assert report.carried == 4
        assert report.blocked == 0
        assert report.slowdowns == [1.0, 1.0, 1.0, 1.0]
        assert report.extras["healthy_planes"] == 5

    def test_pair_overload_goes_indirect(self):
        backend = AWGRBackend(n_nodes=8, planes=2, duration_slots=1)
        # Six same-pair wavelength flows vs two direct wavelengths.
        report = backend.step(
            FlowBatch(src=[1] * 6, dst=[0] * 6, gbps=[25.0] * 6))
        assert report.carried > 2
        assert report.indirect > 0
        assert max(report.slowdowns) >= 2.0

    def test_fail_plane_event_reduces_capacity(self):
        backend = AWGRBackend(n_nodes=8, duration_slots=1)
        assert backend.apply_event(
            ScenarioEvent(epoch=0, action="fail_plane", value=0))
        assert backend.sim.allocator.healthy_planes == 4
        # Idempotent within a run.
        assert backend.apply_event(
            ScenarioEvent(epoch=0, action="fail_plane", value=0))
        assert backend.sim.allocator.healthy_planes == 4

    def test_fail_plane_drops_resident_flows_cleanly(self):
        backend = AWGRBackend(n_nodes=8, planes=2, duration_slots=10)
        backend.step(FlowBatch(src=[1] * 4, dst=[0] * 4, gbps=[25.0] * 4))
        backend.apply_event(
            ScenarioEvent(epoch=0, action="fail_plane", value=0))
        backend.apply_event(
            ScenarioEvent(epoch=0, action="repair_plane", value=0))
        # Surviving occupancy must release without underflow as the
        # remaining flows retire.
        for _ in range(12):
            backend.step(FlowBatch.empty())
        assert backend.sim.allocator.utilization() == 0.0

    def test_repair_restores_capacity(self):
        backend = AWGRBackend(n_nodes=8)
        backend.apply_event(
            ScenarioEvent(epoch=0, action="fail_plane", value=1))
        backend.apply_event(
            ScenarioEvent(epoch=0, action="repair_plane", value=1))
        assert backend.sim.allocator.healthy_planes == 5

    def test_unknown_event_unsupported(self):
        backend = AWGRBackend(n_nodes=8)
        assert not backend.apply_event(
            ScenarioEvent(epoch=0, action="set_reconfig_time",
                          value=1.0))


class TestWSSBackend:
    def test_serves_and_reports(self):
        backend = WSSBackend(n_nodes=8)
        report = backend.step(wavelength_flows(4))
        assert report.offered == 4
        assert report.carried > 0
        assert 0.0 < report.carried_gbps <= report.offered_gbps
        assert report.extras["reconfigured"] is True

    def test_reconfig_period_respected(self):
        backend = WSSBackend(n_nodes=8, reconfig_period=3)
        flags = [backend.step(wavelength_flows(3)).extras["reconfigured"]
                 for _ in range(6)]
        assert flags == [True, False, False, True, False, False]

    def test_set_reconfig_period_event(self):
        backend = WSSBackend(n_nodes=8, reconfig_period=4)
        assert backend.apply_event(ScenarioEvent(
            epoch=0, action="set_reconfig_period", value=1))
        flags = [backend.step(wavelength_flows(3)).extras["reconfigured"]
                 for _ in range(3)]
        assert flags == [True, True, True]

    def test_set_reconfig_time_event_costs_downtime(self):
        backend = WSSBackend(n_nodes=8, slot_time_s=1.0)
        assert backend.apply_event(ScenarioEvent(
            epoch=0, action="set_reconfig_time", value=0.5))
        report = backend.step(wavelength_flows(4))
        assert report.extras["downtime_fraction"] > 0.4

    def test_fail_plane_drops_a_switch(self):
        backend = WSSBackend(n_nodes=8, n_switches=3)
        assert backend.apply_event(
            ScenarioEvent(epoch=0, action="fail_plane", value=0))
        assert len(backend.fabric.configs) == 2
        backend.apply_event(
            ScenarioEvent(epoch=0, action="repair_plane", value=0))
        assert len(backend.fabric.configs) == 3
        # The repaired fabric still serves traffic.
        assert backend.step(wavelength_flows(4)).carried > 0

    def test_repair_on_healthy_bank_is_a_noop(self):
        # Regression: every repair used to append a switch, so three
        # repairs on a healthy 2-switch bank left 5 switches carrying
        # 3592.8 Gbps of this epoch where the untouched bank carries
        # 3443.1.
        batch = uniform_batch(6, 40, gbps=100.0, rng=0)
        untouched = make_backend("wss", 6, n_switches=2)
        repaired = make_backend("wss", 6, n_switches=2)
        for _ in range(3):
            assert repaired.apply_event(
                ScenarioEvent(epoch=0, action="repair_plane", value=0))
        assert len(repaired.fabric.configs) == 2
        assert repaired.snapshot() == untouched.snapshot()
        assert (repaired.step(batch).carried_gbps
                == untouched.step(batch).carried_gbps)


    def test_step_never_builds_the_configured_matrix(self, monkeypatch):
        # Flows read their service from their own pairs through
        # pair_gbps; the (N, N) configured matrix is left to the
        # figure sweeps and the per-flow oracle.
        def refuse(fabric):
            raise AssertionError("step built the configured matrix")

        monkeypatch.setattr(ReconfigurableFabric, "configured_gbps", refuse)
        backend = WSSBackend(n_nodes=8, n_switches=3, reconfig_period=2)
        events = {1: "fail_plane", 3: "repair_plane"}
        banks = []
        for epoch in range(5):
            if epoch in events:
                assert backend.apply_event(ScenarioEvent(
                    epoch=epoch, action=events[epoch], value=0))
            report = backend.step(uniform_batch(8, 20, gbps=50.0,
                                                rng=epoch))
            assert 0 < report.carried_gbps <= report.offered_gbps
            banks.append(report.extras["healthy_switches"])
        assert banks == [3, 2, 2, 3, 3]


class TestElectronicBackend:
    def test_under_cap_serves_everything(self):
        backend = ElectronicBackend(n_nodes=8)
        report = backend.step(wavelength_flows(4))
        assert report.carried == 4
        assert report.carried_gbps == pytest.approx(100.0)
        assert report.slowdowns == [1.0] * 4
        assert report.extras["added_latency_ns"] > 35.0

    def test_ingress_congestion_stretches_flows(self):
        backend = ElectronicBackend(n_nodes=8, lanes_per_endpoint=1)
        # 7 x 25 Gbps converging on node 0 vs a 32 Gbps ingress cap.
        report = backend.step(wavelength_flows(7))
        assert report.carried_gbps < report.offered_gbps
        assert min(report.slowdowns) > 1.0

    def test_events_unsupported(self):
        backend = ElectronicBackend(n_nodes=8)
        assert not backend.apply_event(
            ScenarioEvent(epoch=0, action="fail_plane", value=0))
