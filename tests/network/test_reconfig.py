"""Reconfigurable fabric and centralized scheduler (case B)."""

import numpy as np
import pytest

from repro.network.reconfig import (
    ReconfigurableFabric,
    SwitchConfiguration,
    reconfiguration_overhead_ok,
    schedule_demand,
)


class TestSwitchConfiguration:
    def test_empty_valid(self):
        cfg = SwitchConfiguration(radix=8, wavelengths_per_port=4)
        assert cfg.assignment.sum() == 0

    def test_over_commit_input_rejected(self):
        a = np.zeros((4, 4), dtype=np.int64)
        a[0, :] = 3  # 9 wavelengths from port 0, budget 4
        with pytest.raises(ValueError):
            SwitchConfiguration(4, 4, a)

    def test_over_commit_output_rejected(self):
        a = np.zeros((4, 4), dtype=np.int64)
        a[:, 1] = 2  # 8 wavelengths into port 1, budget 4
        with pytest.raises(ValueError):
            SwitchConfiguration(4, 4, a)

    def test_pair_gbps(self):
        a = np.zeros((4, 4), dtype=np.int64)
        a[0, 2] = 3
        cfg = SwitchConfiguration(4, 4, a)
        assert cfg.pair_gbps(0, 2) == 75.0

    def test_ports_changed(self):
        a = np.zeros((4, 4), dtype=np.int64)
        a[0, 1] = 1
        b = a.copy()
        b[0, 1] = 2
        b[2, 3] = 1
        first = SwitchConfiguration(4, 4, a)
        second = SwitchConfiguration(4, 4, b)
        assert first.ports_changed(second) == 2

    def test_negative_rejected(self):
        a = np.zeros((4, 4), dtype=np.int64)
        a[0, 1] = -1
        with pytest.raises(ValueError):
            SwitchConfiguration(4, 4, a)


class TestScheduler:
    def test_respects_budgets(self):
        rng = np.random.default_rng(0)
        demand = rng.random((16, 16)) * 100
        assignment = schedule_demand(demand, wavelengths_per_port=8)
        assert (assignment.sum(axis=1) <= 8).all()
        assert (assignment.sum(axis=0) <= 8).all()
        assert (np.diag(assignment) == 0).all()

    def test_proportional_to_demand(self):
        demand = np.zeros((3, 3))
        demand[0, 1] = 75.0
        demand[0, 2] = 25.0
        assignment = schedule_demand(demand, wavelengths_per_port=8)
        assert assignment[0, 1] == 6
        assert assignment[0, 2] == 2

    def test_single_destination_gets_all(self):
        demand = np.zeros((4, 4))
        demand[2, 0] = 10.0
        assignment = schedule_demand(demand, wavelengths_per_port=8)
        assert assignment[2, 0] == 8

    def test_zero_demand_uniform_fallback(self):
        assignment = schedule_demand(np.zeros((5, 5)),
                                     wavelengths_per_port=4)
        # Every source still reaches `wavelengths_per_port` peers.
        assert (assignment.sum(axis=1) == 4).all()

    def test_output_contention_resolved(self):
        # Everyone wants port 0; output budget caps total inflow.
        n, w = 6, 4
        demand = np.zeros((n, n))
        demand[:, 0] = 100.0
        demand[0, 0] = 0.0
        assignment = schedule_demand(demand, wavelengths_per_port=w)
        assert assignment[:, 0].sum() <= w

    def test_rejects_bad_demand(self):
        with pytest.raises(ValueError):
            schedule_demand(np.ones((2, 3)), 4)
        with pytest.raises(ValueError):
            schedule_demand(-np.ones((3, 3)), 4)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_demand(self, bad):
        demand = np.ones((3, 3))
        demand[0, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            schedule_demand(demand, 4)


class TestFabric:
    def test_reconfigure_and_serve(self):
        fabric = ReconfigurableFabric(n_switches=2, radix=8,
                                      wavelengths_per_port=8)
        demand = np.zeros((8, 8))
        demand[0, 1] = 200.0
        demand[2, 3] = 100.0
        fabric.reconfigure(demand)
        assert fabric.reconfigurations == 1
        assert fabric.pair_gbps(0, 1) > fabric.pair_gbps(0, 2)
        assert fabric.served_fraction(demand) > 0.5

    @pytest.mark.parametrize("rate", [25.0, 0.1, 1 / 3])
    def test_pair_gbps_gathers_the_configured_matrix(self, rate):
        # Index arrays gather each pair's bandwidth, summed switch by
        # switch in configured_gbps()'s order, so the two agree bit
        # for bit at rates whose products round.
        rng = np.random.default_rng(11)
        for _ in range(5):
            fabric = ReconfigurableFabric(n_switches=4, radix=24,
                                          wavelengths_per_port=6,
                                          gbps_per_wavelength=rate)
            demand = rng.random((24, 24)) * (rng.random((24, 24)) < 0.3)
            fabric.reconfigure(demand)
            src, dst = rng.integers(0, 24, (2, 300))
            assert (fabric.pair_gbps(src, dst).tobytes()
                    == fabric.configured_gbps()[src, dst].tobytes())

    def test_served_fraction_bounds(self):
        fabric = ReconfigurableFabric(n_switches=1, radix=4,
                                      wavelengths_per_port=4)
        demand = np.zeros((4, 4))
        demand[0, 1] = 1.0
        fabric.reconfigure(demand)
        frac = fabric.served_fraction(demand)
        assert 0.0 <= frac <= 1.0

    def test_zero_demand_served(self):
        fabric = ReconfigurableFabric(n_switches=1, radix=4,
                                      wavelengths_per_port=4)
        assert fabric.served_fraction(np.zeros((4, 4))) == 1.0

    def test_availability_tracks_reconfig_time(self):
        fabric = ReconfigurableFabric(n_switches=1, radix=4,
                                      wavelengths_per_port=4,
                                      reconfig_time_s=1e-3,
                                      scheduler_latency_s=1e-3)
        demand = np.zeros((4, 4))
        demand[0, 1] = 1.0
        for _ in range(10):
            fabric.reconfigure(demand)
        # 10 x 2 ms of disturbance in a 10 s window -> 99.8% available.
        assert fabric.availability(10.0) == pytest.approx(0.998)

    def test_unchanged_demand_disturbs_no_ports_after_first(self):
        fabric = ReconfigurableFabric(n_switches=1, radix=8,
                                      wavelengths_per_port=8)
        demand = np.zeros((8, 8))
        demand[0, 1] = 5.0
        fabric.reconfigure(demand)
        disturbed_first = fabric.ports_disturbed
        fabric.reconfigure(demand)
        assert fabric.ports_disturbed == disturbed_first

    def test_validation(self):
        with pytest.raises(ValueError):
            ReconfigurableFabric(n_switches=0)
        with pytest.raises(ValueError):
            ReconfigurableFabric(reconfig_time_s=-1.0)
        fabric = ReconfigurableFabric(n_switches=1, radix=4,
                                      wavelengths_per_port=4)
        with pytest.raises(ValueError):
            fabric.availability(0.0)


class TestOverheadFeasibility:
    def test_paper_argument(self):
        # Jobs every few seconds, millisecond switches: fine.
        assert reconfiguration_overhead_ok(job_event_rate_hz=1.0,
                                           reconfig_time_s=1e-3)

    def test_fast_churn_with_slow_switch_fails(self):
        # Packet-rate reconfiguration with a ms MEMS switch: not fine.
        assert not reconfiguration_overhead_ok(job_event_rate_hz=1e4,
                                               reconfig_time_s=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            reconfiguration_overhead_ok(-1.0, 1e-3)
