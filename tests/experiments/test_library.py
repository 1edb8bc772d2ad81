"""Registered sweeps reproduce the benchmarks' serial loops."""

import pytest

from repro.experiments import EXPERIMENTS, SweepRunner, get_experiment
from repro.network.simulator import AWGRNetworkSimulator
from repro.network.traffic import FlowBatch, uniform_batch

#: The three 25 Gbps node-0 hotspot flows the figure tasks add per slot.
HOTSPOT = FlowBatch(src=[1, 2, 3], dst=[0, 0, 0], gbps=[25.0] * 3)


class TestRegistry:
    def test_expected_experiments_registered(self):
        assert {"ablation_staleness", "indirect_routing",
                "placement_bandwidth", "case_a_vs_case_b",
                "isoperf", "ablation_awgr_planes",
                "ablation_plane_failure", "fig5_connectivity",
                "power_overhead", "fig6_cpu_slowdown",
                "fig8_latency_sensitivity", "table4_switch_configs",
                "scenario_diurnal_cori",
                "scenario_reconfig_lag"} <= set(EXPERIMENTS)

    def test_every_spec_describes_itself(self):
        for spec in EXPERIMENTS.values():
            assert spec.description
            assert len(spec) >= 1

    def test_unknown_experiment_names_known_ones(self):
        with pytest.raises(KeyError, match="ablation_staleness"):
            get_experiment("nope")


class TestEquivalenceWithSerialLoops:
    def test_staleness_grid_point_matches_direct_run(self):
        """One sweep task == one iteration of the old bench loop."""
        spec = get_experiment("ablation_staleness")
        row = SweepRunner(workers=1).run(spec).rows()[0]
        assert row["update_period"] == 1
        sim = AWGRNetworkSimulator(n_nodes=24, planes=3,
                                   flows_per_wavelength=1,
                                   state_update_period=1, rng_seed=9)
        batches = [FlowBatch.concat([uniform_batch(24, 10, gbps=25.0),
                                     HOTSPOT]) for _ in range(10)]
        report = sim.run(batches, duration_slots=3)
        for key, value in report.as_dict().items():
            assert row[key] == value, key

    def test_plane_failure_grid_point_matches_direct_run(self):
        """One sweep task == one iteration of the old failure loop."""
        spec = get_experiment("ablation_plane_failure")
        row = SweepRunner(workers=1).run(spec).rows()[1]
        assert row["failed_planes"] == 1
        sim = AWGRNetworkSimulator(n_nodes=16, planes=5,
                                   flows_per_wavelength=1, rng_seed=13)
        sim.allocator.fail_plane(0)
        batches = [FlowBatch.concat([uniform_batch(16, 10, gbps=25.0),
                                     HOTSPOT]) for _ in range(4)]
        report = sim.run(batches, duration_slots=2)
        for key, value in report.as_dict().items():
            assert row[key] == value, key

    def test_awgr_planes_acceptance_monotone(self):
        rows = SweepRunner(workers=1).run(
            get_experiment("ablation_awgr_planes")).rows()
        acceptance = [r["acceptance_ratio"] for r in rows]
        assert acceptance == sorted(acceptance)

    def test_structural_specs_single_task(self):
        for name in ("fig5_connectivity", "power_overhead"):
            rows = SweepRunner(workers=1).run(
                get_experiment(name)).rows()
            assert len(rows) == 1

    def test_cpu_slowdown_grid_point_matches_direct_run(self):
        """One fig8 task == one iteration of the old serial loop."""
        import numpy as np

        from repro.core.slowdown import run_cpu_study

        spec = get_experiment("fig8_latency_sensitivity")
        row = next(r for r in SweepRunner(workers=1).run(spec).rows()
                   if r["latency_ns"] == 25.0 and r["core"] == "ooo")
        direct = [r.slowdown for r in run_cpu_study(25.0, cores=("ooo",))]
        assert row["overall_mean_slowdown"] == float(np.mean(direct))
        assert row["overall_max_slowdown"] == float(np.max(direct))

    def test_table4_tasks_cover_all_families(self):
        rows = SweepRunner(workers=1).run(
            get_experiment("table4_switch_configs")).rows()
        assert {r["switch_type"] for r in rows} == {
            "awgr", "spatial", "wave-selective"}

    def test_case_sweep_covers_both_fabrics(self):
        rows = SweepRunner(workers=1).run(
            get_experiment("case_a_vs_case_b")).rows()
        fabrics = [r["fabric"] for r in rows]
        assert any("AWGR" in f for f in fabrics)
        assert any("WSS" in f for f in fabrics)
        # Case A's defining property: zero reconfigurations.
        case_a = next(r for r in rows if "AWGR" in r["fabric"])
        assert case_a["reconfigurations"] == 0
        assert case_a["downtime_s"] == 0.0
        assert case_a["throughput_ratio"] == 1.0

    def test_case_b_row_is_pinned(self):
        # WSSNetworkSimulator.run builds each slot's demand matrix from
        # its batch input; the row must not move by one ulp when the
        # traffic changes form.
        rows = SweepRunner(workers=1).run(
            get_experiment("case_a_vs_case_b")).rows()
        case_b = next(r for r in rows if "WSS" in r["fabric"])
        assert case_b["throughput_ratio"] == 0.44310000000000005
        assert case_b["downtime_s"] == 0.01
        assert case_b["reconfigurations"] == 5


#: Metric columns of an AWGR ``SimulationReport`` row.
AWGR_METRICS = ("slots", "offered", "carried", "direct", "indirect",
                "double_indirect", "blocked", "acceptance_ratio",
                "throughput_ratio", "indirect_fraction",
                "stale_mispredictions")

#: (grid value, *metrics) of every row of the AWGR flow-building
#: figure specs, recorded while their tasks still built ``Flow`` lists:
#: the move to ``FlowBatch`` arrays must not move one ulp or one count.
#: ``case_a_vs_case_b`` is pinned by the two case tests above.
PINNED_ROWS = {
    "ablation_staleness": [
        (period, 10, 130, 130, 121, 9, 0, 0, 1.0, 1.0,
         0.06923076923076923, 0) for period in (1, 5, 25, 125)],
    "indirect_routing": [
        (1, 6, 192, 192, 143, 49, 0, 0, 1.0, 1.0,
         0.2552083333333333, 0),
        (40, 6, 192, 192, 144, 42, 6, 0, 1.0, 1.0, 0.25, 6)],
    "ablation_awgr_planes": [
        (2, 1, 24, 24, 8, 15, 1, 0, 1.0, 1.0, 0.6666666666666666, 1),
        (3, 1, 24, 24, 12, 12, 0, 0, 1.0, 1.0, 0.5, 0),
        (5, 1, 24, 24, 20, 4, 0, 0, 1.0, 1.0, 0.16666666666666666, 0),
        (8, 1, 24, 24, 24, 0, 0, 0, 1.0, 1.0, 0.0, 0)],
    "ablation_plane_failure": [
        (0, 4, 52, 52, 52, 0, 0, 0, 1.0, 1.0, 0.0, 0),
        (1, 4, 52, 52, 52, 0, 0, 0, 1.0, 1.0, 0.0, 0),
        (2, 4, 52, 52, 50, 2, 0, 0, 1.0, 1.0, 0.038461538461538464, 0)],
}


class TestFigurePins:
    @pytest.mark.parametrize("name", sorted(PINNED_ROWS))
    def test_awgr_rows_are_pinned(self, name):
        spec = get_experiment(name)
        (grid_key,) = spec.grid
        rows = SweepRunner(workers=1).run(spec).rows()
        assert [(row[grid_key], *(row[k] for k in AWGR_METRICS))
                for row in rows] == PINNED_ROWS[name]
