"""ScenarioRunner: event application, streaming, aggregation."""

import pytest

from repro.scenarios import (
    Episode,
    Scenario,
    ScenarioEvent,
    ScenarioRunner,
    make_backend,
    run_replicated,
)


def scripted_scenario(events=(), n_epochs=6, flows=6):
    return Scenario(
        name="scripted", n_nodes=8, n_epochs=n_epochs,
        episodes=(Episode(kind="uniform", flows=flows),),
        events=tuple(events))


class TestRun:
    def test_one_epoch_report_per_epoch(self):
        runner = ScenarioRunner(scripted_scenario(),
                                make_backend("awgr", 8))
        report = runner.run(seed=0)
        assert len(report.epochs) == 6
        assert [e.epoch for e in report.epochs] == list(range(6))

    def test_deterministic_for_fixed_seed(self):
        a = ScenarioRunner(scripted_scenario(),
                           make_backend("awgr", 8, seed=5)).run(seed=5)
        b = ScenarioRunner(scripted_scenario(),
                           make_backend("awgr", 8, seed=5)).run(seed=5)
        assert a.as_dict() == b.as_dict()
        assert a.rows() == b.rows()

    def test_seed_changes_traffic(self):
        stochastic = scripted_scenario(
            flows={"dist": "poisson", "mean": 6})
        a = ScenarioRunner(stochastic,
                           make_backend("awgr", 8)).run(seed=1)
        b = ScenarioRunner(stochastic,
                           make_backend("awgr", 8)).run(seed=2)
        assert a.rows() != b.rows()

    def test_events_applied_and_visible(self):
        events = [ScenarioEvent(epoch=3, action="fail_plane", value=0)]
        runner = ScenarioRunner(scripted_scenario(events),
                                make_backend("awgr", 8))
        report = runner.run(seed=0)
        assert report.events_applied == 1
        healthy = [e.extras["healthy_planes"] for e in report.epochs]
        assert healthy == [5, 5, 5, 4, 4, 4]

    def test_unsupported_events_counted(self):
        events = [ScenarioEvent(epoch=1, action="fail_plane", value=0)]
        runner = ScenarioRunner(scripted_scenario(events),
                                make_backend("electronic", 8))
        report = runner.run(seed=0)
        assert report.events_ignored == 1
        assert report.events_applied == 0


class TestAggregates:
    def test_conservation(self):
        report = ScenarioRunner(scripted_scenario(),
                                make_backend("awgr", 8)).run(seed=0)
        assert report.carried_gbps + report.blocked_gbps == (
            pytest.approx(report.offered_gbps))
        assert 0.0 <= report.throughput_ratio <= 1.0
        assert 0.0 <= report.acceptance_ratio <= 1.0

    def test_as_dict_shape(self):
        report = ScenarioRunner(scripted_scenario(),
                                make_backend("wss", 8)).run(seed=0)
        d = report.as_dict()
        assert d["scenario"] == "scripted"
        assert d["fabric"] == "wss"
        assert d["epochs"] == 6
        assert set(d) >= {"offered_gbps", "carried_gbps",
                          "blocked_gbps", "indirect_fraction",
                          "slowdown_p50", "slowdown_p99"}

    def test_slowdown_quantiles_default_when_idle(self):
        scenario = Scenario(
            name="idle", n_nodes=8, n_epochs=2,
            episodes=(Episode(kind="uniform", flows=0),))
        report = ScenarioRunner(scenario,
                                make_backend("awgr", 8)).run(seed=0)
        assert report.slowdown_quantiles() == {0.5: 1.0, 0.99: 1.0}

    def test_zero_offered_run_is_not_a_perfect_fabric(self):
        # Regression: an idle scenario used to report
        # throughput_ratio == 1.0, which read as "perfect fabric" in
        # aggregated CI tables.
        scenario = Scenario(
            name="idle", n_nodes=8, n_epochs=2,
            episodes=(Episode(kind="uniform", flows=0),))
        report = ScenarioRunner(scenario,
                                make_backend("awgr", 8)).run(seed=0)
        assert report.offered_gbps == 0.0
        assert report.throughput_ratio == 0.0
        assert report.as_dict()["throughput_ratio"] == 0.0
        # Same idle-run-reads-as-perfect bug, flow-count flavor: the
        # acceptance ratio of a zero-offered run must be 0.0 too.
        assert report.acceptance_ratio == 0.0
        assert report.as_dict()["acceptance_ratio"] == 0.0


class TestSeedingModes:
    def test_per_epoch_is_the_default_and_matches_batch_at(self):
        scenario = scripted_scenario(
            flows={"dist": "poisson", "mean": 6})
        runner = ScenarioRunner(scenario, make_backend("awgr", 8))
        report = runner.run(seed=3)
        offered = [e.offered for e in report.epochs]
        assert offered == [len(scenario.flow_batch_at(i, base_seed=3))
                           for i in range(scenario.n_epochs)]


class TestRunReplicated:
    def test_ci_over_seeds(self):
        summary = run_replicated(
            scripted_scenario(),
            lambda seed: make_backend("awgr", 8, seed=seed),
            repeats=3, base_seed=10)
        assert summary["offered_gbps"]["n"] == 3.0
        ci = summary["throughput_ratio"]
        assert ci["ci_low"] <= ci["mean"] <= ci["ci_high"]

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            run_replicated(scripted_scenario(),
                           lambda seed: make_backend("awgr", 8),
                           repeats=0)


class TestStepEpochs:
    """The reentrant core: incremental slices == one monolithic run."""

    def event_scenario(self):
        return scripted_scenario(
            events=[ScenarioEvent(epoch=2, action="fail_plane",
                                  value=0),
                    ScenarioEvent(epoch=4, action="repair_plane",
                                  value=0)],
            n_epochs=8, flows={"dist": "poisson", "mean": 6})

    @pytest.mark.parametrize("backend", ["awgr", "wss", "electronic"])
    def test_n_single_steps_equal_one_run(self, backend):
        scenario = self.event_scenario()
        whole = ScenarioRunner(
            scenario, make_backend(backend, 8, seed=4)).run(seed=4)
        runner = ScenarioRunner(scenario,
                                make_backend(backend, 8, seed=4))
        report = None
        for epoch in range(scenario.n_epochs):
            report = runner.step_epochs(epoch, epoch + 1, seed=4,
                                        report=report)
        assert report.rows() == whole.rows()
        assert report.as_dict() == whole.as_dict()

    @pytest.mark.parametrize("backend", ["awgr", "wss", "electronic"])
    def test_uneven_slices_equal_one_run(self, backend):
        scenario = self.event_scenario()
        whole = ScenarioRunner(
            scenario, make_backend(backend, 8, seed=9)).run(seed=9)
        runner = ScenarioRunner(scenario,
                                make_backend(backend, 8, seed=9))
        report = None
        cursor = 0
        for width in (1, 3, 2, 1, 1):
            report = runner.step_epochs(cursor, cursor + width,
                                        seed=9, report=report)
            cursor += width
        assert cursor == scenario.n_epochs
        assert report.rows() == whole.rows()

    def test_reports_carry_absolute_epochs(self):
        # Regression: a fresh backend counts only the epochs it has
        # stepped, so a slice starting past epoch 0 was labelled
        # from 0.
        runner = ScenarioRunner(scripted_scenario(),
                                make_backend("awgr", 8))
        report = runner.step_epochs(2, 4)
        assert [e.epoch for e in report.epochs] == [2, 3]
        assert [r["epoch"] for r in report.rows()] == [2, 3]

    def test_range_validation(self):
        runner = ScenarioRunner(scripted_scenario(),
                                make_backend("awgr", 8))
        with pytest.raises(ValueError, match="epoch range"):
            runner.step_epochs(4, 2)
        with pytest.raises(ValueError, match="epoch range"):
            runner.step_epochs(0, 7)
        with pytest.raises(ValueError, match="epoch range"):
            runner.step_epochs(-1, 2)
