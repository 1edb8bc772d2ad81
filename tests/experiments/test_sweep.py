"""SweepRunner + ResultCache: hits, misses, determinism, round-trips,
and crash resilience (a dying task must never cost its neighbors)."""

import json
import os

import pytest

from repro.experiments import (
    ExperimentSpec,
    ResultCache,
    SweepRunner,
    get_experiment,
)
from repro.experiments.cache import decode_metrics, encode_metrics
from repro.network.simulator import AWGRNetworkSimulator
from repro.network.traffic import uniform_batch


def sim_factory(config, seed):
    """Seed-sensitive simulation: traffic drawn from the task seed."""
    import numpy as np
    sim = AWGRNetworkSimulator(n_nodes=config["n_nodes"],
                               planes=config["planes"],
                               flows_per_wavelength=1, rng_seed=seed)
    rng = np.random.default_rng(seed)
    batches = [uniform_batch(config["n_nodes"], 8, rng=rng)
               for _ in range(4)]
    return sim.run(batches, duration_slots=2)


def sim_metrics(report):
    return report.as_dict()


def make_spec(**overrides):
    kwargs = dict(name="mini_sim", factory=sim_factory,
                  metrics=sim_metrics,
                  grid={"planes": (1, 2)}, fixed={"n_nodes": 8})
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


def flaky_factory(config, seed):
    """Raises (or kills its whole worker) on one designated task."""
    x = config["x"]
    if config.get("raise_on") == x:
        raise ValueError(f"task {x} raised")
    if config.get("kill_on") == x:
        os._exit(7)
    return {"value": x}


def identity_metrics(result):
    return result


def flaky_spec(n=4, **fixed):
    return ExperimentSpec(name="flaky", factory=flaky_factory,
                          metrics=identity_metrics,
                          grid={"x": tuple(range(n))}, fixed=fixed)


class TestDeterminism:
    def test_same_spec_bit_identical_reports(self):
        rows_a = SweepRunner(workers=1).run(make_spec()).rows()
        rows_b = SweepRunner(workers=1).run(make_spec()).rows()
        assert rows_a == rows_b

    def test_base_seed_changes_results(self):
        rows_a = SweepRunner(workers=1).run(make_spec()).rows()
        rows_b = SweepRunner(workers=1).run(
            make_spec(base_seed=7)).rows()
        assert rows_a != rows_b

    def test_parallel_matches_serial(self):
        serial = SweepRunner(workers=1).run(make_spec()).rows()
        parallel = SweepRunner(workers=2).run(make_spec()).rows()
        assert parallel == serial

    def test_registered_experiment_deterministic(self):
        spec = get_experiment("ablation_staleness")
        a = SweepRunner(workers=1).run(spec).rows()
        b = SweepRunner(workers=1).run(spec).rows()
        assert a == b


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=1, cache=cache)
        first = runner.run(make_spec())
        assert first.n_cached == 0 and first.n_executed == 2
        assert len(cache) == 2
        second = runner.run(make_spec())
        assert second.n_cached == 2 and second.n_executed == 0
        assert second.rows() == first.rows()

    def test_version_bump_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=1, cache=cache)
        runner.run(make_spec())
        rerun = runner.run(make_spec(version=2))
        assert rerun.n_cached == 0

    def test_base_seed_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=1, cache=cache)
        runner.run(make_spec())
        rerun = runner.run(make_spec(base_seed=3))
        assert rerun.n_cached == 0

    def test_force_refreshes_but_still_writes(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=1, cache=cache)
        runner.run(make_spec())
        forced = runner.run(make_spec(), force=True)
        assert forced.n_cached == 0
        assert runner.run(make_spec()).n_cached == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=1, cache=cache)
        runner.run(make_spec())
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        rerun = runner.run(make_spec())
        assert rerun.n_cached == 0

    def test_entries_are_readable_json_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(workers=1, cache=cache).run(make_spec())
        entry = json.loads(next(iter(tmp_path.glob("*.json")))
                           .read_text())
        assert entry["spec"] == "mini_sim"
        assert entry["config"]["n_nodes"] == 8
        assert "acceptance_ratio" in entry["metrics"]

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepRunner(workers=1, cache=cache).run(make_spec())
        assert cache.clear() == 2
        assert len(cache) == 0


class TestSerializerRoundTrip:
    def test_simulation_report_as_dict_round_trips(self):
        report = sim_factory({"n_nodes": 8, "planes": 2}, seed=5)
        metrics = report.as_dict()
        assert decode_metrics(encode_metrics(metrics)) == metrics

    def test_numpy_scalars_flatten(self):
        import numpy as np
        metrics = {"i": np.int64(3), "f": np.float64(0.5),
                   "b": np.bool_(True), "a": np.arange(3)}
        decoded = decode_metrics(encode_metrics(metrics))
        assert decoded == {"i": 3, "f": 0.5, "b": True, "a": [0, 1, 2]}

    def test_cached_rows_equal_fresh_rows(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=1, cache=cache)
        fresh = runner.run(make_spec()).rows()
        cached = runner.run(make_spec()).rows()
        assert cached == fresh


class TestCrashResilience:
    """Regression: a sweep used to buffer ``pool.map`` in one
    ``list(...)``, so a single dying task aborted the run and threw
    away every completed, never-cached result."""

    def test_raising_task_does_not_abort_or_lose_results(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=1, cache=cache)
        result = runner.run(flaky_spec(raise_on=1))
        assert result.n_failed == 1
        assert [r.config["x"] for r in result.failures()] == [1]
        assert "task 1 raised" in result.failures()[0].error
        # Every other task completed and was cached as it finished.
        assert [row["value"] for row in result.rows()] == [0, 2, 3]
        assert len(cache) == 3

    def test_killed_worker_keeps_completed_results_cached(self, tmp_path):
        # The designated task takes its whole worker process down
        # (os._exit — no exception to catch). It fails with
        # BrokenProcessPool, so may any task still in flight with it;
        # everything that completed first is already in the cache.
        cache = ResultCache(tmp_path)
        runner = SweepRunner(workers=2, cache=cache)
        result = runner.run(flaky_spec(kill_on=3))
        failed = {r.config["x"]: r.error for r in result.failures()}
        assert "BrokenProcessPool" in failed[3]
        assert len(cache) == 4 - len(failed)
        # The survivors are individually replayable from the cache.
        for task in flaky_spec(kill_on=3).tasks():
            hit = cache.load(task)
            if task.config["x"] in failed:
                assert hit is None
            else:
                assert hit == {"value": task.config["x"]}

    def test_failed_tasks_never_poison_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = flaky_spec(raise_on=2)
        SweepRunner(workers=1, cache=cache).run(spec)
        failed_task = next(t for t in spec.tasks()
                           if t.config["x"] == 2)
        assert cache.load(failed_task) is None
        # A rerun replays the survivors from cache and retries (and
        # re-fails) only the broken task.
        rerun = SweepRunner(workers=1, cache=cache).run(spec)
        assert rerun.n_cached == 3 and rerun.n_failed == 1

    def test_raise_on_failure_escalates(self):
        result = SweepRunner(workers=1).run(flaky_spec(raise_on=0))
        with pytest.raises(RuntimeError, match="1 task"):
            result.raise_on_failure()
        clean = SweepRunner(workers=1).run(flaky_spec())
        assert clean.raise_on_failure() is clean

    def test_summary_reports_failures(self):
        result = SweepRunner(workers=1).run(flaky_spec(raise_on=0))
        assert "1 FAILED" in result.summary()


class TestShardedSweep:
    def test_two_shards_cover_the_grid_via_shared_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(2):
            SweepRunner(workers=1, cache=cache, shard_index=index,
                        shard_count=2).run(
                flaky_spec(n=6))
        replay = SweepRunner(workers=1, cache=cache).run(flaky_spec(n=6))
        assert replay.n_cached == 6
        assert [row["value"] for row in replay.rows()] == list(range(6))

    def test_sharded_rows_match_plain_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        plain = SweepRunner(workers=1).run(make_spec()).rows()
        for index in range(2):
            SweepRunner(workers=1, cache=cache, shard_index=index,
                        shard_count=2).run(make_spec())
        sharded = SweepRunner(workers=1, cache=cache).run(make_spec())
        assert sharded.rows() == plain

    def test_force_recomputes_stolen_foreign_tasks(self, tmp_path):
        # Regression: the steal loop used to read the cache even
        # under force, mixing refreshed owned rows with stale
        # foreign ones.
        cache = ResultCache(tmp_path)
        SweepRunner(workers=1, cache=cache).run(flaky_spec(n=4))
        forced = SweepRunner(workers=1, cache=cache, shard_index=0,
                             shard_count=2).run(
            flaky_spec(n=4), force=True)
        assert forced.n_cached == 0
        assert forced.n_executed == 4

    def test_unyielded_foreign_tasks_reported_as_skipped(self):
        # Regression: a cache-less shard dropped foreign tasks and
        # summarized a shrunken grid as a complete sweep.
        result = SweepRunner(workers=1, shard_index=0,
                             shard_count=2).run(
            flaky_spec(n=4))
        assert result.n_skipped > 0
        assert len(result.results) + result.n_skipped == 4
        assert not result.complete
        assert "left to other shards" in result.summary()


class TestRunnerValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0).run(make_spec())

    def test_summary_mentions_counts(self, tmp_path):
        runner = SweepRunner(workers=1, cache=ResultCache(tmp_path))
        summary = runner.run(make_spec()).summary()
        assert "2 tasks" in summary and "0 cached" in summary
