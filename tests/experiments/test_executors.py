"""Executors: streaming, failure capture, sharding, work-stealing."""

import os

import pytest

from repro.experiments import (
    ExperimentSpec,
    InlineExecutor,
    ProcessPoolSweepExecutor,
    ResultCache,
    ShardExecutor,
    make_executor,
    shard_of,
)
from repro.experiments.executors import run_task


def factory(config, seed):
    x = config["x"]
    if config.get("raise_on") == x:
        raise RuntimeError(f"task {x} exploded")
    if config.get("kill_on") == x:
        os._exit(13)  # dies without a traceback, like a segfault
    return {"value": x * 10}


def metrics(result):
    return result


def make_tasks(n=4, **fixed):
    spec = ExperimentSpec(name="exec_test", factory=factory,
                          metrics=metrics,
                          grid={"x": tuple(range(n))}, fixed=fixed)
    return spec.tasks()


class TestRunTask:
    def test_success_carries_metrics_and_duration(self):
        outcome = run_task(make_tasks(1)[0])
        assert outcome.ok
        assert outcome.metrics == {"value": 0}
        assert outcome.duration_s >= 0.0

    def test_exception_becomes_failed_outcome(self):
        task = make_tasks(1, raise_on=0)[0]
        outcome = run_task(task)
        assert not outcome.ok
        assert outcome.metrics is None
        assert "task 0 exploded" in outcome.error


class TestInlineExecutor:
    def test_streams_all_tasks_in_order(self):
        pairs = list(InlineExecutor().run(make_tasks(3)))
        assert [t.config["x"] for t, _ in pairs] == [0, 1, 2]
        assert all(o.ok for _, o in pairs)

    def test_failure_does_not_stop_the_stream(self):
        pairs = list(InlineExecutor().run(make_tasks(4, raise_on=1)))
        assert len(pairs) == 4
        by_x = {t.config["x"]: o for t, o in pairs}
        assert not by_x[1].ok and "exploded" in by_x[1].error
        assert all(by_x[x].ok for x in (0, 2, 3))


class TestProcessPoolExecutor:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            ProcessPoolSweepExecutor(workers=0)

    def test_all_outcomes_stream_back(self):
        pairs = list(ProcessPoolSweepExecutor(workers=2)
                     .run(make_tasks(4)))
        assert {t.config["x"] for t, _ in pairs} == {0, 1, 2, 3}
        assert all(o.ok for _, o in pairs)

    def test_task_exception_captured_in_worker(self):
        pairs = list(ProcessPoolSweepExecutor(workers=2)
                     .run(make_tasks(4, raise_on=2)))
        by_x = {t.config["x"]: o for t, o in pairs}
        assert not by_x[2].ok and "exploded" in by_x[2].error
        assert all(by_x[x].ok for x in (0, 1, 3))

    def test_worker_death_fails_only_inflight_tasks(self):
        # One worker runs tasks in submission order; the last task
        # kills the process outright. Earlier completions must have
        # streamed back, and the kill surfaces as that task's error.
        pairs = list(ProcessPoolSweepExecutor(workers=1)
                     .run(make_tasks(4, kill_on=3)))
        by_x = {t.config["x"]: o for t, o in pairs}
        assert all(by_x[x].ok for x in (0, 1, 2))
        assert not by_x[3].ok
        assert "BrokenProcessPool" in by_x[3].error


class TestShardOf:
    def test_stable_and_in_range(self):
        tasks = make_tasks(8)
        first = [shard_of(t, 3) for t in tasks]
        assert first == [shard_of(t, 3) for t in tasks]
        assert all(0 <= s < 3 for s in first)

    def test_partition_is_disjoint_and_complete(self):
        tasks = make_tasks(16)
        slices = [{t.config["x"] for t in tasks if shard_of(t, 4) == i}
                  for i in range(4)]
        union = set().union(*slices)
        assert union == set(range(16))
        assert sum(len(s) for s in slices) == 16


class TestShardExecutor:
    def test_validates_indices(self):
        with pytest.raises(ValueError):
            ShardExecutor(inner=InlineExecutor(), shard_index=2,
                          shard_count=2)

    def test_without_steal_runs_owned_slice_only(self):
        # No shared cache, nothing to steal through.
        tasks = make_tasks(8)
        executor = ShardExecutor(inner=InlineExecutor(), shard_index=0,
                                 shard_count=2)
        done = {t.config["x"] for t, o in executor.run(tasks) if o.ok}
        assert done == {t.config["x"] for t in tasks
                        if shard_of(t, 2) == 0}

    def test_steal_completes_the_grid_alone(self, tmp_path):
        tasks = make_tasks(8)
        executor = ShardExecutor(inner=InlineExecutor(), shard_index=0,
                                 shard_count=2,
                                 cache=ResultCache(tmp_path))
        done = {t.config["x"] for t, o in executor.run(tasks) if o.ok}
        assert done == set(range(8))

    def test_steal_prefers_other_shards_cached_results(self, tmp_path):
        cache = ResultCache(tmp_path)
        tasks = make_tasks(8)
        foreign = [t for t in tasks if shard_of(t, 2) == 1]
        for task in foreign:  # shard 1 already finished its slice
            cache.store(task, {"value": -1})
        executor = ShardExecutor(inner=InlineExecutor(), shard_index=0,
                                 shard_count=2, cache=cache)
        outcomes = {t.config["x"]: o for t, o in executor.run(tasks)}
        for task in foreign:
            outcome = outcomes[task.config["x"]]
            assert outcome.cached
            assert outcome.metrics == {"value": -1}


class TestMakeExecutor:
    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            make_executor("bogus")

    def test_auto_picks_by_workers(self):
        assert isinstance(make_executor("auto", workers=1),
                          InlineExecutor)
        assert isinstance(make_executor("auto", workers=3),
                          ProcessPoolSweepExecutor)

    def test_shard_requires_indices(self):
        with pytest.raises(ValueError):
            make_executor("shard", workers=1)
