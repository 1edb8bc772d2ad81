"""How SweepRunner executes: inline, on a process pool, as a shard.

Each class covers one execution mode of the one sweep driver:
``TestInlineExecutor`` is ``workers=1``, ``TestProcessPoolExecutor``
is ``workers > 1`` (streaming, failure capture, worker death) and
``TestShardExecutor`` is ``shard_index``/``shard_count`` (the owned
slice and the steal through the shared cache). ``TestMakeExecutor``
covers how the constructor picks the mode.
"""

import os

import pytest

from repro.experiments import (
    ExperimentSpec,
    ResultCache,
    SweepRunner,
    shard_of,
)
from repro.experiments.runner import run_task


def factory(config, seed):
    x = config["x"]
    if config.get("raise_on") == x:
        raise RuntimeError(f"task {x} exploded")
    if config.get("kill_on") == x:
        os._exit(13)  # dies without a traceback, like a segfault
    if "cache_dir" in config:  # every earlier task is already cached
        assert len(ResultCache(config["cache_dir"])) == x
    return {"value": x * 10, "pid": os.getpid()}


def metrics(result):
    return result


def make_spec(n=4, **fixed):
    return ExperimentSpec(name="exec_test", factory=factory,
                          metrics=metrics,
                          grid={"x": tuple(range(n))}, fixed=fixed)


def make_tasks(n=4, **fixed):
    return make_spec(n, **fixed).tasks()


class TestRunTask:
    def test_success_carries_metrics_and_duration(self):
        result = run_task(make_tasks(1)[0])
        assert result.ok and not result.cached
        assert result.metrics["value"] == 0
        assert result.duration_s >= 0.0

    def test_exception_becomes_failed_outcome(self):
        result = run_task(make_tasks(1, raise_on=0)[0])
        assert not result.ok
        assert result.metrics == {}
        assert "task 0 exploded" in result.error


class TestInlineExecutor:
    def test_streams_all_tasks_in_order(self, tmp_path):
        # Each task runs only after every earlier one was cached: the
        # factory asserts it, so a buffered commit fails the task.
        spec = make_spec(3, cache_dir=str(tmp_path))
        result = SweepRunner(workers=1,
                             cache=ResultCache(tmp_path)).run(spec)
        assert [r.config["x"] for r in result.results] == [0, 1, 2]
        assert result.n_failed == 0

    def test_failure_does_not_stop_the_stream(self):
        result = SweepRunner(workers=1).run(make_spec(4, raise_on=1))
        assert len(result.results) == 4
        by_x = {r.config["x"]: r for r in result.results}
        assert not by_x[1].ok and "exploded" in by_x[1].error
        assert all(by_x[x].ok for x in (0, 2, 3))


class TestProcessPoolExecutor:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)

    def test_all_outcomes_stream_back(self):
        result = SweepRunner(workers=2).run(make_spec(4))
        assert [r.config["x"] for r in result.results] == [0, 1, 2, 3]
        assert result.n_failed == 0

    def test_task_exception_captured_in_worker(self):
        result = SweepRunner(workers=2).run(make_spec(4, raise_on=2))
        by_x = {r.config["x"]: r for r in result.results}
        assert not by_x[2].ok and "exploded" in by_x[2].error
        assert "Traceback" in by_x[2].error
        assert all(by_x[x].ok for x in (0, 1, 3))

    def test_worker_death_fails_only_inflight_task(self, tmp_path):
        # The last task kills its worker process outright. It fails
        # with BrokenProcessPool; every task reported ok streamed back
        # before the crash and is cached, and no failed task is.
        cache = ResultCache(tmp_path)
        spec = make_spec(4, kill_on=3)
        result = SweepRunner(workers=2, cache=cache).run(spec)
        by_x = {r.config["x"]: r for r in result.results}
        assert len(by_x) == 4
        assert not by_x[3].ok
        assert "BrokenProcessPool" in by_x[3].error
        for task in spec.tasks():
            hit = cache.load(task)
            if by_x[task.config["x"]].ok:
                assert hit == by_x[task.config["x"]].metrics
            else:
                assert hit is None
        assert len(cache) == 4 - result.n_failed


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


class RacingCache(ResultCache):
    """A shared cache into which another shard commits ``foreign``
    while this one is still running its own slice."""

    def __init__(self, root, foreign):
        super().__init__(root)
        self.foreign = list(foreign)

    def store(self, task, metrics):
        while self.foreign:
            super().store(self.foreign.pop(), {"value": -1})
        return super().store(task, metrics)


class TestShardExecutor:
    def test_validates_indices(self):
        with pytest.raises(ValueError):
            SweepRunner(shard_index=2, shard_count=2)

    def test_without_steal_runs_owned_slice_only(self):
        # No shared cache, nothing to steal through.
        tasks = make_tasks(8)
        result = SweepRunner(shard_index=0, shard_count=2).run(
            make_spec(8))
        owned = {t.config["x"] for t in tasks if shard_of(t, 2) == 0}
        assert {r.config["x"] for r in result.results} == owned
        assert result.n_skipped == 8 - len(owned)

    def test_steal_completes_the_grid_alone(self, tmp_path):
        result = SweepRunner(shard_index=0, shard_count=2,
                             cache=ResultCache(tmp_path)).run(
            make_spec(8))
        assert {r.config["x"] for r in result.results} == set(range(8))
        assert result.complete and result.n_cached == 0

    def test_steal_prefers_other_shards_cached_results(self, tmp_path):
        # Shard 1 finishes its slice while shard 0 runs its own: the
        # steal re-reads the cache before each foreign task.
        tasks = make_tasks(8)
        foreign = [t for t in tasks if shard_of(t, 2) == 1]
        cache = RacingCache(tmp_path, foreign)
        result = SweepRunner(shard_index=0, shard_count=2,
                             cache=cache).run(make_spec(8))
        by_x = {r.config["x"]: r for r in result.results}
        for task in foreign:
            assert by_x[task.config["x"]].cached
            assert by_x[task.config["x"]].metrics == {"value": -1}
        assert result.n_cached == len(foreign)


class TestMakeExecutor:
    def test_unknown_name_rejected(self):
        # Workers and the shard index choose the mode; there is no
        # executor name to pass.
        with pytest.raises(TypeError):
            SweepRunner(executor="process")

    def test_auto_picks_by_workers(self):
        inline = SweepRunner(workers=1).run(make_spec(2))
        assert {r.metrics["pid"] for r in inline.results} == {os.getpid()}
        pooled = SweepRunner(workers=2).run(make_spec(2))
        assert os.getpid() not in {r.metrics["pid"]
                                   for r in pooled.results}

    def test_shard_requires_indices(self):
        with pytest.raises(ValueError):
            SweepRunner(shard_index=0)
