"""Crash-tolerant, shardable sweep execution.

``SweepRunner`` takes an :class:`~repro.experiments.spec.ExperimentSpec`,
serves whatever it can from the :class:`~repro.experiments.cache.ResultCache`,
and runs the remaining tasks through :func:`repro.scaleout.fan_out`:
inline for one worker, on a process pool otherwise. Results stream
back in completion order and are committed to the cache one by one,
so a failing task — or a dying worker process — costs exactly that
task: everything already completed is cached, the failure is recorded
on its :class:`TaskResult`, and the sweep finishes.

Given a ``shard_index``, the runner owns only the stable-hash slice
:func:`shard_of` of the grid. N processes (or machines) pointed at one
spec and one cache directory each run their own slice and then steal
the foreign tasks no other shard has cached yet, so the grid converges
without any coordination service. Results are reported in grid order
regardless of completion order, so a sweep's output is deterministic
whether it ran serial, parallel, sharded, or fully cached.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field

from repro.experiments.cache import ResultCache
from repro.experiments.spec import ExperimentSpec, SweepTask
from repro.scaleout import fan_out


@dataclass(frozen=True)
class TaskResult:
    """Outcome of one grid point."""

    config: dict
    seed: int
    metrics: dict
    cached: bool
    duration_s: float
    #: Formatted traceback when the task failed; ``None`` on success.
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Did this task produce metrics?"""
        return self.error is None

    def row(self) -> dict:
        """Config and metrics merged into one flat report row."""
        return {**self.config, **self.metrics}


@dataclass
class SweepResult:
    """All task results of one sweep, in grid order."""

    spec_name: str
    results: list[TaskResult] = field(default_factory=list)
    workers: int = 1
    wall_s: float = 0.0
    #: Grid points this run never produced — another shard owns them
    #: and there was no cache to steal through.
    skipped: list[dict] = field(default_factory=list)

    @property
    def n_cached(self) -> int:
        """How many tasks were served from the result cache."""
        return sum(1 for r in self.results if r.cached)

    @property
    def n_failed(self) -> int:
        """How many tasks raised instead of producing metrics."""
        return sum(1 for r in self.results if not r.ok)

    @property
    def n_executed(self) -> int:
        """How many tasks actually simulated (including failures)."""
        return len(self.results) - self.n_cached

    @property
    def n_skipped(self) -> int:
        """How many grid points were left to other shards."""
        return len(self.skipped)

    @property
    def complete(self) -> bool:
        """Did every grid point produce a usable result here?"""
        return not self.skipped and self.n_failed == 0

    def failures(self) -> list[TaskResult]:
        """The failed tasks, in grid order, with their tracebacks."""
        return [r for r in self.results if not r.ok]

    def rows(self) -> list[dict]:
        """Flat config+metrics rows of the *successful* tasks
        (report/table input; failed tasks have no metrics)."""
        return [r.row() for r in self.results if r.ok]

    def raise_on_failure(self) -> "SweepResult":
        """Raise ``RuntimeError`` if any task failed; else return self
        (for callers that want the historical abort-on-error shape)."""
        failed = self.failures()
        if failed:
            raise RuntimeError(
                f"{self.spec_name}: {len(failed)} task(s) failed; "
                f"first: {failed[0].config} ->\n{failed[0].error}")
        return self

    def summary(self) -> str:
        """One-line human summary of the sweep run."""
        failed = f", {self.n_failed} FAILED" if self.n_failed else ""
        skipped = (f", {self.n_skipped} left to other shards"
                   if self.skipped else "")
        return (f"{self.spec_name}: {len(self.results)} tasks "
                f"({self.n_cached} cached, {self.n_executed} run"
                f"{failed}{skipped}) on {self.workers} worker(s) "
                f"in {self.wall_s:.2f}s")


def default_workers() -> int:
    """Process-pool width used when the caller does not choose one."""
    return max(1, min(8, (os.cpu_count() or 2) - 1))


def run_task(task: SweepTask) -> TaskResult:
    """Execute one task, converting any exception into a failed result
    that carries its traceback (module-level so it pickles into worker
    processes).

    Times the task where it runs, so ``duration_s`` is the task's own
    runtime even when a pool runs tasks concurrently.
    """
    t0 = time.perf_counter()
    try:
        metrics, error = task.execute(), None
    except Exception:
        metrics, error = {}, traceback.format_exc()
    return TaskResult(config=task.config, seed=task.seed, metrics=metrics,
                      cached=False, duration_s=time.perf_counter() - t0,
                      error=error)


def shard_of(task: SweepTask, shard_count: int) -> int:
    """Which shard owns a task: stable across machines and runs."""
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    return int(task.config_hash[:16], 16) % shard_count


@dataclass
class SweepRunner:
    """Runs experiment sweeps, optionally cached, parallel and sharded.

    Parameters
    ----------
    workers:
        Process-pool width. ``1`` (the default) executes inline in
        this process — right for unit tests and the paper-figure
        modules; pass >1 (or :func:`default_workers`) to fan out.
    cache:
        Result cache; ``None`` disables caching entirely. Results are
        stored *as each task completes*, never buffered — an aborted
        or partially failed sweep keeps everything it finished.
    shard_index, shard_count:
        With a ``shard_index``, run only this process's stable-hash
        slice of the grid (``shard_of(task, shard_count) ==
        shard_index``), then steal the foreign tasks that are not in
        the shared ``cache`` yet, one at a time and re-checking the
        cache before each, so duplicated work is bounded by one task
        per straggler. Point N processes (or machines) at the same
        spec and cache directory with indices ``0..N-1`` and each
        converges on the full grid without coordination. Without a
        cache there is no way to see other shards' progress: foreign
        tasks are reported as :attr:`SweepResult.skipped`.
    """

    workers: int = 1
    cache: ResultCache | None = None
    shard_index: int | None = None
    shard_count: int | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.shard_index is not None and (
                self.shard_count is None
                or not 0 <= self.shard_index < self.shard_count):
            raise ValueError("shard_index must be in [0, shard_count)")

    def run(self, spec: ExperimentSpec, force: bool = False
            ) -> SweepResult:
        """Execute (or replay) every task of ``spec``.

        With ``force`` the cache is ignored for reads but still
        written, refreshing stale entries in place; stolen foreign
        tasks are recomputed too. Failed tasks are recorded on their
        :class:`TaskResult` (``error`` holds the traceback) instead of
        aborting the sweep; call :meth:`SweepResult.raise_on_failure`
        to escalate.
        """
        t0 = time.perf_counter()
        tasks = spec.tasks()
        slots: list[TaskResult | None] = [None] * len(tasks)
        owned: list[SweepTask] = []
        foreign: list[SweepTask] = []
        for task in tasks:
            hit = self._cached(task, force)
            if hit is not None:
                slots[task.index] = hit
            elif self._owns(task):
                owned.append(task)
            else:
                foreign.append(task)

        for (task,), result, error in fan_out(
                run_task, [(task,) for task in owned], self.workers):
            if error is not None:  # raised outside run_task: the worker died
                result = TaskResult(
                    config=task.config, seed=task.seed, metrics={},
                    cached=False, duration_s=0.0,
                    error=f"{type(error).__name__}: {error}")
            slots[task.index] = self._commit(task, result)
        if self.cache is not None:
            for task in foreign:
                slots[task.index] = (self._cached(task, force)
                                     or self._commit(task, run_task(task)))

        return SweepResult(
            spec_name=spec.name,
            results=[r for r in slots if r is not None],
            workers=self.workers,
            wall_s=time.perf_counter() - t0,
            skipped=[t.config for t in foreign if slots[t.index] is None])

    def _owns(self, task: SweepTask) -> bool:
        return (self.shard_index is None
                or shard_of(task, self.shard_count) == self.shard_index)

    def _cached(self, task: SweepTask, force: bool) -> TaskResult | None:
        """The task's cached result, or None on a miss (always under
        ``force``)."""
        hit = None
        if self.cache is not None and not force:
            hit = self.cache.load(task)
        if hit is None:
            return None
        return TaskResult(config=task.config, seed=task.seed, metrics=hit,
                          cached=True, duration_s=0.0)

    def _commit(self, task: SweepTask, result: TaskResult) -> TaskResult:
        """Cache one freshly computed result the moment it exists
        (failures never reach the cache)."""
        if result.ok and self.cache is not None:
            self.cache.store(task, result.metrics)
        return result
