"""Crash-tolerant sweep execution over pluggable executors.

``SweepRunner`` takes an :class:`~repro.experiments.spec.ExperimentSpec`,
serves whatever it can from the :class:`~repro.experiments.cache.ResultCache`,
and hands the remaining tasks to a
:class:`~repro.experiments.executors.SweepExecutor` (inline, process
pool, or a work-stealing shard of a multi-machine run). Outcomes
stream back in completion order and are committed to the cache one by
one, so a failing task — or a dying worker process — costs exactly
that task: everything already completed is cached, the failure is
recorded on its :class:`TaskResult`, and the sweep finishes. Results
are reported in grid order regardless of completion order, so a
sweep's output is deterministic whether it ran serial, parallel,
sharded, or fully cached.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.experiments.cache import ResultCache
from repro.experiments.executors import (
    SweepExecutor,
    TaskOutcome,
    make_executor,
)
from repro.experiments.spec import ExperimentSpec


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
    #: Grid points the executor never produced — another shard owns
    #: them and there was no cache to steal through.
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


@dataclass
class SweepRunner:
    """Runs experiment sweeps, optionally cached and parallel.

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
    executor:
        ``"auto"`` (inline for one worker, process pool otherwise),
        an executor name from
        :data:`~repro.experiments.executors.EXECUTORS`, or any object
        implementing :class:`~repro.experiments.executors.SweepExecutor`.
    shard_index, shard_count:
        With ``executor="shard"``, this process's stable-hash slice of
        the grid. Point N processes (or machines) at the same spec and
        cache directory with indices ``0..N-1`` and they converge on
        the full grid without coordination (see
        :class:`~repro.experiments.executors.ShardExecutor`).
    """

    workers: int = 1
    cache: ResultCache | None = None
    executor: str | SweepExecutor = "auto"
    shard_index: int | None = None
    shard_count: int | None = None

    def run(self, spec: ExperimentSpec, force: bool = False
            ) -> SweepResult:
        """Execute (or replay) every task of ``spec``.

        With ``force`` the cache is ignored for reads but still
        written, refreshing stale entries in place. Failed tasks are
        recorded on their :class:`TaskResult` (``error`` holds the
        traceback) instead of aborting the sweep; call
        :meth:`SweepResult.raise_on_failure` to escalate.
        """
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        t0 = time.perf_counter()
        tasks = spec.tasks()
        slots: list[TaskResult | None] = [None] * len(tasks)
        pending = []
        for task in tasks:
            hit = None
            if self.cache is not None and not force:
                hit = self.cache.load(task)
            if hit is not None:
                slots[task.index] = TaskResult(
                    config=task.config, seed=task.seed, metrics=hit,
                    cached=True, duration_s=0.0)
            else:
                pending.append(task)

        for task, outcome in self._executor(force).run(pending):
            slots[task.index] = self._commit(task, outcome)

        return SweepResult(
            spec_name=spec.name,
            results=[r for r in slots if r is not None],
            workers=self.workers,
            wall_s=time.perf_counter() - t0,
            skipped=[t.config for t in pending
                     if slots[t.index] is None])

    def _executor(self, force: bool = False) -> SweepExecutor:
        if isinstance(self.executor, str):
            return make_executor(self.executor, workers=self.workers,
                                 cache=self.cache,
                                 shard_index=self.shard_index,
                                 shard_count=self.shard_count,
                                 force=force)
        return self.executor

    def _commit(self, task, outcome: TaskOutcome) -> TaskResult:
        """Turn one streamed outcome into a TaskResult, caching
        successful metrics immediately."""
        if outcome.ok and not outcome.cached and self.cache is not None:
            self.cache.store(task, outcome.metrics)
        return TaskResult(
            config=task.config, seed=task.seed,
            metrics=outcome.metrics if outcome.ok else {},
            cached=outcome.cached,
            duration_s=outcome.duration_s,
            error=outcome.error)
