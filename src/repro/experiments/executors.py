"""Pluggable sweep executors: inline, process-pool, and sharded.

The :class:`~repro.experiments.runner.SweepRunner` delegates the
actual execution of pending tasks to an *executor* — anything with
``run(tasks) -> iterator of (task, TaskOutcome)``. Executors stream
outcomes in completion order (not grid order) so the runner can commit
each result to the cache the moment it exists: a crash in task N never
discards tasks 1..N-1.

Three executors cover the deployment spectrum:

* :class:`InlineExecutor` — tasks run in this process, one by one.
  Unit tests, the paper-figure modules, debugging.
* :class:`ProcessPoolSweepExecutor` — ``concurrent.futures``
  fan-out with ``as_completed`` streaming. Exceptions raised *inside*
  a task are caught in the worker and come back as failed outcomes;
  a worker process dying outright (segfault, ``os._exit``) surfaces
  as a ``BrokenProcessPool`` failure on the affected tasks only —
  everything that completed before the crash has already streamed.
* :class:`ShardExecutor` — partitions the task list by the stable
  config hash so N machines pointed at the same spec each own a
  disjoint slice. Shards share nothing but a cache directory: after
  finishing its own slice a shard can *steal* foreign tasks that no
  other shard has cached yet, so the grid converges even when some
  machines are slow or never show up — without any coordination
  service.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.experiments.spec import SweepTask

#: Names accepted by :func:`make_executor`.
EXECUTORS = ("auto", "inline", "process", "shard")


@dataclass(frozen=True)
class TaskOutcome:
    """What happened to one task: metrics on success, error text on
    failure, and where the result came from."""

    metrics: dict | None
    duration_s: float = 0.0
    error: str | None = None
    cached: bool = False

    @property
    def ok(self) -> bool:
        """Did the task produce metrics?"""
        return self.error is None


def run_task(task: SweepTask) -> TaskOutcome:
    """Execute one task, converting any exception into a failed
    outcome (module-level so it pickles into worker processes).

    Times the task where it runs, so ``duration_s`` is the task's own
    runtime even when a pool runs tasks concurrently.
    """
    t0 = time.perf_counter()
    try:
        metrics = task.execute()
    except Exception:
        return TaskOutcome(metrics=None,
                           duration_s=time.perf_counter() - t0,
                           error=traceback.format_exc())
    return TaskOutcome(metrics=metrics,
                       duration_s=time.perf_counter() - t0)


@runtime_checkable
class SweepExecutor(Protocol):
    """Anything that can drive a batch of sweep tasks to outcomes."""

    def run(self, tasks: Iterable[SweepTask]
            ) -> Iterator[tuple[SweepTask, TaskOutcome]]:
        """Yield ``(task, outcome)`` pairs as tasks complete."""
        ...


@dataclass
class InlineExecutor:
    """Runs every task in the calling process, streaming outcomes."""

    def run(self, tasks: Iterable[SweepTask]
            ) -> Iterator[tuple[SweepTask, TaskOutcome]]:
        for task in tasks:
            yield task, run_task(task)


@dataclass
class ProcessPoolSweepExecutor:
    """Fans tasks out over worker processes, streaming completions.

    A task that raises is caught *inside* the worker by
    :func:`run_task`; only the death of the worker process itself
    (``BrokenProcessPool``) reaches the future, and then only the
    tasks still in flight fail — completed outcomes have already been
    yielded to the caller.
    """

    workers: int

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def run(self, tasks: Iterable[SweepTask]
            ) -> Iterator[tuple[SweepTask, TaskOutcome]]:
        tasks = list(tasks)
        if not tasks:
            return
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = {pool.submit(run_task, task): task
                       for task in tasks}
            for future in as_completed(futures):
                task = futures[future]
                try:
                    outcome = future.result()
                except Exception as exc:
                    # The worker process died (not a task exception —
                    # those are captured by run_task): fail this task,
                    # keep streaming the rest.
                    outcome = TaskOutcome(
                        metrics=None,
                        error=f"{type(exc).__name__}: {exc}")
                yield task, outcome


def shard_of(task: SweepTask, shard_count: int) -> int:
    """Which shard owns a task: stable across machines and runs."""
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    return int(task.config_hash[:16], 16) % shard_count


@dataclass
class ShardExecutor:
    """Owns the ``shard_index``-th stable-hash slice of a task list.

    Parameters
    ----------
    inner:
        Executor that actually runs this shard's owned tasks.
    shard_index, shard_count:
        This machine's slice of the grid (``0 <= index < count``).
    cache:
        The *shared* result cache. After the owned slice the shard
        steals the foreign tasks that are not in it yet (one at a
        time, re-checking the cache before each, so duplicated work
        is bounded by one task per straggler), so every shard
        eventually drives the whole grid to completion on its own.
        ``None`` runs the owned slice only: there is no way to see
        other shards' progress.
    force:
        Honor a force-refresh run: stolen foreign tasks are
        recomputed without consulting the cache, matching the
        runner's "cache is ignored for reads" contract.
    """

    inner: SweepExecutor
    shard_index: int
    shard_count: int
    cache: object | None = None
    force: bool = False

    def __post_init__(self) -> None:
        if self.shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        if not 0 <= self.shard_index < self.shard_count:
            raise ValueError("shard_index must be in [0, shard_count)")

    def run(self, tasks: Iterable[SweepTask]
            ) -> Iterator[tuple[SweepTask, TaskOutcome]]:
        tasks = list(tasks)
        owned = [t for t in tasks
                 if shard_of(t, self.shard_count) == self.shard_index]
        foreign = [t for t in tasks
                   if shard_of(t, self.shard_count) != self.shard_index]
        yield from self.inner.run(owned)
        if self.cache is None:
            return
        for task in foreign:
            hit = None if self.force else self.cache.load(task)
            if hit is not None:  # another shard got there first
                yield task, TaskOutcome(metrics=hit, cached=True)
                continue
            yield task, run_task(task)


def make_executor(name: str, workers: int = 1, cache: object | None = None,
                  shard_index: int | None = None,
                  shard_count: int | None = None,
                  force: bool = False) -> SweepExecutor:
    """Build an executor by name.

    ``"auto"`` picks inline for ``workers == 1`` and a process pool
    otherwise (the historical SweepRunner behavior). ``"shard"``
    wraps the auto choice in a :class:`ShardExecutor` and requires
    ``shard_index`` / ``shard_count``.
    """
    if name not in EXECUTORS:
        raise KeyError(f"unknown executor {name!r} (known: {EXECUTORS})")
    if name == "inline":
        return InlineExecutor()
    if name == "process":
        return ProcessPoolSweepExecutor(workers=max(1, workers))
    inner: SweepExecutor = (InlineExecutor() if workers == 1
                            else ProcessPoolSweepExecutor(workers=workers))
    if name == "auto":
        return inner
    if shard_index is None or shard_count is None:
        raise ValueError("shard executor needs shard_index and "
                         "shard_count")
    return ShardExecutor(inner=inner, shard_index=shard_index,
                         shard_count=shard_count, cache=cache,
                         force=force)
