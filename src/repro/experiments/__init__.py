"""Declarative, cached, parallel, shardable experiment sweeps.

The chassis behind ``repro sweep`` and the paper-figure modules: specs
declare a parameter grid, :class:`SweepRunner` runs grid points
inline or over worker processes with deterministic per-task seeds,
and a JSON cache makes re-runs instant. The runner is the only sweep
driver: its ``workers`` choose inline or a process pool, and its
``shard_index``/``shard_count`` choose a stable-hash slice of the grid
for multi-machine runs over one shared cache directory. The fan-out
and the cache-key hash come from :mod:`repro.scaleout`, which the
chunked scenario replays and the service share. See
:mod:`repro.experiments.library` for the registered sweeps.
"""

from repro.experiments.cache import ResultCache
from repro.experiments.library import EXPERIMENTS, get_experiment
from repro.experiments.runner import (
    SweepResult,
    SweepRunner,
    TaskResult,
    default_workers,
    shard_of,
)
from repro.experiments.spec import ExperimentSpec, SweepTask, derive_seed
from repro.scaleout import canonical_json, stable_hash

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "ResultCache",
    "SweepResult",
    "SweepRunner",
    "SweepTask",
    "TaskResult",
    "canonical_json",
    "default_workers",
    "derive_seed",
    "get_experiment",
    "shard_of",
    "stable_hash",
]
