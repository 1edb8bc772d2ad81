"""Declarative experiment specifications for parameter sweeps.

An :class:`ExperimentSpec` names a parameter grid, a *factory* that
runs one configuration to a result object, and a *metric extractor*
that reduces the result to a JSON-serializable dict. The spec expands
its grid into :class:`SweepTask` instances, each carrying a
deterministic RNG seed derived from a stable hash of (spec identity,
task config) — so the same spec always yields the same seeds, across
processes and Python invocations, without any global state.

Factories and extractors must be *module-level* callables: tasks fan
out over a process pool (:func:`repro.scaleout.fan_out`) and
therefore have to pickle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Mapping, Sequence

from repro.scaleout import key_hash, stable_hash


def derive_seed(spec_name: str, version: int, base_seed: int,
                config: Mapping[str, Any]) -> int:
    """Deterministic 63-bit RNG seed for one task of one spec."""
    payload = {"spec": spec_name, "version": version,
               "base_seed": base_seed, "config": config}
    return int(stable_hash(payload)[:16], 16) & (2**63 - 1)


@dataclass(frozen=True)
class SweepTask:
    """One grid point: everything a worker process needs to run it."""

    spec_name: str
    version: int
    index: int
    config: dict[str, Any]
    seed: int
    factory: Callable[[dict, int], Any]
    metrics: Callable[[Any], dict]

    @property
    def config_hash(self) -> str:
        """Stable hash of the task's config (cache key component)."""
        return key_hash(self)

    def execute(self) -> dict[str, Any]:
        """Run factory + metric extraction for this configuration."""
        result = self.factory(self.config, self.seed)
        return self.metrics(result)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, declarative parameter sweep.

    Parameters
    ----------
    name:
        Registry / cache namespace for the sweep.
    factory:
        Module-level callable ``(config, seed) -> result`` running one
        configuration end-to-end.
    metrics:
        Module-level callable ``result -> dict`` reducing the result
        to JSON-serializable metrics (e.g. ``SimulationReport.as_dict``
        wrapped in a function).
    grid:
        Mapping of parameter name to the sequence of values to sweep.
        The cartesian product, in declaration order, is the task list.
    fixed:
        Parameters shared by every task (merged under each grid point;
        a grid key overrides a fixed key of the same name).
    base_seed:
        Stirred into every task's derived seed: bump to resample.
        Only affects factories that consume their ``seed`` argument —
        specs that pin RNG inputs in the config (the registered paper
        replays in :mod:`repro.experiments.library`) stay bit-
        identical and merely recompute under a new cache identity.
    version:
        Cache-busting version; bump when factory semantics change.
    description:
        One-line summary shown by ``repro sweep --list``.
    """

    name: str
    factory: Callable[[dict, int], Any]
    metrics: Callable[[Any], dict]
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    fixed: Mapping[str, Any] = field(default_factory=dict)
    base_seed: int = 0
    version: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec needs a name")
        for param, values in self.grid.items():
            if not isinstance(values, Sequence) or isinstance(values, str):
                raise TypeError(
                    f"grid[{param!r}] must be a sequence of values")
            if len(values) == 0:
                raise ValueError(f"grid[{param!r}] is empty")

    def configs(self) -> list[dict[str, Any]]:
        """Expand fixed params x grid into per-task config dicts."""
        if not self.grid:
            return [dict(self.fixed)]
        names = list(self.grid)
        out = []
        for combo in itertools.product(*(self.grid[n] for n in names)):
            config = dict(self.fixed)
            config.update(zip(names, combo))
            out.append(config)
        return out

    def repeated(self, repeats: int, axis: str = "repeat"
                 ) -> "ExperimentSpec":
        """Fan the spec out across ``repeats`` seeded replications.

        Adds a ``repeat`` grid axis with values ``0..repeats-1``; each
        value is stirred into the task's derived seed (equivalent to
        running the sweep at ``base_seed + i``), so factories that
        consume their ``seed`` argument resample per repeat while the
        rest of the config stays fixed. Aggregate the resulting rows
        with :func:`repro.analysis.report.aggregate_ci` /
        :func:`repro.analysis.stats.mean_ci`.
        """
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        if axis in self.grid or axis in self.fixed:
            raise ValueError(f"axis {axis!r} already used by the spec")
        grid = dict(self.grid)
        grid[axis] = tuple(range(repeats))
        return replace(self, grid=grid)

    def tasks(self) -> list[SweepTask]:
        """Materialize the sweep's task list with derived seeds."""
        return [SweepTask(spec_name=self.name, version=self.version,
                          index=i, config=config,
                          seed=derive_seed(self.name, self.version,
                                           self.base_seed, config),
                          factory=self.factory, metrics=self.metrics)
                for i, config in enumerate(self.configs())]

    def __len__(self) -> int:
        n = 1
        for values in self.grid.values():
            n *= len(values)
        return n
