"""One-pass topology bake-off: one scenario, M backends, one stream.

The paper's Fig. 12 compares the photonic fabric against one
electronic baseline at one operating point. The arena generalizes
that into a standing harness: every registered backend races the
*same* scenario stream in a single pass of the shared epoch kernel
:func:`~repro.scenarios.runner.play_epochs` — each epoch's events are
applied to every contender, the epoch's :class:`FlowBatch` is
generated **once** (counter-seeded
:meth:`~repro.scenarios.scenario.Scenario.flow_batch_at`, so traffic
is a pure function of ``(epoch, seed)``), and every backend steps on
the shared batch. A solo
:class:`~repro.scenarios.runner.ScenarioRunner` run is the same
kernel with one contender, so the per-backend report streams are
bit-identical to M independent runs — proven by test — while the
traffic is generated and validated once instead of M times.

On top of the race, :class:`ArenaReport` places every contender on
the §VI-E iso-performance / iso-power frontiers
(:mod:`repro.analysis.frontier`): what would each topology burn to
match the fastest, and what would each carry inside the leanest
contender's power budget.

Entry points: ``python -m repro arena <scenario> --backends a,b,c``,
the ``arena_frontiers`` sweep spec, and perfbench's ``rack_arena``
workload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.frontier import (
    FrontierPoint,
    iso_performance_frontier,
    iso_power_frontier,
)
from repro.scenarios.registry import available_backends, make_backend
from repro.scenarios.runner import ScenarioReport, play_epochs
from repro.scenarios.scenario import Scenario

__all__ = ["ArenaReport", "run_arena"]


@dataclass
class ArenaReport:
    """Everything one arena pass produced, per contender."""

    scenario: str
    seed: int
    #: name -> per-backend scenario report, in requested race order.
    reports: dict[str, ScenarioReport] = field(default_factory=dict)
    #: name -> provisioned fabric power (W).
    power_w: dict[str, float] = field(default_factory=dict)

    @property
    def backends(self) -> tuple[str, ...]:
        """Contenders in race order."""
        return tuple(self.reports)

    def frontier_points(self) -> list[FrontierPoint]:
        """Measured (bandwidth, power) point per contender."""
        return [FrontierPoint(backend=name,
                              carried_gbps=report.carried_gbps,
                              power_w=self.power_w[name])
                for name, report in self.reports.items()]

    def iso_performance(self) -> list[dict]:
        """Power to match the fastest contender, cheapest-first."""
        return iso_performance_frontier(self.frontier_points())

    def iso_power(self) -> list[dict]:
        """Bandwidth inside the leanest power budget, fastest-first."""
        return iso_power_frontier(self.frontier_points())

    def rows(self) -> list[dict]:
        """Per-backend summary rows (race order) for tables."""
        out = []
        for name, report in self.reports.items():
            row = report.as_dict()
            row["power_w"] = self.power_w[name]
            row["gbps_per_watt"] = report.carried_gbps / self.power_w[name]
            out.append(row)
        return out

    def as_dict(self) -> dict:
        """JSON-stable arena summary (sweep-cacheable)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "backends": list(self.backends),
            "rows": self.rows(),
            "iso_performance": self.iso_performance(),
            "iso_power": self.iso_power(),
        }


def run_arena(scenario: Scenario,
              backends: tuple[str, ...] | list[str] | None = None,
              seed: int = 0,
              backend_params: dict[str, dict] | None = None,
              ) -> ArenaReport:
    """Race one scenario through M backends in a single pass.

    Parameters
    ----------
    scenario:
        What every contender plays. Trim with
        :meth:`~repro.scenarios.scenario.Scenario.with_epochs` first
        for a shorter race.
    backends:
        Contender names (race order); defaults to every registered
        backend. Duplicates are rejected — one entry per topology.
    seed:
        Base seed for both per-epoch traffic derivation and each
        backend's own RNG (every contender gets the same seed, as it
        would in an independent ``ScenarioRunner`` run).
    backend_params:
        Optional per-backend constructor overrides,
        ``{name: {param: value}}``; keys must name raced backends.
    """
    names = tuple(backends) if backends is not None \
        else available_backends()
    if not names:
        raise ValueError("no backends to race")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate backends in race: {names}")
    params = dict(backend_params or {})
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ValueError(
            f"backend_params for backends not in the race: {unknown}")
    contenders = [make_backend(name, scenario.n_nodes, seed=seed,
                               **params.get(name, {}))
                  for name in names]
    arena = ArenaReport(scenario=scenario.name, seed=seed)
    for name in names:
        arena.reports[name] = ScenarioReport(
            scenario=scenario.name, backend=name)
    play_epochs(scenario, contenders, tuple(arena.reports.values()), 0,
                scenario.n_epochs, seed)
    for name, backend in zip(names, contenders, strict=True):
        arena.power_w[name] = float(backend.power_w())
    return arena
