"""Scenario execution: epochs in, streamed metrics out.

:func:`play_epochs` is the one epoch loop every execution path shares:
each epoch it first applies the events scripted for that epoch (plane
failures, repairs, reconfiguration-lag changes) to every backend, then
generates the epoch's flow batch once from the active episodes under
counter-based per-epoch seeding and steps every backend on it.
:class:`ScenarioRunner` plays it against one backend, the arena
(:func:`~repro.scenarios.arena.run_arena`) against many, a sharded
chunk (:func:`~repro.scenarios.sharding.execute_chunk`) over one epoch
range, and a service session one epoch at a time. The per-epoch
:class:`~repro.scenarios.backends.EpochReport` stream accumulates into
a :class:`ScenarioReport` whose aggregates (accepted / blocked Gbps,
indirect-route fraction, p50/p99 per-flow slowdown) reduce through
:mod:`repro.analysis.stats` and flatten to the JSON-stable metrics
dict the sweep engine caches.

:func:`replay_to` is the one checkpoint mechanism: it builds a backend,
restores the newest backend snapshot at or before a target epoch and
plays forward to it. A carry-mode chunk starts from its predecessor's
end-of-chunk snapshot through it, and a service session rebuilds its
live backend through it after a resume, a recovery or a fork. Every
record that carries a snapshot is stamped :data:`CHECKPOINT_FORMAT`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.analysis.stats import mean_ci, quantiles
from repro.scenarios.backends import (EpochReport, FabricBackend,
                                      make_backend)
from repro.scenarios.scenario import Scenario

#: Bump when a record that carries a backend snapshot changes shape
#: (carry-mode chunk checkpoints, suspended session records): retires
#: every such record on disk. Part of every ``ChunkKey`` and
#: ``SessionKey`` hash. v2: chunk payloads carry the boundary mode and
#: ``events_replayed`` counts only applied events. v3: the AWGR
#: simulator's expiry buckets are plain lists of sub-slot token
#: batches. v4: one piggyback board, and AWGR occupancy and board
#: arrays travel as compressed typed envelopes. v5: WSS switch
#: assignments travel as compressed typed envelopes, and session event
#: totals are derived from ``event_counts``, not stored.
CHECKPOINT_FORMAT = 5


@dataclass
class ScenarioReport:
    """Everything one scenario run produced."""

    scenario: str
    backend: str
    epochs: list[EpochReport] = field(default_factory=list)
    events_applied: int = 0
    events_ignored: int = 0

    # -- aggregates ------------------------------------------------------------

    @property
    def offered_gbps(self) -> float:
        """Total offered bandwidth across all epochs."""
        return sum(e.offered_gbps for e in self.epochs)

    @property
    def carried_gbps(self) -> float:
        """Total accepted bandwidth across all epochs."""
        return sum(e.carried_gbps for e in self.epochs)

    @property
    def blocked_gbps(self) -> float:
        """Total offered bandwidth the fabric failed to carry."""
        return sum(e.blocked_gbps for e in self.epochs)

    @property
    def throughput_ratio(self) -> float:
        """Accepted / offered bandwidth over the whole run.

        A zero-offered run reports 0.0, not 1.0 — an idle scenario
        must never read as "perfect fabric" in aggregated CI tables.
        """
        offered = self.offered_gbps
        return self.carried_gbps / offered if offered > 0 else 0.0

    @property
    def acceptance_ratio(self) -> float:
        """Carried / offered flow count over the whole run.

        A zero-offered run reports 0.0, not 1.0, mirroring
        :attr:`throughput_ratio` — an idle scenario must never read as
        "perfect fabric" in aggregated CI tables.
        """
        offered = sum(e.offered for e in self.epochs)
        carried = sum(e.carried for e in self.epochs)
        return carried / offered if offered else 0.0

    @property
    def indirect_fraction(self) -> float:
        """Carried-flow fraction that needed indirection (AWGR)."""
        carried = sum(e.carried for e in self.epochs)
        indirect = sum(e.indirect for e in self.epochs)
        return indirect / carried if carried else 0.0

    @property
    def slowdowns(self) -> list[float]:
        """Per-flow slowdown samples pooled across epochs."""
        return [s for e in self.epochs for s in e.slowdowns]

    def slowdown_quantiles(self, qs=(0.5, 0.99)) -> dict[float, float]:
        """p50/p99 (by default) of the per-flow slowdown distribution."""
        pooled = self.slowdowns
        if not pooled:
            return {float(q): 1.0 for q in qs}
        return quantiles(pooled, qs=qs)

    def as_dict(self) -> dict:
        """Flat aggregate metrics (sweep-cacheable)."""
        slow = self.slowdown_quantiles()
        return {
            "scenario": self.scenario,
            "fabric": self.backend,
            "epochs": len(self.epochs),
            "offered_gbps": self.offered_gbps,
            "carried_gbps": self.carried_gbps,
            "blocked_gbps": self.blocked_gbps,
            "throughput_ratio": self.throughput_ratio,
            "acceptance_ratio": self.acceptance_ratio,
            "indirect_fraction": self.indirect_fraction,
            "slowdown_p50": slow[0.5],
            "slowdown_p99": slow[0.99],
            "events_applied": self.events_applied,
            "events_ignored": self.events_ignored,
        }

    def rows(self) -> list[dict]:
        """Per-epoch table rows (the streaming metrics view)."""
        return [e.as_row() for e in self.epochs]

    @classmethod
    def from_payloads(cls, scenario: str, backend: str,
                      epochs: Iterable[dict], events_applied: int,
                      events_ignored: int) -> "ScenarioReport":
        """A report over JSON epoch payloads
        (:meth:`~repro.scenarios.backends.EpochReport.to_dict`), the
        form chunk checkpoints and session records keep epochs in."""
        return cls(scenario=scenario, backend=backend,
                   epochs=[EpochReport.from_dict(e) for e in epochs],
                   events_applied=events_applied,
                   events_ignored=events_ignored)


def play_epochs(scenario: Scenario, backends: Sequence[FabricBackend],
                reports: Sequence[ScenarioReport], start: int,
                stop: int, seed: int) -> None:
    """Advance epochs ``[start, stop)`` of ``scenario`` on every backend.

    The one epoch loop: each epoch's scripted events are applied to
    every backend first (counted as applied or ignored on that
    backend's report), then the epoch's traffic is generated **once**
    with :meth:`~repro.scenarios.scenario.Scenario.flow_batch_at` and
    every backend steps on the shared batch. A backend only reads the
    batch, so each backend's stream is bit-identical to playing it
    alone. ``reports[i]`` receives ``backends[i]``'s
    :class:`~repro.scenarios.backends.EpochReport` per epoch, stamped
    with the absolute epoch (a backend counts only the epochs it
    stepped itself).
    """
    if not 0 <= start <= stop <= scenario.n_epochs:
        raise ValueError(
            f"epoch range [{start}, {stop}) outside "
            f"[0, {scenario.n_epochs}]")
    pairs = list(zip(backends, reports, strict=True))
    for epoch in range(start, stop):
        events = scenario.events_at(epoch)
        for backend, report in pairs:
            for event in events:
                if backend.apply_event(event):
                    report.events_applied += 1
                else:
                    report.events_ignored += 1
        batch = scenario.flow_batch_at(epoch, base_seed=seed)
        for backend, report in pairs:
            stepped = backend.step(batch)
            stepped.epoch = epoch
            report.epochs.append(stepped)


def replay_to(scenario: Scenario, backend: str, params: dict, seed: int,
              checkpoints: Mapping[int, dict], cursor: int
              ) -> tuple[FabricBackend, ScenarioReport]:
    """A freshly built backend at epoch ``cursor`` of ``scenario``, and
    the report of the epochs played to get there.

    Builds ``backend`` exactly as a monolithic run does (``seed`` seeds
    it and every epoch's traffic), restores the newest of
    ``checkpoints`` (``{epoch: snapshot}``) at or before ``cursor`` —
    with none, the fresh backend is the epoch-0 state — and plays the
    epochs from there to ``cursor`` with :func:`play_epochs`. Exact
    wherever ``cursor`` sits: per-epoch seeding makes each epoch's
    traffic independent of what ran before, and a restored snapshot
    continues bit-identically to the backend it was taken from. The
    snapshots are only read.
    """
    anchors = [epoch for epoch in checkpoints if epoch <= cursor]
    start = max(anchors, default=0)
    fabric = make_backend(backend, scenario.n_nodes, seed=seed, **params)
    if anchors:
        try:
            fabric.restore(checkpoints[start])
        except ValueError as exc:
            raise ValueError(
                f"scenario {scenario.name!r} epochs [{start}, {cursor}): "
                f"cannot restore the carried snapshot: {exc}") from exc
    report = ScenarioReport(scenario=scenario.name, backend=backend)
    play_epochs(scenario, (fabric,), (report,), start, cursor, seed)
    return fabric, report


@dataclass
class ScenarioRunner:
    """Drives one scenario through one fabric backend: the
    :func:`play_epochs` kernel with a single contender."""

    scenario: Scenario
    backend: FabricBackend

    def run(self, seed: int = 0) -> ScenarioReport:
        """Play the scenario end to end and aggregate the epochs."""
        return self.step_epochs(0, self.scenario.n_epochs, seed=seed)

    def step_epochs(self, start: int, stop: int, seed: int = 0,
                    report: ScenarioReport | None = None
                    ) -> ScenarioReport:
        """Advance epochs ``[start, stop)`` against the live backend.

        The reentrant core of :meth:`run`: because the backend carries
        all fabric state and per-epoch seeding derives each epoch's
        traffic independently, N successive calls advancing one epoch
        each are bit-identical to one call advancing N — this is what
        lets the service pool time-slice a live session across
        scheduling rounds (and suspend it between any two epochs)
        without perturbing the stream. Events scripted for an epoch
        are applied before that epoch's traffic, exactly as in a
        monolithic run.

        ``report`` accumulates across calls (a fresh one is created
        when omitted).
        """
        if report is None:
            report = ScenarioReport(scenario=self.scenario.name,
                                    backend=self.backend.name)
        play_epochs(self.scenario, (self.backend,), (report,), start,
                    stop, seed)
        return report


def run_replicated(scenario: Scenario, make_backend_fn, repeats: int,
                   base_seed: int = 0, confidence: float = 0.95
                   ) -> dict[str, dict[str, float]]:
    """Run a scenario ``repeats`` times at seeds ``base_seed + i`` and
    reduce each aggregate metric to a mean with a normal-approx CI.

    ``make_backend_fn(seed)`` must build a *fresh* backend per repeat
    (backends are stateful). Returns {metric: mean_ci dict}.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    runs = []
    for i in range(repeats):
        seed = base_seed + i
        backend = make_backend_fn(seed)
        runs.append(ScenarioRunner(scenario, backend)
                    .run(seed=seed).as_dict())
    numeric = [k for k, v in runs[0].items()
               if isinstance(v, (int, float)) and not isinstance(v, bool)]
    return {k: mean_ci([r[k] for r in runs], confidence)
            for k in numeric}
