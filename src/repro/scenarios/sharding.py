"""Sharded, checkpointed scenario execution for week-scale replays.

:class:`ShardedScenarioRunner` splits a scenario's epoch stream into
fixed-size *chunks* (e.g. one day of 1-minute epochs), runs each chunk
on a fresh backend with counter-based per-epoch seeds, and checkpoints
every chunk's :class:`~repro.scenarios.backends.EpochReport` list
through a content-addressed result cache. Because per-epoch seeding
(:func:`~repro.scenarios.scenario.derive_epoch_seed`) makes every
chunk's traffic independent of every other chunk's draws, the chunk
decomposition is exact: any worker can compute any chunk, in any
order, bit-identically.

That buys three things at once:

* **sharding** — N processes (or machines) pointed at the same cache
  directory each own the ``index % shards == shard_index`` slice of
  the chunk list and converge on the full replay without any
  coordination service;
* **resume** — an interrupted week-scale replay restarts from the
  last completed chunk: cached chunks load instantly, only the
  missing tail is recomputed;
* **identical aggregates** — a run is fully determined by (scenario,
  backend, chunk size, base seed), never by how many shards computed
  it or how often it was interrupted.

Chunk-boundary semantics come in two modes (``boundary=``):

* ``"reset"`` — each chunk starts a *fresh* backend, first replaying
  the events scripted before the chunk (so persistent state — failed
  planes, reconfiguration settings — carries over), then stepping its
  epoch range. In-flight flows admitted in the previous chunk do not
  survive the boundary; this is the checkpoint granularity, exactly
  like restarting a simulation from a checkpoint file, and it is why
  ``chunk_epochs`` is part of the run's cache identity. Chunks are
  mutually independent, so any shard can compute any chunk in any
  order — the coordination-free story above.
* ``"carry"`` (the default) — each chunk checkpoint also stores the
  end-of-chunk backend ``snapshot()``, and chunk ``k`` *restores*
  chunk ``k-1``'s snapshot instead of replaying pre-chunk events:
  in-flight flows, wavelength occupancy, and RNG state all cross the
  boundary, so the merged aggregates are **bit-identical to a
  monolithic** :class:`~repro.scenarios.runner.ScenarioRunner` run at
  any chunk size — and the boundary costs O(state) restore instead of
  the reset mode's O(events x chunk index) replay. The price is
  sequential dependence: chunks pipeline in index order through the
  shared cache (a shard can only compute a chunk once its
  predecessor's checkpoint exists), so carry mode trades reset
  mode's any-chunk-anywhere sharding for exactness. Resume still
  works chunk-by-chunk: an interrupted run picks up from the last
  checkpointed snapshot.

In both modes a chunk's epochs run through the shared epoch kernel
:func:`~repro.scenarios.runner.play_epochs`, so a single-chunk run is
bit-identical to a monolithic
:class:`~repro.scenarios.runner.ScenarioRunner` run whose backend was
seeded with :func:`chunk_backend_seed`.

Reset-mode chunks fan out through :func:`repro.scaleout.fan_out`, the
process pool the sweep runner uses too, and a chunk's cache identity
is :func:`repro.scaleout.key_hash`, the sweep tasks' content hash.
This module deliberately never imports ``repro.experiments`` (the
dependency stays one-directional): the checkpoint store is duck-typed
to :class:`~repro.experiments.cache.ResultCache` — anything with
``load(key) -> dict | None`` and ``store(key, metrics)`` that reads
the key's ``spec_name`` / ``version`` / ``config`` / ``seed`` /
``config_hash`` attributes works.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

from repro.scaleout import fan_out, key_hash
from repro.scenarios.backends import EpochReport, make_backend
from repro.scenarios.runner import ScenarioReport, play_epochs
from repro.scenarios.scenario import Scenario, derive_epoch_seed

#: Bump when chunk-execution semantics change: invalidates every
#: checkpointed chunk (the chunk analog of a spec's ``version``).
#: v2: payloads carry the boundary mode (plus, in carry mode, the
#: end-of-chunk backend snapshot) and ``events_replayed`` counts only
#: events the backend actually applied. v3: the AWGR simulator's
#: expiry buckets are plain lists of sub-slot token batches. v4: one
#: piggyback board, and AWGR occupancy and board arrays travel as
#: compressed typed envelopes.
#: v5: WSS switch assignments travel as compressed typed envelopes.
CHUNK_FORMAT = 5

#: Chunk-boundary modes :class:`ShardedScenarioRunner` accepts.
BOUNDARY_MODES = ("reset", "carry")


def chunk_ranges(n_epochs: int,
                 chunk_epochs: int) -> list[tuple[int, int]]:
    """Split ``[0, n_epochs)`` into ``chunk_epochs``-sized ranges
    (the last one ragged)."""
    if n_epochs < 1:
        raise ValueError("n_epochs must be >= 1")
    if chunk_epochs < 1:
        raise ValueError("chunk_epochs must be >= 1")
    return [(start, min(start + chunk_epochs, n_epochs))
            for start in range(0, n_epochs, chunk_epochs)]


def chunk_backend_seed(scenario: Scenario | str, start: int,
                       base_seed: int = 0) -> int:
    """RNG seed for the fresh backend a chunk starting at ``start``
    constructs — a pure function of the chunk's identity, so any
    shard computing the chunk agrees.

    The chunk at epoch 0 uses ``base_seed`` directly: a single-chunk
    replay is then bit-identical to the monolithic per-epoch-seeded
    :class:`~repro.scenarios.runner.ScenarioRunner` run with a
    ``seed=base_seed`` backend (what ``repro scenario`` without
    ``--shards`` builds). Later chunks derive theirs counter-style.
    """
    if start == 0:
        return base_seed
    return derive_epoch_seed(scenario, start, base_seed,
                             stream="backend")


@dataclass(frozen=True)
class ChunkKey:
    """Checkpoint-cache identity of one chunk (duck-types the
    ``SweepTask`` surface :class:`~repro.experiments.cache.ResultCache`
    reads: ``spec_name`` / ``version`` / ``config`` / ``seed`` /
    ``config_hash``)."""

    spec_name: str
    version: int
    config: dict
    seed: int

    @property
    def config_hash(self) -> str:
        return key_hash(self)


def execute_chunk(scenario_config: dict, backend: str,
                  backend_params: dict, start: int, stop: int,
                  base_seed: int, *, boundary: str,
                  snapshot: dict | None = None) -> dict:
    """Run epochs ``[start, stop)`` with ``boundary`` semantics
    (``"reset"`` or ``"carry"``; every caller names its mode); return
    the JSON-stable checkpoint payload (module-level so it pickles into
    worker processes). A range outside ``[0, n_epochs]`` of the
    scenario raises ``ValueError``.

    In ``"reset"`` mode events scripted before ``start`` are replayed
    on a fresh backend first, so persistent backend state (failed
    planes, reconfiguration lag) matches the full run; only events the
    backend actually *applies* count as replayed, and only events
    firing inside the chunk count toward the applied/ignored totals,
    so chunk sums equal the monolithic run's.

    In ``"carry"`` mode the previous chunk's end-of-chunk ``snapshot``
    is restored instead (nothing is replayed — in-flight flows,
    occupancy, and RNG state arrive via the snapshot) and the payload
    gains a ``"snapshot"`` key holding this chunk's own end state for
    the next chunk to restore.
    """
    if boundary not in BOUNDARY_MODES:
        raise ValueError(f"unknown boundary {boundary!r} "
                         f"(known: {BOUNDARY_MODES})")
    if boundary == "carry" and start > 0 and snapshot is None:
        raise ValueError(
            f"carry-mode chunk starting at epoch {start} needs the "
            "previous chunk's snapshot")
    t0 = time.perf_counter()
    scenario = Scenario.from_config(scenario_config)
    fabric = make_backend(
        backend, scenario.n_nodes,
        seed=chunk_backend_seed(scenario, start, base_seed),
        **backend_params)
    replayed = 0
    if boundary == "carry":
        if snapshot is not None:
            try:
                fabric.restore(snapshot)
            except ValueError as exc:
                raise ValueError(
                    f"scenario {scenario.name!r} epochs "
                    f"[{start}, {stop}): cannot restore the carried "
                    f"snapshot: {exc}") from exc
    else:
        for epoch in range(start):
            for event in scenario.events_at(epoch):
                if fabric.apply_event(event):
                    replayed += 1
    report = ScenarioReport(scenario=scenario.name, backend=backend)
    play_epochs(scenario, (fabric,), (report,), start, stop, base_seed)
    end_state = fabric.snapshot() if boundary == "carry" else None
    payload = {"start": start, "stop": stop, "boundary": boundary,
               "events_applied": report.events_applied,
               "events_ignored": report.events_ignored,
               "events_replayed": replayed,
               "duration_s": time.perf_counter() - t0,
               "epochs": [e.to_dict() for e in report.epochs]}
    if end_state is not None:
        payload["snapshot"] = end_state
    return payload


@dataclass(frozen=True)
class ChunkStatus:
    """How one chunk was satisfied in a sharded run."""

    index: int
    start: int
    stop: int
    #: "cached" (loaded from a checkpoint), "computed" (ran here),
    #: "pending" (owned by another shard and not yet checkpointed —
    #: or, in carry mode, waiting on a predecessor chunk's snapshot),
    #: or "failed" (raised here; ``error`` holds the message).
    state: str
    duration_s: float = 0.0
    error: str | None = None


@dataclass
class ShardedScenarioResult:
    """Everything one sharded run (or one shard of it) produced."""

    scenario: str
    backend: str
    chunk_epochs: int
    shards: int
    shard_index: int | None
    boundary: str = "carry"
    chunks: list[ChunkStatus] = field(default_factory=list)
    payloads: dict[int, dict] = field(default_factory=dict)
    wall_s: float = 0.0

    @property
    def n_cached(self) -> int:
        return sum(1 for c in self.chunks if c.state == "cached")

    @property
    def n_computed(self) -> int:
        return sum(1 for c in self.chunks if c.state == "computed")

    @property
    def n_pending(self) -> int:
        return sum(1 for c in self.chunks if c.state == "pending")

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.chunks if c.state == "failed")

    @property
    def complete(self) -> bool:
        """Does every chunk have a payload (cached or computed)?"""
        return len(self.payloads) == len(self.chunks)

    def report(self) -> ScenarioReport:
        """Merge all chunk payloads into one :class:`ScenarioReport`.

        Raises when chunks are pending or failed — aggregate over a
        partial replay would silently misreport the horizon.
        """
        if not self.complete:
            missing = [c.index for c in self.chunks
                       if c.index not in self.payloads]
            raise RuntimeError(
                f"sharded run incomplete: chunks {missing} pending or "
                "failed (run the owning shards, or rerun with "
                "resume=True once their checkpoints exist)")
        merged = ScenarioReport(scenario=self.scenario,
                                backend=self.backend)
        for index in sorted(self.payloads):
            payload = self.payloads[index]
            merged.epochs.extend(EpochReport.from_dict(e)
                                 for e in payload["epochs"])
            merged.events_applied += int(payload["events_applied"])
            merged.events_ignored += int(payload["events_ignored"])
        return merged

    def rows(self) -> list[dict]:
        """Per-chunk status table (the shard progress view).

        ``events_replayed`` surfaces the reset-mode boundary cost —
        how many pre-chunk events each chunk re-applied to rebuild
        persistent state (always 0 in carry mode, where state arrives
        via the restored snapshot; blank for chunks without a payload).
        """
        return [{"chunk": c.index, "epochs": f"[{c.start}, {c.stop})",
                 "state": c.state, "duration_s": c.duration_s,
                 "events_replayed": self.payloads.get(
                     c.index, {}).get("events_replayed", "")}
                for c in self.chunks]

    def summary(self) -> str:
        """One-line human summary of the sharded run."""
        where = ("all shards" if self.shard_index is None
                 else f"shard {self.shard_index}/{self.shards}")
        failed = f", {self.n_failed} FAILED" if self.n_failed else ""
        return (f"{self.scenario} on {self.backend} "
                f"[{self.boundary} boundaries]: "
                f"{len(self.chunks)} chunk(s) of {self.chunk_epochs} "
                f"epoch(s) ({self.n_cached} cached, "
                f"{self.n_computed} computed, {self.n_pending} pending"
                f"{failed}) as {where} in {self.wall_s:.2f}s")


@dataclass
class ShardedScenarioRunner:
    """Chunked, shardable, resumable scenario execution.

    Parameters
    ----------
    scenario:
        The scenario to replay.
    backend:
        Backend name (any entry in
        :func:`~repro.scenarios.registry.available_backends`).
    backend_params:
        Keyword overrides for the backend constructor (must be
        JSON-stable: they are part of every chunk's cache identity).
    chunk_epochs:
        Checkpoint granularity. 1440 = one day of 1-minute epochs.
        Part of the run's identity: runs with different chunk sizes
        have different (both valid) chunk-boundary semantics.
    boundary:
        Chunk-boundary mode (:data:`BOUNDARY_MODES`). ``"carry"``
        (default) restores the previous chunk's checkpointed backend
        snapshot, making the merged run bit-identical to a monolithic
        one at the cost of sequential chunk dependence (see the
        module docstring). ``"reset"`` starts every chunk on a fresh
        backend with pre-chunk events replayed — coordination-free,
        but in-flight flows are dropped at boundaries.
    shards, shard_index:
        ``shard_index=None`` (default) drives every chunk from this
        process. An integer runs only the ``index % shards ==
        shard_index`` slice, leaving the rest ``pending`` — launch one
        process per index against a shared ``cache`` and any of them
        (or a final ``shard_index=None`` pass with ``resume=True``)
        can assemble the full report from the checkpoints. In carry
        mode shards *pipeline*: a shard computes its chunks in index
        order as predecessors' checkpoints appear in the shared cache,
        so shard processes alternate (or simply re-run with
        ``resume=True``) until the replay converges instead of each
        owning an arbitrary slice up front.
    base_seed:
        Stirred into every per-epoch episode seed and every chunk's
        backend seed.
    cache:
        Checkpoint store (duck-typed
        :class:`~repro.experiments.cache.ResultCache`); ``None``
        disables checkpointing (and therefore resume).
    workers:
        Process-pool width for this process's chunks; 1 runs inline.
        Reset mode only: carry-mode chunks are sequentially dependent
        and run inline, in index order, so ``boundary="carry"`` with
        ``workers > 1`` raises ``ValueError``.
    """

    scenario: Scenario
    backend: str = "awgr"
    backend_params: dict = field(default_factory=dict)
    chunk_epochs: int = 1440
    boundary: str = "carry"
    shards: int = 1
    shard_index: int | None = None
    base_seed: int = 0
    cache: object | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        if self.boundary not in BOUNDARY_MODES:
            raise ValueError(f"unknown boundary {self.boundary!r} "
                             f"(known: {BOUNDARY_MODES})")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if (self.shard_index is not None
                and not 0 <= self.shard_index < self.shards):
            raise ValueError("shard_index must be in [0, shards)")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.boundary == "carry" and self.workers > 1:
            raise ValueError(
                f"workers={self.workers} needs boundary=\"reset\": "
                "carry-mode chunks restore their predecessor's snapshot "
                "and run inline, in order; reset chunks are independent "
                "and fan out over a process pool")

    # -- chunk identity --------------------------------------------------------

    def ranges(self) -> list[tuple[int, int]]:
        """The run's chunk decomposition (shard-independent)."""
        return chunk_ranges(self.scenario.n_epochs, self.chunk_epochs)

    def chunk_key(self, start: int, stop: int) -> ChunkKey:
        """Checkpoint identity of one chunk. Deliberately excludes
        ``shards``/``shard_index`` — any shard may reuse any other
        shard's checkpoint. Includes ``boundary``: reset and carry
        chunks have different semantics (and carry payloads hold
        snapshots), so the modes never reuse each other's entries."""
        return ChunkKey(
            spec_name=f"scenario-chunk-{self.scenario.name}",
            version=CHUNK_FORMAT,
            config={"scenario": self.scenario.to_config(),
                    "backend": self.backend,
                    "params": dict(self.backend_params),
                    "start": start, "stop": stop,
                    "base_seed": self.base_seed,
                    "boundary": self.boundary,
                    "seeding": "per-epoch"},
            seed=chunk_backend_seed(self.scenario, start,
                                    self.base_seed))

    def _owns(self, index: int) -> bool:
        return (self.shard_index is None
                or index % self.shards == self.shard_index)

    # -- execution -------------------------------------------------------------

    def run(self, resume: bool = True) -> ShardedScenarioResult:
        """Play (or finish playing) the scenario's chunk list.

        With ``resume`` (default) chunks already checkpointed in the
        cache are loaded instead of recomputed — the interrupted-run /
        multi-shard convergence path. ``resume=False`` recomputes this
        shard's chunks and refreshes their checkpoints in place.

        Carry mode runs chunks inline in index order (each needs its
        predecessor's snapshot); chunks whose predecessor state is not
        available — owned by another shard and not yet checkpointed —
        are left ``pending`` for a later pass to pick up.
        """
        if self.boundary == "carry":
            return self._run_carry(resume)
        t0 = time.perf_counter()
        ranges = self.ranges()
        result = ShardedScenarioResult(
            scenario=self.scenario.name, backend=self.backend,
            chunk_epochs=self.chunk_epochs, shards=self.shards,
            shard_index=self.shard_index, boundary=self.boundary)
        statuses: dict[int, ChunkStatus] = {}
        todo: list[int] = []
        for index, (start, stop) in enumerate(ranges):
            hit = None
            if self.cache is not None and resume:
                hit = self.cache.load(self.chunk_key(start, stop))
            if hit is not None:
                result.payloads[index] = hit
                statuses[index] = ChunkStatus(index, start, stop,
                                              "cached")
            elif self._owns(index):
                todo.append(index)
            else:
                statuses[index] = ChunkStatus(index, start, stop,
                                              "pending")

        execute = partial(execute_chunk, self.scenario.to_config(),
                          self.backend, dict(self.backend_params),
                          base_seed=self.base_seed, boundary="reset")
        for (start, stop), payload, error in fan_out(
                execute, [ranges[i] for i in todo], self.workers):
            index = ranges.index((start, stop))
            if error is not None:
                statuses[index] = ChunkStatus(
                    index, start, stop, "failed",
                    error=self._chunk_error(index, error))
                continue
            if self.cache is not None:
                self.cache.store(self.chunk_key(start, stop), payload)
            result.payloads[index] = payload
            statuses[index] = ChunkStatus(
                index, start, stop, "computed",
                duration_s=float(payload.get("duration_s", 0.0)))

        result.chunks = [statuses[i] for i in sorted(statuses)]
        result.wall_s = time.perf_counter() - t0
        return result

    def _run_carry(self, resume: bool) -> ShardedScenarioResult:
        """Carry-mode execution: chunks pipeline in index order, each
        restoring its predecessor's checkpointed snapshot.

        The carried state forms a chain, so this never fans out over a
        process pool: chunk ``k`` cannot start before chunk ``k-1``
        finished. Sharding still composes — a shard computes its owned
        chunks whenever the predecessor's checkpoint is already in the
        shared cache and leaves the rest ``pending``; alternating
        shard passes (or one ``shard_index=None`` resume) converge on
        the full replay. A failed or unavailable chunk invalidates the
        carried snapshot, so every later chunk without its own
        checkpoint stays pending rather than continuing from wrong
        state.
        """
        t0 = time.perf_counter()
        result = ShardedScenarioResult(
            scenario=self.scenario.name, backend=self.backend,
            chunk_epochs=self.chunk_epochs, shards=self.shards,
            shard_index=self.shard_index, boundary=self.boundary)
        scenario_config = self.scenario.to_config()
        carried: dict | None = None
        for index, (start, stop) in enumerate(self.ranges()):
            hit = None
            if self.cache is not None and resume:
                hit = self.cache.load(self.chunk_key(start, stop))
            if hit is not None:
                result.payloads[index] = hit
                result.chunks.append(
                    ChunkStatus(index, start, stop, "cached"))
                carried = hit.get("snapshot")
                continue
            if not self._owns(index) or (index > 0 and carried is None):
                result.chunks.append(
                    ChunkStatus(index, start, stop, "pending"))
                carried = None
                continue
            try:
                payload = execute_chunk(
                    scenario_config, self.backend,
                    dict(self.backend_params), start, stop,
                    self.base_seed, boundary="carry",
                    snapshot=carried)
            except Exception as exc:
                result.chunks.append(ChunkStatus(
                    index, start, stop, "failed",
                    error=self._chunk_error(index, exc)))
                carried = None
                continue
            if self.cache is not None:
                self.cache.store(self.chunk_key(start, stop), payload)
            result.payloads[index] = payload
            result.chunks.append(ChunkStatus(
                index, start, stop, "computed",
                duration_s=float(payload.get("duration_s", 0.0))))
            carried = payload["snapshot"]
        result.wall_s = time.perf_counter() - t0
        return result

    def _chunk_error(self, index: int, exc: Exception) -> str:
        """A failed chunk's error text, naming the chunk and scenario."""
        return (f"chunk {index} of scenario {self.scenario.name!r}: "
                f"{type(exc).__name__}: {exc}")
