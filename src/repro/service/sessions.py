"""Live simulation sessions: a snapshot plus an epoch cursor.

A :class:`Session` is the service's unit of work — one scenario
playing against one fabric backend, advanced a few epochs at a time by
the :class:`~repro.service.pool.SessionPool`. Its durable identity is
exactly what carry-mode chunking proved sufficient: the scenario
config, the backend's JSON-stable ``snapshot()`` at checkpointed epoch
cursors, and the monotonic sequence of
:class:`~repro.scenarios.backends.EpochReport` payloads produced so
far. Everything else (the live backend object, locks, telemetry) is
process-local and reconstructible: a freshly built backend is the
epoch-0 state, so a session that never checkpointed needs no snapshot.

That identity buys the three service verbs for free:

* **suspend** — snapshot the live backend at the current cursor and
  serialize the whole session through a
  :class:`~repro.experiments.cache.ResultCache`-backed
  :class:`SessionStore`;
* **resume** — deserialize on *any* worker process, restore the
  snapshot onto a freshly constructed backend, and keep stepping: the
  remaining epoch stream is bit-identical to an uninterrupted run
  (per-epoch seeds make traffic position-independent, the snapshot
  carries in-flight fabric state and RNG);
* **fork** — branch a what-if child at any past epoch ``N``: the
  child starts from the parent's state at ``N`` (replayed forward from
  the parent's nearest checkpoint), carries the parent's first ``N``
  epoch reports, and diverges under its own scripted events —
  bit-identical to the parent up to ``N``. The child shares only the
  prefix payloads, which nothing writes into once appended.

Sessions advance one epoch at a time through
:meth:`~repro.scenarios.runner.ScenarioRunner.step_epochs`, and
rebuild a backend at any past epoch (attach, fork) through
:func:`~repro.scenarios.runner.replay_to`, the checkpoint mechanism
carry-mode chunks use too: so every epoch runs in
:func:`~repro.scenarios.runner.play_epochs`, the one epoch loop a
monolithic run uses, and the service's epoch streams are the scenario
engine's, not a reimplementation.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace

from repro.checks.runtime import new_condition, watch_guarded
from repro.scaleout import key_hash
from repro.scenarios.runner import (CHECKPOINT_FORMAT, ScenarioReport,
                                    ScenarioRunner, replay_to)
from repro.scenarios.scenario import Scenario

#: Lifecycle states a session moves through. ``queued`` sessions sit
#: in the pool's run queue (or have a suspend/fork pending), running
#: ones are being advanced, suspended ones live only in the store,
#: completed/failed are terminal.
SESSION_STATES = ("queued", "running", "suspended", "completed",
                  "failed")

#: States with no further epochs coming.
TERMINAL_STATES = ("completed", "failed")


def json_roundtrip(payload: dict) -> dict:
    """Deep-copy through the JSON codec.

    A fork's checkpoint goes through it, so the child holds the
    JSON-decoded form a stored record would, and anything
    JSON-unstable in a snapshot fails loudly here instead of
    corrupting a resumed run later.
    """
    return json.loads(json.dumps(payload))


@dataclass
class Session:
    """One live (or suspended) scenario run inside the service.

    Construct through :meth:`create` (fresh), :meth:`from_record`
    (resume), or :meth:`fork` (branch) rather than directly: they
    maintain the invariants the pool relies on — ``reports[i]`` is
    epoch ``i``'s payload for every ``i < cursor``, and the newest
    checkpoint at or before any epoch ``<= cursor`` (a freshly built
    backend when there is none) replays to that epoch's exact state.
    """

    session_id: str
    scenario: Scenario
    backend_name: str = "awgr"
    backend_params: dict = field(default_factory=dict)
    base_seed: int = 0
    #: Snapshot cadence: a checkpoint is recorded every this many
    #: epochs (plus at suspend and completion). Smaller = cheaper
    #: crash recovery and finer fork granularity, more snapshot work.
    checkpoint_epochs: int = 16
    state: str = "queued"
    #: Next epoch to compute; epochs ``[0, cursor)`` are in reports.
    cursor: int = 0
    #: JSON-stable ``EpochReport.to_dict()`` payloads, one per epoch.
    reports: list = field(default_factory=list)
    #: Per-epoch ``[applied, ignored]`` event counts, aligned with
    #: ``reports`` so recovery truncation rolls the totals back.
    event_counts: list = field(default_factory=list)
    #: epoch -> backend snapshot at that cursor position.
    checkpoints: dict = field(default_factory=dict)
    error: str | None = None
    parent: str | None = None
    forked_at: int | None = None
    #: Successful scheduling slices run (pool fairness telemetry).
    slices: int = 0
    #: Crash-recovery count (slices re-run from a checkpoint).
    recoveries: int = 0

    def __post_init__(self) -> None:
        if self.checkpoint_epochs < 1:
            raise ValueError("checkpoint_epochs must be >= 1")
        if self.state not in SESSION_STATES:
            raise ValueError(f"unknown state {self.state!r} "
                             f"(known: {SESSION_STATES})")
        # Process-local machinery, never serialized.
        self._backend = None
        #: Condition notified on every appended epoch and every state
        #: change — what SSE streams and pool waiters block on.
        self.updated = new_condition("Session.updated")
        self.suspend_requested = False
        # Telemetry (perf_counter marks, set by the pool; excluded
        # from the serialized record so records stay deterministic).
        self.submitted_s: float | None = None
        self.first_epoch_s: float | None = None
        # Under REPRO_SANITIZE, assert the lock discipline SIM005
        # checks statically: every listed attribute is written (and
        # the mutable containers also read) only under ``updated``.
        watch_guarded(
            self, self.updated,
            write_attrs=("state", "cursor", "error", "recoveries",
                         "suspend_requested", "_backend"),
            read_attrs=("reports", "event_counts", "checkpoints"))

    # -- factories -------------------------------------------------------------

    @classmethod
    def create(cls, session_id: str, scenario: Scenario,
               backend: str = "awgr",
               backend_params: dict | None = None, base_seed: int = 0,
               checkpoint_epochs: int = 16) -> "Session":
        """Fresh session at epoch 0."""
        return cls(session_id=session_id, scenario=scenario,
                   backend_name=backend,
                   backend_params=dict(backend_params or {}),
                   base_seed=base_seed,
                   checkpoint_epochs=checkpoint_epochs)

    # -- epoch advancement -----------------------------------------------------

    @property
    def n_epochs(self) -> int:
        """The session's horizon (the scenario's epoch clock)."""
        return self.scenario.n_epochs

    @property
    def remaining(self) -> int:
        """Epochs still to compute."""
        return max(0, self.n_epochs - self.cursor)

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def events_applied(self) -> int:
        """Scenario events applied over the computed epochs."""
        with self.updated:
            return sum(applied for applied, _ in self.event_counts)

    @property
    def events_ignored(self) -> int:
        """Scenario events the backend ignored over the computed
        epochs."""
        with self.updated:
            return sum(ignored for _, ignored in self.event_counts)

    def _attach(self):
        """Materialize (or reuse) the live backend at ``cursor``,
        rebuilt from the checkpoints (a fresh backend at epoch 0)."""
        with self.updated:
            if self._backend is not None:
                return self._backend
            cursor = self.cursor
            checkpoints = dict(self.checkpoints)
        # Build outside the lock — the expensive part — then commit
        # the attachment under it. Only the owning worker attaches, so
        # the double build this could allow never happens in practice
        # (and would be benign: last one wins).
        backend, _ = replay_to(self.scenario, self.backend_name,
                               self.backend_params, self.base_seed,
                               checkpoints, cursor)
        with self.updated:
            self._backend = backend
        return backend

    def advance(self, max_epochs: int) -> int:
        """Step up to ``max_epochs`` epochs; return how many ran.

        Commits each epoch's report (and event counts) under the
        session lock as it completes, so pollers and SSE streams see
        every epoch the moment it exists. Checkpoints the backend
        snapshot every ``checkpoint_epochs`` epochs and at the
        horizon; stops early on a suspend request.
        """
        if max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        backend = self._attach()
        runner = ScenarioRunner(self.scenario, backend)
        with self.updated:
            epoch = self.cursor
            stop_requested = self.suspend_requested
        ran = 0
        while (ran < max_epochs and epoch < self.n_epochs
               and not stop_requested):
            delta = runner.step_epochs(epoch, epoch + 1,
                                       seed=self.base_seed)
            payload = delta.epochs[0].to_dict()
            with self.updated:
                self.reports.append(payload)
                self.event_counts.append([delta.events_applied,
                                          delta.events_ignored])
                self.cursor = epoch + 1
                if (self.cursor % self.checkpoint_epochs == 0
                        or self.cursor == self.n_epochs):
                    self.checkpoints[self.cursor] = backend.snapshot()
                self.updated.notify_all()
                epoch = self.cursor
                stop_requested = self.suspend_requested
            ran += 1
        if epoch >= self.n_epochs and not self.done:
            self._set_state("completed")
            with self.updated:
                self._backend = None
        return ran

    def recover(self) -> int:
        """Discard the live backend and roll back to the newest
        checkpoint at or before the cursor.

        The crash path: a worker died (or raised) mid-slice, so the
        in-memory backend is suspect. Epoch reports past the
        checkpoint are truncated — re-running them from the restored
        snapshot reproduces them bit-identically (the PR 5 carry
        guarantee), so nothing observable is lost. Returns how many
        epochs were rolled back.
        """
        with self.updated:
            self._backend = None
            anchors = [e for e in self.checkpoints if e <= self.cursor]
            back_to = max(anchors) if anchors else 0
            dropped = self.cursor - back_to
            if dropped:
                del self.reports[back_to:]
                del self.event_counts[back_to:]
                self.cursor = back_to
            self.recoveries += 1
            self.updated.notify_all()
        return dropped

    def _set_state(self, state: str, error: str | None = None) -> None:
        if state not in SESSION_STATES:
            raise ValueError(f"unknown state {state!r}")
        with self.updated:
            self.state = state
            if error is not None:
                self.error = error
            self.updated.notify_all()

    def fail(self, error: str) -> None:
        """Mark the session terminally failed."""
        with self.updated:
            self._backend = None
        self._set_state("failed", error=error)

    # -- suspend / resume ------------------------------------------------------

    def suspend_snapshot(self) -> None:
        """Snapshot the live backend at the cursor and go suspended.

        With no live backend attached there is nothing to snapshot:
        the checkpoints already rebuild the cursor's state (a session
        that never ran needs none).
        """
        with self.updated:
            if self.done:
                raise ValueError(
                    f"session {self.session_id!r} is {self.state}; "
                    "nothing to suspend")
            if self._backend is not None:
                self.checkpoints[self.cursor] = self._backend.snapshot()
            self._backend = None
            self.suspend_requested = False
            self.state = "suspended"
            self.updated.notify_all()

    def to_dict(self) -> dict:
        """JSON-stable session record (the suspend/store payload).

        Takes the session lock (reentrant for callers already holding
        it) so the reports/checkpoints containers can't be mutated
        mid-serialization by a worker thread.
        """
        with self.updated:
            return self._to_dict_locked()

    def _to_dict_locked(self) -> dict:
        return {
            "format": CHECKPOINT_FORMAT,
            "session_id": self.session_id,
            "scenario": self.scenario.to_config(),
            "backend": self.backend_name,
            "backend_params": dict(self.backend_params),
            "base_seed": self.base_seed,
            "checkpoint_epochs": self.checkpoint_epochs,
            "state": self.state,
            "cursor": self.cursor,
            "reports": [dict(r) for r in self.reports],
            "event_counts": [list(c) for c in self.event_counts],
            "checkpoints": {str(epoch): snap for epoch, snap
                            in sorted(self.checkpoints.items())},
            "error": self.error,
            "parent": self.parent,
            "forked_at": self.forked_at,
        }

    @classmethod
    def from_record(cls, record: dict) -> "Session":
        """Inverse of :meth:`to_dict` (accepts JSON-decoded dicts)."""
        if record.get("format") != CHECKPOINT_FORMAT:
            raise ValueError(
                f"session record format {record.get('format')!r} != "
                f"{CHECKPOINT_FORMAT}; the store predates this service")
        session = cls(
            session_id=record["session_id"],
            scenario=Scenario.from_config(record["scenario"]),
            backend_name=record["backend"],
            backend_params=dict(record["backend_params"]),
            base_seed=int(record["base_seed"]),
            checkpoint_epochs=int(record["checkpoint_epochs"]),
            state=record["state"],
            cursor=int(record["cursor"]),
            reports=[dict(r) for r in record["reports"]],
            event_counts=[list(c) for c in record["event_counts"]],
            checkpoints={int(epoch): snap for epoch, snap
                         in record["checkpoints"].items()},
            error=record.get("error"),
            parent=record.get("parent"),
            forked_at=record.get("forked_at"))
        return session

    # -- fork ------------------------------------------------------------------

    def fork_scenario(self, events: tuple = (),
                      n_epochs: int | None = None) -> Scenario:
        """What a fork child plays: this session's scenario plus
        ``events``, on the ``n_epochs`` horizon when given."""
        scenario = self.scenario
        if events:
            scenario = replace(scenario,
                               events=scenario.events + tuple(events))
        if n_epochs is not None:
            scenario = scenario.with_epochs(n_epochs)
        return scenario

    def fork(self, child_id: str, at_epoch: int,
             events: tuple = (), n_epochs: int | None = None
             ) -> "Session":
        """Branch a what-if child that diverges from epoch ``at_epoch``.

        The child starts from this session's state at ``at_epoch`` —
        rebuilt on a scratch backend from the nearest checkpoint, so
        this is safe while a worker is advancing the session — and
        carries a copy of the first ``at_epoch`` epoch reports, so it
        is bit-identical to the parent up to the fork point. New
        ``events`` (all scripted at or after ``at_epoch``) and an
        optional ``n_epochs`` override shape the divergent future.

        The child's report list is its own but holds the parent's
        prefix payload objects, which nothing writes into once they
        are appended (the store, the gateway and :meth:`report` only
        read or copy them). The event counts are copied, and the
        child's one checkpoint is a fresh snapshot at the fork point.
        """
        if not 0 <= at_epoch <= self.cursor:
            raise ValueError(
                f"epoch {at_epoch} outside the computed range "
                f"[0, {self.cursor}]")
        for event in events:
            if event.epoch < at_epoch:
                raise ValueError(
                    f"fork event at epoch {event.epoch} precedes the "
                    f"fork point {at_epoch}; what-if events must land "
                    "in the divergent future")
        if n_epochs is not None and n_epochs < at_epoch:
            raise ValueError(
                f"fork horizon {n_epochs} is before the fork point "
                f"{at_epoch}")
        with self.updated:
            checkpoints = dict(self.checkpoints)
            reports = self.reports[:at_epoch]
            event_counts = [list(c) for c in self.event_counts[:at_epoch]]
        # The fork point's state comes from the parent's scenario: an
        # n_epochs override rescales envelopes that scale with the
        # horizon, so the child's scenario would not replay the prefix.
        backend, _ = replay_to(self.scenario, self.backend_name,
                               self.backend_params, self.base_seed,
                               checkpoints, at_epoch)
        child = Session(
            session_id=child_id,
            scenario=self.fork_scenario(events, n_epochs),
            backend_name=self.backend_name,
            backend_params=copy.deepcopy(self.backend_params),
            base_seed=self.base_seed,
            checkpoint_epochs=self.checkpoint_epochs,
            cursor=at_epoch,
            reports=reports,
            event_counts=event_counts,
            checkpoints={at_epoch: json_roundtrip(backend.snapshot())},
            parent=self.session_id,
            forked_at=at_epoch)
        return child

    # -- reporting -------------------------------------------------------------

    def report(self) -> ScenarioReport:
        """The computed epochs as a standard :class:`ScenarioReport`
        (aggregates over ``[0, cursor)``)."""
        with self.updated:
            payloads = [dict(r) for r in self.reports]
            applied, ignored = self.events_applied, self.events_ignored
        return ScenarioReport.from_payloads(
            self.scenario.name, self.backend_name, payloads, applied,
            ignored)

    def epochs_since(self, since: int) -> list:
        """Epoch payload slice ``[since, cursor)`` (incremental poll)."""
        if since < 0:
            raise ValueError("since must be >= 0")
        with self.updated:
            return [dict(r) for r in self.reports[since:]]

    def wait_for(self, predicate, timeout: float | None = None) -> bool:
        """Block until ``predicate(self)`` holds (or timeout)."""
        with self.updated:
            return self.updated.wait_for(lambda: predicate(self),
                                         timeout=timeout)


# -- the ResultCache-backed session store -------------------------------------

class SessionKey:
    """Cache identity of one session record (duck-types the
    ``SweepTask`` surface :class:`~repro.experiments.cache.ResultCache`
    reads). Keyed purely by session id: the record is mutable state,
    so successive saves overwrite the same entry."""

    version = CHECKPOINT_FORMAT
    seed = 0

    def __init__(self, session_id: str) -> None:
        self.session_id = session_id
        self.spec_name = "service-session"
        self.config = {"session_id": session_id}

    @property
    def config_hash(self) -> str:
        return key_hash(self)


class SessionStore:
    """Suspended-session persistence over a
    :class:`~repro.experiments.cache.ResultCache` directory.

    One JSON file per session, atomically replaced on every save;
    N service processes pointing at one directory can hand sessions
    to each other (suspend here, resume there) with no coordination
    beyond the filesystem.
    """

    def __init__(self, cache) -> None:
        self.cache = cache

    def save(self, session: Session) -> None:
        """Persist the session's current record (overwrites)."""
        self.cache.store(SessionKey(session.session_id),
                         session.to_dict())

    def load(self, session_id: str) -> dict | None:
        """The stored record, or None if the id is unknown."""
        return self.cache.load(SessionKey(session_id))

    def __contains__(self, session_id: str) -> bool:
        """Whether a record is stored under the id: one ``stat`` of
        its path, without reading the record."""
        return self.cache.path_for(SessionKey(session_id)).exists()

    def delete(self, session_id: str) -> bool:
        """Drop a stored record; True if one existed."""
        path = self.cache.path_for(SessionKey(session_id))
        try:
            path.unlink()
        except FileNotFoundError:
            return False
        return True

    def list_ids(self) -> list:
        """Ids of every stored session (sorted)."""
        ids = []
        for path in self.cache.root.glob("service-session-*.json"):
            try:
                entry = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if entry.get("spec") != "service-session":
                continue
            session_id = entry.get("config", {}).get("session_id")
            if session_id is not None:
                ids.append(session_id)
        return sorted(ids)
