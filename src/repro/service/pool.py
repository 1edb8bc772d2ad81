"""The session multiplexer: N worker threads, M live sessions.

:class:`SessionPool` time-slices every live session over a small
fixed worker pool. Scheduling is a plain FIFO ring: a worker pops the
oldest runnable session, advances it one bounded slice
(``slice_epochs`` epochs through the reentrant
:meth:`~repro.scenarios.runner.ScenarioRunner.step_epochs`), and
pushes it to the back of the queue if it still has epochs left. FIFO
gives the starvation guarantee the service advertises for free: with
M sessions live, every session runs exactly once per M pops — the
slice-count spread across live sessions never exceeds one, which
``GET /metrics`` reports as ``max_slice_spread``.

Sessions checkpoint their backend snapshot every K epochs (their
``checkpoint_epochs``), so a worker dying mid-slice costs at most the
slice: the pool catches the failure, rolls the session back to its
newest checkpoint (:meth:`~repro.service.sessions.Session.recover` —
exact, by the snapshot guarantee), and requeues it. After
:data:`MAX_RETRIES` consecutive failed slices the session is marked
failed rather than looping forever.

Suspend is cooperative: the pool sets the session's
``suspend_requested`` flag, the in-flight slice yields at the next
epoch boundary, and the pool serializes the session into the
:class:`~repro.service.sessions.SessionStore` and drops the live
object. Resume re-hydrates from the store (same process or a fresh
one — the store is just files) and requeues. A worker decides every
requeue under the pool lock, where ``suspend()`` and ``delete()`` set
the flag, so a session they claimed never returns to the queue.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.checks.runtime import new_condition, watch_guarded
from repro.scenarios.library import get_scenario
from repro.scenarios.scenario import Scenario
from repro.service.sessions import (Session, SessionStore,
                                    TERMINAL_STATES)


#: Consecutive failed slices tolerated per session before it is
#: marked failed.
MAX_RETRIES = 2


class SessionNotFound(KeyError):
    """No live or stored session under that id."""


class SessionPool:
    """Drives many sessions fairly over a few worker threads.

    Parameters
    ----------
    workers:
        Worker-thread count. Each worker advances one session at a
        time, so this bounds simulation parallelism.
    slice_epochs:
        Epochs per scheduling slice — the fairness quantum. Small
        slices interleave sessions tightly; large ones amortize
        scheduling overhead.
    store:
        Optional :class:`~repro.service.sessions.SessionStore` for
        suspend/resume durability. Without one, suspend keeps the
        serialized record in memory only.
    """

    def __init__(self, workers: int = 4, slice_epochs: int = 4,
                 store: SessionStore | None = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if slice_epochs < 1:
            raise ValueError("slice_epochs must be >= 1")
        self.workers = workers
        self.slice_epochs = slice_epochs
        self.store = store
        self.sessions: dict[str, Session] = {}
        self._queue: deque[str] = deque()
        self._lock = new_condition("SessionPool._lock")
        self._threads: list[threading.Thread] = []
        self._running = False
        self._next_id = 1
        self._failures: dict[str, int] = {}
        # Fleet telemetry (monotonic clock only — SIM002).
        self._started_s: float | None = None
        self._epochs_total = 0
        self._slices_total = 0
        self._recoveries_total = 0
        # Under REPRO_SANITIZE, assert the pool's own lock discipline
        # at runtime (see repro.checks.runtime).
        watch_guarded(
            self, self._lock,
            write_attrs=("_running", "_next_id", "_started_s",
                         "_epochs_total", "_slices_total",
                         "_recoveries_total"),
            read_attrs=("sessions", "_queue", "_failures"))

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Spin up the worker threads (idempotent)."""
        with self._lock:
            if self._running:
                return
            self._running = True
            if self._started_s is None:
                self._started_s = time.perf_counter()
        for i in range(self.workers):
            thread = threading.Thread(target=self._worker_loop,
                                      name=f"session-worker-{i}",
                                      daemon=True)
            thread.start()
            self._threads.append(thread)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop the workers (in-flight slices finish their epoch)."""
        with self._lock:
            self._running = False
            self._lock.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    # -- submission ------------------------------------------------------------

    def _claim_id(self) -> str:
        """Next free ``s<counter>`` id (store collisions skipped)."""
        stored = set(self.store.list_ids()) if self.store else set()
        while True:
            candidate = f"s{self._next_id:04d}"
            self._next_id += 1
            if candidate not in self.sessions and candidate not in stored:
                return candidate

    def submit(self, scenario, backend: str = "awgr",
               backend_params: dict | None = None, base_seed: int = 0,
               checkpoint_epochs: int = 16, n_epochs: int | None = None,
               session_id: str | None = None) -> Session:
        """Register a new session and queue it for execution.

        ``scenario`` is a :class:`~repro.scenarios.scenario.Scenario`,
        a registered scenario name, or a ``Scenario.to_config()``
        dict; ``n_epochs`` overrides its horizon when given.
        """
        if isinstance(scenario, str):
            scenario = get_scenario(scenario)
        elif isinstance(scenario, dict):
            scenario = Scenario.from_config(scenario)
        if n_epochs is not None:
            scenario = scenario.with_epochs(n_epochs)
        with self._lock:
            if session_id is None:
                session_id = self._claim_id()
            elif session_id in self.sessions:
                raise ValueError(
                    f"session id {session_id!r} already live")
            session = Session.create(
                session_id, scenario, backend=backend,
                backend_params=backend_params, base_seed=base_seed,
                checkpoint_epochs=checkpoint_epochs)
            session.submitted_s = time.perf_counter()
            self.sessions[session_id] = session
            self._queue.append(session_id)
            self._lock.notify_all()
        return session

    def get(self, session_id: str) -> Session:
        """The live session, or the stored one re-hydrated read-only."""
        with self._lock:
            session = self.sessions.get(session_id)
        if session is not None:
            return session
        if self.store is not None:
            record = self.store.load(session_id)
            if record is not None:
                return Session.from_record(record)
        raise SessionNotFound(session_id)

    def list_ids(self) -> list[str]:
        """Live session ids plus store-only (suspended) ids."""
        with self._lock:
            ids = set(self.sessions)
        if self.store is not None:
            ids.update(self.store.list_ids())
        return sorted(ids)

    # -- suspend / resume / fork / delete --------------------------------------

    def suspend(self, session_id: str, timeout: float = 30.0) -> Session:
        """Park a live session: flag it, wait for the in-flight slice
        to yield, snapshot, persist, drop the live object."""
        with self._lock:
            session = self.sessions.get(session_id)
            if session is None:
                raise SessionNotFound(session_id)
            if session.done:
                raise ValueError(
                    f"session {session_id!r} is {session.state}; "
                    "nothing to suspend")
            if session.state == "suspended":
                return session
            # Pool lock, then session lock: the one global order
            # (never the reverse — SIM005 checks the graph).
            with session.updated:
                session.suspend_requested = True
            try:
                self._queue.remove(session_id)
            except ValueError:
                pass
        # Wait (outside the pool lock) for any in-flight slice to
        # notice the flag and park at an epoch boundary.
        session.wait_for(
            lambda s: s.state != "running" or s.done, timeout=timeout)
        with self._lock:
            if session.state == "running":
                raise TimeoutError(
                    f"session {session_id!r} did not yield within "
                    f"{timeout}s")
            if not session.done:
                session.suspend_snapshot()
            if self.store is not None:
                self.store.save(session)
                if not session.done:
                    # Durable: drop the live object, the store owns
                    # it now. Storeless pools keep it in memory (the
                    # only copy there is).
                    del self.sessions[session_id]
        return session

    def resume(self, session_id: str) -> Session:
        """Re-hydrate a suspended session and queue it again.

        Works in the suspending process or a fresh one: the record
        comes from the store (or, storeless, must still be live).
        """
        with self._lock:
            session = self.sessions.get(session_id)
            if session is not None and session.state != "suspended":
                raise ValueError(
                    f"session {session_id!r} is {session.state}, "
                    "not suspended")
        if session is None:
            if self.store is None:
                raise SessionNotFound(session_id)
            record = self.store.load(session_id)
            if record is None:
                raise SessionNotFound(session_id)
            session = Session.from_record(record)
            if session.state != "suspended":
                raise ValueError(
                    f"stored session {session_id!r} is "
                    f"{session.state}, not suspended")
        with self._lock:
            with session.updated:
                session.suspend_requested = False
            session._set_state("queued")
            session.submitted_s = time.perf_counter()
            self.sessions[session_id] = session
            if session.remaining:
                self._queue.append(session_id)
                self._lock.notify_all()
        if not session.remaining:
            session._set_state("completed")
        return session

    def fork(self, session_id: str, at_epoch: int, events: tuple = (),
             n_epochs: int | None = None) -> Session:
        """Branch a live/stored session at ``at_epoch`` and queue the
        child for execution."""
        parent = self.get(session_id)
        with self._lock:
            child_id = self._claim_id()
        child = parent.fork(child_id, at_epoch, events=events,
                            n_epochs=n_epochs)
        with self._lock:
            child.submitted_s = time.perf_counter()
            self.sessions[child_id] = child
            if child.remaining:
                self._queue.append(child_id)
                self._lock.notify_all()
        if not child.remaining:
            child._set_state("completed")
        return child

    def delete(self, session_id: str) -> bool:
        """Drop a session from memory and the store. True if it
        existed anywhere. Live running sessions are suspended-flagged
        first so their worker abandons them at the next boundary."""
        found = False
        with self._lock:
            session = self.sessions.pop(session_id, None)
            if session is not None:
                found = True
                with session.updated:
                    session.suspend_requested = True
                try:
                    self._queue.remove(session_id)
                except ValueError:
                    pass
        if self.store is not None:
            found = self.store.delete(session_id) or found
        return found

    # -- the worker loop -------------------------------------------------------

    def _pop_next(self) -> Session | None:
        """Block for the next live queued session (None = shutdown)."""
        with self._lock:
            while True:
                while self._running and not self._queue:
                    self._lock.wait(timeout=0.5)
                if not self._running:
                    return None
                session = self.sessions.get(self._queue.popleft())
                if session is not None:
                    return session

    def _worker_loop(self) -> None:
        while True:
            session = self._pop_next()
            if session is None:
                return
            with session.updated:
                # Check-and-transition atomically with suspend(): once
                # the flag is up (or the session left the queue state,
                # e.g. suspended while queued) the worker must not
                # claim it.
                if session.state != "queued" or session.suspend_requested:
                    continue
                session.state = "running"
                session.updated.notify_all()
                start_cursor = session.cursor
            error = None
            try:
                session.advance(self.slice_epochs)
            except Exception as exc:  # noqa: BLE001 - worker survival
                session.recover()
                error = f"{type(exc).__name__}: {exc}"
            with self._lock:
                with session.updated:
                    cursor_now = session.cursor
                # Net the books against what this slice actually kept:
                # rollback below the slice start un-counts epochs a
                # previous slice recorded.
                self._epochs_total += cursor_now - start_cursor
                if error is None:
                    self._failures.pop(session.session_id, None)
                    session.slices += 1
                    self._slices_total += 1
                    if (session.first_epoch_s is None and cursor_now
                            and session.submitted_s is not None):
                        session.first_epoch_s = time.perf_counter()
                else:
                    self._recoveries_total += 1
                    count = self._failures.get(session.session_id, 0) + 1
                    self._failures[session.session_id] = count
                    if count > MAX_RETRIES:
                        session.fail(error)
                self._requeue(session)

    def _requeue(self, session: Session) -> None:
        """Park a session out of ``running`` after its slice and queue
        it again, unless it finished or ``suspend()``/``delete()`` has
        claimed it (they own its next transition). Called with the
        pool lock held: the flag is set under it, so no claim can land
        between this check and the append."""
        with session.updated:
            if session.done:
                return
            session.state = "queued"
            session.updated.notify_all()
            if session.suspend_requested:
                return
        self._queue.append(session.session_id)
        self._lock.notify_all()

    # -- telemetry -------------------------------------------------------------

    def live_count(self) -> int:
        """Number of live (in-memory) sessions."""
        with self._lock:
            return len(self.sessions)

    def metrics(self) -> dict:
        """Fleet-wide counters for ``GET /metrics``."""
        with self._lock:
            live = list(self.sessions.values())
            queue_depth = len(self._queue)
            epochs_total = self._epochs_total
            slices_total = self._slices_total
            recoveries = self._recoveries_total
            started = self._started_s
        by_state = {state: 0 for state in
                    ("queued", "running", "suspended", "completed",
                     "failed")}
        active_slices = []
        for session in live:
            by_state[session.state] = by_state.get(session.state, 0) + 1
            if session.state not in TERMINAL_STATES:
                active_slices.append(session.slices)
        if self.store is not None:
            stored = set(self.store.list_ids())
            stored -= {s.session_id for s in live}
            by_state["suspended"] += len(stored)
        uptime = (time.perf_counter() - started) if started else 0.0
        return {
            "workers": self.workers,
            "slice_epochs": self.slice_epochs,
            "sessions_by_state": by_state,
            "sessions_total": len(live),
            "queue_depth": queue_depth,
            "epochs_total": epochs_total,
            "slices_total": slices_total,
            "recoveries_total": recoveries,
            "uptime_s": uptime,
            "epochs_per_s": (epochs_total / uptime) if uptime > 0
                            else 0.0,
            # FIFO fairness: among sessions still making progress,
            # how unevenly slices have been dealt. Round-robin keeps
            # this <= 1 (plus transients while a slice is in flight).
            "max_slice_spread": (max(active_slices)
                                 - min(active_slices))
                                if active_slices else 0,
        }
