"""The ``service_http`` workload: two clients against ``repro serve``.

The server is one ``repro serve --workers 1`` process with a fresh
store directory. Two client threads each submit one inline
``rack_mix`` session with its own seed and stream it over SSE. Each
suspends and resumes its session once; client 1 suspends only after
client 0's suspend/resume cycle is over, so the two never overlap.
After its session completes, each client forks it at an earlier epoch
with a what-if ``fail_plane`` event and streams the short child to
completion.

The check afterwards replays every session as a library run of the
same inline scenario and seed: the streamed parent (before suspend
and after resume) must equal it epoch for epoch, and each child must
equal the parent up to the fork point and the library run of the
forked scenario after it.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from urllib.error import URLError

import numpy as np

from checks import Gate, digest
from rackmix import rack_mix
from tracer import clock

#: Frames a client may wait for before giving up on a stream.
CLIENT_TIMEOUT_S = 120.0


def plans(seed: int, size: dict) -> list[dict]:
    """What each of the two clients does, derived from the seed."""
    n_epochs = size["service_epochs"]
    return [{"seed": 2 * seed + i,
             "suspend_at": n_epochs // 10 if i == 0 else n_epochs // 4,
             "fork_at": 3 * n_epochs // 4 + 2 * i + 1,
             "fork_epochs": size["service_fork_epochs"]}
            for i in range(2)]


def fork_event(plan: dict) -> dict:
    return {"epoch": plan["fork_at"], "action": "fail_plane",
            "value": 1}


class Client(threading.Thread):
    """One client's session lifecycle; every request is timed."""

    def __init__(self, index: int, url: str, config: dict, plan: dict,
                 store, cycle_done: threading.Event, gate: Gate,
                 gate_lock: threading.Lock) -> None:
        super().__init__(name=f"client-{index}")
        from repro.service.client import ServiceClient

        self.index = index
        self.client = ServiceClient(url, timeout=CLIENT_TIMEOUT_S)
        self.config = config
        self.plan = plan
        self.store = store
        self.cycle_done = cycle_done
        self.gate = gate
        self.gate_lock = gate_lock
        #: epoch -> payload, for the parent and the fork child.
        self.parent: dict[int, dict] = {}
        self.child: dict[int, dict] = {}
        #: (session id, [(epoch, arrival), ...]) per stream connection.
        self.segments: list[tuple[str, list]] = []
        self.submitted = self.first_frame = self.finished = None
        self.suspend_span = None
        self.resume_s = self.record_mb = None
        self.child_id = None
        self.error: str | None = None

    def request(self, ok: bool, what: str) -> None:
        with self.gate_lock:
            self.gate.request(ok, f"client {self.index}: {what}")

    def stream(self, session_id: str, since: int, into: dict,
               stop_at: int | None = None) -> str | None:
        """Collect epoch frames; return the end state, or None when
        the client stopped at ``stop_at`` to suspend."""
        arrivals = []
        self.segments.append((session_id, arrivals))
        for event, epoch, data in self.client.stream(session_id,
                                                     since=since):
            now = clock()
            if event == "end":
                self.finished = now
                return data["state"]
            into[epoch] = data
            arrivals.append((epoch, now))
            if self.first_frame is None:
                self.first_frame = now
            if (stop_at is not None and epoch >= stop_at
                    and (self.index == 0 or self.cycle_done.is_set())):
                return None
        raise ConnectionError("stream closed without an end frame")

    def run(self) -> None:
        from repro.service.client import ServiceError
        from repro.service.sessions import SessionKey

        try:
            self.submitted = clock()
            summary = self.client.submit(self.config, backend="awgr",
                                         base_seed=self.plan["seed"])
            sid = summary["id"]
            self.request(True, "submit")
            state = self.stream(sid, 0, self.parent,
                                stop_at=self.plan["suspend_at"])
            self.request(state is None, f"stream ended {state} before "
                                        "its suspend point")
            start = clock()
            parked = self.client.suspend(sid)
            self.suspend_span = (start, clock())
            self.request(parked["state"] == "suspended",
                         f"suspend left state {parked['state']}")
            self.record_mb = self.store.path_for(
                SessionKey(sid)).stat().st_size / 1e6
            start = clock()
            resumed = self.client.resume(sid)
            self.resume_s = clock() - start
            self.request(resumed["state"] in ("queued", "running"),
                         f"resume left state {resumed['state']}")
            if self.index == 0:
                self.cycle_done.set()
            state = self.stream(sid, max(self.parent) + 1, self.parent)
            self.request(state == "completed",
                         f"session ended {state}")
            child = self.client.fork(
                sid, self.plan["fork_at"], events=[fork_event(self.plan)],
                n_epochs=self.plan["fork_at"] + self.plan["fork_epochs"])
            self.child_id = child["id"]
            self.request(True, "fork")
            state = self.stream(self.child_id, 0, self.child)
            self.request(state == "completed",
                         f"fork child ended {state}")
        except (ServiceError, URLError, OSError, KeyError) as exc:
            self.error = f"{type(exc).__name__}: {exc}"
            self.request(False, self.error)
        finally:
            self.cycle_done.set()


def gaps(client: Client) -> list[tuple[str, int, float, float]]:
    """``(session, epoch, previous arrival, arrival)`` of every pair of
    consecutive frames on one stream. A fork child's copied prefix is
    skipped: those frames are replayed, not computed."""
    out = []
    for session_id, arrivals in client.segments:
        skip_below = (client.plan["fork_at"]
                      if session_id == client.child_id else 0)
        fresh = [(e, t) for e, t in arrivals if e >= skip_below]
        for (_, before), (epoch, now) in zip(fresh, fresh[1:]):
            out.append((session_id, epoch, before, now))
    return out


def drive(url: str, store, seed: int, size: dict, gate: Gate) -> dict:
    """Run one unit of the workload against a live server."""
    config = rack_mix(size["service_nodes"], size["service_epochs"])
    cycle_done = threading.Event()
    gate_lock = threading.Lock()
    clients = [Client(i, url, config, plan, store, cycle_done, gate,
                      gate_lock)
               for i, plan in enumerate(plans(seed, size))]
    for client in clients:
        client.start()
    for client in clients:
        client.join(timeout=3 * CLIENT_TIMEOUT_S)
        if client.is_alive():
            raise RuntimeError(f"{client.name} did not finish")
    frame_gaps = [g for c in clients for g in gaps(c)]
    stalls = []
    for client in clients:
        if client.suspend_span is None:
            continue
        lo, hi = client.suspend_span
        overlapping = [now - before for other in clients
                       if other is not client
                       for _, _, before, now in gaps(other)
                       if before < hi and now > lo]
        stalls.append(max(overlapping, default=0.0))
    failed = [c.error for c in clients if c.error is not None]
    if failed:
        raise RuntimeError(f"service unit did not complete: {failed}")
    window = (min(c.submitted for c in clients),
              max(c.finished for c in clients))
    return {
        "config": config,
        "clients": clients,
        "window": window,
        "wall_s": window[1] - window[0],
        "epochs": sum(len(c.parent) + len(c.child) - c.plan["fork_at"]
                      for c in clients),
        "frame_gaps": frame_gaps,
        "ttfe_ms": [(c.first_frame - c.submitted) * 1e3
                    for c in clients],
        "suspend_s": [c.suspend_span[1] - c.suspend_span[0]
                      for c in clients],
        "resume_s": [c.resume_s for c in clients],
        "record_mb": [c.record_mb for c in clients],
        "stall_ms": max(stalls, default=0.0) * 1e3,
    }


def check(unit: dict, gate: Gate, pinned: dict | None) -> dict:
    """Compare every streamed epoch with a library run of the same
    inline scenario and seed; return the digests (for pinning)."""
    from repro.scenarios.registry import make_backend
    from repro.scenarios.runner import ScenarioRunner
    from repro.scenarios.scenario import Scenario, ScenarioEvent

    scenario = Scenario.from_config(unit["config"])
    streams = {}
    for client in unit["clients"]:
        plan = client.plan
        name = f"s{client.index}"
        seed, fork_at = plan["seed"], plan["fork_at"]
        parent = [client.parent[e] for e in sorted(client.parent)]
        got = gate.epochs(name, parent)
        if sorted(client.parent) != list(range(len(parent))):
            gate.fail((name, "order"), f"{name}: streamed epochs are "
                      "not contiguous from 0")
        backend = make_backend("awgr", scenario.n_nodes, seed=seed)
        runner = ScenarioRunner(scenario, backend)
        report = runner.step_epochs(0, fork_at, seed=seed)
        at_fork = json.loads(json.dumps(backend.snapshot()))
        runner.step_epochs(fork_at, scenario.n_epochs, seed=seed,
                           report=report)
        want = [digest(e.to_dict()) for e in report.epochs]
        gate.equal(name, got, want)

        child_name = f"{name}.fork"
        child = [client.child[e] for e in sorted(client.child)]
        got_child = gate.epochs(child_name, child)
        gate.equal(child_name, got_child[:fork_at], got[:fork_at])
        event = fork_event(plan)
        forked = replace(
            scenario, events=scenario.events + (ScenarioEvent(**event),)
        ).with_epochs(fork_at + plan["fork_epochs"])
        backend = make_backend("awgr", scenario.n_nodes, seed=seed)
        backend.restore(at_fork)
        tail = ScenarioRunner(forked, backend).step_epochs(
            fork_at, forked.n_epochs, seed=seed)
        gate.equal(child_name, got_child[fork_at:],
                   [digest(e.to_dict()) for e in tail.epochs], fork_at)
        for key, digests in ((name, got), (child_name, got_child)):
            streams[key] = digests
            if pinned is not None and key in pinned:
                gate.equal(key, digests, pinned[key])
    return streams


def http_unattributed_ms(unit: dict, trace) -> float:
    """Mean frame gap minus that epoch's own server-side spans
    (simulation and SSE framing), joined by session id and epoch."""
    spent: dict[tuple[str, int], float] = {}
    for layer in ("scenarios.runner", "service.protocol"):
        if layer not in trace.layers:
            continue
        mask = trace.layer == trace.layers.index(layer)
        for i in np.flatnonzero(mask & (trace.session >= 0)):
            key = (trace.sessions[trace.session[i]], int(trace.epoch[i]))
            spent[key] = spent.get(key, 0.0) + float(trace.duration[i])
    residuals = [(now - before) - spent.get((sid, epoch), 0.0)
                 for sid, epoch, before, now in unit["frame_gaps"]]
    return float(np.mean(residuals)) * 1e3 if residuals else 0.0
