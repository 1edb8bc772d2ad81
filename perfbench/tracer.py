"""Span tracer the benchmark wraps around ``repro``'s public callables.

Nothing under ``src/`` knows about it: :meth:`Tracer.wrap` replaces a
class or module attribute with a timing wrapper and :class:`Patches`
puts the original back when the run ends. Each span records its
layer, start, end, enclosing span on the same thread, and the
session id and epoch it worked on. Spans stay in memory (parallel
arrays, ~40 bytes each) and are written out at exit.

Times come from ``time.perf_counter``, which is ``CLOCK_MONOTONIC`` on
Linux, so spans from the service's server process and from the
benchmark's client threads share one time axis.
"""

from __future__ import annotations

import array
import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

clock = time.perf_counter

_MISSING = object()


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def replace(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def undo(self) -> None:
        while self._undo:
            owner, name, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, previous)


class SetupDone(BaseException):
    """Stops a setup-only process at its first epoch.

    A ``BaseException`` so that no ``except Exception`` inside the
    program (the sharded runner records chunk failures that way)
    swallows it.
    """


class EpochClock:
    """One timestamp per epoch, taken when ``Scenario.flow_batch_at``
    starts. Every epoch loop calls it exactly once per epoch, so
    consecutive marks bound one epoch's host time. ``on_first`` runs
    at the first mark: the moment the first timed epoch is ready.
    """

    def __init__(self, on_first) -> None:
        self.marks: list[float] = []
        self._on_first = on_first

    def install(self, patches: Patches) -> None:
        from repro.scenarios.scenario import Scenario

        original = Scenario.flow_batch_at
        marks = self.marks

        def flow_batch_at(scenario, epoch, base_seed=0):
            marks.append(clock())
            if len(marks) == 1:
                self._on_first()
            return original(scenario, epoch, base_seed)

        patches.replace(Scenario, "flow_batch_at", flow_batch_at)


class Tracer:
    """In-memory span recorder; thread-safe."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.start = array.array("d")
        self.end = array.array("d")
        self.layer = array.array("H")
        self.thread = array.array("H")
        self.parent = array.array("l")
        self.session = array.array("l")
        self.epoch = array.array("l")
        self.sessions: list[str] = []
        self._session_ids: dict[str, int] = {}
        self.threads: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list] = defaultdict(list)
        #: Wrap targets the program does not have (see :meth:`wrap`).
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- recording -------------------------------------------------------------

    def layer_id(self, name: str) -> int:
        with self._lock:
            if name not in self._layer_ids:
                self._layer_ids[name] = len(self.layers)
                self.layers.append(name)
            return self._layer_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._local.thread = len(self.threads)
                self.threads.append(threading.current_thread().name)
        return stack

    def open(self, layer: int, session: str | None = None,
             epoch: int = -1) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            if session is not None:
                if session not in self._session_ids:
                    self._session_ids[session] = len(self.sessions)
                    self.sessions.append(session)
                sid = self._session_ids[session]
            else:
                sid = self.session[parent] if parent >= 0 else -1
            if epoch < 0 and parent >= 0:
                epoch = self.epoch[parent]
            index = len(self.start)
            self.end.append(0.0)
            self.layer.append(layer)
            self.thread.append(self._local.thread)
            self.parent.append(parent)
            self.session.append(sid)
            self.epoch.append(epoch)
            self.start.append(clock())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        now = clock()
        with self._lock:
            self.end[index] = now
        self._local.stack.pop()

    @contextmanager
    def span(self, layer: str, session: str | None = None,
             epoch: int = -1):
        index = self.open(self.layer_id(layer), session, epoch)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def sample(self, name: str, value) -> None:
        with self._lock:
            self.samples[name].append(value)

    @property
    def current_session(self) -> str | None:
        """Session id the calling thread last served (SSE handlers)."""
        return getattr(self._local, "session", None)

    @current_session.setter
    def current_session(self, session_id: str | None) -> None:
        self._local.session = session_id

    def wrap(self, patches: Patches, owner, name: str,
             layer: str | None, ctx=None, pre=None, post=None) -> None:
        """Replace ``owner.name`` with a wrapper that records a span
        (unless ``layer`` is None) and runs the counting hooks.

        ``ctx(args, kwargs) -> (session, epoch)`` labels the span;
        ``pre(args, kwargs)`` runs before the call and its value is
        handed to ``post(state, result, args, kwargs)`` after it.
        Hooks run outside the span, so their cost shows as tracer
        overhead rather than as the layer's time. A target the program
        no longer has is skipped and listed in ``missing``: a refactor
        that removes a callable drops its layer from the table instead
        of breaking the traced run.
        """
        original = getattr(owner, name, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{name}")
            return
        layer_id = None if layer is None else self.layer_id(layer)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            session, epoch = ctx(args, kwargs) if ctx else (None, -1)
            state = pre(args, kwargs) if pre else None
            if layer_id is None:
                result = original(*args, **kwargs)
            else:
                index = tracer.open(layer_id, session, epoch)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(index)
            if post:
                post(state, result, args, kwargs)
            return result

        patches.replace(owner, name, traced)

    # -- export ----------------------------------------------------------------

    def dump(self) -> dict:
        """JSON-stable copy of everything recorded."""
        return {
            "process": self.process,
            "layers": self.layers,
            "threads": self.threads,
            "sessions": self.sessions,
            "spans": {key: list(getattr(self, key)) for key in
                      ("start", "end", "layer", "thread", "parent",
                       "session", "epoch")},
            "counts": dict(self.counts),
            "samples": dict(self.samples),
            "missing": self.missing,
        }


# -- what gets wrapped ---------------------------------------------------------

def install_simulation(tracer: Tracer, patches: Patches) -> None:
    """Spans on the simulation layers (library workloads and the
    service's server process)."""
    from repro.experiments.cache import ResultCache
    from repro.network.reconfig import ReconfigurableFabric
    from repro.network.routing import BLOCKED, DIRECT, IndirectRouter
    from repro.network.simulator import AWGRNetworkSimulator
    from repro.network.state import PiggybackState
    from repro.scenarios import arena, sharding
    from repro.scenarios.registry import available_backends, backend_info
    from repro.scenarios.runner import ScenarioReport, ScenarioRunner
    from repro.scenarios.scenario import Scenario

    wrap = functools.partial(tracer.wrap, patches)
    count = tracer.count

    wrap(Scenario, "flow_batch_at", "scenarios.scenario",
         post=lambda _, batch, a, k: count("scenarios.scenario.flows",
                                           len(batch)))
    wrap(PiggybackState, "step", "network.state")
    wrap(AWGRNetworkSimulator, "offer_batch", "network.simulator.admit",
         post=lambda _, d, a, k: count(
             "network.simulator.direct_flows",
             int((d.kinds == DIRECT).sum())))
    wrap(AWGRNetworkSimulator, "step", "network.simulator.expiry")

    def routed(stale_before, result, args, kwargs):
        count("network.routing.routed_flows")
        count("network.routing.blocked_flows", result[0] == BLOCKED)
        count("network.routing.stale_mispredictions",
              args[0].stale_mispredictions - stale_before)

    wrap(IndirectRouter, "route_tokens", "network.routing",
         pre=lambda a, k: a[0].stale_mispredictions, post=routed)
    wrap(ReconfigurableFabric, "reconfigure", "network.reconfig",
         post=lambda *_: count("network.reconfig.calls"))
    for name in available_backends():
        cls = backend_info(name).cls
        module = cls.__module__.removeprefix("repro.")
        wrap(cls, "step", f"{module}.fold.{name}")
        wrap(cls, "apply_event", "scenarios.backends.events",
             post=lambda _, applied, a, k: count(
                 "scenarios.backends.events_applied", bool(applied)))
        wrap(cls, "snapshot", "scenarios.backends.snapshot",
             post=lambda *_: count("scenarios.backends.snapshots"))
        wrap(cls, "restore", "scenarios.backends.restore",
             post=lambda *_: count("scenarios.backends.restores"))
    wrap(ScenarioRunner, "step_epochs", "scenarios.runner",
         ctx=lambda a, k: (None, a[1]))
    wrap(arena, "run_arena", "scenarios.arena")
    wrap(sharding.ShardedScenarioRunner, "run", "scenarios.sharding")
    wrap(sharding, "execute_chunk", "scenarios.sharding.chunk")

    def stored(_, path, args, kwargs):
        size = path.stat().st_size
        count("experiments.cache.store_bytes", size)
        if args[1].spec_name == "service-session":
            tracer.sample("service.sessions.record_bytes", size)

    wrap(ResultCache, "store", "experiments.cache.store", post=stored)
    wrap(ResultCache, "load", "experiments.cache.load")
    wrap(ScenarioReport, "as_dict", "analysis.report")
    wrap(arena.ArenaReport, "as_dict", "analysis.report")
    wrap(sharding.ShardedScenarioResult, "report", "analysis.report")


def install_server(tracer: Tracer, patches: Patches) -> None:
    """Spans on the service layers inside the server process."""
    from repro.service import gateway
    from repro.service.pool import SessionPool
    from repro.service.sessions import Session

    install_simulation(tracer, patches)
    wrap = functools.partial(tracer.wrap, patches)
    last_end: dict[str, float] = {}

    def advance_pre(args, kwargs):
        # Queue wait: since the session's previous slice ended, or
        # since it was (re)submitted if that is later.
        session = args[0]
        waited_from = max(last_end.get(session.session_id, 0.0),
                          session.submitted_s or 0.0)
        tracer.count("service.pool.queue_wait_s",
                     clock() - waited_from)

    def advance_post(_, ran, args, kwargs):
        session = args[0]
        last_end[session.session_id] = clock()
        tracer.sample("service.sessions.checkpoints_retained",
                      len(session.checkpoints))

    wrap(Session, "advance", "service.sessions",
         ctx=lambda a, k: (a[0].session_id, a[0].cursor),
         pre=advance_pre, post=advance_post)
    wrap(Session, "to_dict", "service.sessions.record",
         ctx=lambda a, k: (a[0].session_id, -1))

    def serving(args, kwargs):
        tracer.current_session = args[0].session_id
        return args[0].session_id, args[1]

    wrap(Session, "epochs_since", "service.gateway", ctx=serving)
    wrap(gateway, "sse_frame", "service.protocol",
         ctx=lambda a, k: (tracer.current_session,
                           k.get("event_id", -1)),
         post=lambda _, frame, a, k: tracer.count(
             "service.protocol.sse_bytes", len(frame)))
    for verb in ("submit", "suspend", "resume", "fork"):
        wrap(SessionPool, verb, f"service.pool.{verb}",
             ctx=(None if verb == "submit"
                  else lambda a, k: (a[1], -1)))
    wrap(gateway._Handler, "_dispatch", None,
         post=lambda *_: tracer.count("service.gateway.requests"))
    wrap(gateway._Handler, "_send_error_json", None,
         post=lambda *_: tracer.count("service.gateway.errors"))


class _TracedJSON:
    """Stands in for the ``json`` module inside ``repro.service.client``
    so the client's payload decoding is timed where it happens."""

    def __init__(self, tracer: Tracer) -> None:
        self._layer = tracer.layer_id("service.client.decode")
        self._tracer = tracer

    def loads(self, text, *args, **kwargs):
        index = self._tracer.open(self._layer)
        try:
            return json.loads(text, *args, **kwargs)
        finally:
            self._tracer.close(index)

    def __getattr__(self, name):
        return getattr(json, name)


def install_client(tracer: Tracer, patches: Patches) -> None:
    """Spans in the benchmark's client process: request round trips
    and payload decoding."""
    from repro.service import client

    patches.replace(client, "json", _TracedJSON(tracer))
    tracer.wrap(patches, client.ServiceClient, "submit", "service.http")
    for verb in ("suspend", "resume", "fork"):
        tracer.wrap(patches, client.ServiceClient, verb, "service.http",
                    ctx=lambda a, k: (a[1], -1))
