"""Turn recorded spans into the per-layer table, metrics and a Chrome
trace.

Self time is a span's duration minus the part its child spans cover.
The table also gives each layer an *attributed* time: every instant
of the traced wall window goes to exactly one layer, the innermost
open span on the highest-priority busy thread (the service's worker
thread first, then its request threads, then the client), or to
``unattributed`` when no span is open. Attributed times plus
``unattributed`` add up to the window; on a single thread they equal
self time clipped to the window.
"""

from __future__ import annotations

import json

import numpy as np

#: Contenders the arena races, in race order.
ARENA_BACKENDS = ("awgr", "wss", "electronic", "full_mesh", "dragonfly")

#: Per-layer metric name -> unit, in report order. Times are self time
#: per epoch unless the unit says otherwise; counts are per epoch
#: ("1/epoch") or per run ("count").
PER_LAYER = {
    "setup.import_s": "s",
    "setup.build_s": "s",
    "scenarios.scenario.generate_ms": "ms/epoch",
    "scenarios.scenario.flows": "1/epoch",
    "network.state.piggyback_ms": "ms/epoch",
    "network.simulator.admit_ms": "ms/epoch",
    "network.simulator.expiry_ms": "ms/epoch",
    "network.simulator.direct_flows": "1/epoch",
    "network.routing.route_ms": "ms/epoch",
    "network.routing.routed_flows": "1/epoch",
    "network.routing.blocked_flows": "1/epoch",
    "network.routing.stale_mispredictions": "1/epoch",
    "network.routing.waste_ratio": "ratio",
    "network.reconfig.schedule_ms": "ms/epoch",
    "network.reconfig.calls": "1/epoch",
    "scenarios.backends.fold_ms": "ms/epoch",
    "scenarios.backends.events_ms": "ms/epoch",
    "scenarios.backends.events_applied": "count",
    **{f"scenarios.arena.step_ms.{name}": "ms/epoch"
       for name in ARENA_BACKENDS},
    "scenarios.backends.snapshot_ms": "ms/epoch",
    "scenarios.backends.restore_ms": "ms/epoch",
    "checkpoint.encode_ms": "ms/epoch",
    "checkpoint.decode_ms": "ms/epoch",
    "checkpoint.bytes": "bytes",
    "experiments.cache.store_ms": "ms/epoch",
    "experiments.cache.load_ms": "ms/epoch",
    "experiments.cache.store_mb": "MB",
    "scenarios.sharding.chunk_ms": "ms/epoch",
    "service.sessions.advance_ms": "ms/epoch",
    "service.sessions.simulate_ms": "ms/epoch",
    "service.sessions.checkpoint_ms": "ms/epoch",
    "service.sessions.checkpoints_retained": "count",
    "service.sessions.checkpoint_use_ratio": "ratio",
    "service.sessions.record_mb": "MB",
    "service.pool.queue_wait_ms": "ms/epoch",
    "service.pool.suspend_ms": "ms/call",
    "service.pool.resume_ms": "ms/call",
    "service.pool.fork_ms": "ms/call",
    "service.pool.stall_ms": "ms",
    "service.pool.recoveries": "count",
    "service.protocol.sse_frame_ms": "ms/epoch",
    "service.protocol.sse_bytes": "bytes/epoch",
    "service.gateway.requests": "count",
    "service.gateway.errors": "count",
    "service.client.decode_ms": "ms/epoch",
    "service.http.unattributed_ms": "ms/epoch",
    "scenarios.runner.loop_ms": "ms/epoch",
    "scenarios.arena.loop_ms": "ms/epoch",
    "scenarios.runner.slowdown_samples": "count",
    "analysis.report_ms": "ms/epoch",
    "trace.overhead_frac": "fraction",
    "trace.unattributed_frac": "fraction",
}


class Trace:
    """Spans of one or more processes on one time axis."""

    def __init__(self, dumps: list[dict]) -> None:
        self.layers: list[str] = []
        self.threads: list[tuple[str, str]] = []
        self.sessions: list[str | None] = []
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.missing: list[str] = []
        columns: dict[str, list] = {k: [] for k in (
            "start", "end", "layer", "thread", "parent", "session",
            "epoch")}
        for dump in dumps:
            offset = sum(len(c) for c in columns["start"])
            spans = {k: np.asarray(v) for k, v in dump["spans"].items()}
            layer_map = np.array([self._index(self.layers, name)
                                  for name in dump["layers"]] or [0])
            thread_map = np.array([
                self._index(self.threads, (dump["process"], name))
                for name in dump["threads"]] or [0])
            session_map = np.array([self._index(self.sessions, name)
                                    for name in dump["sessions"]]
                                   + [-1])
            parent = spans["parent"].astype(np.int64)
            columns["start"].append(spans["start"].astype(float))
            columns["end"].append(spans["end"].astype(float))
            columns["layer"].append(
                layer_map[spans["layer"].astype(np.int64)])
            columns["thread"].append(
                thread_map[spans["thread"].astype(np.int64)])
            columns["parent"].append(
                np.where(parent >= 0, parent + offset, -1))
            columns["session"].append(
                session_map[spans["session"].astype(np.int64)])
            columns["epoch"].append(spans["epoch"].astype(np.int64))
            for key, value in dump["counts"].items():
                self.counts[key] = self.counts.get(key, 0.0) + value
            for key, values in dump["samples"].items():
                self.samples.setdefault(key, []).extend(values)
            self.missing.extend(dump["missing"])
        for key, parts in columns.items():
            kind = float if key in ("start", "end") else np.int64
            merged = (np.concatenate(parts) if parts
                      else np.zeros(0, dtype=kind))
            setattr(self, key, merged.astype(kind))
        self.clip(-np.inf, np.inf)

    def clip(self, lo: float, hi: float) -> None:
        """Count only the part of every span inside ``[lo, hi]`` (the
        traced wall window) in durations and self times."""
        self.duration = np.maximum(
            0.0, np.minimum(self.end, hi) - np.maximum(self.start, lo))
        inner = np.zeros(len(self.start))
        has_parent = self.parent >= 0
        np.add.at(inner, self.parent[has_parent],
                  self.duration[has_parent])
        self.self_time = self.duration - inner

    @staticmethod
    def _index(table: list, item) -> int:
        if item not in table:
            table.append(item)
        return table.index(item)

    def _mask(self, layer: str) -> np.ndarray:
        if layer not in self.layers:
            return np.zeros(len(self.start), dtype=bool)
        return self.layer == self.layers.index(layer)

    def self_s(self, layer: str) -> float:
        """Self time of one layer's spans."""
        return float(self.self_time[self._mask(layer)].sum())

    def inclusive_s(self, layer: str, parent: str | None = None) -> float:
        """Wall time inside ``layer`` spans, optionally only those
        whose direct parent is a ``parent`` span."""
        mask = self._mask(layer)
        if parent is not None:
            above = self.parent >= 0
            mask &= above & self._mask(parent)[
                np.where(above, self.parent, 0)]
        return float(self.duration[mask].sum())

    def calls(self, layer: str) -> int:
        return int(self._mask(layer).sum())

    # -- attribution -----------------------------------------------------------

    def _priority(self) -> list[int]:
        def rank(key):
            process, name = key
            if process == "server":
                return 0 if name.startswith("session-worker") else 1
            return 2
        return sorted(range(len(self.threads)),
                      key=lambda t: (rank(self.threads[t]), t))

    def attribute(self, lo: float, hi: float) -> tuple[dict, float]:
        """Exclusive time per layer inside ``[lo, hi]`` and the
        unattributed remainder."""
        idx = np.flatnonzero((self.end > lo) & (self.start < hi))
        times = np.concatenate([self.start[idx], self.end[idx]])
        opens = np.concatenate([np.ones(len(idx), dtype=np.int64),
                                np.zeros(len(idx), dtype=np.int64)])
        spans = np.concatenate([idx, idx])
        order = np.lexsort((opens, times))
        stacks: dict[int, list] = {t: [] for t in range(len(self.threads))}
        priority = self._priority()
        per_layer = np.zeros(len(self.layers))
        unattributed = 0.0
        layer = self.layer
        thread = self.thread

        def owner():
            for t in priority:
                if stacks[t]:
                    return stacks[t][-1]
            return -1

        prev = lo
        for t, is_open, span in zip(times[order].tolist(),
                                    opens[order].tolist(),
                                    spans[order].tolist()):
            if t > prev:
                segment = min(t, hi) - prev
                if segment > 0:
                    top = owner()
                    if top < 0:
                        unattributed += segment
                    else:
                        per_layer[layer[top]] += segment
                prev = max(prev, min(t, hi))
            stack = stacks[int(thread[span])]
            if is_open:
                stack.append(span)
            elif stack and stack[-1] == span:
                stack.pop()
            elif span in stack:
                stack.remove(span)
        if hi > prev:
            top = owner()
            if top < 0:
                unattributed += hi - prev
            else:
                per_layer[layer[top]] += hi - prev
        return ({name: float(per_layer[i])
                 for i, name in enumerate(self.layers)
                 if per_layer[i] > 0}, unattributed)

    def table(self, lo: float, hi: float, epochs: int) -> list[dict]:
        """Per-layer rows over the traced wall window ``[lo, hi]``; the
        ``attributed_ms`` column, ``unattributed`` row included, sums
        to the window."""
        attributed, rest = self.attribute(lo, hi)
        rows = []
        for index, name in enumerate(self.layers):
            mask = self.layer == index
            inside = mask & (self.end > lo) & (self.start < hi)
            if not inside.any():
                continue
            ms = attributed.get(name, 0.0) * 1e3
            rows.append({"layer": name,
                         "calls": int(inside.sum()),
                         "self_ms": float(self.self_time[inside].sum())
                         * 1e3,
                         "attributed_ms": ms,
                         "ms_per_epoch": ms / epochs,
                         "share": ms / ((hi - lo) * 1e3)})
        rows.sort(key=lambda r: -r["attributed_ms"])
        rows.append({"layer": "unattributed", "calls": 0,
                     "self_ms": rest * 1e3, "attributed_ms": rest * 1e3,
                     "ms_per_epoch": rest * 1e3 / epochs,
                     "share": rest / (hi - lo)})
        return rows

    # -- export ----------------------------------------------------------------

    def chrome(self, path, origin: float) -> None:
        """Write a Chrome trace-event file (opens in Perfetto)."""
        processes = sorted({p for p, _ in self.threads})
        events = [{"ph": "M", "name": "process_name", "pid": pid,
                   "args": {"name": name}}
                  for pid, name in enumerate(processes, 1)]
        tids = {}
        for t, (process, name) in enumerate(self.threads):
            pid = processes.index(process) + 1
            tids[t] = (pid, t + 1)
            events.append({"ph": "M", "name": "thread_name", "pid": pid,
                           "tid": t + 1, "args": {"name": name}})
        start = ((self.start - origin) * 1e6).round(3).tolist()
        duration = ((self.end - self.start) * 1e6).round(3).tolist()
        for i in range(len(start)):
            pid, tid = tids[int(self.thread[i])]
            event = {"name": self.layers[self.layer[i]], "ph": "X",
                     "ts": start[i], "dur": duration[i], "pid": pid,
                     "tid": tid}
            args = {}
            if self.session[i] >= 0:
                args["session"] = self.sessions[self.session[i]]
            if self.epoch[i] >= 0:
                args["epoch"] = int(self.epoch[i])
            if args:
                event["args"] = args
            events.append(event)
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)


def layer_metrics(trace: Trace, epochs: int, extra: dict) -> dict:
    """Every :data:`PER_LAYER` metric; 0 where the layer did not run.

    ``extra`` carries what the spans cannot: set-up times (outside the
    window), overhead against the untraced run, client-side stall and
    HTTP residuals, the recovery count.
    """
    per_epoch = 1e3 / epochs
    count = trace.counts.get
    routed = count("network.routing.routed_flows", 0.0)
    snapshots = count("scenarios.backends.snapshots", 0.0)
    records = trace.samples.get("service.sessions.record_bytes", [])
    retained = trace.samples.get("service.sessions.checkpoints_retained",
                                 [])
    arena_ran = trace.calls("scenarios.arena") > 0

    def per_call(layer):
        calls = trace.calls(layer)
        return trace.inclusive_s(layer) * 1e3 / calls if calls else 0.0

    def fold(name):
        return sum(trace.inclusive_s(layer) for layer in trace.layers
                   if layer.endswith(f".fold.{name}"))

    values = {
        "setup.import_s": extra["import_s"],
        "setup.build_s": extra["build_s"],
        "scenarios.scenario.generate_ms":
            trace.self_s("scenarios.scenario") * per_epoch,
        "scenarios.scenario.flows":
            count("scenarios.scenario.flows", 0.0) / epochs,
        "network.state.piggyback_ms":
            trace.self_s("network.state") * per_epoch,
        "network.simulator.admit_ms":
            trace.self_s("network.simulator.admit") * per_epoch,
        "network.simulator.expiry_ms":
            trace.self_s("network.simulator.expiry") * per_epoch,
        "network.simulator.direct_flows":
            count("network.simulator.direct_flows", 0.0) / epochs,
        "network.routing.route_ms":
            trace.self_s("network.routing") * per_epoch,
        "network.routing.routed_flows": routed / epochs,
        "network.routing.blocked_flows":
            count("network.routing.blocked_flows", 0.0) / epochs,
        "network.routing.stale_mispredictions":
            count("network.routing.stale_mispredictions", 0.0) / epochs,
        "network.routing.waste_ratio":
            (count("network.routing.stale_mispredictions", 0.0) / routed
             if routed else 0.0),
        "network.reconfig.schedule_ms":
            trace.self_s("network.reconfig") * per_epoch,
        "network.reconfig.calls":
            count("network.reconfig.calls", 0.0) / epochs,
        "scenarios.backends.fold_ms": sum(
            trace.self_s(layer) for layer in trace.layers
            if ".fold." in layer) * per_epoch,
        "scenarios.backends.events_ms":
            trace.self_s("scenarios.backends.events") * per_epoch,
        "scenarios.backends.events_applied":
            count("scenarios.backends.events_applied", 0.0),
        **{f"scenarios.arena.step_ms.{name}":
           (fold(name) * per_epoch if arena_ran else 0.0)
           for name in ARENA_BACKENDS},
        "scenarios.backends.snapshot_ms":
            trace.self_s("scenarios.backends.snapshot") * per_epoch,
        "scenarios.backends.restore_ms":
            trace.self_s("scenarios.backends.restore") * per_epoch,
        "checkpoint.encode_ms":
            trace.self_s("checkpoint.encode") * per_epoch,
        "checkpoint.decode_ms":
            trace.self_s("checkpoint.decode") * per_epoch,
        "checkpoint.bytes": count("checkpoint.bytes", 0.0),
        "experiments.cache.store_ms":
            trace.self_s("experiments.cache.store") * per_epoch,
        "experiments.cache.load_ms":
            trace.self_s("experiments.cache.load") * per_epoch,
        "experiments.cache.store_mb":
            count("experiments.cache.store_bytes", 0.0) / 1e6,
        "scenarios.sharding.chunk_ms":
            trace.self_s("scenarios.sharding.chunk") * per_epoch,
        "service.sessions.advance_ms":
            trace.self_s("service.sessions") * per_epoch,
        "service.sessions.simulate_ms": trace.inclusive_s(
            "scenarios.runner", parent="service.sessions") * per_epoch,
        "service.sessions.checkpoint_ms": trace.inclusive_s(
            "scenarios.backends.snapshot",
            parent="service.sessions") * per_epoch,
        "service.sessions.checkpoints_retained":
            float(max(retained, default=0)),
        "service.sessions.checkpoint_use_ratio":
            (count("scenarios.backends.restores", 0.0) / snapshots
             if snapshots and trace.calls("service.sessions") else 0.0),
        "service.sessions.record_mb":
            float(np.median(records)) / 1e6 if records else 0.0,
        "service.pool.queue_wait_ms":
            count("service.pool.queue_wait_s", 0.0) * per_epoch,
        "service.pool.suspend_ms": per_call("service.pool.suspend"),
        "service.pool.resume_ms": per_call("service.pool.resume"),
        "service.pool.fork_ms": per_call("service.pool.fork"),
        "service.pool.stall_ms": extra.get("stall_ms", 0.0),
        "service.pool.recoveries": extra.get("recoveries", 0.0),
        "service.protocol.sse_frame_ms":
            trace.self_s("service.protocol") * per_epoch,
        "service.protocol.sse_bytes":
            count("service.protocol.sse_bytes", 0.0) / epochs,
        "service.gateway.requests":
            count("service.gateway.requests", 0.0),
        "service.gateway.errors": count("service.gateway.errors", 0.0),
        "service.client.decode_ms":
            trace.self_s("service.client.decode") * per_epoch,
        "service.http.unattributed_ms":
            extra.get("http_unattributed_ms", 0.0),
        "scenarios.runner.loop_ms":
            trace.self_s("scenarios.runner") * per_epoch,
        "scenarios.arena.loop_ms":
            trace.self_s("scenarios.arena") * per_epoch,
        "scenarios.runner.slowdown_samples":
            extra.get("slowdown_samples", 0.0),
        "analysis.report_ms": trace.self_s("analysis.report") * per_epoch,
        "trace.overhead_frac": extra["overhead_frac"],
        "trace.unattributed_frac": extra["unattributed_frac"],
    }
    assert set(values) == set(PER_LAYER)
    return values
