"""Wire format of the simulation service.

Everything that crosses the HTTP boundary is shaped here, so the
gateway stays a thin router and the payload shapes are testable
without a socket. All payloads are JSON-pure (SIM004): plain dicts
with string keys, lists, strings, numbers, booleans, None.

Request bodies
--------------
``POST /sessions`` accepts either a registered scenario by name or an
inline config::

    {"scenario": "demo", "backend": "awgr", "base_seed": 3,
     "n_epochs": 48, "backend_params": {...},
     "checkpoint_epochs": 8}
    {"scenario": {<Scenario.to_config() payload>}, ...}

``POST /sessions/{id}/fork`` scripts the what-if divergence::

    {"at_epoch": 12, "n_epochs": 64,
     "events": [{"epoch": 14, "action": "fail_plane", "value": 0}]}

Both routes validate by construction before any session exists:
:func:`parse_submit` builds the scenario, and :func:`dry_run` builds
the backend and applies the events the session will play. A body that
fails either is a 400.

Streaming
---------
``GET /sessions/{id}/stream`` is Server-Sent Events: one ``epoch``
event per computed epoch (``id:`` = epoch number, ``data:`` = the
``EpochReport.to_dict()`` JSON), then a single ``end`` event whose
data carries the session's final state when it completes, suspends,
or fails.
"""

from __future__ import annotations

import inspect
import json

from repro.scenarios.library import get_scenario
from repro.scenarios.registry import (available_backends, backend_info,
                                     make_backend)
from repro.scenarios.scenario import EVENT_ACTIONS, Scenario, ScenarioEvent
from repro.service.sessions import Session

#: SSE event names the stream endpoint emits.
STREAM_EVENTS = ("epoch", "end")


class ProtocolError(ValueError):
    """A request body the service cannot act on (HTTP 400)."""


def session_summary(session: Session) -> dict:
    """The list-view row for one session."""
    with session.updated:
        return {
            "id": session.session_id,
            "state": session.state,
            "cursor": session.cursor,
            "n_epochs": session.n_epochs,
            "scenario": session.scenario.name,
            "backend": session.backend_name,
            "base_seed": session.base_seed,
            "parent": session.parent,
            "forked_at": session.forked_at,
            "slices": session.slices,
            "recoveries": session.recoveries,
            "events_applied": session.events_applied,
            "events_ignored": session.events_ignored,
            "error": session.error,
        }


def session_detail(session: Session) -> dict:
    """Summary plus the aggregate metrics over computed epochs."""
    payload = session_summary(session)
    payload["aggregates"] = session.report().as_dict()
    payload["checkpoint_epochs"] = session.checkpoint_epochs
    payload["checkpointed_at"] = sorted(session.checkpoints)
    return payload


def _require(body: dict, key: str):
    if key not in body:
        raise ProtocolError(f"missing required field {key!r}")
    return body[key]


def _optional_int(body: dict, key: str, default=None):
    value = body.get(key, default)
    if value is default:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"field {key!r} must be an integer")
    return value


def _build_scenario(spec, n_epochs: int | None) -> Scenario:
    """The submitted scenario, horizon override applied; a name or a
    config that builds no scenario is a :class:`ProtocolError`."""
    try:
        scenario = (get_scenario(spec) if isinstance(spec, str)
                    else Scenario.from_config(spec))
        if n_epochs is not None:
            scenario = scenario.with_epochs(n_epochs)
    except KeyError as exc:
        raise ProtocolError(f"invalid scenario: {exc.args[0]}") from None
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid scenario: {exc}") from None
    return scenario


def parse_submit(body: dict) -> dict:
    """``POST /sessions`` body -> :meth:`SessionPool.submit` kwargs,
    with the scenario built (see :func:`dry_run` for the backend)."""
    if not isinstance(body, dict):
        raise ProtocolError("submit body must be a JSON object")
    scenario = _require(body, "scenario")
    if not isinstance(scenario, (str, dict)):
        raise ProtocolError(
            "scenario must be a registered name or an inline config "
            "object")
    backend = body.get("backend", "awgr")
    if not isinstance(backend, str):
        raise ProtocolError("backend must be a string")
    if backend not in available_backends():
        # Reject unknown names at the boundary (HTTP 400) instead of
        # letting the worker's make_backend KeyError fail the session.
        raise ProtocolError(
            f"unknown backend {backend!r} "
            f"(known: {sorted(available_backends())})")
    params = body.get("backend_params", {})
    if not isinstance(params, dict):
        raise ProtocolError("backend_params must be an object")
    # The registered constructor's keywords, minus n_nodes, which the
    # scenario sets. Checked here for the same reason as the name: a
    # worker's TypeError would retry and then fail the session.
    accepted = set(inspect.signature(
        backend_info(backend).cls).parameters) - {"n_nodes"}
    if not set(params) <= accepted:
        raise ProtocolError(
            f"unknown backend_params for {backend!r}: "
            f"{sorted(set(params) - accepted)} "
            f"(accepted: {sorted(accepted)})")
    unknown = set(body) - {"scenario", "backend", "backend_params",
                           "base_seed", "checkpoint_epochs",
                           "n_epochs"}
    if unknown:
        raise ProtocolError(
            f"unknown submit fields: {sorted(unknown)}")
    checkpoint_epochs = _optional_int(body, "checkpoint_epochs", 16)
    if checkpoint_epochs < 1:
        raise ProtocolError("checkpoint_epochs must be >= 1")
    return {
        "scenario": _build_scenario(scenario,
                                    _optional_int(body, "n_epochs")),
        "backend": backend,
        "backend_params": params,
        "base_seed": _optional_int(body, "base_seed", 0),
        "checkpoint_epochs": checkpoint_epochs,
    }


def parse_events(payload) -> tuple:
    """Event dicts -> :class:`ScenarioEvent` tuple (validated)."""
    if not isinstance(payload, (list, tuple)):
        raise ProtocolError("events must be a list")
    events = []
    for entry in payload:
        if not isinstance(entry, dict):
            raise ProtocolError("each event must be an object")
        epoch = entry.get("epoch")
        action = entry.get("action")
        if isinstance(epoch, bool) or not isinstance(epoch, int):
            raise ProtocolError("event epoch must be an integer")
        if action not in EVENT_ACTIONS:
            raise ProtocolError(
                f"unknown event action {action!r} "
                f"(known: {EVENT_ACTIONS})")
        events.append(ScenarioEvent(epoch=epoch, action=action,
                                    value=entry.get("value")))
    return tuple(events)


def parse_fork(body: dict) -> dict:
    """``POST /sessions/{id}/fork`` body -> ``SessionPool.fork``
    kwargs (minus the parent id)."""
    if not isinstance(body, dict):
        raise ProtocolError("fork body must be a JSON object")
    at_epoch = _require(body, "at_epoch")
    if isinstance(at_epoch, bool) or not isinstance(at_epoch, int):
        raise ProtocolError("at_epoch must be an integer")
    kwargs = {
        "at_epoch": at_epoch,
        "events": parse_events(body.get("events", [])),
        "n_epochs": _optional_int(body, "n_epochs"),
    }
    unknown = set(body) - {"at_epoch", "events", "n_epochs"}
    if unknown:
        raise ProtocolError(f"unknown fork fields: {sorted(unknown)}")
    return kwargs


def dry_run(scenario: Scenario, backend: str, params: dict,
            seed: int) -> None:
    """Start a session's run on a throwaway backend.

    Builds ``backend`` as the session will (``seed``, ``params``, the
    scenario's node count) and applies the scenario's events that
    fire before its horizon, in the order the session plays them (by
    epoch, stable). A backend that cannot be built, or an event it
    rejects, is a :class:`ProtocolError` here, instead of a session
    that fails in a worker after its retries."""
    try:
        fabric = make_backend(backend, scenario.n_nodes, seed=seed,
                              **params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            f"the {backend!r} backend cannot be built with seed {seed} "
            f"and params {params}: {exc}") from None
    fired = [e for e in scenario.events if e.epoch < scenario.n_epochs]
    for event in sorted(fired, key=lambda e: e.epoch):
        try:
            fabric.apply_event(event)
        except (ValueError, TypeError, RuntimeError) as exc:
            raise ProtocolError(
                f"event at epoch {event.epoch} ({event.action} "
                f"{event.value!r}) rejected by the {backend!r} "
                f"backend: {exc}") from None


def encode_json(payload: dict) -> bytes:
    """Canonical response encoding (sorted keys, compact)."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def sse_frame(event: str, data: dict, event_id: int | None = None
              ) -> bytes:
    """One Server-Sent-Events frame (``event``/``id``/``data`` lines
    plus the blank-line terminator)."""
    lines = [f"event: {event}"]
    if event_id is not None:
        lines.append(f"id: {event_id}")
    lines.append("data: " + json.dumps(data, sort_keys=True))
    return ("\n".join(lines) + "\n\n").encode()
