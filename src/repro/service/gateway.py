"""The HTTP face of the service: stdlib-only JSON + SSE gateway.

:class:`ServiceGateway` wraps a :class:`http.server.ThreadingHTTPServer`
around one :class:`~repro.service.pool.SessionPool`. Every handler
thread is independent, so a long-lived SSE stream never blocks other
requests; the server speaks HTTP/1.1 with explicit ``Content-Length``
on JSON responses and chunked transfer encoding on streams (which is
what lets ``urllib``/``curl`` consume the SSE feed with no client
dependencies).

Endpoints::

    GET    /healthz                    liveness probe
    GET    /metrics                    fleet counters (pool.metrics)
    GET    /sessions                   summaries of every session
    POST   /sessions                   submit (protocol.parse_submit)
    GET    /sessions/{id}              status + aggregates
    DELETE /sessions/{id}              drop live + stored state
    GET    /sessions/{id}/epochs?since=N   incremental epoch poll
    GET    /sessions/{id}/stream[?since=N] SSE epoch stream
    POST   /sessions/{id}/suspend      park + persist
    POST   /sessions/{id}/resume       re-hydrate + requeue
    POST   /sessions/{id}/fork         what-if branch (parse_fork)
    POST   /shutdown                   graceful stop (CI hook)
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.service.pool import SessionNotFound, SessionPool
from repro.service.protocol import (ProtocolError, dry_run, encode_json,
                                    parse_fork, parse_submit,
                                    session_detail, session_summary,
                                    sse_frame)
from repro.service.sessions import TERMINAL_STATES

#: Seconds an SSE stream waits for the next epoch before re-checking
#: session state (bounds shutdown latency, not a client timeout).
STREAM_POLL_S = 0.25


class _Handler(BaseHTTPRequestHandler):
    """Routes one request against the owning gateway's pool."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"

    # The ThreadingHTTPServer subclass carries .gateway (set below).
    @property
    def pool(self) -> SessionPool:
        return self.server.gateway.pool

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        if self.server.gateway.verbose:
            super().log_message(format, *args)

    # -- plumbing --------------------------------------------------------------

    def _send_json(self, payload: dict, status: int = 200) -> None:
        body = encode_json(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, message: str) -> None:
        self._send_json({"error": message}, status=status)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request body is not JSON: {exc}")
        if not isinstance(body, dict):
            raise ProtocolError("request body must be a JSON object")
        return body

    def _route(self):
        """(path segments, query dict) of the current request."""
        split = urlsplit(self.path)
        parts = [p for p in split.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        return parts, query

    def _dispatch(self, method: str) -> None:
        parts, query = self._route()
        try:
            handler = self._resolve(method, parts)
            if handler is None:
                self._send_error_json(
                    404, f"no route {method} {self.path!r}")
                return
            handler(parts, query)
        except ProtocolError as exc:
            self._send_error_json(400, str(exc))
        except SessionNotFound as exc:
            self._send_error_json(
                404, f"unknown session {exc.args[0]!r}")
        except KeyError as exc:
            # e.g. get_scenario() on an unknown scenario name
            self._send_error_json(400, str(exc.args[0]))
        except (ValueError, TimeoutError) as exc:
            self._send_error_json(409, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client hung up; nothing to answer
        except Exception as exc:  # a dropped connection would hide it
            self._send_error_json(
                500, f"{type(exc).__name__}: {exc}")

    def _resolve(self, method: str, parts: list):
        if method == "GET":
            if parts == ["healthz"]:
                return self._get_healthz
            if parts == ["metrics"]:
                return self._get_metrics
            if parts == ["sessions"]:
                return self._get_sessions
            if len(parts) == 2 and parts[0] == "sessions":
                return self._get_session
            if (len(parts) == 3 and parts[0] == "sessions"
                    and parts[2] == "epochs"):
                return self._get_epochs
            if (len(parts) == 3 and parts[0] == "sessions"
                    and parts[2] == "stream"):
                return self._get_stream
        elif method == "POST":
            if parts == ["sessions"]:
                return self._post_sessions
            if parts == ["shutdown"]:
                return self._post_shutdown
            if (len(parts) == 3 and parts[0] == "sessions"
                    and parts[2] in ("suspend", "resume", "fork")):
                return getattr(self, f"_post_{parts[2]}")
        elif method == "DELETE":
            if len(parts) == 2 and parts[0] == "sessions":
                return self._delete_session
        return None

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch names
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # -- fleet endpoints -------------------------------------------------------

    def _get_healthz(self, parts, query) -> None:
        self._send_json({"status": "ok",
                         "sessions": self.pool.live_count()})

    def _get_metrics(self, parts, query) -> None:
        self._send_json(self.pool.metrics())

    def _post_shutdown(self, parts, query) -> None:
        self._send_json({"status": "shutting down"})
        # shutdown() must come from outside the serve_forever thread;
        # a handler thread qualifies, but do it after responding.
        threading.Thread(target=self.server.gateway.stop,
                         daemon=True).start()

    # -- session collection ----------------------------------------------------

    def _get_sessions(self, parts, query) -> None:
        summaries = [session_summary(self.pool.get(sid))
                     for sid in self.pool.list_ids()]
        self._send_json({"sessions": summaries})

    def _post_sessions(self, parts, query) -> None:
        kwargs = parse_submit(self._read_body())
        dry_run(kwargs["scenario"], kwargs["backend"],
                kwargs["backend_params"], kwargs["base_seed"])
        session = self.pool.submit(**kwargs)
        self._send_json(session_summary(session), status=201)

    # -- one session -----------------------------------------------------------

    def _get_session(self, parts, query) -> None:
        self._send_json(session_detail(self.pool.get(parts[1])))

    def _delete_session(self, parts, query) -> None:
        if not self.pool.delete(parts[1]):
            raise SessionNotFound(parts[1])
        self._send_json({"deleted": parts[1]})

    def _post_suspend(self, parts, query) -> None:
        session = self.pool.suspend(parts[1])
        self._send_json(session_summary(session))

    def _post_resume(self, parts, query) -> None:
        session = self.pool.resume(parts[1])
        self._send_json(session_summary(session))

    def _post_fork(self, parts, query) -> None:
        kwargs = parse_fork(self._read_body())
        parent = self.pool.get(parts[1])
        dry_run(parent.fork_scenario(kwargs["events"], kwargs["n_epochs"]),
                parent.backend_name, parent.backend_params,
                parent.base_seed)
        child = self.pool.fork(parts[1], **kwargs)
        self._send_json(session_summary(child), status=201)

    def _get_epochs(self, parts, query) -> None:
        session = self.pool.get(parts[1])
        since = int(query.get("since", 0))
        self._send_json({
            "id": session.session_id,
            "since": since,
            "cursor": session.cursor,
            "state": session.state,
            "epochs": session.epochs_since(since),
        })

    # -- SSE -------------------------------------------------------------------

    def _write_chunk(self, frame: bytes) -> None:
        self.wfile.write(f"{len(frame):x}\r\n".encode() + frame
                         + b"\r\n")
        self.wfile.flush()

    def _get_stream(self, parts, query) -> None:
        session = self.pool.get(parts[1])
        cursor = int(query.get("since", 0))
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        try:
            while True:
                batch = session.epochs_since(cursor)
                for payload in batch:
                    self._write_chunk(sse_frame("epoch", payload,
                                                event_id=cursor))
                    cursor += 1
                with session.updated:
                    drained = (session.cursor <= cursor)
                    state = session.state
                    parked = (state in TERMINAL_STATES
                              or state == "suspended")
                    if drained and not parked:
                        session.updated.wait(timeout=STREAM_POLL_S)
                        continue
                if drained and parked:
                    self._write_chunk(sse_frame("end", {
                        "state": state,
                        "cursor": cursor,
                        "error": session.error,
                    }))
                    break
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            pass  # client closed the stream mid-flight
        self.close_connection = True


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default backlog of 5 drops (RST) simultaneous
    # connects once a burst of clients — e.g. 32 SSE streamers plus
    # their submits — lands faster than accept() drains the queue.
    request_queue_size = 128


class ServiceGateway:
    """One pool behind one listening socket.

    ``port=0`` binds an ephemeral port (read it back from ``.port``
    after construction) — what every test and benchmark uses.
    """

    def __init__(self, pool: SessionPool, host: str = "127.0.0.1",
                 port: int = 0, verbose: bool = False) -> None:
        self.pool = pool
        self.verbose = verbose
        self._server = _Server((host, port), _Handler)
        self._server.gateway = self
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Start the pool workers and the listener thread."""
        self.pool.start()
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="service-gateway", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, then stop the workers."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.pool.shutdown()

    def serve_forever(self) -> None:
        """Blocking serve (the ``repro serve`` entry point)."""
        self.pool.start()
        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self._server.server_close()
            self.pool.shutdown()
