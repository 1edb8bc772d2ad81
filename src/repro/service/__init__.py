"""Fabric-sim-as-a-service: sessions, pooling, HTTP gateway, client.

The service layer turns the batch scenario engine into a long-running
multiplexed simulator: a :class:`~repro.service.sessions.Session` is
a scenario config + backend snapshot + epoch cursor, a
:class:`~repro.service.pool.SessionPool` time-slices many of them
fairly over a few worker threads, and
:class:`~repro.service.gateway.ServiceGateway` exposes the whole
thing over a dependency-free stdlib HTTP API with SSE epoch
streaming. Suspend/resume/fork all reduce to the PR 5 snapshot
guarantee: restore + step is bit-identical to never stopping.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.gateway import ServiceGateway
from repro.service.pool import SessionNotFound, SessionPool
from repro.service.sessions import SESSION_STATES, Session, SessionStore

__all__ = [
    "SESSION_STATES",
    "ServiceClient",
    "ServiceError",
    "ServiceGateway",
    "Session",
    "SessionNotFound",
    "SessionPool",
    "SessionStore",
]
