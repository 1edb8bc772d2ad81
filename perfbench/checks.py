"""Correctness gate: epoch digests, report invariants, pinned streams.

Every simulated stream the benchmark produces is reduced to one digest
per epoch: the SHA-256 of the ``EpochReport.to_dict()`` payload as
canonical JSON. A library run, a restored backend and an SSE frame of
the same epoch all hash the same, so streams from different entry
points compare bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

PINNED = Path(__file__).with_name("pinned.json")

#: Hex digits kept per epoch digest (64 bits).
DIGEST_HEX = 16


def digest(payload: dict) -> str:
    """Digest of one ``EpochReport.to_dict()`` payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_HEX]


def violations(payload: dict) -> list[str]:
    """Report invariants one epoch payload breaks (empty when sound)."""
    bad = []
    offered, carried = payload["offered"], payload["carried"]
    if carried + payload["blocked"] != offered:
        bad.append("carried + blocked != offered")
    if not 0 <= carried <= offered:
        bad.append("carried outside [0, offered]")
    if len(payload["slowdowns"]) != carried:
        bad.append("one slowdown per carried flow expected")
    numbers = ([payload["offered_gbps"], payload["carried_gbps"]]
               + payload["slowdowns"])
    if not all(math.isfinite(x) for x in numbers):
        bad.append("non-finite value")
    if any(s < 1.0 for s in payload["slowdowns"]):
        bad.append("slowdown below 1")
    if payload["carried_gbps"] > payload["offered_gbps"] * (1 + 1e-9):
        bad.append("carried_gbps above offered_gbps")
    return bad


class Gate:
    """Counts attempted and failed operations and keeps the reasons.

    An operation is one epoch or one HTTP request. An epoch fails if
    its payload breaks an invariant or differs from the stream it must
    equal; a failed epoch is counted once however many checks it
    fails.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self._failed: set = set()
        self._merged_failed = 0
        self.reasons: list[str] = []

    @property
    def failed(self) -> int:
        return len(self._failed) + self._merged_failed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def fail(self, key, reason: str) -> None:
        if key not in self._failed and len(self.reasons) < 20:
            self.reasons.append(reason)
        self._failed.add(key)

    def epochs(self, stream: str, payloads: list[dict]) -> list[str]:
        """Count a stream's epochs, check invariants, return digests."""
        self.attempted += len(payloads)
        digests = []
        for i, payload in enumerate(payloads):
            for problem in violations(payload):
                self.fail((stream, i), f"{stream} epoch {i}: {problem}")
            digests.append(digest(payload))
        return digests

    def equal(self, stream: str, got: list[str], want: list[str],
              offset: int = 0) -> None:
        """Fail every epoch of ``got`` that differs from ``want``.

        ``got[i]`` is epoch ``offset + i`` of the stream; a length
        mismatch fails the missing or surplus epochs.
        """
        for i in range(max(len(got), len(want))):
            if i >= len(got) or i >= len(want) or got[i] != want[i]:
                self.fail((stream, offset + i),
                          f"{stream} epoch {offset + i} differs from "
                          "the reference stream")

    def merge(self, counts: dict) -> None:
        """Add a worker process's ``{attempted, failed, reasons}``."""
        self.attempted += counts["attempted"]
        self._merged_failed += counts["failed"]
        self.reasons.extend(counts["reasons"][:20 - len(self.reasons)])

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "reasons": self.reasons}

    def request(self, ok: bool, what: str) -> None:
        """Count one HTTP request; ``ok`` is False on a non-2xx
        answer or a wrong end state."""
        self.attempted += 1
        if not ok:
            self.fail(("request", self.attempted), what)


def load_pinned() -> dict:
    """``{key: [digest, ...]}`` pinned at each workload's default seed."""
    try:
        return json.loads(PINNED.read_text())
    except FileNotFoundError:
        return {}
