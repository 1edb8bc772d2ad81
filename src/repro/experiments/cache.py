"""JSON result cache for sweep tasks.

One file per task, keyed by the stable hash of (spec name, version,
config): re-running an identical sweep is pure cache reads, while any
config / version change misses naturally. Files are human-readable
JSON so cached sweeps double as raw experiment records.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

from repro.experiments.spec import SweepTask

#: Bump to invalidate every cache entry on disk (serializer changes).
CACHE_FORMAT = 1


class SweepJSONEncoder(json.JSONEncoder):
    """JSON encoder that flattens numpy scalars/arrays to plain types."""

    def default(self, o: Any) -> Any:
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, np.floating):
            return float(o)
        if isinstance(o, np.bool_):
            return bool(o)
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, (set, frozenset)):
            return sorted(o)
        return super().default(o)


def encode_metrics(metrics: dict) -> str:
    """Serialize a metrics dict exactly as the cache stores it.

    Key order is preserved so cached sweep rows render with the same
    column order as freshly computed ones.
    """
    return json.dumps(metrics, cls=SweepJSONEncoder, indent=1)


def decode_metrics(payload: str) -> dict:
    """Inverse of :func:`encode_metrics`."""
    return json.loads(payload)


class ResultCache:
    """Directory-backed task-result cache.

    Parameters
    ----------
    root:
        Cache directory (created if missing). Entries stay until
        :meth:`clear` removes them.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, task: SweepTask) -> Path:
        """File that does / would hold this task's result."""
        return (self.root
                / f"{task.spec_name}-{task.config_hash[:20]}.json")

    def load(self, task: SweepTask) -> dict | None:
        """Return cached metrics for the task, or None on miss.

        Entries written by an older cache format, a different spec
        version, a different config (hash collision guard), or a
        different derived seed are treated as misses. The version
        check is explicit — the truncated path hash usually separates
        versions already, but the stored field is the guarantee.
        """
        path = self.path_for(task)
        try:
            entry = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        if (entry.get("format") != CACHE_FORMAT
                or entry.get("version") != task.version
                or entry.get("config") != json.loads(
                    encode_metrics(dict(task.config)))
                or entry.get("seed") != task.seed):
            return None
        return entry["metrics"]

    def store(self, task: SweepTask, metrics: dict) -> Path:
        """Persist one task's metrics (atomic rename)."""
        entry = {
            "format": CACHE_FORMAT,
            "spec": task.spec_name,
            "version": task.version,
            "config": task.config,
            "seed": task.seed,
            "metrics": metrics,
        }
        payload = json.dumps(entry, cls=SweepJSONEncoder, indent=1)
        path = self.path_for(task)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        return path

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed.

        Tolerates entries another process removes concurrently (a
        clear racing this one).
        """
        removed = 0
        for path in self.root.glob("*.json"):
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))
