"""Shared-cache scale-out: one content hash and one fan-out.

Sweeps (:class:`~repro.experiments.runner.SweepRunner`) and chunked
scenario replays (:class:`~repro.scenarios.sharding.ShardedScenarioRunner`)
scale out the same way: no coordinator, just a shared cache
directory. Every entry is named by the content hash of its key
(:func:`key_hash`; the service's session records too), and sweep
tasks and reset-mode chunks run inline or on a process pool
(:func:`fan_out`), each result streaming back the moment it exists so
it is cached before the next one finishes.

This module imports only the standard library, so
:mod:`repro.scenarios` and :mod:`repro.service` use it without loading
:mod:`repro.experiments`.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, Callable, Iterable, Iterator, Mapping


def _canonical(value: Any) -> Any:
    """Reduce a config value to a canonical JSON-stable form."""
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    raise TypeError(f"config value {value!r} is not JSON-stable")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(_canonical(obj), sort_keys=True,
                      separators=(",", ":"))


def stable_hash(obj: Any) -> str:
    """Hex digest of an object's canonical JSON; stable across runs
    (unlike ``hash()``, which Python salts per process)."""
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def key_hash(key: Any) -> str:
    """Content hash of a cache key: anything with ``spec_name``,
    ``version`` and ``config`` attributes (a sweep task, a replay
    chunk, a service session). Result-cache file names start with it.
    """
    return stable_hash({"spec": key.spec_name, "version": key.version,
                        "config": key.config})


def fan_out(fn: Callable[..., Any], calls: Iterable[tuple], workers: int
            ) -> Iterator[tuple[tuple, Any, Exception | None]]:
    """Run ``fn(*args)`` for each ``args`` in ``calls``, yielding
    ``(args, result, None)`` or ``(args, None, exception)`` per call in
    completion order.

    One worker runs the calls inline, in order. More fan them out over
    a process pool, so ``fn`` and its arguments must pickle. A worker
    process that dies outright (a segfault, ``os._exit``) breaks the
    pool: every call whose result had not come back yet fails with
    ``BrokenProcessPool``, and the results that had are yielded as
    usual. Only ``Exception`` is caught: a ``BaseException`` such as
    ``KeyboardInterrupt`` stops the whole fan-out.
    """
    calls = list(calls)
    if workers == 1 or not calls:
        for args in calls:
            try:
                result, error = fn(*args), None
            except Exception as exc:
                result, error = None, exc
            yield args, result, error
        return
    with ProcessPoolExecutor(max_workers=min(workers, len(calls))) as pool:
        futures = {pool.submit(fn, *args): args for args in calls}
        for future in as_completed(futures):
            try:
                result, error = future.result(), None
            except Exception as exc:
                result, error = None, exc
            yield futures[future], result, error
