"""The allocator's per-pair counts stay the plane sum of its occupancy.

``WavelengthAllocator._used`` is kept beside ``_occupancy`` so that
capacity queries gather one count instead of summing over planes.
After any generated sequence of the allocator's writes —
``allocate``'s fill, both branches of ``allocate_pairs``, ``release``,
``release_tokens``, ``reset``, ``restore``, ``fail_plane`` and
``repair_plane`` — the two must agree.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.wavelength import WavelengthAllocator

N_NODES = 4

OPERATIONS = ("allocate", "allocate_pairs", "release", "release_tokens",
              "reset", "restore", "fail_plane", "repair_plane")


def free_pairs(alloc: WavelengthAllocator) -> list[tuple[int, int]]:
    return [(s, d) for s in range(N_NODES) for d in range(N_NODES)
            if alloc.free_slots(s, d) > 0]


def apply(alloc: WavelengthAllocator, op: str, data, tokens: list,
          saved: dict) -> None:
    """One write on ``alloc``; ``tokens`` tracks the held (src, dst,
    plane) sub-slots so releases stay valid."""
    if op == "allocate":
        pairs = free_pairs(alloc)
        if pairs:
            s, d = data.draw(st.sampled_from(pairs))
            slots = data.draw(st.integers(1, alloc.free_slots(s, d)))
            tokens += [(s, d, p) for p in alloc.allocate(s, d, slots)]
    elif op == "allocate_pairs":
        pairs = free_pairs(alloc)
        if pairs:
            chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1,
                                        unique=True))
            totals = np.array([data.draw(st.integers(
                1, alloc.free_slots(s, d))) for s, d in chosen])
            src = np.array([s for s, _ in chosen])
            dst = np.array([d for _, d in chosen])
            seq = alloc.allocate_pairs(src, dst, totals)
            for (s, d), row in zip(chosen, seq.tolist()):
                tokens += [(s, d, p) for p in row if p >= 0]
    elif op == "release":
        if tokens:
            s, d, _ = data.draw(st.sampled_from(tokens))
            mine = [t for t in tokens if t[:2] == (s, d)]
            picked = data.draw(st.lists(st.sampled_from(mine), min_size=1,
                                        max_size=len(mine)))
            picked = [t for t in mine if t in picked]  # no over-release
            alloc.release(s, d, [p for (_, _, p) in picked])
            for token in picked:
                tokens.remove(token)
    elif op == "release_tokens":
        if tokens:
            picked = sorted(data.draw(st.sets(
                st.integers(0, len(tokens) - 1), min_size=1)))
            rows = np.array([tokens[i] for i in picked])
            alloc.release_tokens(rows[:, 0], rows[:, 1], rows[:, 2])
            for i in reversed(picked):
                del tokens[i]
    elif op == "reset":
        alloc.reset()
        tokens.clear()
    elif op == "restore":
        alloc.restore(json.loads(saved["snapshot"]))
        tokens[:] = saved["tokens"]
    elif op == "fail_plane":
        healthy = [p for p in range(alloc.planes)
                   if p not in alloc.failed_planes]
        if len(healthy) > 1:
            plane = data.draw(st.sampled_from(healthy))
            alloc.fail_plane(plane)
            tokens[:] = [t for t in tokens if t[2] != plane]
    elif op == "repair_plane":
        if alloc.failed_planes:
            alloc.repair_plane(data.draw(st.sampled_from(
                sorted(alloc.failed_planes))))


@given(planes=st.integers(1, 4), flows_per_wavelength=st.integers(1, 3),
       ops=st.lists(st.sampled_from(OPERATIONS), min_size=1, max_size=25),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_counts_equal_plane_sums(planes, flows_per_wavelength, ops, data):
    alloc = WavelengthAllocator(n_nodes=N_NODES, planes=planes,
                                flows_per_wavelength=flows_per_wavelength)
    tokens: list[tuple[int, int, int]] = []
    saved = {"snapshot": json.dumps(alloc.snapshot()), "tokens": []}
    for op in ops:
        apply(alloc, op, data, tokens, saved)
        assert np.array_equal(alloc._used, alloc._occupancy.sum(axis=2))
        if data.draw(st.booleans()):
            saved = {"snapshot": json.dumps(alloc.snapshot()),
                     "tokens": list(tokens)}
