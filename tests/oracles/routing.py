"""Per-flow routing oracles for the indirect router.

Two reference implementations, each kept verbatim:

* ``route_core`` is the :class:`~repro.network.routing.IndirectRouter`
  walk that allocated each mispredicted candidate's first hop,
  recursed into the intermediate's own indirect routing and released
  the hop again when that fallback blocked. Production now picks the
  path first and allocates only its hops. ``self`` became ``router``
  and the router's ``max_fallback_depth`` field became
  :data:`MAX_FALLBACK_DEPTH`, the paper's single second-intermediate
  fallback. ``route`` adds the source-equals-destination check.
* :class:`ScalarIndirectRouter` adds ``route_flow``/``release`` and
  their :class:`RouteDecision` objects: the per-flow API the
  simulator's scalar admission loop used, twin of the object-free
  :meth:`~repro.network.routing.IndirectRouter.route_tokens`.
  :class:`RouteKind` labels a decision; production carries the plain
  int codes :data:`~repro.network.routing.DIRECT` ...
  :data:`~repro.network.routing.BLOCKED`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.network.routing import (
    BLOCKED,
    DIRECT,
    DOUBLE_INDIRECT,
    INDIRECT,
    IndirectRouter,
)

MAX_FALLBACK_DEPTH = 1


class RouteKind(Enum):
    """How a flow ended up being carried."""

    DIRECT = "direct"
    INDIRECT = "indirect"          # one intermediate
    DOUBLE_INDIRECT = "double"     # stale-state fallback, two intermediates
    BLOCKED = "blocked"


#: Production's int kind codes, in order, as :class:`RouteKind` labels.
_KIND_BY_CODE = (RouteKind.DIRECT, RouteKind.INDIRECT,
                 RouteKind.DOUBLE_INDIRECT, RouteKind.BLOCKED)


@dataclass(frozen=True)
class RouteDecision:
    """Outcome of routing one flow.

    ``path`` lists the node sequence (src, [mid...,] dst) when carried;
    ``reservations`` records (src, dst, planes) tuples to release later.
    """

    kind: RouteKind
    path: tuple[int, ...]
    reservations: tuple[tuple[int, int, tuple[int, ...]], ...] = ()
    used_stale_fallback: bool = False

    @property
    def hops(self) -> int:
        """Photonic hops taken (0 when blocked)."""
        return max(0, len(self.path) - 1)


class ScalarIndirectRouter(IndirectRouter):
    """:class:`IndirectRouter` with the per-flow decision-object API."""

    def route_flow(self, src: int, dst: int, slots: int = 1) -> RouteDecision:
        """Route one flow of ``slots`` sub-slots from ``src`` to ``dst``.

        Tries the direct wavelength first (§IV-A: "sources consider
        indirect paths only if the direct bandwidth ... does not
        suffice"), then a Valiant-chosen intermediate, then the
        intermediate's own fallback.
        """
        if src == dst:
            raise ValueError("source equals destination")
        code, path = self._route_core(src, dst, slots)
        decision = RouteDecision(
            kind=_KIND_BY_CODE[code], path=path,
            reservations=self._reserve(path, slots),
            used_stale_fallback=code == DOUBLE_INDIRECT)
        return decision

    def release(self, decision: RouteDecision) -> None:
        """Release every reservation of a carried flow."""
        for (a, b, planes) in decision.reservations:
            self.allocator.release(a, b, list(planes))


def route(router: IndirectRouter, src: int, dst: int, slots: int = 1
          ) -> tuple[int, tuple[int, ...], tuple, bool]:
    """Route one flow on ``router``'s allocator, state and RNG:
    (code, path, reservations, used_stale_fallback)."""
    if src == dst:
        raise ValueError("source equals destination")
    return route_core(router, src, dst, slots, depth=0)


def route_core(router: IndirectRouter, src: int, dst: int, slots: int,
               depth: int) -> tuple[int, tuple[int, ...], tuple, bool]:
    """One flow's routing as plain data: (code, path, reservations,
    used_stale_fallback).

    The candidate walk is vectorized: after the Valiant shuffle,
    ground-truth second-hop availability is evaluated for *every*
    candidate in one array comparison, so the chosen intermediate
    is found with a single scan instead of per-candidate
    ``has_capacity`` calls. Only the mispredicted prefix —
    candidates the (stale) local view endorsed whose onward hop is
    actually busy — is walked one by one, because each triggers
    the paper's §IV-A fallback recursion.

    The one-shot scan is exact because nothing that happens during
    the walk can change column ``dst`` of the occupancy before a
    later candidate is considered: first-hop (src, mid)
    allocations never touch it (mid != dst), and a fallback
    recursion either succeeds (we return immediately) or releases
    everything it allocated, leaving occupancy bit-identical to
    the walk's start.
    """
    # 1. Direct wavelength.
    if router.allocator.has_capacity(src, dst, slots):
        planes = router.allocator.allocate(src, dst, slots)
        return (DIRECT if depth == 0 else DOUBLE_INDIRECT,
                (src, dst), ((src, dst, tuple(planes)),), depth > 0)

    # 2. Valiant intermediate per the (possibly stale) local view.
    candidates = router.candidate_intermediates(src, dst, slots)
    router._rng.shuffle(candidates)
    if len(candidates):
        onward_free = (router.allocator.free_slots_to(dst)[candidates]
                       >= slots)
        free = np.flatnonzero(onward_free)
        mispredicted = int(free[0]) if free.size else len(candidates)
        for i in range(mispredicted):
            mid = int(candidates[i])
            if not router.allocator.has_capacity(src, mid, slots):
                # Stale view lied about our own first hop (cannot
                # really happen with per-source truth, but kept
                # for safety).
                continue
            first = router.allocator.allocate(src, mid, slots)
            # Stale information: the onward hop is actually busy.
            # The intermediate performs its own indirect routing
            # (§IV-A).
            router.stale_mispredictions += 1
            if depth < MAX_FALLBACK_DEPTH:
                code, path, reservations, _ = route_core(
                    router, mid, dst, slots, depth + 1)
                if code != BLOCKED:
                    return (DOUBLE_INDIRECT, (src,) + path,
                            ((src, mid, tuple(first)),)
                            + reservations, True)
            router.allocator.release(src, mid, first)
        if mispredicted < len(candidates):
            mid = int(candidates[mispredicted])
            first = router.allocator.allocate(src, mid, slots)
            second = router.allocator.allocate(mid, dst, slots)
            return (INDIRECT if depth == 0 else DOUBLE_INDIRECT,
                    (src, mid, dst),
                    ((src, mid, tuple(first)),
                     (mid, dst, tuple(second))), depth > 0)

    return (BLOCKED, (src,), (), False)
