"""Indirect (Valiant-style) routing over parallel AWGRs (paper §IV).

A source that needs more bandwidth toward a destination than its
direct wavelengths provide splits traffic across intermediate nodes:
traffic rides the source's direct wavelength to an intermediate ``i``,
then ``i``'s direct wavelength to the destination. Candidates must
look free in *both* hops according to the source's (possibly stale)
piggybacked state; among candidates, one is chosen uniformly at random
in a Valiant fashion, per flow (to keep packets of one flow in order).

When stale state misleads the source and the chosen intermediate's
onward wavelength is actually busy, the intermediate re-routes through
a *second* intermediate (the paper's fallback); a flow whose fallback
also fails is blocked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.state import PiggybackState
from repro.network.wavelength import WavelengthAllocator


#: How a flow ended up being carried: direct, one intermediate, the
#: stale-state fallback through two intermediates, or blocked. Plain
#: ints, which :mod:`repro.network.simulator` stores in its
#: ``BatchDecisions`` arrays.
DIRECT, INDIRECT, DOUBLE_INDIRECT, BLOCKED = range(4)


@dataclass
class IndirectRouter:
    """Per-source routing logic over a shared allocator.

    Parameters
    ----------
    allocator:
        Ground-truth wavelength occupancy (shared by all sources).
    state:
        Piggybacked-view model; when ``None`` the router consults the
        allocator directly (perfect information).
    """

    allocator: WavelengthAllocator
    state: PiggybackState | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.rng_seed)
        self.stale_mispredictions = 0

    # -- public API --------------------------------------------------------------

    def route_tokens(self, src: int, dst: int, slots: int = 1
                     ) -> tuple[int, int, tuple]:
        """Route one flow of ``slots`` sub-slots from ``src`` to ``dst``.

        Tries the direct wavelength first (§IV-A: "sources consider
        indirect paths only if the direct bandwidth ... does not
        suffice"), then a Valiant-chosen intermediate, then the
        intermediate's own fallback, and allocates the chosen path's
        hops. The outcome comes back as plain
        ``(kind_code, hops, reservations)``: kind codes are the
        module-level :data:`DIRECT` ... :data:`BLOCKED` ints and
        ``reservations`` the (a, b, planes) tuples, ready to be
        scattered into sub-slot token arrays. The per-flow twin that
        returned a decision object is ``ScalarIndirectRouter`` in
        ``tests/oracles/routing.py``.
        """
        if src == dst:
            raise ValueError("source equals destination")
        code, path = self._route_core(src, dst, slots)
        return code, len(path) - 1, self._reserve(path, slots)

    def snapshot(self) -> dict:
        """JSON-stable capture of the router's mutable state.

        The Valiant intermediate choice consumes the router RNG per
        indirect flow, so carrying a run across a checkpoint boundary
        requires the exact generator state — ``bit_generator.state``
        is a plain dict of ints and survives JSON round trips
        losslessly (Python ints are arbitrary precision).
        """
        return {
            "rng": self._rng.bit_generator.state,
            "stale_mispredictions": self.stale_mispredictions,
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (accepts JSON-decoded dicts)."""
        self._rng.bit_generator.state = state["rng"]
        self.stale_mispredictions = int(state["stale_mispredictions"])

    def candidate_intermediates(self, src: int, dst: int,
                                slots: int = 1) -> np.ndarray:
        """Intermediates that look free on both hops per src's view.

        Vectorized: the first hop (src -> mid) always uses the source's
        exact occupancy; the second hop (mid -> dst) uses the
        piggybacked view when one exists.
        """
        first_free = self.allocator.free_slots_from(src) >= slots
        if self.state is None:
            second_free = self.allocator.free_slots_to(dst) >= slots
        else:
            total = (self.allocator.planes
                     * self.allocator.flows_per_wavelength)
            second_free = self.state.view[:, dst] + slots <= total
        ok = first_free & second_free
        ok[src] = False
        ok[dst] = False
        return np.nonzero(ok)[0]

    # -- internals ----------------------------------------------------------------

    def _route_core(self, src: int, dst: int, slots: int
                    ) -> tuple[int, tuple[int, ...]]:
        """One flow's (kind code, path); allocates nothing.

        After the Valiant shuffle, ground-truth onward availability is
        evaluated for every candidate in one array comparison, so the
        chosen intermediate is found with a single scan. Only the
        mispredicted prefix — candidates the (stale) local view
        endorsed whose onward hop is actually busy — is walked one by
        one, each running the paper's §IV-A fallback through a second
        intermediate. A mispredicted ``mid`` has no direct capacity
        toward ``dst``, so its fallback starts at the Valiant step. The
        walk writes nothing, so one onward mask of column ``dst``
        serves both levels.

        Two facts make this equal to allocating each mispredicted
        first hop, recursing into its fallback and releasing it:

        * Last level: each of the fallback's own mispredicted
          candidates would be allocated, counted and released, which
          leaves occupancy as it was (every candidate passed the
          first-hop filter), so the level only counts them.
        * Top level: the fallback from ``mid`` reads and writes only
          row ``mid``, row ``mid2`` and column ``dst``, never the pair
          (src, mid): ``mid != dst``, and ``mid2 != src`` because
          (src, dst) had no direct capacity. So the first hop can be
          allocated after the fallback succeeds, and a blocked
          fallback makes no allocator call at all.

        ``tests/oracles/routing.py`` keeps that walk as the
        bit-identity oracle.
        """
        # 1. Direct wavelength.
        if self.allocator.has_capacity(src, dst, slots):
            return DIRECT, (src, dst)

        # 2. Valiant intermediate per the (possibly stale) local view.
        onward = self.allocator.free_slots_to(dst) >= slots
        candidates, hit = self._shuffled_candidates(src, dst, slots, onward)
        for mid in candidates[:hit].tolist():
            # Stale information: the onward hop is actually busy. The
            # intermediate performs its own indirect routing (§IV-A).
            self.stale_mispredictions += 1
            seconds, hit2 = self._shuffled_candidates(
                mid, dst, slots, onward)
            self.stale_mispredictions += hit2
            if hit2 < len(seconds):
                return DOUBLE_INDIRECT, (src, mid, int(seconds[hit2]), dst)
        if hit < len(candidates):
            return INDIRECT, (src, int(candidates[hit]), dst)
        return BLOCKED, (src,)

    def _reserve(self, path: tuple[int, ...], slots: int) -> tuple:
        """Allocate every hop of ``path`` in order; the (a, b, planes)
        reservations to release later."""
        return tuple((a, b, tuple(self.allocator.allocate(a, b, slots)))
                     for a, b in zip(path, path[1:]))

    def _shuffled_candidates(self, src: int, dst: int, slots: int,
                             onward: np.ndarray) -> tuple[np.ndarray, int]:
        """``src``'s candidates in Valiant (shuffled) order, and the
        index of the first whose onward hop is truly free
        (``len(candidates)`` when none is)."""
        candidates = self.candidate_intermediates(src, dst, slots)
        self._rng.shuffle(candidates)
        free = np.flatnonzero(onward[candidates])
        return candidates, int(free[0]) if free.size else len(candidates)
