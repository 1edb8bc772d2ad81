"""Piggybacked occupancy state with staleness (paper §IV-A).

Indirect routing needs each source to know which wavelengths *other*
sources have occupied, so it can pick a productive intermediate hop.
The paper piggybacks each source's one-hot occupancy vector on normal
traffic, broadcasting it to the other sources attached to the same
AWGR a few times a second; pairs that never exchange traffic fall back
to explicit control messages.

Because the broadcast is periodic, a source's view can be *stale*.
:class:`PiggybackState` models that: it snapshots the global
:class:`~repro.network.wavelength.WavelengthAllocator` only every
``update_period`` simulation slots, so decisions in between use old
data — exactly the failure mode the paper's two-stage fallback
(intermediate re-routes through a second intermediate) handles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.wavelength import (
    WavelengthAllocator,
    decode_array,
    encode_array,
)


@dataclass
class PiggybackState:
    """Global staleness model: the piggybacked view every source holds.

    A due source's status vector reaches every other source on the
    AWGR in the same slot, so the per-source views are always equal:
    one array holds them all. ``view[s, d]`` is the used-sub-slot
    count from source ``s`` to destination ``d`` as last heard. How
    stale row ``s`` is follows from the broadcast schedule alone
    (``_now``, ``_phase[s]``, ``update_period``), so no age is kept.

    Parameters
    ----------
    allocator:
        Ground-truth occupancy.
    update_period:
        Slots between status broadcasts. 1 = always-fresh state
        (idealized); larger values inject staleness, and each source
        then broadcasts at a random phase offset drawn from
        ``rng_seed``, so the sources do not all refresh on the same
        slot.
    """

    allocator: WavelengthAllocator
    update_period: int = 1
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.update_period <= 0:
            raise ValueError("update_period must be positive")
        n = self.allocator.n_nodes
        self.view = np.zeros((n, n), dtype=np.int32)
        rng = np.random.default_rng(self.rng_seed)
        if self.update_period > 1:
            self._phase = rng.integers(0, self.update_period, size=n)
        else:
            self._phase = np.zeros(n, dtype=int)
        self._now = 0
        self.broadcast_all()

    # -- time ------------------------------------------------------------------

    def step(self) -> None:
        """Advance one slot and deliver the due broadcasts.

        The due sources' status vectors are gathered in one batched
        :meth:`~repro.network.wavelength.WavelengthAllocator.slot_bitmaps`
        read and installed with one row assignment.
        """
        self._now += 1
        due = np.flatnonzero(
            (self._now + self._phase) % self.update_period == 0)
        if due.size:
            self.view[due] = self.allocator.slot_bitmaps(due)

    def broadcast_all(self) -> None:
        """Deliver fresh state from every source (e.g. at t=0)."""
        srcs = np.arange(self.allocator.n_nodes)
        self.view[...] = self.allocator.slot_bitmaps(srcs)

    # -- snapshot / restore ------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-stable capture of the view plus the broadcast clock.

        The per-source jitter phases are included because they are
        drawn from the constructor's RNG: a restored instance built
        with a different seed must still broadcast on the original
        schedule. The view travels as an
        :func:`~repro.network.wavelength.encode_array` envelope.
        """
        return {
            "now": self._now,
            "phase": [int(p) for p in self._phase],
            "view": encode_array(self.view),
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (accepts JSON-decoded dicts)."""
        view = decode_array(state["view"])
        if view.shape != self.view.shape:
            raise ValueError(
                f"snapshot view shape {view.shape} does not match "
                f"{self.view.shape}")
        self._now = int(state["now"])
        self._phase = np.asarray(state["phase"], dtype=np.int64)
        self.view[...] = view

    # -- queries ---------------------------------------------------------------

    def status_bytes(self, bits_per_pair: int = 8) -> int:
        """Size of one piggybacked status vector in bytes.

        Reproduces the paper's example: 256 destinations x 8 bits =
        256 bytes.
        """
        return self.allocator.n_nodes * bits_per_pair // 8

    def piggyback_overhead_fraction(self, broadcasts_per_second: float = 10.0,
                                    bits_per_pair: int = 8,
                                    wavelength_gbps: float = 25.0) -> float:
        """Bandwidth fraction consumed by status vectors (§IV-A).

        The paper argues this is negligible; with the default 256-node
        sizing, 10 broadcasts/s of a 256-byte vector on a 25 Gbps
        wavelength is ~8e-7 of capacity.
        """
        vector_bits = self.allocator.n_nodes * bits_per_pair
        bits_per_second = vector_bits * broadcasts_per_second
        return bits_per_second / (wavelength_gbps * 1e9)
