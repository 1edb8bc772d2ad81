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
class OccupancyBoard:
    """One source's (possibly stale) view of everyone's occupancy.

    ``view[s, d]`` is the used-sub-slot count from source ``s`` to
    destination ``d`` as last heard. ``age[s]`` is how many slots ago
    source ``s``'s vector was refreshed.
    """

    n_nodes: int
    slots_per_pair: int

    def __post_init__(self) -> None:
        self.view = np.zeros((self.n_nodes, self.n_nodes), dtype=np.int32)
        self.age = np.zeros(self.n_nodes, dtype=np.int64)

    def refresh_from(self, src: int, slot_bitmap: np.ndarray) -> None:
        """Install a fresh status vector heard from ``src``."""
        if slot_bitmap.shape != (self.n_nodes,):
            raise ValueError("status vector has wrong shape")
        self.view[src] = slot_bitmap
        self.age[src] = 0

    def tick(self) -> None:
        """Advance time by one slot (ages all rows)."""
        self.age += 1

    def believed_free(self, src: int, dst: int, slots: int = 1) -> bool:
        """Does this view think (src -> dst) has ``slots`` free sub-slots?"""
        return self.view[src, dst] + slots <= self.slots_per_pair

    def status_bytes(self, bits_per_pair: int = 8) -> int:
        """Size of one piggybacked status vector in bytes.

        Reproduces the paper's example: 256 destinations x 8 bits =
        256 bytes.
        """
        return self.n_nodes * bits_per_pair // 8


@dataclass
class PiggybackState:
    """Global staleness model: the piggybacked view every source holds.

    A due source's status vector reaches every other source on the
    AWGR in the same slot, so the per-source views are always equal:
    one :class:`OccupancyBoard` holds them all, and :meth:`board_of`
    returns it for any node.

    Parameters
    ----------
    allocator:
        Ground-truth occupancy.
    update_period:
        Slots between status broadcasts. 1 = always-fresh state
        (idealized); larger values inject staleness.
    jitter:
        Optional per-source phase offset so all sources do not refresh
        on the same slot (more realistic piggybacking).
    """

    allocator: WavelengthAllocator
    update_period: int = 1
    jitter: bool = True
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.update_period <= 0:
            raise ValueError("update_period must be positive")
        n = self.allocator.n_nodes
        slots = self.allocator.planes * self.allocator.flows_per_wavelength
        self.board = OccupancyBoard(n, slots)
        rng = np.random.default_rng(self.rng_seed)
        if self.jitter and self.update_period > 1:
            self._phase = rng.integers(0, self.update_period, size=n)
        else:
            self._phase = np.zeros(n, dtype=int)
        self._now = 0
        self.broadcast_all()

    # -- time ------------------------------------------------------------------

    def step(self) -> None:
        """Advance one slot: age the view, deliver due broadcasts.

        The due sources' status vectors are gathered in one batched
        :meth:`~repro.network.wavelength.WavelengthAllocator.slot_bitmaps`
        read and installed with one row assignment.
        """
        self._now += 1
        self.board.tick()
        due = np.flatnonzero(
            (self._now + self._phase) % self.update_period == 0)
        if due.size:
            self.board.view[due] = self.allocator.slot_bitmaps(due)
            self.board.age[due] = 0

    def broadcast_all(self) -> None:
        """Deliver fresh state from every source (e.g. at t=0)."""
        srcs = np.arange(self.allocator.n_nodes)
        self.board.view[...] = self.allocator.slot_bitmaps(srcs)
        self.board.age[...] = 0

    # -- snapshot / restore ------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-stable capture of the board plus the broadcast clock.

        The per-source jitter phases are included because they are
        drawn from the constructor's RNG: a restored instance built
        with a different seed must still broadcast on the original
        schedule. The board's arrays travel as
        :func:`~repro.network.wavelength.encode_array` envelopes.
        """
        return {
            "now": self._now,
            "phase": [int(p) for p in self._phase],
            "board": {"view": encode_array(self.board.view),
                      "age": encode_array(self.board.age)},
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (accepts JSON-decoded dicts)."""
        view = decode_array(state["board"]["view"])
        age = decode_array(state["board"]["age"])
        board = self.board
        if view.shape != board.view.shape or age.shape != board.age.shape:
            raise ValueError(
                f"snapshot board shapes {view.shape} / {age.shape} do "
                f"not match {board.view.shape} / {board.age.shape}")
        self._now = int(state["now"])
        self._phase = np.asarray(state["phase"], dtype=np.int64)
        board.view[...] = view
        board.age[...] = age

    # -- queries ---------------------------------------------------------------

    def board_of(self, node: int) -> OccupancyBoard:
        """The view held by ``node`` (the same board for every node)."""
        return self.board

    def max_staleness(self) -> int:
        """Oldest view age (slots)."""
        return int(self.board.age.max())

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
