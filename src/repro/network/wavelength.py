"""Wavelength occupancy tracking for parallel AWGR planes (§IV-A).

An N-port AWGR dedicates exactly one wavelength to each ordered
(source, destination) port pair, so with P parallel planes a source has
P wavelengths toward each destination (ignoring extra-plane derating).
The :class:`WavelengthAllocator` tracks which of those wavelengths are
occupied by flows and supports the capacity queries the indirect
router needs ("is the direct wavelength from 7 to 3 free?").

Occupancy is tracked at flow granularity: each wavelength carries up to
``flows_per_wavelength`` multiplexed flows (the paper's example encodes
8 sub-slots per wavelength in the piggybacked status vector).
"""

from __future__ import annotations

import base64
import heapq
import zlib
from dataclasses import dataclass

import numpy as np

#: Token value assigned to failed planes so least-loaded selection can
#: never pick them. Far above any real occupancy yet small enough that
#: ``value * planes + plane`` stays well inside int64.
_UNAVAILABLE = np.int64(1) << 40


def encode_array(values: np.ndarray) -> dict:
    """JSON-stable envelope of an integer array for snapshots.

    Holds the dtype, the shape and the zlib-compressed, base64-encoded
    bytes. The dtype is the narrowest that holds the array's value
    range (``np.min_scalar_type``), so equal arrays encode to equal
    envelopes whatever dtype they are kept in, and values that
    outgrow a byte or 16 bits still round-trip exactly.
    """
    if values.dtype.kind not in "iu":
        raise TypeError(f"cannot encode {values.dtype} array")
    lo, hi = (int(values.min()), int(values.max())) if values.size else (0, 0)
    # A signed type that holds -(hi + 1) also holds hi.
    dtype = np.min_scalar_type(hi if lo >= 0 else min(lo, -hi - 1))
    data = np.ascontiguousarray(values, dtype=dtype).tobytes()
    return {"dtype": dtype.str, "shape": list(values.shape),
            "data": base64.b64encode(zlib.compress(data)).decode("ascii")}


def decode_array(payload: dict) -> np.ndarray:
    """Inverse of :func:`encode_array` (accepts JSON-decoded dicts)."""
    raw = zlib.decompress(base64.b64decode(payload["data"]))
    shape = tuple(int(size) for size in payload["shape"])
    dtype = np.dtype(payload["dtype"])
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


@dataclass
class WavelengthAllocator:
    """Tracks per-(src, dst, plane) wavelength occupancy.

    Parameters
    ----------
    n_nodes:
        Attached MCM/endpoint count.
    planes:
        Parallel AWGR planes; each contributes one wavelength per
        ordered pair.
    flows_per_wavelength:
        Multiplexing sub-slots per wavelength (8 in the paper's
        status-vector sizing).
    gbps_per_wavelength:
        Line rate of one wavelength.
    """

    n_nodes: int
    planes: int = 5
    flows_per_wavelength: int = 8
    gbps_per_wavelength: float = 25.0

    def __post_init__(self) -> None:
        if self.n_nodes <= 1:
            raise ValueError("need at least two nodes")
        if self.planes <= 0:
            raise ValueError("planes must be positive")
        if self.flows_per_wavelength <= 0:
            raise ValueError("flows_per_wavelength must be positive")
        # occupancy[src, dst, plane] = sub-slots in use on that wavelength.
        self._occupancy = np.zeros(
            (self.n_nodes, self.n_nodes, self.planes), dtype=np.int32)
        # used[src, dst] = occupancy[src, dst].sum(): every write keeps
        # it in step, so capacity queries gather instead of summing
        # over planes.
        self._used = np.zeros(  # repro-check: derived
            (self.n_nodes, self.n_nodes), dtype=np.int32)
        self._failed_planes: set[int] = set()
        # Boolean in-service mask, kept in sync with _failed_planes so
        # the vectorized paths never rebuild per-call plane lists.
        self._healthy = np.ones(self.planes, dtype=bool)

    # -- queries --------------------------------------------------------------

    def used_slots(self, src: int, dst: int) -> int:
        """Sub-slots in use across all planes for the pair."""
        self._check(src, dst)
        return int(self._used[src, dst])

    def free_slots(self, src: int, dst: int) -> int:
        """Free sub-slots across all planes for the pair."""
        self._check(src, dst)
        total = self.healthy_planes * self.flows_per_wavelength
        return total - self.used_slots(src, dst)

    def free_wavelengths(self, src: int, dst: int) -> int:
        """Healthy wavelengths with no occupancy at all for the pair."""
        self._check(src, dst)
        return int(np.count_nonzero(
            (self._occupancy[src, dst] == 0) & self._healthy))

    def has_capacity(self, src: int, dst: int, slots: int = 1) -> bool:
        """Can the pair absorb ``slots`` more sub-slots?"""
        return self.free_slots(src, dst) >= slots

    def pair_free_gbps(self, src: int, dst: int) -> float:
        """Unused direct bandwidth between the pair."""
        per_slot = self.gbps_per_wavelength / self.flows_per_wavelength
        return self.free_slots(src, dst) * per_slot

    def free_slots_from(self, src: int) -> np.ndarray:
        """(n_nodes,) free sub-slots from ``src`` toward every node."""
        self._check(src, 0)
        total = self.healthy_planes * self.flows_per_wavelength
        return total - self._used[src]

    def free_slots_to(self, dst: int) -> np.ndarray:
        """(n_nodes,) free sub-slots from every node toward ``dst``."""
        self._check(0, dst)
        total = self.healthy_planes * self.flows_per_wavelength
        return total - self._used[:, dst]

    def free_slots_pairs(self, src: np.ndarray,
                         dst: np.ndarray) -> np.ndarray:
        """Free sub-slots of every ``(src[i], dst[i])`` pair — the
        batched form of :meth:`free_slots` for trusted indices."""
        total = self.healthy_planes * self.flows_per_wavelength
        return total - self._used[src, dst]

    def occupancy_bitmap(self, src: int) -> np.ndarray:
        """(n_nodes,) bool array: fully-occupied direct paths from src.

        This is the one-hot status vector a source piggybacks (§IV-A):
        bit d set means the source's wavelengths toward d are all busy.
        """
        self._check(src, 0)
        total = self.healthy_planes * self.flows_per_wavelength
        return self._used[src] >= total

    def slot_bitmap(self, src: int) -> np.ndarray:
        """(n_nodes,) int array of used sub-slots from ``src``.

        The richer multi-bit status vector ("8 bits per wavelength ...
        256 bytes" in the paper's sizing example).
        """
        self._check(src, 0)
        return self._used[src].copy()

    def slot_bitmaps(self, srcs: np.ndarray) -> np.ndarray:
        """(len(srcs), n_nodes) used sub-slot counts, one row per
        source — the batched form of :meth:`slot_bitmap`, used to
        deliver a whole slot's due status broadcasts at once."""
        srcs = np.asarray(srcs, dtype=np.intp)
        if srcs.size and (srcs.min() < 0 or srcs.max() >= self.n_nodes):
            raise IndexError("source index out of range")
        return self._used[srcs]

    # -- mutation --------------------------------------------------------------

    def allocate(self, src: int, dst: int, slots: int = 1) -> list[int]:
        """Occupy ``slots`` sub-slots on the pair's least-loaded planes.

        Returns the plane indices used (one entry per slot). Raises
        ``RuntimeError`` when capacity is insufficient — callers must
        check :meth:`has_capacity` (or catch) to model blocking.

        Each sub-slot pops the least ``(level, plane)`` entry of a heap
        over the healthy planes and pushes it back one level higher,
        so ties break toward the lowest plane index. This is the fill
        :meth:`allocate_pairs` replays in closed form, done on a plain
        list: a routed hop takes a handful of slots, where numpy's
        per-call overhead outweighs the work.
        """
        self._check(src, dst)
        if slots <= 0:
            raise ValueError("slots must be positive")
        if not self.has_capacity(src, dst, slots):
            raise RuntimeError(
                f"no capacity for {slots} slots on pair ({src}, {dst})")
        row = self._occupancy[src, dst].tolist()
        heap = [(level, plane) for plane, level in enumerate(row)
                if plane not in self._failed_planes]
        heapq.heapify(heap)
        used = []
        for _ in range(slots):
            level, plane = heap[0]
            heapq.heapreplace(heap, (level + 1, plane))
            row[plane] = level + 1
            used.append(plane)
        self._occupancy[src, dst] = row
        self._used[src, dst] += slots
        return used

    def allocate_pairs(self, src: np.ndarray, dst: np.ndarray,
                       totals: np.ndarray) -> np.ndarray:
        """Bulk least-loaded allocation over *distinct* (src, dst) pairs.

        Replays, in one vectorized shot, exactly what sequential
        :meth:`allocate` calls totalling ``totals[u]`` sub-slots on
        each pair would do. Returns an ``(len(src), totals.max())``
        int array whose row ``u`` lists the planes in assignment
        order, padded with -1. Occupancy is updated in place.

        The fill is computed in closed form: the t-th sub-slot of a
        sequential least-loaded fill always takes the t-th smallest
        token ``(occupancy + j, plane)`` over healthy planes ``p`` and
        increments ``j``, so selecting each pair's ``totals[u]``
        smallest tokens (``argpartition``) and ordering them
        reproduces the sequential assignment exactly, ties broken
        toward the lowest plane index.

        Callers must guarantee pair distinctness, positive totals, and
        per-pair capacity — this is the trusted inner loop of
        :meth:`repro.network.simulator.AWGRNetworkSimulator.offer_batch`.
        """
        max_total = int(totals.max())
        p = self.planes
        if max_total == 1:
            # Hot case (single sub-slot per pair): the token sort
            # degenerates to one least-loaded argmin per pair.
            occ = self._occupancy[src, dst]
            plane = np.where(self._healthy, occ, _UNAVAILABLE).argmin(axis=1)
            self._occupancy[src, dst, plane] += 1
            self._used[src, dst] += 1
            return plane[:, None]
        seq = np.full((len(src), max_total), -1, dtype=np.int64)
        single = totals == 1
        if single.any():
            seq[single, :1] = self.allocate_pairs(
                src[single], dst[single], totals[single])
        multi = np.flatnonzero(~single)
        m = len(multi)
        m_src, m_dst, m_totals = src[multi], dst[multi], totals[multi]
        occ = self._occupancy[m_src, m_dst].astype(np.int64)  # (m, p)
        vals = occ[:, :, None] + np.arange(
            max_total, dtype=np.int64)[None, None, :]
        vals[:, ~self._healthy, :] = _UNAVAILABLE
        keys = (vals * p + np.arange(p, dtype=np.int64)[None, :, None]
                ).reshape(m, p * max_total)
        part = np.argpartition(keys, max_total - 1, axis=1)[:, :max_total]
        sub = np.take_along_axis(keys, part, axis=1)
        idx = np.take_along_axis(part, np.argsort(sub, axis=1), axis=1)
        m_seq = idx // max_total  # keys laid out plane-major per pair
        mask = np.arange(max_total)[None, :] < m_totals[:, None]
        rows = np.arange(m).repeat(m_totals)
        counts = np.bincount(rows * p + m_seq[mask], minlength=m * p)
        self._occupancy[m_src, m_dst] += counts.reshape(m, p)
        self._used[m_src, m_dst] += m_totals
        m_seq[~mask] = -1
        seq[multi] = m_seq
        return seq

    def release(self, src: int, dst: int, planes: list[int]) -> None:
        """Release previously allocated sub-slots."""
        self._check(src, dst)
        for plane in planes:
            if not 0 <= plane < self.planes:
                raise ValueError(f"plane {plane} out of range")
            if self._occupancy[src, dst, plane] <= 0:
                raise RuntimeError(
                    f"release underflow on ({src}, {dst}) plane {plane}")
            self._occupancy[src, dst, plane] -= 1
            self._used[src, dst] -= 1

    def release_tokens(self, src: np.ndarray, dst: np.ndarray,
                       planes: np.ndarray) -> None:
        """Bulk release of (src, dst, plane) sub-slot tokens.

        The vectorized counterpart of :meth:`release` for the batched
        admission path: one scatter subtract instead of a per-token
        loop, with the same underflow guarantee (checked on the
        touched wavelengths only).
        """
        if len(src) == 0:
            return
        flat_idx = (src * self.n_nodes + dst) * self.planes + planes
        unique, counts = np.unique(flat_idx, return_counts=True)
        flat = self._occupancy.reshape(-1)
        if (flat[unique] < counts).any():
            raise RuntimeError("bulk release underflow")
        flat[unique] -= counts.astype(flat.dtype)
        # ``unique`` is sorted, so each pair's tokens are adjacent.
        pair = unique // self.planes
        first = np.flatnonzero(np.diff(pair, prepend=-1))
        self._used.reshape(-1)[pair[first]] -= np.add.reduceat(counts, first)

    def reset(self) -> None:
        """Clear all occupancy (failed planes stay failed)."""
        self._occupancy.fill(0)
        self._used.fill(0)

    # -- snapshot / restore ------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-stable capture of all mutable state.

        Occupancy counts and the failed-plane set are the allocator's
        entire mutable surface; everything else is construction-time
        configuration. The dict round-trips losslessly through the
        result cache's JSON encoding: the occupancy travels as an
        :func:`encode_array` envelope, the failed planes as ints.
        """
        return {"occupancy": encode_array(self._occupancy),
                "failed_planes": sorted(self._failed_planes)}

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (accepts JSON-decoded dicts).

        The allocator must have the same dimensions the snapshot was
        taken with; occupancy is copied in place so any views other
        components hold stay valid.
        """
        occupancy = decode_array(state["occupancy"])
        if occupancy.shape != self._occupancy.shape:
            raise ValueError(
                f"snapshot occupancy shape {occupancy.shape} does not "
                f"match allocator shape {self._occupancy.shape}")
        failed = {int(p) for p in state["failed_planes"]}
        if any(not 0 <= p < self.planes for p in failed):
            raise ValueError("snapshot failed plane out of range")
        self._occupancy[...] = occupancy
        self._used[...] = self._occupancy.sum(axis=2)
        self._failed_planes = failed
        self._healthy = np.ones(self.planes, dtype=bool)
        if failed:
            self._healthy[sorted(failed)] = False

    # -- failure injection -------------------------------------------------------

    @property
    def healthy_planes(self) -> int:
        """Planes currently in service."""
        return self.planes - len(self._failed_planes)

    @property
    def failed_planes(self) -> frozenset[int]:
        """Indices of failed planes."""
        return frozenset(self._failed_planes)

    def fail_plane(self, plane: int) -> list[tuple[int, int, int]]:
        """Take an AWGR plane out of service (device failure).

        Returns the (src, dst, slots) occupancy that was riding the
        plane — those flows are dropped and must be re-routed by the
        caller. At least one plane must remain healthy.
        """
        if not 0 <= plane < self.planes:
            raise ValueError(f"plane {plane} out of range")
        if plane in self._failed_planes:
            raise RuntimeError(f"plane {plane} already failed")
        if self.healthy_planes <= 1:
            raise RuntimeError("cannot fail the last healthy plane")
        occ = self._occupancy[:, :, plane]
        srcs, dsts = np.nonzero(occ)
        dropped = list(zip(srcs.tolist(), dsts.tolist(),
                           occ[srcs, dsts].tolist()))
        self._used -= occ
        occ.fill(0)
        self._failed_planes.add(plane)
        self._healthy[plane] = False
        return dropped

    def repair_plane(self, plane: int) -> None:
        """Return a failed plane to service."""
        if plane not in self._failed_planes:
            raise RuntimeError(f"plane {plane} is not failed")
        self._failed_planes.discard(plane)
        self._healthy[plane] = True

    # -- utilization metrics ----------------------------------------------------

    def utilization(self) -> float:
        """Fraction of healthy sub-slots in use (diagonal excluded)."""
        total = (self.n_nodes * (self.n_nodes - 1)
                 * self.healthy_planes * self.flows_per_wavelength)
        diag = int(np.einsum("iip->", self._occupancy))
        return (int(self._occupancy.sum()) - diag) / total

    def _check(self, src: int, dst: int) -> None:
        if not 0 <= src < self.n_nodes:
            raise ValueError(f"src {src} out of range")
        if not 0 <= dst < self.n_nodes:
            raise ValueError(f"dst {dst} out of range")
