"""Flow-level slot simulator for the AWGR fabric (§IV, §VI-A).

The simulator advances in discrete slots. Each slot it admits arriving
flows through the :class:`~repro.network.routing.IndirectRouter`,
retires expiring flows, and steps the piggyback state so views age
realistically. It reports how traffic was carried (direct / indirect /
two-intermediate fallback / blocked), delivered bandwidth, and latency
statistics derived from the rack latency model.

This is deliberately a *flow-level* model, not a packet simulator: the
paper's §VI-A argument is about whether wavelength capacity exists for
each demand, which flow-level admission captures, while packet effects
are subsumed in the fixed 35 ns latency adder evaluated separately.

Admission is vectorized per slot
(:meth:`AWGRNetworkSimulator.offer_batch`): one stable sort groups
the slot's flows by (src, dst) pair, and each pair's cumulative demand
is checked against a per-pair threshold of free sub-slots. The least
first-failing flow over all pairs is the next one the router's
``route_tokens`` fallback (itself a vectorized candidate scan) must
take; the direct flows before it are bulk-allocated in one scatter,
and after the route only the routed flow's own pair and the pairs on
its path are re-searched. Because direct admissions touch only their
own (src, dst) wavelengths, the scan is an exact replay of admitting
the flows one at a time: the same :class:`SimulationReport`
aggregates, occupancy, RNG consumption and piggyback state, bit for
bit. ``tests/oracles/simulator.py`` keeps that one-flow-at-a-time loop
as the twin tests' oracle. Admission consumes
:class:`~repro.network.traffic.FlowBatch` arrays and stores every
admitted flow as sub-slot tokens, so a whole epoch runs without
materializing a per-flow Python object.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.network.routing import (
    BLOCKED,
    DIRECT,
    DOUBLE_INDIRECT,
    INDIRECT,
    IndirectRouter,
)
from repro.network.state import PiggybackState
from repro.network.traffic import FlowBatch
from repro.network.wavelength import WavelengthAllocator


def sequential_sum(start: float, values: np.ndarray) -> float:
    """Strict left-to-right float accumulation starting from ``start``.

    ``np.add.accumulate`` must produce every prefix, so it folds left
    to right like a ``+=`` loop — unlike ``np.sum``, whose pairwise
    summation rounds differently. The report builders use this so
    their float aggregates stay *bit-identical* to a per-flow ``+=``
    accumulation.
    """
    if len(values) == 0:
        return start
    return float(np.add.accumulate(
        np.concatenate(((start,), values)))[-1])


@dataclass
class SimulationReport:
    """Aggregate results of one simulation run."""

    slots: int = 0
    offered: int = 0
    carried_direct: int = 0
    carried_indirect: int = 0
    carried_double: int = 0
    blocked: int = 0
    offered_gbps: float = 0.0
    carried_gbps: float = 0.0
    stale_mispredictions: int = 0
    hop_histogram: dict[int, int] = field(default_factory=dict)

    @property
    def carried(self) -> int:
        """All flows that found capacity."""
        return self.carried_direct + self.carried_indirect + self.carried_double

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of offered flows carried.

        A zero-offered run reports 0.0, not 1.0 — an idle run must
        never read as "perfect fabric" in benchmark tables (the same
        bug the scenario-layer ratios had).
        """
        return self.carried / self.offered if self.offered else 0.0

    @property
    def throughput_ratio(self) -> float:
        """Fraction of offered bandwidth carried (0.0 when idle)."""
        return (self.carried_gbps / self.offered_gbps
                if self.offered_gbps else 0.0)

    @property
    def indirect_fraction(self) -> float:
        """Fraction of carried flows that needed any indirection."""
        if not self.carried:
            return 0.0
        return (self.carried_indirect + self.carried_double) / self.carried

    def as_dict(self) -> dict:
        """Plain-dict view for report rendering."""
        return {
            "slots": self.slots,
            "offered": self.offered,
            "carried": self.carried,
            "direct": self.carried_direct,
            "indirect": self.carried_indirect,
            "double_indirect": self.carried_double,
            "blocked": self.blocked,
            "acceptance_ratio": self.acceptance_ratio,
            "throughput_ratio": self.throughput_ratio,
            "indirect_fraction": self.indirect_fraction,
            "stale_mispredictions": self.stale_mispredictions,
        }


@dataclass
class BatchDecisions:
    """Vectorized outcome of one :meth:`offer_batch` call.

    Arrays are indexed by the batch's flow order: ``kinds`` holds the
    module-level kind codes (:data:`DIRECT` ... :data:`BLOCKED`),
    ``hops`` the photonic hops taken (0 when blocked), ``gbps`` the
    offered bandwidth per flow.
    """

    kinds: np.ndarray
    hops: np.ndarray
    gbps: np.ndarray

    @property
    def carried_mask(self) -> np.ndarray:
        """Boolean mask of flows that found capacity."""
        return self.kinds != BLOCKED


@dataclass
class _DirectBatch:
    """Compact sub-slot token store for one slot's bulk admissions.

    One row per reserved sub-slot: the (src, dst) wavelength pair, the
    plane carrying it, and the local flow index that owns it — enough
    to release everything with one scatter subtract at expiry and to
    drop whole flows when a plane fails, without a Python object per
    flow.
    """

    src: np.ndarray
    dst: np.ndarray
    plane: np.ndarray
    flow: np.ndarray

    def release(self, allocator: WavelengthAllocator) -> None:
        """Return every token to the allocator (flow expiry)."""
        allocator.release_tokens(self.src, self.dst, self.plane)

    def drop_plane(self, allocator: WavelengthAllocator,
                   plane: int) -> int:
        """Drop flows with any token on a failed plane.

        Surviving-plane tokens of dropped flows are released (the
        allocator already zeroed the failed plane's occupancy).
        Returns how many flows were dropped.
        """
        hit = self.plane == plane
        if not hit.any():
            return 0
        doomed_flows = np.unique(self.flow[hit])
        doomed = np.isin(self.flow, doomed_flows)
        live = doomed & ~hit
        allocator.release_tokens(self.src[live], self.dst[live],
                                 self.plane[live])
        keep = ~doomed
        self.src = self.src[keep]
        self.dst = self.dst[keep]
        self.plane = self.plane[keep]
        self.flow = self.flow[keep]
        return int(doomed_flows.size)

    def to_dict(self) -> dict:
        """JSON-stable form (simulator snapshots)."""
        return {"src": self.src.tolist(), "dst": self.dst.tolist(),
                "plane": self.plane.tolist(),
                "flow": self.flow.tolist()}

    @classmethod
    def from_dict(cls, payload: dict) -> "_DirectBatch":
        """Inverse of :meth:`to_dict` (accepts JSON-decoded dicts)."""
        return cls(src=np.asarray(payload["src"], dtype=np.int64),
                   dst=np.asarray(payload["dst"], dtype=np.int64),
                   plane=np.asarray(payload["plane"], dtype=np.int64),
                   flow=np.asarray(payload["flow"], dtype=np.int64))


@dataclass
class AWGRNetworkSimulator:
    """Slot-based admission simulator over parallel AWGR planes.

    Parameters
    ----------
    n_nodes:
        Attached endpoints (MCMs).
    planes:
        Parallel AWGR planes (direct wavelengths per pair).
    flows_per_wavelength:
        Sub-slot multiplexing granularity.
    gbps_per_wavelength:
        Line rate per wavelength.
    state_update_period:
        Piggyback broadcast period in slots (1 = fresh state).
    track_state:
        When false, skip the piggyback view and route with perfect
        information: the §VI-A feasibility question (does wavelength
        capacity exist for each demand?) that
        :mod:`repro.core.placement` asks. Staleness studies keep it
        on.
    """

    n_nodes: int
    planes: int = 5
    flows_per_wavelength: int = 8
    gbps_per_wavelength: float = 25.0
    state_update_period: int = 1
    rng_seed: int = 0
    track_state: bool = True

    def __post_init__(self) -> None:
        self.allocator = WavelengthAllocator(
            n_nodes=self.n_nodes, planes=self.planes,
            flows_per_wavelength=self.flows_per_wavelength,
            gbps_per_wavelength=self.gbps_per_wavelength)
        self.state = None
        if self.track_state:
            self.state = PiggybackState(
                self.allocator, update_period=self.state_update_period,
                rng_seed=self.rng_seed)
        self.router = IndirectRouter(
            self.allocator, state=self.state, rng_seed=self.rng_seed)
        # Active flows keyed by expiry slot: step() pops exactly one
        # bucket instead of rebuilding an O(active) list every slot.
        self._buckets: dict[int, list[_DirectBatch]] = {}
        self._now = 0

    @property
    def slot_gbps(self) -> float:
        """Bandwidth of one sub-slot."""
        return self.gbps_per_wavelength / self.flows_per_wavelength

    def _bucket_at(self, duration_slots: int) -> list[_DirectBatch]:
        # Durations below one slot still survive until the next step,
        # matching the historical ``expiry <= now`` retirement check.
        expiry = self._now + max(1, duration_slots)
        bucket = self._buckets.get(expiry)
        if bucket is None:
            bucket = self._buckets[expiry] = []
        return bucket

    # -- admission -----------------------------------------------------------------

    def offer_batch(self, batch: FlowBatch,
                    duration_slots: int = 1) -> BatchDecisions:
        """Admit one slot's flows; they retire after ``duration_slots``.

        Admitting the flows one at a time is replayed exactly. One
        stable sort groups the batch by (src, dst) pair. Each pair
        gets a threshold: its free sub-slots at batch start, plus the
        demand of its flows already sent to the router, minus the
        sub-slots routed flows reserved on it. A flow is direct while
        its pair's cumulative demand, in flow order, stays within the
        threshold, so the next flow the router must take is the least
        first-failing flow over all pairs. The direct flows before it
        are bulk-allocated (the router reads occupancy), it is routed
        through :meth:`IndirectRouter.route_tokens`, and only its own
        pair and the pairs on its path get a new threshold and a new
        first-failing flow: direct admissions touch only their own
        pair, and a routed flow's reservations touch only its path.

        Every admitted flow — direct or indirect — lives on as rows
        of a :class:`_DirectBatch` token store, so expiry and plane
        failures stay pure array compaction with no per-flow Python
        objects.
        """
        n = len(batch)
        kinds = np.full(n, DIRECT, dtype=np.uint8)
        hops = np.ones(n, dtype=np.int64)
        gbps = batch.gbps
        if n == 0:
            return BatchDecisions(kinds=kinds, hops=hops, gbps=gbps)
        src = batch.src
        dst = batch.dst
        # Same endpoint validation WavelengthAllocator._check gives a
        # single allocation (numpy would otherwise wrap negative
        # indices silently).
        if (min(src.min(), dst.min()) < 0
                or max(src.max(), dst.max()) >= self.n_nodes):
            raise ValueError("flow endpoint out of range")
        slots = batch.slots(self.slot_gbps)
        pid = src * self.n_nodes + dst
        bucket = self._bucket_at(duration_slots)
        # The one sort: flows grouped by pair, in flow order within
        # each pair; group g spans sorted positions [lo[g], hi[g]).
        order = np.argsort(pid, kind="stable")
        s_pid = pid[order]
        s_slots = slots[order]
        lo = np.flatnonzero(np.diff(s_pid, prepend=-1))
        hi = np.append(lo[1:], n)
        u_pid = s_pid[lo]
        # Inclusive cumulative demand of each pair, in flow order.
        cumulative = np.cumsum(s_slots)
        within = cumulative - np.repeat((cumulative - s_slots)[lo], hi - lo)
        threshold = self.allocator.free_slots_pairs(
            *np.divmod(u_pid, self.n_nodes))
        ok = within <= np.repeat(threshold, hi - lo)
        # fail[g]: pair g's first flow its threshold cannot take (n if
        # none); flow indices rise within a group, so it is the least.
        fail = np.minimum.reduceat(np.where(ok, n, order), lo)
        # A routed flow updates a few pairs, each with two bisections.
        within_l, order_l, thr = (within.tolist(), order.tolist(),
                                  threshold.tolist())
        lo_l, hi_l = lo.tolist(), hi.tolist()
        group_of = dict(zip(u_pid.tolist(), range(len(lo_l))))
        # Sub-slot tokens of router-carried (indirect) flows, flushed
        # as one _DirectBatch after the scan; flow ids are batch
        # indices, so the whole flow drops together on plane failure.
        tok_src: list[int] = []
        tok_dst: list[int] = []
        tok_plane: list[int] = []
        tok_flow: list[int] = []
        start = 0
        stop = int(fail.min())
        while stop < n:
            self._reserve_direct(order, s_pid, s_slots, start, stop, bucket)
            code, n_hops, reservations = self.router.route_tokens(
                int(src[stop]), int(dst[stop]), int(slots[stop]))
            kinds[stop] = code
            hops[stop] = n_hops
            # The routed flow's demand no longer counts against its
            # pair; its reservations count against the path's pairs.
            own = group_of[int(pid[stop])]
            thr[own] += int(slots[stop])
            touched = {own}
            for (a, b, planes) in reservations:
                tok_src.extend([a] * len(planes))
                tok_dst.extend([b] * len(planes))
                tok_plane.extend(planes)
                tok_flow.extend([stop] * len(planes))
                g = group_of.get(a * self.n_nodes + b)
                if g is not None:
                    thr[g] -= len(planes)
                    touched.add(g)
            start = stop + 1
            for g in touched:
                # First flow at or after ``start`` past the threshold:
                # cumulative demand rises, so once over, always over.
                k = max(bisect_right(within_l, thr[g], lo_l[g], hi_l[g]),
                        bisect_left(order_l, start, lo_l[g], hi_l[g]))
                fail[g] = order_l[k] if k < hi_l[g] else n
            stop = int(fail.min())
        self._reserve_direct(order, s_pid, s_slots, start, n, bucket)
        if tok_src:
            bucket.append(_DirectBatch(
                src=np.asarray(tok_src, dtype=np.int64),
                dst=np.asarray(tok_dst, dtype=np.int64),
                plane=np.asarray(tok_plane, dtype=np.int64),
                flow=np.asarray(tok_flow, dtype=np.int64)))
        return BatchDecisions(kinds=kinds, hops=hops, gbps=gbps)

    def _reserve_direct(self, order: np.ndarray, s_pid: np.ndarray,
                        s_slots: np.ndarray, start: int, stop: int,
                        bucket: list[_DirectBatch]) -> None:
        """Allocate the direct flows ``start <= i < stop`` in one
        :meth:`~repro.network.wavelength.WavelengthAllocator.allocate_pairs`
        call, exactly as sequential least-loaded ``allocate`` calls
        would, taking them from the batch's pair-sorted arrays by a
        mask."""
        if stop <= start:
            return
        keep = (order >= start) & (order < stop)
        order, s_pid, s_slots = order[keep], s_pid[keep], s_slots[keep]
        first = np.flatnonzero(np.diff(s_pid, prepend=-1))
        g_src, g_dst = np.divmod(s_pid[first], self.n_nodes)
        totals = np.add.reduceat(s_slots, first)
        seq = self.allocator.allocate_pairs(g_src, g_dst, totals)
        token_mask = np.arange(seq.shape[1])[None, :] < totals[:, None]
        # Assignment-ordered tokens are flow-major within each pair, so
        # repeating flow ids by their slot counts labels every token.
        bucket.append(_DirectBatch(
            src=g_src.repeat(totals), dst=g_dst.repeat(totals),
            plane=seq[token_mask], flow=order.repeat(s_slots)))

    # -- snapshot / restore ----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-stable capture of every piece of mutable run state.

        Covers the slot clock, wavelength occupancy, failed planes,
        the piggyback view (including its jitter phases), the
        router's RNG and misprediction count, and the expiry buckets
        holding every in-flight flow — enough that
        ``restore(snapshot())`` on a
        freshly constructed (even differently seeded) simulator of the
        same shape continues *bit-identically* to a run that never
        stopped. Bucket insertion order is preserved through the JSON
        round trip so drain/failure scans walk flows in the original
        order. The dict survives the result cache's JSON encoding
        losslessly, which is what lets chunked scenario replays carry
        in-flight flows across checkpoint boundaries.
        """
        return {
            "config": self._snapshot_config(),
            "now": self._now,
            "allocator": self.allocator.snapshot(),
            "state": (None if self.state is None
                      else self.state.snapshot()),
            "router": self.router.snapshot(),
            "buckets": {str(expiry): [batch.to_dict() for batch in bucket]
                        for expiry, bucket in self._buckets.items()},
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (accepts JSON-decoded dicts).

        The receiving simulator must be configured identically to the
        one the snapshot was taken from — restoring only replaces
        mutable state, never structure.
        """
        config = state["config"]
        mine = self._snapshot_config()
        if config != mine:
            differing = sorted(k for k in set(config) | set(mine)
                               if config.get(k) != mine.get(k))
            raise ValueError(
                f"snapshot config does not match simulator config "
                f"(differing fields: {differing}): snapshot {config} "
                f"vs simulator {mine}")
        self._now = int(state["now"])
        self.allocator.restore(state["allocator"])
        if self.state is not None:
            self.state.restore(state["state"])
        self.router.restore(state["router"])
        self._buckets = {
            int(expiry): [_DirectBatch.from_dict(batch) for batch in bucket]
            for expiry, bucket in state["buckets"].items()}

    def _snapshot_config(self) -> dict:
        """Structural identity a snapshot must match to be restorable."""
        return {"n_nodes": self.n_nodes, "planes": self.planes,
                "flows_per_wavelength": self.flows_per_wavelength,
                "gbps_per_wavelength": self.gbps_per_wavelength,
                "state_update_period": self.state_update_period,
                "track_state": self.track_state}

    # -- time ----------------------------------------------------------------------

    def step(self) -> None:
        """Advance one slot: retire expired flows, age piggyback state."""
        self._now += 1
        for batch in self._buckets.pop(self._now, ()):
            batch.release(self.allocator)
        if self.state is not None:
            self.state.step()

    # -- batch experiment ------------------------------------------------------------

    def run(self, flow_batches: Sequence[FlowBatch],
            duration_slots: int = 4) -> SimulationReport:
        """Offer one batch per slot and aggregate statistics.

        Each slot's batch is admitted with :meth:`offer_batch`.
        """
        report = SimulationReport()
        histogram = report.hop_histogram
        for batch in flow_batches:
            decisions = self.offer_batch(batch, duration_slots)
            carried = decisions.carried_mask
            report.offered += len(batch)
            report.offered_gbps = sequential_sum(
                report.offered_gbps, decisions.gbps)
            report.carried_gbps = sequential_sum(
                report.carried_gbps, decisions.gbps[carried])
            counts = np.bincount(decisions.kinds, minlength=4)
            report.carried_direct += int(counts[DIRECT])
            report.carried_indirect += int(counts[INDIRECT])
            report.carried_double += int(counts[DOUBLE_INDIRECT])
            report.blocked += int(counts[BLOCKED])
            hop_values, hop_counts = np.unique(decisions.hops,
                                               return_counts=True)
            for hops, count in zip(hop_values.tolist(),
                                   hop_counts.tolist()):
                histogram[hops] = histogram.get(hops, 0) + count
            self.step()
            report.slots += 1
        report.stale_mispredictions = self.router.stale_mispredictions
        return report

    def drain(self) -> None:
        """Release every active flow (end of experiment)."""
        for bucket in self._buckets.values():
            for batch in bucket:
                batch.release(self.allocator)
        self._buckets.clear()

    # -- failure injection ---------------------------------------------------------

    def fail_plane(self, plane: int) -> int:
        """Take a plane out of service mid-run (device failure).

        Active flows with any reservation on the failed plane are
        dropped — their surviving-plane reservations are released so
        capacity accounting stays exact (the allocator already zeroes
        the failed plane's occupancy). Returns how many flows were
        dropped; callers model their retry as fresh offers. Each token
        batch is scanned with one mask over its arrays.
        """
        self.allocator.fail_plane(plane)
        dropped = 0
        for bucket in self._buckets.values():
            for batch in bucket:
                dropped += batch.drop_plane(self.allocator, plane)
        return dropped

    def repair_plane(self, plane: int) -> None:
        """Return a failed plane to service."""
        self.allocator.repair_plane(plane)
