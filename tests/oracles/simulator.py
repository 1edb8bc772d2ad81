"""Per-flow admission: the AWGR simulator's pre-batching path.

``offer`` routes one flow through
:meth:`~tests.oracles.routing.ScalarIndirectRouter.route_flow` and
keeps the ``(Flow, RouteDecision)`` pair until it expires; ``run`` is
the per-flow report loop over it, taking the same ``FlowBatch`` slots
as the production ``run``. They are the loops that
:meth:`~repro.network.simulator.AWGRNetworkSimulator.offer_batch` and
the batched ``run`` replaced, kept verbatim as their bit-identity
oracle.

The pairs live in their own store beside the production token
buckets: ``step`` and ``drain`` release them too, and ``fail_plane``
drops the ones riding the failed plane after the production buckets
have dropped theirs. Allocator releases commute, so the order of the
two stores does not matter. Snapshots carry the token buckets only.
"""

from __future__ import annotations

from typing import Sequence

from repro.network.simulator import AWGRNetworkSimulator, SimulationReport
from repro.network.traffic import FlowBatch
from tests.oracles.flows import Flow, to_flows
from tests.oracles.routing import (RouteDecision, RouteKind,
                                   ScalarIndirectRouter)


class ScalarAWGRNetworkSimulator(AWGRNetworkSimulator):
    """:class:`AWGRNetworkSimulator` admitting one flow at a time."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.router = ScalarIndirectRouter(
            self.allocator, state=self.state, rng_seed=self.rng_seed)
        # Active flows keyed by expiry slot.
        self._entries: dict[int, list[tuple[Flow, RouteDecision]]] = {}

    def offer(self, flow: Flow, duration_slots: int = 1) -> RouteDecision:
        """Admit one flow now; it retires after ``duration_slots``."""
        slots = flow.slots(self.slot_gbps)
        decision = self.router.route_flow(flow.src, flow.dst, slots)
        if decision.kind is not RouteKind.BLOCKED:
            # Durations below one slot still survive until the next
            # step.
            expiry = self._now + max(1, duration_slots)
            self._entries.setdefault(expiry, []).append((flow, decision))
        return decision

    def step(self) -> None:
        for (_, decision) in self._entries.pop(self._now + 1, ()):
            self.router.release(decision)
        super().step()

    def drain(self) -> None:
        for entries in self._entries.values():
            for (_, decision) in entries:
                self.router.release(decision)
        self._entries.clear()
        super().drain()

    def fail_plane(self, plane: int) -> int:
        dropped = super().fail_plane(plane)
        for expiry, entries in self._entries.items():
            survivors = []
            for (flow, decision) in entries:
                planes_used = {p for (_, _, used) in decision.reservations
                               for p in used}
                if plane in planes_used:
                    dropped += 1
                    for (a, b, used) in decision.reservations:
                        live = [p for p in used if p != plane]
                        if live:
                            self.allocator.release(a, b, live)
                else:
                    survivors.append((flow, decision))
            self._entries[expiry] = survivors
        return dropped

    def run(self, flow_batches: Sequence[FlowBatch],
            duration_slots: int = 4) -> SimulationReport:
        """Reference per-flow admission loop (the pre-batching path)."""
        report = SimulationReport()
        for batch in flow_batches:
            for flow in to_flows(batch):
                decision = self.offer(flow, duration_slots)
                report.offered += 1
                report.offered_gbps += flow.gbps
                hops = decision.hops
                report.hop_histogram[hops] = (
                    report.hop_histogram.get(hops, 0) + 1)
                if decision.kind is RouteKind.DIRECT:
                    report.carried_direct += 1
                    report.carried_gbps += flow.gbps
                elif decision.kind is RouteKind.INDIRECT:
                    report.carried_indirect += 1
                    report.carried_gbps += flow.gbps
                elif decision.kind is RouteKind.DOUBLE_INDIRECT:
                    report.carried_double += 1
                    report.carried_gbps += flow.gbps
                else:
                    report.blocked += 1
            self.step()
            report.slots += 1
        report.stale_mispredictions = self.router.stale_mispredictions
        return report

