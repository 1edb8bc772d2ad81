"""Per-flow epoch loops of every registered fabric backend.

Each ``Scalar<Backend>`` subclasses its production backend and
replaces ``step`` with the per-flow loop the vectorized epoch
replaced, kept verbatim as its bit-identity oracle: one ``Flow`` at a
time, ``+=`` accumulation, Python ``min`` chains. Everything else —
construction, events, snapshots, the WSS scheduler call — is the
production code, so a twin pair differs only in how an epoch's flows
are served. :func:`demand_matrix` keeps the per-flow ``+=`` loop the
WSS and full-mesh oracles accumulate demand with, independently of
production's ``np.add.at``.

:data:`SCALAR_BACKENDS` maps every registered backend name to its
oracle; :func:`scalar_twin` builds the oracle of a constructed
backend.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.scenarios.backends import (
    AWGRBackend,
    ElectronicBackend,
    EpochReport,
    WSSBackend,
)
from repro.scenarios.topologies import DragonflyBackend, FullMeshBackend
from tests.oracles.flows import Flow, to_flows
from tests.oracles.routing import RouteKind
from tests.oracles.simulator import ScalarAWGRNetworkSimulator


def demand_matrix(flows: list[Flow], n_nodes: int) -> np.ndarray:
    """Aggregate flows into an (N, N) Gbps demand matrix, in order."""
    demand = np.zeros((n_nodes, n_nodes))
    for flow in flows:
        demand[flow.src, flow.dst] += flow.gbps
    return demand


class ScalarAWGRBackend(AWGRBackend):
    """Case (A), one ``offer`` per flow."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.sim = ScalarAWGRNetworkSimulator(
            n_nodes=self.n_nodes, planes=self.planes,
            flows_per_wavelength=self.flows_per_wavelength,
            gbps_per_wavelength=self.gbps_per_wavelength,
            state_update_period=self.state_update_period,
            rng_seed=self.rng_seed,
            track_state=self.track_state)

    def step(self, batch) -> EpochReport:
        report = EpochReport()
        for flow in to_flows(batch):
            decision = self.sim.offer(flow, self.duration_slots)
            report.offered += 1
            report.offered_gbps += flow.gbps
            if decision.kind is RouteKind.BLOCKED:
                report.blocked += 1
                continue
            report.carried += 1
            report.carried_gbps += flow.gbps
            if decision.kind is not RouteKind.DIRECT:
                report.indirect += 1
            report.slowdowns.append(float(decision.hops))
        self.sim.step()
        report.extras["healthy_planes"] = (
            self.sim.allocator.healthy_planes)
        return report


class ScalarWSSBackend(WSSBackend):
    """Case (B), per-flow service from the full (N, N) served matrix,
    built from ``configured_gbps()`` as the figure sweeps read it."""

    def step(self, batch) -> EpochReport:
        flows = to_flows(batch)
        report = EpochReport()
        demand = demand_matrix(flows, self.n_nodes)
        reconfigured, downtime_fraction = self._serve(demand)
        served = (np.minimum(demand, self.fabric.configured_gbps())
                  * (1.0 - downtime_fraction))
        for flow in flows:
            report.offered += 1
            report.offered_gbps += flow.gbps
            pair_demand = demand[flow.src, flow.dst]
            fraction = (float(served[flow.src, flow.dst] / pair_demand)
                        if pair_demand > 0 else 0.0)
            if fraction <= 0.0:
                report.blocked += 1
                continue
            report.carried += 1
            report.carried_gbps += flow.gbps * fraction
            report.slowdowns.append(1.0 / fraction)
        report.extras["reconfigured"] = reconfigured
        report.extras["downtime_fraction"] = downtime_fraction
        report.extras["healthy_switches"] = len(self.fabric.configs)
        self._since_reconfig += 1
        return report


class ScalarElectronicBackend(ElectronicBackend):
    """§VI-D comparator, per-flow endpoint loads and shares."""

    def step(self, batch) -> EpochReport:
        flows = to_flows(batch)
        report = EpochReport()
        egress = np.zeros(self.n_nodes)
        ingress = np.zeros(self.n_nodes)
        for flow in flows:
            egress[flow.src] += flow.gbps
            ingress[flow.dst] += flow.gbps
        for flow in flows:
            report.offered += 1
            report.offered_gbps += flow.gbps
            share = float(min(
                1.0,
                self.endpoint_gbps / egress[flow.src],
                self.endpoint_gbps / ingress[flow.dst]))
            report.carried += 1
            report.carried_gbps += flow.gbps * share
            report.slowdowns.append(1.0 / share)
        report.extras["added_latency_ns"] = self.added_latency_ns
        return report


class ScalarFullMeshBackend(FullMeshBackend):
    """Full mesh, per-flow share of the pair's own links."""

    def step(self, batch) -> EpochReport:
        flows = to_flows(batch)
        report = EpochReport()
        capacity = self.healthy_link_planes * self.gbps_per_link
        demand = demand_matrix(flows, self.n_nodes)
        for flow in flows:
            report.offered += 1
            report.offered_gbps += flow.gbps
            # The pair's own demand includes this flow, so the divisor
            # is always positive; capacity hits 0.0 only with every
            # plane failed, which blocks the flow outright.
            share = float(min(
                1.0, capacity / demand[flow.src, flow.dst]))
            if share <= 0.0:
                report.blocked += 1
                continue
            report.carried += 1
            report.carried_gbps += flow.gbps * share
            report.slowdowns.append(1.0 / share)
        report.extras["healthy_link_planes"] = self.healthy_link_planes
        return report


class ScalarDragonflyBackend(DragonflyBackend):
    """Dragonfly, per-flow routing draws and channel loads.

    Channel loads accumulate hop-major — every flow's first hop, then
    every detour's second hop, flow order within each pass — matching
    production's two ``np.add.at`` scatters, so both see bit-identical
    channel totals.
    """

    def step(self, batch) -> EpochReport:
        flows = to_flows(batch)
        report = EpochReport()
        gcap = self.healthy_global_links * self.gbps_per_global_link
        groups = self._node_group
        # Route: consumes the router RNG once per inter-group flow, in
        # flow order (Valiant only). ``via`` is None for intra-group
        # flows, else the intermediate group (== dst group: minimal).
        routed: list[tuple[int, int, int | None]] = []
        for flow in flows:
            g_src = int(groups[flow.src])
            g_dst = int(groups[flow.dst])
            if g_src == g_dst:
                routed.append((g_src, g_dst, None))
                continue
            via = g_dst
            if self.routing == "valiant":
                draw = int(self._rng.integers(0, self.n_groups))
                if draw not in (g_src, g_dst):
                    via = draw
            routed.append((g_src, g_dst, via))
        intra = np.zeros((self.n_nodes, self.n_nodes))
        glob = np.zeros((self.n_groups, self.n_groups))
        for flow, (g_src, g_dst, via) in zip(flows, routed):
            if via is None:
                intra[flow.src, flow.dst] += flow.gbps
            else:
                glob[g_src, via] += flow.gbps
        for flow, (g_src, g_dst, via) in zip(flows, routed):
            if via is not None and via != g_dst:
                glob[via, g_dst] += flow.gbps
        for flow, (g_src, g_dst, via) in zip(flows, routed):
            report.offered += 1
            report.offered_gbps += flow.gbps
            if via is None:
                share = float(min(
                    1.0, self.intra_gbps / intra[flow.src, flow.dst]))
                hops = 1.0
            elif via == g_dst:
                share = float(min(1.0, gcap / glob[g_src, g_dst]))
                hops = 2.0
            else:
                share = float(min(1.0, gcap / glob[g_src, via],
                                  gcap / glob[via, g_dst]))
                hops = 3.0
            if share <= 0.0:
                report.blocked += 1
                continue
            report.carried += 1
            report.carried_gbps += flow.gbps * share
            if hops > 2.0:
                report.indirect += 1
            report.slowdowns.append(hops / share)
        report.extras["healthy_global_links"] = self.healthy_global_links
        report.extras["routing"] = self.routing
        return report


#: Registered backend name -> its scalar oracle class.
SCALAR_BACKENDS = {
    "awgr": ScalarAWGRBackend,
    "dragonfly": ScalarDragonflyBackend,
    "electronic": ScalarElectronicBackend,
    "full_mesh": ScalarFullMeshBackend,
    "wss": ScalarWSSBackend,
}


def scalar_twin(backend):
    """A fresh oracle constructed exactly like ``backend`` was."""
    return SCALAR_BACKENDS[backend.name](
        **{f.name: getattr(backend, f.name)
           for f in fields(backend) if f.init})
