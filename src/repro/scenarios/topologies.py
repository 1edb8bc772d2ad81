"""Topology contenders for the bake-off arena.

Two electronic reference topologies joining the registry next to the
paper's fabrics (:mod:`repro.scenarios.backends`):

* :class:`FullMeshBackend` — FM16-style full mesh (SNIPPETS Snippet
  1): every ordered node pair owns ``links_per_pair`` dedicated link
  planes, so there is no admission contention at all — congestion
  only appears when one pair's own demand exceeds its private
  capacity. The throughput upper bound every switched fabric is
  measured against, paid for with N² provisioned links (which is
  exactly why it loses the iso-power frontier at scale).
* :class:`DragonflyBackend` — Slingshot-style dragonfly (SNIPPETS
  Snippet 3): nodes are partitioned into groups with all-to-all
  intra-group connectivity (one Rosetta-class switch per group) and
  ``global_links`` parallel global-link planes between every group
  pair. Inter-group traffic routes minimally (one global hop) or via
  a uniform-random Valiant intermediate group (two global hops,
  congestion-spreading) — the classic trade the arena makes visible
  under hotspot scenarios.

Both implement the full :class:`~repro.scenarios.backends.FabricBackend`
surface — a vectorized ``step`` (bit-identical to its per-flow oracle
in ``tests/oracles/backends.py``), ``apply_event`` (``fail_plane`` /
``repair_plane`` reinterpreted per topology), JSON-stable
``snapshot`` / ``restore`` — so the SIM003/SIM004/SIM006 gates, the
Hypothesis round-trip property, carry-mode sharding, and the service
layer all cover them with zero special cases.

Slowdown semantics: service stretch times path stretch — intra-group
and full-mesh flows count 1 hop, minimally-routed global flows 2,
Valiant detours 3; each divided by the flow's served fraction.
Valiant detours are reported as ``indirect`` (the dragonfly analogue
of AWGR indirection).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.simulator import sequential_sum
from repro.network.traffic import FlowBatch
from repro.network.wss_simulator import WSSNetworkSimulator
from repro.photonics.power import TransceiverPower
from repro.scenarios.backends import EpochReport
from repro.scenarios.registry import register_backend
from repro.scenarios.scenario import ScenarioEvent

__all__ = ["DragonflyBackend", "FullMeshBackend", "ROUTING_MODES"]

#: Point-to-point copper/retimer energy per bit for the full mesh's
#: dedicated links — cheaper per bit than a switched traversal (no
#: crossbar), but provisioned N² times over.
FULL_MESH_PJ_PER_BIT = 5.0

#: Switched electrical traversal energy for intra-group (Rosetta-
#: class) dragonfly links.
DRAGONFLY_INTRA_PJ_PER_BIT = 10.0

#: Long-reach global dragonfly links (electrical-optical-electrical).
DRAGONFLY_GLOBAL_PJ_PER_BIT = 15.0

#: Fixed per-group switch power (crossbar + arbitration).
DRAGONFLY_SWITCH_W = 150.0

#: Global-routing policies accepted by :class:`DragonflyBackend`.
ROUTING_MODES = ("minimal", "valiant")


@register_backend(
    "full_mesh",
    description="FM16-style full mesh: N^2 dedicated link planes, "
                "zero admission contention (upper bound)")
@dataclass
class FullMeshBackend:
    """Full mesh of dedicated per-pair links (SNIPPETS Snippet 1).

    Every ordered (src, dst) pair owns ``links_per_pair`` parallel
    link planes of ``gbps_per_link`` each; a flow is only slowed by
    its *own pair's* aggregate demand. Events: "fail_plane" /
    "repair_plane" with the link-plane index as ``value`` — failing a
    plane removes one link from **every** pair (a rack-wide retimer
    bank dying), mirroring the AWGR plane-failure semantics.
    """

    n_nodes: int
    links_per_pair: int = 4
    gbps_per_link: float = 112.0
    name: str = "full_mesh"

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        if self.links_per_pair < 1:
            raise ValueError("links_per_pair must be >= 1")
        if self.gbps_per_link <= 0:
            raise ValueError("gbps_per_link must be positive")
        self._failed_planes: list[int] = []

    @property
    def healthy_link_planes(self) -> int:
        """Link planes currently serving every pair."""
        return self.links_per_pair - len(self._failed_planes)

    def step(self, batch: FlowBatch) -> EpochReport:
        """Serve one epoch: demand-matrix scatter, one gather.

        Bit-identical to the per-flow oracle: the demand matrix
        accumulates in flow order (unbuffered ``np.add.at``), each
        share is the same elementwise IEEE min/division, and the Gbps
        aggregates fold strictly left to right.
        """
        report = EpochReport()
        capacity = self.healthy_link_planes * self.gbps_per_link
        demand = WSSNetworkSimulator.demand_matrix(batch, self.n_nodes)
        n = len(batch)
        report.offered = n
        report.offered_gbps = sequential_sum(0.0, batch.gbps)
        # A pair's demand includes its own flows, so the divisor is
        # always positive; capacity hits 0.0 only with every plane
        # failed, which blocks the flow outright.
        share = np.minimum(
            1.0, capacity / demand[batch.src, batch.dst])
        carried = share > 0.0
        report.carried = int(np.count_nonzero(carried))
        report.blocked = n - report.carried
        report.carried_gbps = sequential_sum(
            0.0, (batch.gbps * share)[carried])
        report.slowdowns = (1.0 / share[carried]).tolist()
        report.extras["healthy_link_planes"] = self.healthy_link_planes
        return report

    def apply_event(self, event: ScenarioEvent) -> bool:
        if event.action == "fail_plane":
            plane = int(event.value)
            if not 0 <= plane < self.links_per_pair:
                raise ValueError(
                    f"link plane {plane} out of range "
                    f"(0..{self.links_per_pair - 1})")
            if plane not in self._failed_planes:  # idempotent
                self._failed_planes.append(plane)
            return True
        if event.action == "repair_plane":
            plane = int(event.value)
            if plane in self._failed_planes:
                self._failed_planes.remove(plane)
            return True
        return False

    def power_w(self) -> float:
        """Provisioned fabric power (W) for frontier comparisons.

        N * (N - 1) ordered pairs times ``links_per_pair`` always-on
        dedicated links at the point-to-point electrical budget — the
        N² provisioning that makes the full mesh the iso-performance
        winner and the iso-power loser.
        """
        capacity = (self.n_nodes * (self.n_nodes - 1)
                    * self.links_per_pair * self.gbps_per_link)
        return TransceiverPower(
            pj_per_bit=FULL_MESH_PJ_PER_BIT).power_w(capacity)

    def snapshot(self) -> dict:
        return {"backend": self.name,
                "failed_planes": sorted(
                    int(p) for p in self._failed_planes)}

    def restore(self, state: dict) -> None:
        if state.get("backend") != self.name:
            raise ValueError(
                f"snapshot is for backend {state.get('backend')!r}, "
                f"not {self.name!r}")
        self._failed_planes = [int(p) for p in state["failed_planes"]]


@register_backend(
    "dragonfly",
    description="Slingshot-style dragonfly: grouped all-to-all + "
                "global links, minimal or Valiant routing",
    seed_param="rng_seed")
@dataclass
class DragonflyBackend:
    """Grouped dragonfly with global-link planes (SNIPPETS Snippet 3).

    Nodes are partitioned into ``n_groups`` contiguous groups of
    ``ceil(n_nodes / n_groups)``. Intra-group pairs ride the group
    switch's all-to-all at ``intra_gbps`` per ordered pair.
    Inter-group flows cross ``global_links`` parallel global-link
    planes of ``gbps_per_global_link`` between each ordered group
    pair, contended per epoch:

    * ``routing="minimal"`` — one global hop on the (src group, dst
      group) channel;
    * ``routing="valiant"`` — a uniform-random intermediate group per
      inter-group flow (router RNG, flow order); a draw landing on
      either endpoint group degenerates to the minimal path,
      otherwise the flow loads *two* global channels and its share is
      the tighter of the two.

    Events: "fail_plane" / "repair_plane" with the global-link plane
    index as ``value`` (intra-group capacity is unaffected — exactly
    the failure mode where Valiant's spreading starts to matter).
    """

    n_nodes: int
    n_groups: int = 4
    intra_gbps: float = 100.0
    global_links: int = 2
    gbps_per_global_link: float = 50.0
    routing: str = "minimal"
    rng_seed: int = 0
    name: str = "dragonfly"

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ValueError("n_nodes must be >= 2")
        if not 1 <= self.n_groups <= self.n_nodes:
            raise ValueError(
                "n_groups must be in [1, n_nodes] "
                f"(got {self.n_groups} for {self.n_nodes} nodes)")
        if self.intra_gbps <= 0:
            raise ValueError("intra_gbps must be positive")
        if self.global_links < 1:
            raise ValueError("global_links must be >= 1")
        if self.gbps_per_global_link <= 0:
            raise ValueError("gbps_per_global_link must be positive")
        if self.routing not in ROUTING_MODES:
            raise ValueError(
                f"unknown routing {self.routing!r} "
                f"(known: {ROUTING_MODES})")
        group_size = -(-self.n_nodes // self.n_groups)
        self._node_group = (np.arange(self.n_nodes, dtype=np.int64)
                            // group_size)  # repro-check: derived
        self._rng = np.random.default_rng(self.rng_seed)
        self._failed_planes: list[int] = []

    @property
    def healthy_global_links(self) -> int:
        """Global-link planes currently up between every group pair."""
        return self.global_links - len(self._failed_planes)

    def step(self, batch: FlowBatch) -> EpochReport:
        """Serve one epoch: masked scatters, one RNG draw, gathers.

        Inter-group flows consume the router RNG once each, in flow
        order (Valiant only); a draw landing on either endpoint group
        keeps the minimal path. Channel loads accumulate hop-major —
        every flow's first hop, then every detour's second hop.
        Bit-identical to the per-flow oracle: the broadcast-bound
        ``integers`` call draws the same Lemire-bounded stream as
        per-flow scalar draws (see :mod:`repro.network.traffic`),
        ``np.add.at`` accumulates each channel matrix in the oracle's
        hop-major flow order, shares are the same elementwise IEEE
        arithmetic, and the Gbps aggregates fold strictly left to
        right.
        """
        report = EpochReport()
        n = len(batch)
        gcap = self.healthy_global_links * self.gbps_per_global_link
        g_src = self._node_group[batch.src]
        g_dst = self._node_group[batch.dst]
        inter = g_src != g_dst
        via = g_dst.copy()
        if self.routing == "valiant":
            idx = np.flatnonzero(inter)
            if idx.size:
                draws = self._rng.integers(
                    0, np.full(idx.size, self.n_groups, dtype=np.int64))
                keep = (draws != g_src[idx]) & (draws != g_dst[idx])
                via[idx[keep]] = draws[keep]
        detour = inter & (via != g_dst)
        local = ~inter
        intra = np.zeros((self.n_nodes, self.n_nodes))
        glob = np.zeros((self.n_groups, self.n_groups))
        np.add.at(intra, (batch.src[local], batch.dst[local]),
                  batch.gbps[local])
        np.add.at(glob, (g_src[inter], via[inter]), batch.gbps[inter])
        np.add.at(glob, (via[detour], g_dst[detour]),
                  batch.gbps[detour])
        ratio = np.empty(n)
        ratio[local] = (self.intra_gbps
                        / intra[batch.src[local], batch.dst[local]])
        ratio[inter] = gcap / glob[g_src[inter], via[inter]]
        ratio[detour] = np.minimum(
            ratio[detour], gcap / glob[via[detour], g_dst[detour]])
        share = np.minimum(1.0, ratio)
        hops = np.where(local, 1.0, np.where(detour, 3.0, 2.0))
        carried = share > 0.0
        report.offered = n
        report.offered_gbps = sequential_sum(0.0, batch.gbps)
        report.carried = int(np.count_nonzero(carried))
        report.blocked = n - report.carried
        report.indirect = int(np.count_nonzero(carried & detour))
        report.carried_gbps = sequential_sum(
            0.0, (batch.gbps * share)[carried])
        report.slowdowns = (hops[carried] / share[carried]).tolist()
        report.extras["healthy_global_links"] = self.healthy_global_links
        report.extras["routing"] = self.routing
        return report

    def apply_event(self, event: ScenarioEvent) -> bool:
        if event.action == "fail_plane":
            plane = int(event.value)
            if not 0 <= plane < self.global_links:
                raise ValueError(
                    f"global-link plane {plane} out of range "
                    f"(0..{self.global_links - 1})")
            if plane not in self._failed_planes:  # idempotent
                self._failed_planes.append(plane)
            return True
        if event.action == "repair_plane":
            plane = int(event.value)
            if plane in self._failed_planes:
                self._failed_planes.remove(plane)
            return True
        return False

    def power_w(self) -> float:
        """Provisioned fabric power (W) for frontier comparisons.

        Intra-group all-to-all capacity at the switched electrical
        budget, global-link planes at the long-reach budget, plus one
        fixed switch per group. Scales with group size and group
        count, not N² — the dragonfly's whole reason to exist.
        """
        counts = np.bincount(self._node_group,
                             minlength=self.n_groups)
        intra_capacity = float(
            np.sum(counts * (counts - 1)) * self.intra_gbps)
        global_capacity = (self.n_groups * (self.n_groups - 1)
                           * self.global_links
                           * self.gbps_per_global_link)
        return (TransceiverPower(
                    pj_per_bit=DRAGONFLY_INTRA_PJ_PER_BIT,
                ).power_w(intra_capacity)
                + TransceiverPower(
                    pj_per_bit=DRAGONFLY_GLOBAL_PJ_PER_BIT,
                ).power_w(global_capacity)
                + DRAGONFLY_SWITCH_W * self.n_groups)

    def snapshot(self) -> dict:
        # The Valiant intermediate draw consumes the router RNG per
        # inter-group flow, so carry-mode resume needs the exact
        # generator state (a plain dict of ints, JSON-lossless).
        return {"backend": self.name,
                "failed_planes": sorted(
                    int(p) for p in self._failed_planes),
                "rng": self._rng.bit_generator.state}

    def restore(self, state: dict) -> None:
        if state.get("backend") != self.name:
            raise ValueError(
                f"snapshot is for backend {state.get('backend')!r}, "
                f"not {self.name!r}")
        self._failed_planes = [int(p) for p in state["failed_planes"]]
        self._rng.bit_generator.state = state["rng"]
