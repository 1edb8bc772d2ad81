"""Fabric backends: one epoch-step interface over every simulator.

The scenario engine drives fabrics through the :class:`FabricBackend`
protocol — ``step(batch) -> EpochReport`` plus an event hook — so one
scenario runs unchanged against the paper's case (A) AWGR fabric
(:class:`~repro.network.simulator.AWGRNetworkSimulator`), the case (B)
reconfigurable WSS fabric (the per-slot logic of
:class:`~repro.network.wss_simulator.WSSNetworkSimulator`), or the
§VI-D electronic comparator
(:class:`~repro.network.electronic.ElectronicSwitch`).

Per-flow *slowdown* is the backend-appropriate service stretch:

* AWGR — photonic hops taken (1.0 direct, 2.0 one intermediate, 3.0
  stale-state fallback): indirection spends extra wavelength capacity
  and serialization on the same bytes;
* WSS — offered/served ratio of the flow's (src, dst) pair under the
  current switch configuration and reconfiguration downtime;
* electronic — offered/served ratio under per-endpoint lane caps.

Blocked flows (no capacity / zero configured service) are excluded
from the slowdown distribution and accounted as blocked Gbps instead.

Backends self-register with
:func:`~repro.scenarios.registry.register_backend`; the topology
contenders (full mesh, dragonfly) live in
:mod:`repro.scenarios.topologies` and join the same registry. Each
backend also exposes ``power_w()`` — the provisioned fabric power the
arena's iso-performance / iso-power frontiers compare (§VI-C
transceiver accounting for the photonic fabrics, electrical pJ/bit
budgets for the comparators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.network.electronic import (
    ELECTRONIC_CATALOG,
    electronic_disaggregation_latency_ns,
)
from repro.network.reconfig import ReconfigurableFabric, SwitchConfiguration
from repro.network.simulator import (
    DIRECT,
    AWGRNetworkSimulator,
    sequential_sum,
)
from repro.network.traffic import FlowBatch
from repro.network.wss_simulator import WSSNetworkSimulator
from repro.photonics.power import TransceiverPower
from repro.scenarios.registry import make_backend, register_backend
from repro.scenarios.scenario import ScenarioEvent

__all__ = [
    "AWGRBackend", "ElectronicBackend", "EpochReport", "FabricBackend",
    "WSSBackend", "make_backend",
]

#: Electrical SerDes + switch-traversal energy charged to the
#: electronic comparators' provisioned capacity (vs. the 0.5 pJ/bit
#: photonic transceiver budget of §VI-C) — the same order the paper
#: cites for electrical interconnect in §II-B.
ELECTRICAL_PJ_PER_BIT = 10.0

#: Active power of one WSS switch plus its share of the centralized
#: scheduler, within the paper's <= 1 kW bound for all parallel
#: switches (§VI-C).
WSS_SWITCH_W = 200.0


@dataclass
class EpochReport:
    """What one fabric epoch did with one flow batch."""

    #: The scenario epoch; :func:`~repro.scenarios.runner.play_epochs`
    #: stamps it, since a backend keeps no epoch clock.
    epoch: int = 0
    offered: int = 0
    carried: int = 0
    blocked: int = 0
    indirect: int = 0
    offered_gbps: float = 0.0
    carried_gbps: float = 0.0
    slowdowns: list[float] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    @property
    def blocked_gbps(self) -> float:
        """Offered bandwidth the fabric could not carry this epoch."""
        return max(0.0, self.offered_gbps - self.carried_gbps)

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of offered flows carried.

        A zero-offered epoch reports 0.0, not 1.0 — an idle epoch must
        never read as "perfect fabric" in aggregated tables (the same
        bug :attr:`ScenarioReport.throughput_ratio` had).
        """
        return self.carried / self.offered if self.offered else 0.0

    @property
    def indirect_fraction(self) -> float:
        """Fraction of carried flows that needed any indirection."""
        return self.indirect / self.carried if self.carried else 0.0

    def as_row(self) -> dict:
        """Flat per-epoch row for tables and streaming metrics."""
        return {
            "epoch": self.epoch,
            "offered": self.offered,
            "carried": self.carried,
            "blocked": self.blocked,
            "offered_gbps": self.offered_gbps,
            "carried_gbps": self.carried_gbps,
            "blocked_gbps": self.blocked_gbps,
            "indirect_fraction": self.indirect_fraction,
            **self.extras,
        }

    def to_dict(self) -> dict:
        """Lossless JSON-stable form (unlike :meth:`as_row`, keeps the
        raw slowdown samples) — the sharded runner's checkpoint unit."""
        return {
            "epoch": self.epoch,
            "offered": self.offered,
            "carried": self.carried,
            "blocked": self.blocked,
            "indirect": self.indirect,
            "offered_gbps": self.offered_gbps,
            "carried_gbps": self.carried_gbps,
            "slowdowns": [float(s) for s in self.slowdowns],
            "extras": dict(self.extras),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "EpochReport":
        """Inverse of :meth:`to_dict` (accepts JSON-decoded dicts)."""
        return cls(
            epoch=int(payload["epoch"]),
            offered=int(payload["offered"]),
            carried=int(payload["carried"]),
            blocked=int(payload["blocked"]),
            indirect=int(payload["indirect"]),
            offered_gbps=float(payload["offered_gbps"]),
            carried_gbps=float(payload["carried_gbps"]),
            slowdowns=[float(s) for s in payload["slowdowns"]],
            extras=dict(payload.get("extras", {})))


@runtime_checkable
class FabricBackend(Protocol):
    """Anything the scenario runner can drive through epochs.

    ``step`` takes one epoch's traffic as a
    :class:`~repro.network.traffic.FlowBatch`, the one form traffic
    takes, whether the runner generated it or it was built by hand
    from ``src``/``dst``/``gbps`` arrays. Every registered backend has
    a per-flow twin in
    ``tests/oracles/backends.py`` whose :class:`EpochReport` stream
    its vectorized ``step`` must match bit for bit.
    """

    name: str

    def step(self, batch: FlowBatch) -> EpochReport:
        """Serve one epoch's flow batch and report what happened."""
        ...

    def apply_event(self, event: ScenarioEvent) -> bool:
        """Apply a scripted event; return False if unsupported."""
        ...

    def snapshot(self) -> dict:
        """JSON-stable capture of all mutable run state.

        Must round-trip losslessly through the result cache's JSON
        encoding: ``restore(snapshot())`` on an identically configured
        fresh instance, then N epochs, is bit-identical to stepping
        the original instance N epochs. This is what carry-mode
        chunked replays checkpoint at chunk boundaries.
        """
        ...

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (accepts JSON-decoded dicts)."""
        ...


@register_backend(
    "awgr",
    description="case (A): passive AWGR planes + indirect routing",
    seed_param="rng_seed")
@dataclass
class AWGRBackend:
    """Case (A): passive AWGR planes + distributed indirect routing.

    Events: "fail_plane" / "repair_plane" with the plane index as
    ``value`` (active flows riding a failed plane are dropped, exactly
    as :meth:`~repro.network.wavelength.WavelengthAllocator.fail_plane`
    models).

    Epochs are admitted through the simulator's vectorized
    :meth:`~repro.network.simulator.AWGRNetworkSimulator.offer_batch`.
    """

    n_nodes: int
    planes: int = 5
    flows_per_wavelength: int = 1
    gbps_per_wavelength: float = 25.0
    state_update_period: int = 1
    #: Epochs a flow stays resident once admitted. The default of 2
    #: makes consecutive epochs overlap on the wavelengths, so
    #: sustained per-pair load exhausts direct capacity and exercises
    #: indirection the way long-lived production flows do.
    duration_slots: int = 2
    rng_seed: int = 0
    #: False runs the §VI-A feasibility configuration (no piggybacked
    #: staleness model): routing sees ground-truth occupancy and the
    #: per-epoch status broadcast is skipped entirely.
    track_state: bool = True
    name: str = "awgr"

    def __post_init__(self) -> None:
        self.sim = AWGRNetworkSimulator(
            n_nodes=self.n_nodes, planes=self.planes,
            flows_per_wavelength=self.flows_per_wavelength,
            gbps_per_wavelength=self.gbps_per_wavelength,
            state_update_period=self.state_update_period,
            rng_seed=self.rng_seed,
            track_state=self.track_state)

    def step(self, batch: FlowBatch) -> EpochReport:
        report = EpochReport()
        decisions = self.sim.offer_batch(batch, self.duration_slots)
        carried = decisions.carried_mask
        report.offered = len(batch)
        report.carried = int(np.count_nonzero(carried))
        report.blocked = report.offered - report.carried
        report.indirect = int(np.count_nonzero(
            carried & (decisions.kinds != DIRECT)))
        report.offered_gbps = sequential_sum(0.0, decisions.gbps)
        report.carried_gbps = sequential_sum(0.0, decisions.gbps[carried])
        report.slowdowns = decisions.hops[carried].astype(float).tolist()
        self.sim.step()
        report.extras["healthy_planes"] = (
            self.sim.allocator.healthy_planes)
        return report

    def apply_event(self, event: ScenarioEvent) -> bool:
        failed = self.sim.allocator.failed_planes
        if event.action == "fail_plane":
            plane = int(event.value)
            if plane not in failed:  # idempotent within a run
                self.sim.fail_plane(plane)
            return True
        if event.action == "repair_plane":
            plane = int(event.value)
            if plane in failed:
                self.sim.repair_plane(plane)
            return True
        return False

    def power_w(self) -> float:
        """Provisioned fabric power (W) for frontier comparisons.

        The AWGR itself is passive (§III), so the budget is the §VI-C
        transceiver accounting: one always-on 0.5 pJ/bit transceiver
        per provisioned wavelength — ``n_nodes * (n_nodes - 1)``
        source-destination wavelengths per plane. Config-level by
        design: plane failures change carried bandwidth, not the
        provisioned power draw.
        """
        capacity = (self.n_nodes * (self.n_nodes - 1) * self.planes
                    * self.gbps_per_wavelength)
        return TransceiverPower().power_w(capacity)

    def snapshot(self) -> dict:
        return {"backend": self.name, "sim": self.sim.snapshot()}

    def restore(self, state: dict) -> None:
        if state.get("backend") != self.name:
            raise ValueError(
                f"snapshot is for backend {state.get('backend')!r}, "
                f"not {self.name!r}")
        self.sim.restore(state["sim"])


@register_backend(
    "wss",
    description="case (B): reconfigurable WSS bank + scheduler")
@dataclass
class WSSBackend:
    """Case (B): reconfigurable WSS bank + centralized scheduler.

    The per-epoch logic mirrors one loop iteration of
    :meth:`~repro.network.wss_simulator.WSSNetworkSimulator.run`, with
    per-flow service resolved per (src, dst) pair so the runner gets a
    slowdown distribution. Events: "set_reconfig_period" (slots),
    "set_reconfig_time" (seconds of reconfiguration lag), and
    "fail_plane" / "repair_plane" reinterpreted as losing / regaining
    one parallel WSS switch.
    """

    n_nodes: int
    n_switches: int = 5
    wavelengths_per_port: int = 16
    gbps_per_wavelength: float = 25.0
    reconfig_period: int = 1
    slot_time_s: float = 1.0
    name: str = "wss"

    def __post_init__(self) -> None:
        if self.reconfig_period < 1:
            raise ValueError("reconfig_period must be >= 1")
        self.fabric = ReconfigurableFabric(
            n_switches=self.n_switches, radix=self.n_nodes,
            wavelengths_per_port=self.wavelengths_per_port,
            gbps_per_wavelength=self.gbps_per_wavelength)
        self._since_reconfig = 0

    def _serve(self, demand: np.ndarray) -> tuple[bool, float]:
        """Reconfigure if a plan is due; return ``(reconfigured,
        downtime_fraction)``.

        The per-flow oracle in ``tests/oracles/backends.py`` calls this
        too, so the scheduler/downtime behavior cannot drift between
        the twins.
        """
        if self._since_reconfig % self.reconfig_period:
            return False, 0.0
        self.fabric.reconfigure(demand)
        downtime = (self.fabric.reconfig_time_s
                    + self.fabric.scheduler_latency_s)
        return True, min(1.0, downtime / self.slot_time_s)

    def step(self, batch: FlowBatch) -> EpochReport:
        """Serve one epoch with one gather per flow array.

        Each flow reads the configured bandwidth of its own (src, dst)
        pair through :meth:`ReconfigurableFabric.pair_gbps`; no (N, N)
        configured or served matrix is built. Bit-identical to the
        per-flow oracle, which serves from the full
        ``configured_gbps()`` matrix: the per-pair sum runs switch by
        switch in the same order, the demand matrix accumulates in
        flow order (unbuffered ``np.add.at``), each flow's service
        fraction is the same elementwise IEEE division, and the Gbps
        aggregates fold strictly left to right.
        """
        report = EpochReport()
        demand = WSSNetworkSimulator.demand_matrix(batch, self.n_nodes)
        reconfigured, downtime_fraction = self._serve(demand)
        n = len(batch)
        report.offered = n
        report.offered_gbps = sequential_sum(0.0, batch.gbps)
        pair_demand = demand[batch.src, batch.dst]
        served = (np.minimum(pair_demand,
                             self.fabric.pair_gbps(batch.src, batch.dst))
                  * (1.0 - downtime_fraction))
        fraction = np.zeros(n)
        np.divide(served, pair_demand, out=fraction, where=pair_demand > 0)
        carried = fraction > 0.0
        report.carried = int(np.count_nonzero(carried))
        report.blocked = n - report.carried
        report.carried_gbps = sequential_sum(
            0.0, (batch.gbps * fraction)[carried])
        report.slowdowns = (1.0 / fraction[carried]).tolist()
        report.extras["reconfigured"] = reconfigured
        report.extras["downtime_fraction"] = downtime_fraction
        report.extras["healthy_switches"] = len(self.fabric.configs)
        self._since_reconfig += 1
        return report

    def apply_event(self, event: ScenarioEvent) -> bool:
        fabric = self.fabric
        if event.action == "set_reconfig_period":
            period = int(event.value)
            if period < 1:
                raise ValueError("reconfig period must be >= 1")
            self.reconfig_period = period
            self._since_reconfig = 0
            return True
        if event.action == "set_reconfig_time":
            if event.value < 0:
                raise ValueError("reconfig time must be >= 0")
            fabric.reconfig_time_s = float(event.value)
            return True
        if event.action == "fail_plane":
            if len(fabric.configs) <= 1:
                raise RuntimeError("cannot fail the last WSS switch")
            fabric.configs.pop()
            fabric.n_switches -= 1
            return True
        if event.action == "repair_plane":
            # A healthy bank has nothing to repair; it never grows
            # past its provisioned ``n_switches``.
            if len(fabric.configs) < self.n_switches:
                fabric.configs.append(SwitchConfiguration(
                    fabric.radix, fabric.wavelengths_per_port))
                fabric.n_switches += 1
            return True
        return False

    def power_w(self) -> float:
        """Provisioned fabric power (W) for frontier comparisons.

        0.5 pJ/bit transceivers on every provisioned switch-port
        wavelength, plus the active WSS switches themselves (the
        paper's <= 1 kW all-switches bound, apportioned per switch).
        Config-level: uses the provisioned ``n_switches``, not the
        currently healthy bank.
        """
        capacity = (self.n_switches * self.n_nodes
                    * self.wavelengths_per_port
                    * self.gbps_per_wavelength)
        return (TransceiverPower().power_w(capacity)
                + WSS_SWITCH_W * self.n_switches)

    def snapshot(self) -> dict:
        # reconfig_period lives on the backend (events mutate it) and
        # the switch bank / lag settings on the fabric.
        return {"backend": self.name,
                "since_reconfig": self._since_reconfig,
                "reconfig_period": self.reconfig_period,
                "fabric": self.fabric.snapshot()}

    def restore(self, state: dict) -> None:
        if state.get("backend") != self.name:
            raise ValueError(
                f"snapshot is for backend {state.get('backend')!r}, "
                f"not {self.name!r}")
        self._since_reconfig = int(state["since_reconfig"])
        self.reconfig_period = int(state["reconfig_period"])
        self.fabric.restore(state["fabric"])


@register_backend(
    "electronic",
    description="§VI-D comparator: per-endpoint electronic lane caps",
    fail_plane=False)
@dataclass
class ElectronicBackend:
    """§VI-D comparator: electronic tree with per-endpoint lane caps.

    Every endpoint owns ``lanes_per_endpoint`` lanes of the chosen
    technology; an epoch serves each flow at the most-congested of its
    source-egress and destination-ingress caps (max-min style shares
    are overkill for a comparator — proportional sharing matches the
    optimistic-for-electronics stance of §VI-D). Latency is reported
    as an extra, not simulated. Events are not supported.
    """

    n_nodes: int
    technology: str = "pcie-gen5"
    lanes_per_endpoint: int = 8
    name: str = "electronic"

    def __post_init__(self) -> None:
        if self.lanes_per_endpoint < 1:
            raise ValueError("lanes_per_endpoint must be >= 1")
        switch = ELECTRONIC_CATALOG[self.technology]
        self.endpoint_gbps = switch.lane_gbps * self.lanes_per_endpoint
        self.added_latency_ns = electronic_disaggregation_latency_ns(
            self.technology, endpoints=self.n_nodes)  # repro-check: derived

    def step(self, batch: FlowBatch) -> EpochReport:
        """Serve one epoch: scatter-add endpoint loads, gather shares.

        Bit-identical to the per-flow oracle: ``np.add.at`` is
        unbuffered so repeated endpoints accumulate in flow order
        exactly like a ``+=`` loop, the share min-chain is the same
        elementwise IEEE arithmetic, and the Gbps aggregates fold
        strictly left to right.
        """
        report = EpochReport()
        n = len(batch)
        egress = np.zeros(self.n_nodes)
        ingress = np.zeros(self.n_nodes)
        np.add.at(egress, batch.src, batch.gbps)
        np.add.at(ingress, batch.dst, batch.gbps)
        report.offered = n
        report.offered_gbps = sequential_sum(0.0, batch.gbps)
        share = np.minimum(
            1.0, np.minimum(self.endpoint_gbps / egress[batch.src],
                            self.endpoint_gbps / ingress[batch.dst]))
        report.carried = n
        report.carried_gbps = sequential_sum(0.0, batch.gbps * share)
        report.slowdowns = (1.0 / share).tolist()
        report.extras["added_latency_ns"] = self.added_latency_ns
        return report

    def apply_event(self, event: ScenarioEvent) -> bool:
        return False

    def power_w(self) -> float:
        """Provisioned fabric power (W) for frontier comparisons:
        every endpoint's lanes charged at the electrical pJ/bit
        budget, always on — the mirror of the photonic accounting."""
        capacity = self.n_nodes * self.endpoint_gbps
        return TransceiverPower(
            pj_per_bit=ELECTRICAL_PJ_PER_BIT).power_w(capacity)

    def snapshot(self) -> dict:
        # Lane caps are pure functions of the configuration
        # (ELECTRONIC_CATALOG is immutable): the comparator has no
        # mutable state, so its snapshot only names it.
        return {"backend": self.name}

    def restore(self, state: dict) -> None:
        if state.get("backend") != self.name:
            raise ValueError(
                f"snapshot is for backend {state.get('backend')!r}, "
                f"not {self.name!r}")
