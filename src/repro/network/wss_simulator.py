"""Case-(B) end-to-end simulator: WSS fabric + centralized scheduler.

Couples the §V-B wave-selective fabric plan (11 staggered 256-port
switches) with the §IV-B reconfigurable-switch model: flows arrive in
slots, the fabric serves whatever its *current* configuration carries,
and a centralized scheduler re-plans every ``reconfig_period`` slots
from the demand it most recently observed. This is the architecture
the paper compares case (A) against: same raw capacity, but served
bandwidth depends on how well (and how recently) the scheduler's
configuration matches demand, and reconfiguration itself costs fabric
downtime.

The simulator is deliberately parallel in structure to
:class:`~repro.network.simulator.AWGRNetworkSimulator` so the two can
be benchmarked head-to-head on identical flow batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.network.reconfig import ReconfigurableFabric
from repro.network.traffic import FlowBatch


@dataclass
class WSSSimulationReport:
    """Aggregate results of one case-(B) run."""

    slots: int = 0
    offered_gbps: float = 0.0
    carried_gbps: float = 0.0
    reconfigurations: int = 0
    downtime_s: float = 0.0
    per_slot_served: list[float] = field(default_factory=list)

    @property
    def throughput_ratio(self) -> float:
        """Fraction of offered bandwidth carried across the run.

        A run that offered nothing reports 0.0, not 1.0: an idle run
        must never read as a perfect fabric.
        """
        if self.offered_gbps <= 0:
            return 0.0
        return self.carried_gbps / self.offered_gbps

    @property
    def worst_slot_served(self) -> float:
        """Served fraction in the worst slot (scheduler lag exposure).

        0.0 when the run offered nothing, like :attr:`throughput_ratio`.
        """
        if self.offered_gbps <= 0:
            return 0.0
        return min(self.per_slot_served, default=0.0)

    def as_dict(self) -> dict:
        """Plain-dict view for report rendering."""
        return {
            "slots": self.slots,
            "offered_gbps": self.offered_gbps,
            "carried_gbps": self.carried_gbps,
            "throughput_ratio": self.throughput_ratio,
            "worst_slot_served": self.worst_slot_served,
            "reconfigurations": self.reconfigurations,
            "downtime_s": self.downtime_s,
        }


@dataclass
class WSSNetworkSimulator:
    """Slot simulator over the reconfigurable wave-selective fabric.

    Parameters
    ----------
    n_nodes:
        Endpoints (MCMs).
    n_switches, wavelengths_per_port, gbps_per_wavelength:
        Fabric dimensions (§V-B case B defaults scaled down are fine
        for experiments; radix is taken equal to ``n_nodes`` so every
        endpoint owns one port per switch).
    reconfig_period:
        Slots between scheduler invocations (1 = reconfigure every
        slot; larger values model scheduler reaction lag).
    slot_time_s:
        Wall-clock duration of one slot, used to convert the fabric's
        reconfiguration time into slot downtime.
    """

    n_nodes: int
    n_switches: int = 4
    wavelengths_per_port: int = 16
    gbps_per_wavelength: float = 25.0
    reconfig_period: int = 1
    slot_time_s: float = 1.0

    def __post_init__(self) -> None:
        if self.n_nodes <= 1:
            raise ValueError("need at least two nodes")
        if self.reconfig_period <= 0:
            raise ValueError("reconfig_period must be positive")
        if self.slot_time_s <= 0:
            raise ValueError("slot_time_s must be positive")
        self.fabric = ReconfigurableFabric(
            n_switches=self.n_switches,
            radix=self.n_nodes,
            wavelengths_per_port=self.wavelengths_per_port,
            gbps_per_wavelength=self.gbps_per_wavelength)
        self._slot = 0

    @staticmethod
    def demand_matrix(batch: FlowBatch, n_nodes: int) -> np.ndarray:
        """Aggregate a flow batch into an (N, N) Gbps demand matrix.

        Scatters with unbuffered ``np.add.at``, which applies repeated
        (src, dst) pairs in flow order — bit-identical to a per-flow
        ``+=`` loop.
        """
        demand = np.zeros((n_nodes, n_nodes))
        np.add.at(demand, (batch.src, batch.dst), batch.gbps)
        return demand

    def run(self, flow_batches: Sequence[FlowBatch]
            ) -> WSSSimulationReport:
        """Serve one batch per slot under periodic reconfiguration."""
        report = WSSSimulationReport()
        for batch in flow_batches:
            demand = self.demand_matrix(batch, self.n_nodes)
            downtime_fraction = 0.0
            if self._slot % self.reconfig_period == 0:
                self.fabric.reconfigure(demand)
                report.reconfigurations += 1
                downtime = (self.fabric.reconfig_time_s
                            + self.fabric.scheduler_latency_s)
                report.downtime_s += downtime
                downtime_fraction = min(1.0, downtime / self.slot_time_s)
            served = self.fabric.served_fraction(demand)
            # Ports being reconfigured carry nothing for that share of
            # the slot.
            effective = served * (1.0 - downtime_fraction)
            offered = float(demand.sum())
            report.offered_gbps += offered
            report.carried_gbps += offered * effective
            report.per_slot_served.append(effective)
            report.slots += 1
            self._slot += 1
        return report
