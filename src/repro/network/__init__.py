"""Photonic network substrate: wavelength allocation, indirect routing,
piggybacked state, a flow-level simulator, and the electronic comparator.

Implements the control logic of paper §IV over the fabric plans of
:mod:`repro.rack.design`, plus the §VI-D electronic-switch latency
model used as the comparison point for Fig. 12.
"""

from repro.network.wavelength import WavelengthAllocator
from repro.network.state import PiggybackState
from repro.network.routing import IndirectRouter
from repro.network.traffic import (
    FlowBatch,
    uniform_batch,
    hotspot_batch,
    cpu_memory_batch,
    gpu_allreduce_batch,
)
from repro.network.simulator import (
    AWGRNetworkSimulator,
    BatchDecisions,
    SimulationReport,
)
from repro.network.electronic import (
    ElectronicSwitch,
    ELECTRONIC_CATALOG,
    electronic_disaggregation_latency_ns,
)
from repro.network.topology import (
    awgr_connectivity_graph,
    wss_connectivity_graph,
)
from repro.network.reconfig import (
    ReconfigurableFabric,
    SwitchConfiguration,
    schedule_demand,
    reconfiguration_overhead_ok,
)
from repro.network.wss_simulator import (
    WSSNetworkSimulator,
    WSSSimulationReport,
)

__all__ = [
    "WavelengthAllocator", "PiggybackState", "IndirectRouter",
    "FlowBatch", "uniform_batch", "hotspot_batch", "cpu_memory_batch",
    "gpu_allreduce_batch",
    "AWGRNetworkSimulator", "BatchDecisions", "SimulationReport",
    "ElectronicSwitch", "ELECTRONIC_CATALOG",
    "electronic_disaggregation_latency_ns",
    "awgr_connectivity_graph", "wss_connectivity_graph",
    "ReconfigurableFabric", "SwitchConfiguration", "schedule_demand",
    "reconfiguration_overhead_ok",
    "WSSNetworkSimulator", "WSSSimulationReport",
]
