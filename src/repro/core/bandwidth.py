"""Bandwidth satisfaction analysis (paper §VI-A).

Case (A): six parallel AWGRs give every MCM pair >= 5 direct
wavelengths (125 Gbps). Against the production demand profile, that
direct bandwidth suffices >99.5% of the time for CPU-memory pairs and
essentially always for NIC-memory; a single 25 Gbps wavelength covers
97%, so with high probability four of a pair's five wavelengths are
free to lend to congested neighbours through indirect routing.

For GPUs: with indirect routing a GPU MCM can gather the full escape
bandwidth of its HBM partners — 125 Gbps x 512 wavelength-paths =
8,000 GB/s toward any one HBM — of which 1,555.2 GB/s feeds native HBM
traffic, 900 GB/s absorbs the NVLink-replacement GPU-GPU traffic, and
~5.5 TB/s remains for GPUDirect-style HBM-HBM or extra memory
bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import ndtr

from repro.rack.design import AWGRFabricPlan, plan_awgr_fabric
from repro.workloads.cori import CORI_PROFILES


@dataclass(frozen=True)
class BandwidthSufficiency:
    """Probability the direct path covers a traffic class's demand."""

    traffic_class: str
    direct_gbps: float
    p_sufficient: float
    p_single_wavelength: float


def direct_bandwidth_sufficiency(direct_gbps: float = 125.0,
                                 wavelength_gbps: float = 25.0,
                                 peak_gbps: float = 1638.4,
                                 resource: str = "memory_bandwidth",
                                 ) -> BandwidthSufficiency:
    """Probability the AWGR direct path covers a demand profile.

    ``peak_gbps`` converts the utilization profile (fraction of peak)
    into absolute demand; the default is the CPU's 204.8 GB/s memory
    system in Gbps.
    """
    mu, sigma = CORI_PROFILES[resource].lognormal_params
    # P(demand <= direct) with demand = utilization * peak; ndtr is the
    # standard normal CDF.
    frac = direct_gbps / peak_gbps
    p_direct = float(ndtr((math.log(frac) - mu) / sigma))
    frac_one = wavelength_gbps / peak_gbps
    p_one = float(ndtr((math.log(frac_one) - mu) / sigma))
    return BandwidthSufficiency(
        traffic_class=resource,
        direct_gbps=direct_gbps,
        p_sufficient=min(1.0, p_direct),
        p_single_wavelength=min(1.0, p_one))


@dataclass(frozen=True)
class GPUBandwidthBudget:
    """The §VI-A GPU arithmetic, all in GB/s."""

    indirect_total_gbyte_s: float      # 8,000 for the paper's design
    hbm_demand_gbyte_s: float          # 1,555.2
    gpu_gpu_demand_gbyte_s: float      # 900 (12 NVLink x 25 x 3 GPUs)
    @property
    def after_hbm_gbyte_s(self) -> float:
        """Headroom once native HBM traffic is served (6,444.8)."""
        return self.indirect_total_gbyte_s - self.hbm_demand_gbyte_s

    @property
    def after_gpu_gpu_gbyte_s(self) -> float:
        """Headroom once GPU-GPU traffic is also absorbed (5,544.8)."""
        return self.after_hbm_gbyte_s - self.gpu_gpu_demand_gbyte_s

    @property
    def satisfied(self) -> bool:
        """Does the budget cover both demands?"""
        return self.after_gpu_gpu_gbyte_s >= 0


def gpu_bandwidth_budget(direct_pair_gbps: float = 125.0,
                         hbm_mcms: int = 128,
                         gpus_per_mcm: int = 3,
                         nvlink_gbyte_s: float = 25.0,
                         nvlinks_per_gpu: int = 12,
                         hbm_gbyte_s: float = 1555.2,
                         wavelength_paths: int = 512) -> GPUBandwidthBudget:
    """Reproduce the §VI-A GPU budget.

    The paper's arithmetic: with indirect routing a GPU can use
    ``direct_pair_gbps x wavelength_paths = 125 x 512 = 8000 GB/s``
    (units: 125 Gbps of direct bandwidth toward each of 512 possible
    wavelength-sharing partners, expressed in GB/s after the paper's
    own conversion) to reach any one HBM; GPU-GPU worst case is an MCM
    of 3 GPUs each driving 12 NVLink-class links of 25 GB/s = 900 GB/s.
    """
    del hbm_mcms  # documented input of the paper's argument; not needed
    indirect_total = direct_pair_gbps * wavelength_paths / 8.0
    gpu_gpu = gpus_per_mcm * nvlinks_per_gpu * nvlink_gbyte_s
    return GPUBandwidthBudget(
        indirect_total_gbyte_s=indirect_total,
        hbm_demand_gbyte_s=hbm_gbyte_s,
        gpu_gpu_demand_gbyte_s=gpu_gpu)


@dataclass(frozen=True)
class AWGRBandwidthReport:
    """Summary of the case-(A) analysis."""

    guaranteed_pair_gbps: float
    cpu_memory: BandwidthSufficiency
    nic_memory: BandwidthSufficiency
    gpu_budget: GPUBandwidthBudget

    @property
    def all_satisfied(self) -> bool:
        """Case (A) satisfies every traffic class (the §VI-A claim)."""
        return (self.cpu_memory.p_sufficient >= 0.99
                and self.nic_memory.p_sufficient >= 0.99
                and self.gpu_budget.satisfied)


def awgr_bandwidth_analysis(plan: AWGRFabricPlan | None = None,
                            ) -> AWGRBandwidthReport:
    """Run the full §VI-A case-(A) analysis on a fabric plan."""
    plan = plan if plan is not None else plan_awgr_fabric()
    direct = plan.guaranteed_pair_gbps()
    cpu_mem = direct_bandwidth_sufficiency(
        direct_gbps=direct, peak_gbps=204.8 * 8, resource="memory_bandwidth")
    nic_mem = direct_bandwidth_sufficiency(
        direct_gbps=direct, peak_gbps=200.0, resource="nic_bandwidth")
    return AWGRBandwidthReport(
        guaranteed_pair_gbps=direct,
        cpu_memory=cpu_mem,
        nic_memory=nic_mem,
        gpu_budget=gpu_bandwidth_budget(direct_pair_gbps=direct))
