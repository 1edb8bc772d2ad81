"""Job placement onto MCMs and bandwidth validation.

Closes the loop between the resource allocator and the photonic
fabric: a job that was granted CPUs/GPUs/memory/NIC capacity must be
*placed* on concrete MCMs (Table III's 350 modules), and the resulting
chip-to-chip traffic must fit the fabric's wavelength capacity. The
§VI-A analysis argues this statistically; the placement engine lets us
check it empirically for any workload: place jobs first-fit, derive
the CPU<->DDR4 / GPU<->HBM / CPU<->NIC flow set, and offer it to the
:class:`~repro.network.simulator.AWGRNetworkSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.allocation import JobRequest
from repro.network.simulator import AWGRNetworkSimulator, SimulationReport
from repro.network.traffic import FlowBatch
from repro.rack.chips import ChipType
from repro.rack.mcm import MCMPacking, pack_rack


@dataclass
class MCMDirectory:
    """Enumeration of the rack's MCMs with chip-slot accounting.

    MCM ids are global (0..n_mcms-1), grouped contiguously by type in
    Table III order. ``free[mcm_id]`` tracks unassigned chip slots.
    """

    packings: dict[ChipType, MCMPacking]
    ids: dict[ChipType, range] = field(init=False)
    slots: dict[int, int] = field(init=False)
    free: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        self.ids = {}
        self.slots = {}
        next_id = 0
        for chip_type in (ChipType.CPU, ChipType.GPU, ChipType.NIC,
                          ChipType.HBM, ChipType.DDR4):
            packing = self.packings[chip_type]
            self.ids[chip_type] = range(next_id, next_id + packing.mcms)
            for mcm in self.ids[chip_type]:
                self.slots[mcm] = packing.chips_per_mcm
            next_id += packing.mcms
        self.free = dict(self.slots)

    @classmethod
    def for_default_rack(cls) -> "MCMDirectory":
        """Directory for the paper's 350-MCM rack."""
        return cls(pack_rack())

    @property
    def n_mcms(self) -> int:
        """Total MCMs in the directory."""
        return len(self.slots)

    def take_chips(self, chip_type: ChipType, count: int
                   ) -> dict[int, int]:
        """First-fit allocation of ``count`` chips of one type.

        Returns {mcm_id: chips} and decrements the free counters.
        Raises ``RuntimeError`` when the type's MCMs are exhausted.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        taken: dict[int, int] = {}
        remaining = count
        for mcm in self.ids[chip_type]:
            if remaining == 0:
                break
            grab = min(self.free[mcm], remaining)
            if grab > 0:
                self.free[mcm] -= grab
                taken[mcm] = grab
                remaining -= grab
        if remaining > 0:
            for mcm, grab in taken.items():
                self.free[mcm] += grab
            raise RuntimeError(
                f"out of {chip_type.value} capacity: short {remaining}")
        return taken

    def release_chips(self, assignment: dict[int, int]) -> None:
        """Return previously taken chips."""
        for mcm, count in assignment.items():
            self.free[mcm] += count
            if self.free[mcm] > self.slots[mcm]:
                raise RuntimeError(f"MCM {mcm} over-released")


@dataclass(frozen=True)
class JobPlacement:
    """Where one job's chips landed."""

    job_id: str
    cpus: dict[int, int]
    gpus: dict[int, int]
    ddr4: dict[int, int]
    nics: dict[int, int]
    hbm: dict[int, int]

    def mcms_touched(self) -> set[int]:
        """All MCMs this job occupies."""
        out: set[int] = set()
        for group in (self.cpus, self.gpus, self.ddr4, self.nics,
                      self.hbm):
            out.update(group)
        return out


@dataclass
class PlacementEngine:
    """Places allocated jobs on MCMs and derives their traffic.

    Parameters
    ----------
    directory:
        MCM inventory (defaults to the paper's rack).
    ddr4_gbyte_per_module:
        Capacity per DDR4 module for converting GB demands to modules.
    """

    directory: MCMDirectory = field(
        default_factory=MCMDirectory.for_default_rack)
    ddr4_gbyte_per_module: float = 32.0
    placements: dict[str, JobPlacement] = field(default_factory=dict)

    def place(self, request: JobRequest) -> JobPlacement:
        """Place one job first-fit; all-or-nothing."""
        if request.job_id in self.placements:
            raise RuntimeError(f"{request.job_id} already placed")
        taken: list[dict[int, int]] = []
        try:
            cpus = (self.directory.take_chips(ChipType.CPU, request.cpus)
                    if request.cpus else {})
            taken.append(cpus)
            gpus = (self.directory.take_chips(ChipType.GPU, request.gpus)
                    if request.gpus else {})
            taken.append(gpus)
            modules = int(np.ceil(request.memory_gbyte
                                  / self.ddr4_gbyte_per_module))
            ddr4 = (self.directory.take_chips(ChipType.DDR4, modules)
                    if modules else {})
            taken.append(ddr4)
            nic_count = max(1, int(np.ceil(request.nic_gbps / 200.0))) \
                if request.nic_gbps > 0 else 0
            nics = (self.directory.take_chips(ChipType.NIC, nic_count)
                    if nic_count else {})
            taken.append(nics)
            hbm = (self.directory.take_chips(ChipType.HBM, request.gpus)
                   if request.gpus else {})
            taken.append(hbm)
        except RuntimeError:
            for group in taken:
                self.directory.release_chips(group)
            raise
        placement = JobPlacement(job_id=request.job_id, cpus=cpus,
                                 gpus=gpus, ddr4=ddr4, nics=nics,
                                 hbm=hbm)
        self.placements[request.job_id] = placement
        return placement

    def unplace(self, job_id: str) -> None:
        """Release a job's chips."""
        try:
            placement = self.placements.pop(job_id)
        except KeyError:
            raise RuntimeError(f"{job_id} not placed") from None
        for group in (placement.cpus, placement.gpus, placement.ddr4,
                      placement.nics, placement.hbm):
            if group:
                self.directory.release_chips(group)

    # -- traffic derivation ------------------------------------------------------

    def flows_for(self, placement: JobPlacement,
                  mem_gbps_per_cpu: float = 25.0,
                  hbm_gbyte_s_per_gpu: float = 1555.2,
                  nic_gbps_per_link: float = 25.0) -> FlowBatch:
        """Derive the placement's steady inter-MCM flow set.

        CPU MCMs stream to the job's DDR4 MCMs (demand split evenly),
        GPU MCMs stream to their HBM MCMs at native bandwidth, and CPU
        MCMs exchange with NIC MCMs. Intra-MCM traffic (same module)
        generates no fabric flow.
        """
        flows: list[tuple[int, int, float]] = []
        cpu_mcms = list(placement.cpus)
        ddr_mcms = list(placement.ddr4)
        nic_mcms = list(placement.nics)
        gpu_mcms = list(placement.gpus)
        hbm_mcms = list(placement.hbm)

        if cpu_mcms and ddr_mcms:
            per_pair = mem_gbps_per_cpu / len(ddr_mcms)
            for cpu in cpu_mcms:
                for ddr in ddr_mcms:
                    if cpu != ddr and per_pair > 0:
                        flows.append((cpu, ddr, max(per_pair, 0.01)))
        if cpu_mcms and nic_mcms:
            for cpu in cpu_mcms:
                for nic in nic_mcms:
                    if cpu != nic:
                        flows.append((cpu, nic, nic_gbps_per_link))
        if gpu_mcms and hbm_mcms:
            # Each GPU MCM streams to the job's HBM MCMs proportionally
            # to the *stacks hosted there*: an HBM MCM's inflow is then
            # bounded by its hosted stacks' native bandwidth, matching
            # the physical pairing of GPUs with their HBM.
            total_stacks = sum(placement.hbm.values())
            for gpu_mcm, n_gpus in placement.gpus.items():
                gpu_gbps = n_gpus * hbm_gbyte_s_per_gpu * 8.0
                for hbm, stacks in placement.hbm.items():
                    share = gpu_gbps * stacks / total_stacks
                    if gpu_mcm != hbm and share > 0:
                        flows.append((gpu_mcm, hbm, share))
        src, dst, gbps = zip(*flows) if flows else ((),) * 3
        return FlowBatch(src=src, dst=dst, gbps=gbps)

    def validate_bandwidth(self, jobs: list[JobRequest],
                           planes: int = 6,
                           flows_per_wavelength: int = 64,
                           gbps_per_wavelength: float = 25.0,
                           ) -> tuple[SimulationReport, FlowBatch]:
        """Place a job set and offer its flows to the AWGR fabric.

        Large GPU-HBM flows are striped into wavelength-sized pieces
        before admission (as a real transport would), then carried
        through direct + indirect wavelengths. Returns the simulator's
        report plus the derived (unstriped) flows.

        ``planes`` defaults to 6: the design's five full AWGR planes
        plus the partial sixth (approximated as full, 52.5 vs the true
        ~51 Tbps per-MCM escape). With only five planes, an HBM MCM's
        fabric in-capacity (43.75 Tbps) falls short of its four stacks'
        native 49.8 Tbps — the quantitative reason the paper's design
        carries the leftover wavelengths into a sixth AWGR.
        """
        job_flows: list[FlowBatch] = []
        placed: list[str] = []
        try:
            for request in jobs:
                placement = self.place(request)
                placed.append(request.job_id)
                job_flows.append(self.flows_for(placement))
        finally:
            for job_id in placed:
                self.unplace(job_id)
        flows = FlowBatch.concat(job_flows)

        sim = AWGRNetworkSimulator(
            n_nodes=self.directory.n_mcms, planes=planes,
            flows_per_wavelength=flows_per_wavelength,
            gbps_per_wavelength=gbps_per_wavelength,
            track_state=False)  # rack-scale: perfect-info feasibility
        # Stripe each flow, in order, into wavelength-sized pieces by
        # repeated subtraction; its last piece takes the remainder.
        owner: list[int] = []
        pieces: list[float] = []
        for i, remaining in enumerate(flows.gbps.tolist()):
            while remaining > 0:
                piece = min(remaining, gbps_per_wavelength)
                owner.append(i)
                pieces.append(piece)
                remaining -= piece
        take = np.asarray(owner, dtype=np.int64)
        striped = FlowBatch(src=flows.src[take], dst=flows.dst[take],
                            gbps=pieces)
        report = sim.run([striped], duration_slots=1)
        return report, flows
