"""Job placement onto MCMs and fabric bandwidth validation."""

import dataclasses

import numpy as np
import pytest

from repro.core.allocation import JobRequest
from repro.core.placement import (
    MCMDirectory,
    PlacementEngine,
)
from repro.rack.chips import ChipType


class TestDirectory:
    def test_350_mcms(self):
        directory = MCMDirectory.for_default_rack()
        assert directory.n_mcms == 350

    def test_id_ranges_disjoint_and_ordered(self):
        directory = MCMDirectory.for_default_rack()
        ranges = [directory.ids[t] for t in (
            ChipType.CPU, ChipType.GPU, ChipType.NIC, ChipType.HBM,
            ChipType.DDR4)]
        assert ranges[0] == range(0, 10)
        assert ranges[1] == range(10, 181)
        flat = [i for r in ranges for i in r]
        assert flat == list(range(350))

    def test_slot_counts_match_table3(self):
        directory = MCMDirectory.for_default_rack()
        assert directory.slots[0] == 14       # CPU MCM
        assert directory.slots[10] == 3       # GPU MCM
        assert directory.slots[349] == 27     # DDR4 MCM

    def test_take_and_release(self):
        directory = MCMDirectory.for_default_rack()
        taken = directory.take_chips(ChipType.CPU, 20)
        assert sum(taken.values()) == 20
        assert len(taken) == 2   # spills into a second 14-chip MCM
        directory.release_chips(taken)
        assert directory.free[0] == 14

    def test_exhaustion_rolls_back(self):
        directory = MCMDirectory.for_default_rack()
        with pytest.raises(RuntimeError):
            directory.take_chips(ChipType.CPU, 10_000)
        assert directory.free[0] == 14  # rollback happened

    def test_over_release_detected(self):
        directory = MCMDirectory.for_default_rack()
        with pytest.raises(RuntimeError):
            directory.release_chips({0: 1})


class TestPlacement:
    def job(self, job_id="j", cpus=2, gpus=4, memory=256.0, nic=200.0):
        return JobRequest(job_id, cpus=cpus, gpus=gpus,
                          memory_gbyte=memory, nic_gbps=nic)

    def test_place_covers_request(self):
        engine = PlacementEngine()
        placement = engine.place(self.job())
        assert sum(placement.cpus.values()) == 2
        assert sum(placement.gpus.values()) == 4
        assert sum(placement.ddr4.values()) == 8   # 256 GB / 32 GB
        assert sum(placement.hbm.values()) == 4    # one per GPU
        assert sum(placement.nics.values()) == 1   # 200 Gbps -> 1 NIC

    def test_unplace_restores(self):
        engine = PlacementEngine()
        engine.place(self.job())
        engine.unplace("j")
        assert engine.directory.free[0] == 14
        assert not engine.placements

    def test_double_place_rejected(self):
        engine = PlacementEngine()
        engine.place(self.job())
        with pytest.raises(RuntimeError):
            engine.place(self.job())

    def test_unplace_unknown_rejected(self):
        with pytest.raises(RuntimeError):
            PlacementEngine().unplace("ghost")

    def test_all_or_nothing_on_exhaustion(self):
        engine = PlacementEngine()
        with pytest.raises(RuntimeError):
            engine.place(self.job(cpus=1, gpus=10_000))
        # The CPU taken before the GPU failure was rolled back.
        assert engine.directory.free[0] == 14

    def test_jobs_share_mcms(self):
        engine = PlacementEngine()
        a = engine.place(self.job("a", cpus=1, gpus=0, memory=32.0,
                                  nic=0.0))
        b = engine.place(self.job("b", cpus=1, gpus=0, memory=32.0,
                                  nic=0.0))
        # First-fit packs both CPU chips onto MCM 0.
        assert list(a.cpus) == list(b.cpus) == [0]


class TestFlows:
    def test_flow_kinds_present(self):
        engine = PlacementEngine()
        placement = engine.place(JobRequest("j", cpus=2, gpus=3,
                                            memory_gbyte=512.0,
                                            nic_gbps=200.0))
        flows = engine.flows_for(placement)
        pairs = set(zip(flows.src.tolist(), flows.dst.tolist()))
        for sources, sinks in ((placement.cpus, placement.ddr4),
                               (placement.cpus, placement.nics),
                               (placement.gpus, placement.hbm)):
            assert {(a, b) for a in sources for b in sinks
                    if a != b} & pairs

    def test_gpu_hbm_bandwidth_scales_with_gpus(self):
        engine = PlacementEngine()
        placement = engine.place(JobRequest("j", gpus=3,
                                            memory_gbyte=0.0))
        flows = engine.flows_for(placement)
        gpu_hbm = (np.isin(flows.src, list(placement.gpus))
                   & np.isin(flows.dst, list(placement.hbm)))
        assert flows.gbps[gpu_hbm].sum() == pytest.approx(3 * 1555.2 * 8.0)

    def test_memory_only_job_has_no_gpu_flows(self):
        engine = PlacementEngine()
        placement = engine.place(JobRequest("j", cpus=1,
                                            memory_gbyte=64.0))
        flows = engine.flows_for(placement)
        assert len(flows)
        # Every flow leaves a CPU MCM: none runs GPU -> HBM.
        assert set(flows.src.tolist()) <= set(placement.cpus)


class TestBandwidthValidation:
    def test_modest_job_set_fully_carried(self):
        engine = PlacementEngine()
        jobs = [JobRequest(f"j{i}", cpus=1, gpus=2,
                           memory_gbyte=128.0, nic_gbps=100.0)
                for i in range(4)]
        report, flows = engine.validate_bandwidth(jobs)
        assert flows
        assert report.acceptance_ratio > 0.95
        # Pinned exactly, striping sums included: 13 logical flows
        # become 3992 wavelength-sized pieces.
        assert len(flows) == 13
        assert dataclasses.asdict(report) == {
            "slots": 1, "offered": 3992, "carried_direct": 21,
            "carried_indirect": 3971, "carried_double": 0, "blocked": 0,
            "offered_gbps": 99732.79999999999,
            "carried_gbps": 99732.79999999999,
            "stale_mispredictions": 0,
            "hop_histogram": {1: 21, 2: 3971}}
        # Validation must not leak placements.
        assert not engine.placements

    def test_report_counts_striped_flows(self):
        engine = PlacementEngine()
        jobs = [JobRequest("big", cpus=1, gpus=3, memory_gbyte=256.0,
                           nic_gbps=200.0)]
        report, flows = engine.validate_bandwidth(jobs)
        # GPU-HBM striping expands the offered flow count well beyond
        # the logical flows.
        assert report.offered > len(flows)
