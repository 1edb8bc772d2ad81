"""Failure injection: AWGR plane loss and graceful degradation."""

import pytest

from repro.network.routing import DIRECT, INDIRECT, IndirectRouter
from repro.network.simulator import AWGRNetworkSimulator
from repro.network.traffic import FlowBatch
from repro.network.wavelength import WavelengthAllocator


@pytest.fixture
def alloc():
    return WavelengthAllocator(n_nodes=6, planes=5, flows_per_wavelength=8)


class TestPlaneFailure:
    def test_capacity_shrinks(self, alloc):
        assert alloc.free_slots(0, 1) == 40
        alloc.fail_plane(2)
        assert alloc.healthy_planes == 4
        assert alloc.free_slots(0, 1) == 32
        assert alloc.free_wavelengths(0, 1) == 4

    def test_riding_flows_reported_dropped(self, alloc):
        planes = alloc.allocate(0, 1, slots=5)  # one slot per plane
        dropped = alloc.fail_plane(planes[0])
        assert (0, 1, 1) in dropped
        # The dropped slot is gone from occupancy.
        assert alloc.used_slots(0, 1) == 4

    def test_allocation_avoids_failed_plane(self, alloc):
        alloc.fail_plane(0)
        planes = alloc.allocate(0, 1, slots=8)
        assert 0 not in planes

    def test_repair_restores_capacity(self, alloc):
        alloc.fail_plane(1)
        alloc.repair_plane(1)
        assert alloc.healthy_planes == 5
        assert alloc.free_slots(0, 1) == 40

    def test_double_fail_rejected(self, alloc):
        alloc.fail_plane(1)
        with pytest.raises(RuntimeError):
            alloc.fail_plane(1)

    def test_repair_unfailed_rejected(self, alloc):
        with pytest.raises(RuntimeError):
            alloc.repair_plane(3)

    def test_cannot_fail_everything(self):
        alloc = WavelengthAllocator(n_nodes=4, planes=2,
                                    flows_per_wavelength=1)
        alloc.fail_plane(0)
        with pytest.raises(RuntimeError):
            alloc.fail_plane(1)

    def test_out_of_range_rejected(self, alloc):
        with pytest.raises(ValueError):
            alloc.fail_plane(9)


class TestRoutingUnderFailure:
    def test_router_survives_plane_loss(self):
        alloc = WavelengthAllocator(n_nodes=6, planes=5,
                                    flows_per_wavelength=1)
        router = IndirectRouter(alloc)
        alloc.fail_plane(0)
        alloc.fail_plane(1)
        # Three healthy planes remain: three direct flows then indirect.
        kinds = [router.route_tokens(0, 1)[0] for _ in range(4)]
        assert kinds[:3] == [DIRECT] * 3
        assert kinds[3] == INDIRECT

    def test_simulator_degrades_gracefully(self):
        sim = AWGRNetworkSimulator(n_nodes=8, planes=5,
                                   flows_per_wavelength=1, rng_seed=1)
        sim.allocator.fail_plane(4)
        batch = FlowBatch(src=[1] * 5, dst=[0] * 5, gbps=[25.0] * 5)
        report = sim.run([batch], duration_slots=2)
        # 4 direct wavelengths remain; the fifth flow goes indirect.
        assert report.carried == 5
        assert report.carried_direct == 4
        assert report.carried_indirect + report.carried_double == 1

    def test_utilization_accounts_for_failures(self):
        alloc = WavelengthAllocator(n_nodes=4, planes=4,
                                    flows_per_wavelength=1)
        alloc.fail_plane(0)
        alloc.allocate(0, 1, slots=3)
        # 3 of (4 pairs... 12 ordered pairs x 3 healthy planes) slots.
        assert alloc.utilization() == pytest.approx(3 / (12 * 3))
