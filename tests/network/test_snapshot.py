"""Snapshot/restore round trips for the network-layer simulators.

The contract under test everywhere: ``restore(snapshot())`` on a
*freshly constructed, differently seeded* instance of the same shape,
followed by N more slots of identical traffic, is bit-identical to a
run that never stopped — including after plane failures/repairs.
Snapshots additionally must survive
the result cache's JSON encoding losslessly, because that is how the
carry-mode sharded runner transports them between processes.
"""

import numpy as np
import pytest

from repro.experiments.cache import decode_metrics, encode_metrics
from repro.network.simulator import AWGRNetworkSimulator
from repro.network.state import PiggybackState
from repro.network.traffic import FlowBatch, hotspot_batch, uniform_batch
from repro.network.wavelength import (
    WavelengthAllocator,
    decode_array,
    encode_array,
)
from repro.network.wss_simulator import WSSNetworkSimulator


def json_round_trip(snapshot: dict) -> dict:
    """Exactly what the chunk checkpoint cache does to a snapshot."""
    return decode_metrics(encode_metrics(snapshot))


def mixed_batches(seed, n_batches=5, n_nodes=10):
    rng = np.random.default_rng(seed)
    return [FlowBatch.concat([
                uniform_batch(n_nodes, 10, gbps=25.0, rng=rng),
                hotspot_batch(n_nodes, 0, 5, gbps=25.0, rng=rng)])
            for _ in range(n_batches)]


class TestAllocatorSnapshot:
    def test_round_trip_preserves_occupancy_and_failures(self):
        a = WavelengthAllocator(n_nodes=6, planes=4)
        a.allocate(0, 1, 3)
        a.allocate(2, 3, 2)
        a.fail_plane(1)
        snap = json_round_trip(a.snapshot())
        b = WavelengthAllocator(n_nodes=6, planes=4)
        b.restore(snap)
        assert (b._occupancy == a._occupancy).all()
        assert b.failed_planes == a.failed_planes
        assert b.healthy_planes == a.healthy_planes
        assert (b._healthy == a._healthy).all()

    def test_shape_mismatch_rejected(self):
        a = WavelengthAllocator(n_nodes=6, planes=4)
        b = WavelengthAllocator(n_nodes=8, planes=4)
        with pytest.raises(ValueError, match="shape"):
            b.restore(a.snapshot())

    def test_failed_plane_out_of_range_rejected(self):
        a = WavelengthAllocator(n_nodes=4, planes=3)
        snap = a.snapshot()
        snap["failed_planes"] = [7]
        with pytest.raises(ValueError, match="out of range"):
            a.restore(snap)


class TestArrayEnvelope:
    def test_wide_values_round_trip(self):
        # 350 sub-slots on one wavelength outgrow a byte, and board
        # ages outgrow 16 bits.
        alloc = WavelengthAllocator(n_nodes=4, planes=2,
                                    flows_per_wavelength=400)
        alloc.allocate(0, 1, slots=700)
        state = PiggybackState(alloc)
        state.board.age[:] = [0, 65_536, 2**40, 7]
        snap = json_round_trip({"allocator": alloc.snapshot(),
                                "state": state.snapshot()})
        other = WavelengthAllocator(n_nodes=4, planes=2,
                                    flows_per_wavelength=400)
        other.restore(snap["allocator"])
        restored = PiggybackState(other)
        restored.restore(snap["state"])
        assert np.array_equal(other._occupancy, alloc._occupancy)
        assert other._occupancy.max() == 350
        assert np.array_equal(restored.board.view, state.board.view)
        assert restored.board.view.max() == 700
        assert np.array_equal(restored.board.age, state.board.age)

    def test_dtype_follows_the_value_range(self):
        assert decode_array(encode_array(np.array([-1, 300]))).dtype \
            == np.int16
        assert encode_array(np.zeros((2, 3), dtype=np.int64))["dtype"] \
            == np.dtype(np.uint8).str
        assert decode_array(encode_array(np.array([-129, 5]))).dtype \
            == np.int16
        assert decode_array(encode_array(np.zeros(0, dtype=int))).shape \
            == (0,)
        with pytest.raises(TypeError):
            encode_array(np.zeros(3))

    def test_equal_states_encode_to_equal_strings(self):
        a = WavelengthAllocator(n_nodes=6, planes=3)
        b = WavelengthAllocator(n_nodes=6, planes=3)
        a.allocate(0, 1, slots=3)
        a.allocate(2, 4, slots=9)
        b.allocate(2, 4, slots=9)
        b.allocate(0, 1, slots=3)
        assert (encode_metrics(a.snapshot())
                == encode_metrics(b.snapshot()))
        assert (encode_array(np.arange(5, dtype=np.int64))
                == encode_array(np.arange(5, dtype=np.int32)))

    def test_board_shape_mismatch_rejected(self):
        small = PiggybackState(WavelengthAllocator(n_nodes=4))
        large = PiggybackState(WavelengthAllocator(n_nodes=5))
        with pytest.raises(ValueError, match="shape"):
            large.restore(small.snapshot())


class TestAWGRSimulatorSnapshot:
    @pytest.mark.parametrize("track_state", [True, False])
    def test_restore_then_run_is_bit_identical(self, track_state):
        kwargs = dict(n_nodes=10, planes=3, flows_per_wavelength=2,
                      state_update_period=3, track_state=track_state)
        original = AWGRNetworkSimulator(rng_seed=7, **kwargs)
        original.run(mixed_batches(1), duration_slots=3)
        snap = json_round_trip(original.snapshot())
        suffix = mixed_batches(2)
        report_a = original.run(suffix, duration_slots=3)
        # Different construction seed: everything that matters must
        # come from the snapshot, not the constructor.
        restored = AWGRNetworkSimulator(rng_seed=999, **kwargs)
        restored.restore(snap)
        report_b = restored.run(suffix, duration_slots=3)
        assert report_a.as_dict() == report_b.as_dict()
        assert report_a.hop_histogram == report_b.hop_histogram
        assert (original.allocator._occupancy
                == restored.allocator._occupancy).all()
        assert (original.router._rng.bit_generator.state
                == restored.router._rng.bit_generator.state)

    @pytest.mark.parametrize("track_state", [True, False])
    def test_round_trip_across_fail_and_repair(self, track_state):
        kwargs = dict(n_nodes=10, planes=3, flows_per_wavelength=2,
                      track_state=track_state)
        original = AWGRNetworkSimulator(rng_seed=3, **kwargs)
        original.run(mixed_batches(4, n_batches=3), duration_slots=4)
        original.fail_plane(0)
        snap_failed = json_round_trip(original.snapshot())

        restored = AWGRNetworkSimulator(rng_seed=555, **kwargs)
        restored.restore(snap_failed)
        assert restored.allocator.failed_planes == frozenset({0})
        # Repair + more traffic on both; still bit-identical.
        original.repair_plane(0)
        restored.repair_plane(0)
        suffix = mixed_batches(5, n_batches=3)
        report_a = original.run(suffix, duration_slots=4)
        report_b = restored.run(suffix, duration_slots=4)
        assert report_a.as_dict() == report_b.as_dict()

    def test_in_flight_flows_survive_and_release_cleanly(self):
        sim = AWGRNetworkSimulator(n_nodes=6, planes=2,
                                   flows_per_wavelength=2, rng_seed=0)
        sim.run(mixed_batches(6, n_batches=2, n_nodes=6),
                duration_slots=5)
        occupied = int(sim.allocator._occupancy.sum())
        assert occupied > 0  # flows still in flight
        restored = AWGRNetworkSimulator(n_nodes=6, planes=2,
                                        flows_per_wavelength=2,
                                        rng_seed=1)
        restored.restore(json_round_trip(sim.snapshot()))
        assert int(restored.allocator._occupancy.sum()) == occupied
        restored.drain()  # carried reservations must release exactly
        assert int(restored.allocator._occupancy.sum()) == 0

    def test_config_mismatch_rejected(self):
        a = AWGRNetworkSimulator(n_nodes=8, planes=3)
        b = AWGRNetworkSimulator(n_nodes=8, planes=5)
        with pytest.raises(ValueError, match="config"):
            b.restore(a.snapshot())
        # Line rate changes slot arithmetic, so it must guard too.
        c = AWGRNetworkSimulator(n_nodes=8, planes=3,
                                 gbps_per_wavelength=50.0)
        with pytest.raises(ValueError, match="config"):
            c.restore(a.snapshot())


class TestWSSSimulatorSnapshot:
    def test_switch_count_mismatch_rejected(self):
        fabric_snap = WSSNetworkSimulator(n_nodes=4, n_switches=3
                                          ).fabric.snapshot()
        fabric_snap["n_switches"] = 2  # claims fewer than it carries
        with pytest.raises(ValueError, match="switch count"):
            WSSNetworkSimulator(n_nodes=4, n_switches=3
                                ).fabric.restore(fabric_snap)
