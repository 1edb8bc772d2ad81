"""Piggybacked state and staleness (paper §IV-A)."""

import pytest

from repro.network.state import OccupancyBoard, PiggybackState
from repro.network.wavelength import WavelengthAllocator


@pytest.fixture
def alloc():
    return WavelengthAllocator(n_nodes=6, planes=5, flows_per_wavelength=8)


class TestOccupancyBoard:
    def test_refresh_and_query(self, alloc):
        board = OccupancyBoard(6, 40)
        alloc.allocate(0, 1, slots=40)
        board.refresh_from(0, alloc.slot_bitmap(0))
        assert not board.believed_free(0, 1)
        assert board.believed_free(0, 2)

    def test_tick_ages(self):
        board = OccupancyBoard(4, 40)
        board.tick()
        board.tick()
        assert board.age.max() == 2

    def test_refresh_resets_age(self, alloc):
        board = OccupancyBoard(6, 40)
        board.tick()
        board.refresh_from(2, alloc.slot_bitmap(2))
        assert board.age[2] == 0
        assert board.age[0] == 1

    def test_status_vector_size_matches_paper(self):
        # §IV-A: 256 destinations x 8 bits = 256 bytes.
        board = OccupancyBoard(256, 40)
        assert board.status_bytes(bits_per_pair=8) == 256

    def test_wrong_shape_rejected(self, alloc):
        board = OccupancyBoard(6, 40)
        with pytest.raises(ValueError):
            board.refresh_from(0, alloc.slot_bitmap(0)[:3])


class TestPiggybackState:
    def test_fresh_at_start(self, alloc):
        state = PiggybackState(alloc, update_period=4)
        assert state.max_staleness() == 0

    def test_staleness_grows_between_updates(self, alloc):
        state = PiggybackState(alloc, update_period=5)
        # A source whose jittered phase is not due at t=1.
        src = next(s for s in range(alloc.n_nodes)
                   if (1 + state._phase[s]) % 5)
        dst = (src + 1) % alloc.n_nodes
        alloc.allocate(src, dst, slots=40)
        state.step()  # t=1: src does not broadcast
        board = state.board_of(2)
        # View still thinks src->dst is free.
        assert board.believed_free(src, dst)
        assert state.max_staleness() >= 1

    def test_update_propagates(self, alloc):
        state = PiggybackState(alloc, update_period=1)
        alloc.allocate(0, 1, slots=40)
        state.step()
        assert not state.board_of(3).believed_free(0, 1)

    def test_broadcast_all(self, alloc):
        state = PiggybackState(alloc, update_period=100)
        alloc.allocate(1, 2, slots=40)
        state.broadcast_all()
        assert not state.board_of(4).believed_free(1, 2)

    def test_bad_period_rejected(self, alloc):
        with pytest.raises(ValueError):
            PiggybackState(alloc, update_period=0)

    def test_piggyback_overhead_negligible(self, alloc):
        # §IV-A: "the bandwidth impact is negligible".
        state = PiggybackState(alloc)
        assert state.piggyback_overhead_fraction() < 1e-5

    def test_jitter_spreads_phases(self, alloc):
        state = PiggybackState(alloc, update_period=7, rng_seed=1)
        assert len(set(int(p) for p in state._phase)) > 1
