"""Piggybacked state and staleness (paper §IV-A)."""

import pytest

from repro.network.state import PiggybackState
from repro.network.wavelength import WavelengthAllocator


@pytest.fixture
def alloc():
    return WavelengthAllocator(n_nodes=6, planes=5, flows_per_wavelength=8)


class TestPiggybackState:
    def test_fresh_at_start(self, alloc):
        alloc.allocate(0, 1, slots=40)
        state = PiggybackState(alloc, update_period=4)
        assert (state.view
                == alloc.slot_bitmaps(range(alloc.n_nodes))).all()

    def test_staleness_grows_between_updates(self, alloc):
        state = PiggybackState(alloc, update_period=5)
        # A source whose jittered phase is not due at t=1.
        src = next(s for s in range(alloc.n_nodes)
                   if (1 + state._phase[s]) % 5)
        dst = (src + 1) % alloc.n_nodes
        alloc.allocate(src, dst, slots=40)
        state.step()  # t=1: src does not broadcast
        # The view still thinks src->dst is free.
        assert state.view[src, dst] == 0
        assert alloc.slot_bitmap(src)[dst] == 40

    def test_update_propagates(self, alloc):
        state = PiggybackState(alloc, update_period=1)
        alloc.allocate(0, 1, slots=40)
        state.step()
        assert state.view[0, 1] == 40

    def test_broadcast_all(self, alloc):
        state = PiggybackState(alloc, update_period=100)
        alloc.allocate(1, 2, slots=40)
        state.broadcast_all()
        assert state.view[1, 2] == 40

    def test_status_vector_size_matches_paper(self):
        # §IV-A: 256 destinations x 8 bits = 256 bytes.
        state = PiggybackState(WavelengthAllocator(n_nodes=256))
        assert state.status_bytes(bits_per_pair=8) == 256

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
