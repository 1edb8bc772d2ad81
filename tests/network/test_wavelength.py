"""Wavelength occupancy allocator (paper §IV-A)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.network.wavelength import WavelengthAllocator


@pytest.fixture
def alloc():
    return WavelengthAllocator(n_nodes=8, planes=5, flows_per_wavelength=8)


class TestCapacity:
    def test_initially_all_free(self, alloc):
        assert alloc.free_slots(0, 1) == 40
        assert alloc.free_wavelengths(0, 1) == 5
        assert alloc.utilization() == 0.0

    def test_allocate_reduces_capacity(self, alloc):
        alloc.allocate(0, 1, slots=3)
        assert alloc.used_slots(0, 1) == 3
        assert alloc.free_slots(0, 1) == 37

    def test_pair_free_gbps(self, alloc):
        # 40 slots x (25/8) Gbps = 125 Gbps.
        assert alloc.pair_free_gbps(0, 1) == pytest.approx(125.0)
        alloc.allocate(0, 1, slots=8)
        assert alloc.pair_free_gbps(0, 1) == pytest.approx(100.0)

    def test_has_capacity(self, alloc):
        assert alloc.has_capacity(0, 1, 40)
        assert not alloc.has_capacity(0, 1, 41)

    def test_allocation_is_least_loaded(self, alloc):
        planes = alloc.allocate(0, 1, slots=5)
        # Five slots spread across the five planes.
        assert sorted(planes) == [0, 1, 2, 3, 4]

    def test_overflow_raises(self, alloc):
        alloc.allocate(0, 1, slots=40)
        with pytest.raises(RuntimeError):
            alloc.allocate(0, 1, slots=1)


class TestRelease:
    def test_release_restores(self, alloc):
        planes = alloc.allocate(2, 3, slots=4)
        alloc.release(2, 3, planes)
        assert alloc.free_slots(2, 3) == 40

    def test_release_underflow_raises(self, alloc):
        with pytest.raises(RuntimeError):
            alloc.release(0, 1, [0])

    def test_release_bad_plane_rejected(self, alloc):
        alloc.allocate(0, 1)
        with pytest.raises(ValueError):
            alloc.release(0, 1, [9])

    def test_reset(self, alloc):
        alloc.allocate(0, 1, slots=10)
        alloc.reset()
        assert alloc.utilization() == 0.0


class TestBitmaps:
    def test_occupancy_bitmap(self, alloc):
        alloc.allocate(0, 1, slots=40)
        bitmap = alloc.occupancy_bitmap(0)
        assert bitmap[1]
        assert not bitmap[2]

    def test_slot_bitmap_counts(self, alloc):
        alloc.allocate(0, 1, slots=7)
        alloc.allocate(0, 2, slots=2)
        vec = alloc.slot_bitmap(0)
        assert vec[1] == 7
        assert vec[2] == 2
        assert vec.sum() == 9

    def test_bitmap_is_copy(self, alloc):
        vec = alloc.slot_bitmap(0)
        vec[1] = 99
        assert alloc.slot_bitmap(0)[1] == 0


class TestVectorizedAllocation:
    def test_allocate_matches_slot_by_slot_fill(self, alloc):
        """One allocate(slots=k) == k allocate(slots=1) calls."""
        other = WavelengthAllocator(n_nodes=8, planes=5,
                                    flows_per_wavelength=8)
        alloc.allocate(0, 1, slots=3)
        other.allocate(0, 1, slots=3)
        got = alloc.allocate(0, 1, slots=7)
        want = [other.allocate(0, 1, slots=1)[0] for _ in range(7)]
        assert got == want
        assert np.array_equal(alloc._occupancy, other._occupancy)

    def test_ties_break_toward_lowest_plane(self, alloc):
        assert alloc.allocate(0, 1, slots=2) == [0, 1]
        assert alloc.allocate(0, 1, slots=1) == [2]

    def test_allocate_skips_failed_planes(self, alloc):
        alloc.fail_plane(0)
        alloc.fail_plane(2)
        planes = alloc.allocate(0, 1, slots=6)
        assert set(planes) == {1, 3, 4}
        assert planes[:3] == [1, 3, 4]

    def test_allocate_pairs_matches_sequential(self, alloc):
        other = WavelengthAllocator(n_nodes=8, planes=5,
                                    flows_per_wavelength=8)
        other.fail_plane(1)
        alloc.fail_plane(1)
        src = np.array([0, 2, 5])
        dst = np.array([1, 3, 4])
        totals = np.array([7, 1, 12])
        seq = alloc.allocate_pairs(src, dst, totals)
        for s, d, t, row in zip(src, dst, totals, seq):
            assert row[:t].tolist() == other.allocate(int(s), int(d),
                                                      int(t))
            assert (row[t:] == -1).all()
        assert np.array_equal(alloc._occupancy, other._occupancy)

    def test_release_tokens_matches_release(self, alloc):
        planes = alloc.allocate(0, 1, slots=10)
        alloc.allocate(0, 2, slots=4)
        alloc.release_tokens(np.array([0] * 10), np.array([1] * 10),
                             np.array(planes))
        assert alloc.used_slots(0, 1) == 0
        assert alloc.used_slots(0, 2) == 4

    def test_release_tokens_underflow_raises(self, alloc):
        alloc.allocate(0, 1, slots=1)
        with pytest.raises(RuntimeError):
            alloc.release_tokens(np.array([0, 0]), np.array([1, 1]),
                                 np.array([0, 0]))

    def test_free_wavelengths_honors_failed_planes(self, alloc):
        alloc.allocate(0, 1, slots=2)  # occupies planes 0 and 1
        alloc.fail_plane(3)
        assert alloc.free_wavelengths(0, 1) == 2  # planes 2 and 4

    def test_utilization_excludes_diagonal_vectorized(self, alloc):
        alloc._occupancy[2, 2, 0] = 5  # corrupt diagonal on purpose
        alloc.allocate(0, 1, slots=4)
        assert alloc.utilization() == pytest.approx(4 / (8 * 7 * 40))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_allocate_fill_matches_allocate_pairs_closed_form(data):
    """``allocate``'s heap fill picks the planes ``allocate_pairs``'
    token sort picks, from any occupancy row and failed-plane set, and
    leaves the same occupancy and counts behind."""
    planes = data.draw(st.integers(1, 8), label="planes")
    per = data.draw(st.integers(1, 8), label="flows_per_wavelength")
    failed = data.draw(st.sets(st.integers(0, planes - 1),
                               max_size=planes - 1), label="failed")
    row = [0 if plane in failed else data.draw(st.integers(0, per))
           for plane in range(planes)]
    free = (planes - len(failed)) * per - sum(row)
    assume(free > 0)
    slots = data.draw(st.integers(1, free), label="slots")
    alloc, twin = (WavelengthAllocator(n_nodes=3, planes=planes,
                                       flows_per_wavelength=per)
                   for _ in range(2))
    for allocator in (alloc, twin):
        for plane in failed:
            allocator.fail_plane(plane)
        allocator._occupancy[1, 2] = row
        allocator._used[1, 2] = sum(row)
    got = alloc.allocate(1, 2, slots)
    want = twin.allocate_pairs(np.array([1]), np.array([2]),
                               np.array([slots]))[0, :slots].tolist()
    assert got == want
    assert np.array_equal(alloc._occupancy, twin._occupancy)
    assert np.array_equal(alloc._used, twin._used)


class TestValidation:
    def test_bad_indices(self, alloc):
        with pytest.raises(ValueError):
            alloc.free_slots(0, 8)
        with pytest.raises(ValueError):
            alloc.allocate(-1, 0)

    def test_bad_slot_count(self, alloc):
        with pytest.raises(ValueError):
            alloc.allocate(0, 1, slots=0)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            WavelengthAllocator(n_nodes=1)

    def test_utilization_counts_all_pairs(self, alloc):
        alloc.allocate(0, 1, slots=40)
        expected = 40 / (8 * 7 * 40)
        assert alloc.utilization() == pytest.approx(expected)

    def test_occupancy_dtype(self, alloc):
        assert alloc.slot_bitmap(0).dtype == np.int32 or \
            alloc.slot_bitmap(0).dtype == np.int64
