"""Traffic generators."""

import numpy as np
import pytest

from repro.network.traffic import (
    cpu_memory_batch,
    gpu_allreduce_batch,
    hotspot_batch,
    uniform_batch,
)
from tests.oracles.flows import Flow


class TestFlow:
    def test_slots_rounding(self):
        flow = Flow(0, 1, gbps=26.0)
        assert flow.slots(25.0) == 2
        assert flow.slots(3.125) == 9

    def test_minimum_one_slot(self):
        assert Flow(0, 1, gbps=0.01).slots(25.0) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Flow(1, 1, gbps=1.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Flow(0, 1, gbps=0.0)


class TestUniform:
    def test_count_and_endpoints(self):
        batch = uniform_batch(10, 50, rng=np.random.default_rng(0))
        assert len(batch) == 50
        assert np.all((0 <= batch.src) & (batch.src < 10))
        assert np.all((0 <= batch.dst) & (batch.dst < 10))
        assert np.all(batch.src != batch.dst)

    def test_seeded_reproducible(self):
        a = uniform_batch(10, 20, rng=np.random.default_rng(5))
        b = uniform_batch(10, 20, rng=np.random.default_rng(5))
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)

    def test_int_seed_matches_generator(self):
        # Scenario/sweep configs carry plain ints so they stay
        # JSON-serializable for cache hashing.
        a = uniform_batch(10, 20, rng=5)
        b = uniform_batch(10, 20, rng=np.random.default_rng(5))
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)

    def test_none_seed_keeps_historical_default(self):
        # No generator means a fresh default_rng(0) on every call, so
        # the figure tasks that pass none repeat one background.
        a = uniform_batch(10, 20)
        b = uniform_batch(10, 20, rng=0)
        assert np.array_equal(a.src, b.src)
        assert np.array_equal(a.dst, b.dst)


class TestHotspot:
    def test_all_target_hotspot(self):
        batch = hotspot_batch(8, hotspot=3, n_flows=30)
        assert np.all(batch.dst == 3)
        assert np.all(batch.src != 3)

    def test_bad_hotspot_rejected(self):
        with pytest.raises(ValueError):
            hotspot_batch(8, hotspot=8, n_flows=1)

    def test_int_seed_matches_generator(self):
        a = hotspot_batch(8, hotspot=3, n_flows=12, rng=7)
        b = hotspot_batch(8, hotspot=3, n_flows=12,
                          rng=np.random.default_rng(7))
        assert np.array_equal(a.src, b.src)


class TestCPUMemory:
    def test_demand_profile_quantiles(self):
        cpus = list(range(200))
        mems = list(range(200, 240))
        demands = cpu_memory_batch(cpus, mems,
                                   rng=np.random.default_rng(2)).gbps
        # §VI-A: 25 Gbps covers ~97%, 125 Gbps ~99.5% of the time.
        assert np.mean(demands <= 25.0) > 0.90
        assert np.mean(demands <= 125.0) > 0.97

    def test_explicit_demands(self):
        batch = cpu_memory_batch([0, 1], [2],
                                 demand_gbps=np.array([5.0, 7.0]))
        assert batch.gbps.tolist() == [5.0, 7.0]

    def test_requires_nodes(self):
        with pytest.raises(ValueError):
            cpu_memory_batch([], [1])


class TestGPUPatterns:
    def test_allreduce_ring(self):
        batch = gpu_allreduce_batch([0, 1, 2, 3], gbps_per_pair=900.0)
        assert len(batch) == 4
        assert (batch.src[0], batch.dst[0]) == (0, 1)
        assert (batch.src[-1], batch.dst[-1]) == (3, 0)

    def test_allreduce_needs_two(self):
        with pytest.raises(ValueError):
            gpu_allreduce_batch([0], gbps_per_pair=1.0)
