"""FlowBatch: structure-of-arrays flows, bit-identical to the loops.

Two contracts under test:

* Every ``*_batch`` generator consumes the RNG in exactly the order of
  the historical per-flow loop — same flows AND same final generator
  state, so code drawing from the generator afterwards is unperturbed.
  The oracles are the frozen pre-vectorization loops in
  ``tests/oracles/episodes.py``.
* The batch holds exactly the flows it was built from:
  ``to_flows``/``from_flows`` round-trip, ``slots()`` equals per-flow
  ``Flow.slots`` (including fractional slot granularity — the
  hoisted-bugfix regression), and construction rejects what ``Flow``
  rejects.
"""

import numpy as np
import pytest

from repro.network.traffic import (
    FlowBatch,
    cpu_memory_batch,
    gpu_allreduce_batch,
    hotspot_batch,
    uniform_batch,
)
from tests.oracles.episodes import (
    oracle_cpu_memory,
    oracle_hotspot,
    oracle_uniform,
)
from tests.oracles.flows import from_flows, to_flows


def assert_same_flows(batch_flows, oracle_flows):
    assert len(batch_flows) == len(oracle_flows)
    for got, want in zip(batch_flows, oracle_flows):
        assert (got.src, got.dst) == (want.src, want.dst)
        # bit-identical, not approx: the pinned scenario regressions
        # depend on the exact float stream.
        assert got.gbps == want.gbps


SEEDS = [0, 1, 7, 12345]


class TestGeneratorBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_nodes,n_flows",
                             [(2, 40), (3, 17), (10, 0), (10, 1),
                              (64, 257), (350, 1400)])
    def test_uniform(self, seed, n_nodes, n_flows):
        r_batch = np.random.default_rng(seed)
        r_oracle = np.random.default_rng(seed)
        batch = uniform_batch(n_nodes, n_flows, 25.0, rng=r_batch)
        want = oracle_uniform(n_nodes, n_flows, 25.0, r_oracle)
        assert_same_flows(to_flows(batch), want)
        assert r_batch.bit_generator.state == r_oracle.bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n_nodes,hotspot,n_flows",
                             [(2, 0, 9), (2, 1, 9), (8, 3, 30),
                              (8, 0, 1), (8, 7, 0), (350, 12, 900)])
    def test_hotspot(self, seed, n_nodes, hotspot, n_flows):
        r_batch = np.random.default_rng(seed)
        r_oracle = np.random.default_rng(seed)
        batch = hotspot_batch(n_nodes, hotspot, n_flows, 25.0,
                              rng=r_batch)
        want = oracle_hotspot(n_nodes, hotspot, n_flows, 25.0,
                              r_oracle)
        assert_same_flows(to_flows(batch), want)
        assert r_batch.bit_generator.state == r_oracle.bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cpu_memory(self, seed):
        cpus = list(range(120))
        mems = list(range(120, 140))
        r_batch = np.random.default_rng(seed)
        r_oracle = np.random.default_rng(seed)
        batch = cpu_memory_batch(cpus, mems, rng=r_batch)
        want = oracle_cpu_memory(cpus, mems, r_oracle)
        assert_same_flows(to_flows(batch), want)
        assert r_batch.bit_generator.state == r_oracle.bit_generator.state

    def test_draws_leave_rng_usable_in_place(self):
        # A generator threaded through a batch draw then a scalar draw
        # must see the same stream as threading it through two scalar
        # loops (buffered half-words included).
        r_a, r_b = (np.random.default_rng(9) for _ in range(2))
        uniform_batch(13, 31, rng=r_a)
        oracle_uniform(13, 31, 25.0, r_b)
        assert r_a.integers(1 << 40) == r_b.integers(1 << 40)


class TestSlotsHoisted:
    @pytest.mark.parametrize("gbps_per_slot",
                             [25.0, 3.125, 0.4, 7.77, 1.0])
    def test_batch_slots_match_scalar(self, gbps_per_slot):
        rng = np.random.default_rng(11)
        gbps = np.concatenate([
            rng.lognormal(1.0, 1.5, size=200),
            # exact multiples and near-boundary values: ceil must not
            # drift between the scalar and array code paths.
            np.array([gbps_per_slot, 2 * gbps_per_slot,
                      gbps_per_slot * 0.999999, 0.01]),
        ])
        batch = FlowBatch(src=np.zeros(len(gbps), dtype=np.int64),
                          dst=np.ones(len(gbps), dtype=np.int64),
                          gbps=gbps)
        got = batch.slots(gbps_per_slot)
        assert got.dtype == np.int64
        for i, f in enumerate(to_flows(batch)):
            assert int(got[i]) == f.slots(gbps_per_slot)


class TestFlowBatch:
    def test_round_trip_through_flows(self):
        flows = (to_flows(uniform_batch(10, 20, rng=1))
                 + to_flows(gpu_allreduce_batch([0, 1, 2], 50.0)))
        batch = from_flows(flows)
        assert to_flows(batch) == flows
        assert len(batch) == len(flows)

    def test_batch_is_not_iterable(self):
        # Iterating a batch would build one object per flow; code
        # reads the arrays instead.
        with pytest.raises(TypeError):
            iter(uniform_batch(8, 5, rng=0))

    def test_equality_is_identity(self):
        # A field-wise ``==`` over the arrays raises for batches of
        # more than one flow; batches compare by identity instead.
        batch = uniform_batch(8, 3, rng=1)
        assert batch == batch
        assert (batch == uniform_batch(8, 3, rng=1)) is False

    def test_concat_keeps_flow_order(self):
        a = uniform_batch(8, 4, rng=0)
        b = hotspot_batch(8, 2, 3, rng=0)
        c = uniform_batch(8, 2, rng=1)
        cat = FlowBatch.concat([a, b, c])
        assert to_flows(cat) == to_flows(a) + to_flows(b) + to_flows(c)

    def test_concat_empty(self):
        assert len(FlowBatch.concat([])) == 0
        assert len(FlowBatch.concat([FlowBatch.empty()])) == 0

    def test_validation_mirrors_flow(self):
        with pytest.raises(ValueError):
            FlowBatch(src=np.array([1]), dst=np.array([1]),
                      gbps=np.array([1.0]))
        with pytest.raises(ValueError):
            FlowBatch(src=np.array([0]), dst=np.array([1]),
                      gbps=np.array([0.0]))
        # NaN compares false with everything, so a bare ``<= 0``
        # check let it through; infinities are rejected with it.
        with pytest.raises(ValueError, match="finite"):
            FlowBatch(src=[0, 1], dst=[1, 2], gbps=[np.nan, 25.0])
        with pytest.raises(ValueError, match="finite"):
            FlowBatch(src=[0, 1], dst=[1, 2], gbps=[25.0, np.inf])
        with pytest.raises(ValueError, match="finite"):
            FlowBatch(src=[0], dst=[1], gbps=[-np.inf])
        with pytest.raises(ValueError):
            FlowBatch(src=np.array([0]), dst=np.array([1, 2]),
                      gbps=np.array([1.0]))
