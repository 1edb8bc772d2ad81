"""FlowBatch: structure-of-arrays flows, bit-identical to the loops.

Two contracts under test:

* Every ``*_batch`` generator consumes the RNG in exactly the order of
  the historical per-flow loop — same flows AND same final generator
  state, so code drawing from the generator afterwards is unperturbed.
  The oracles below are frozen copies of the pre-vectorization loops.
* The batch is a lossless view: ``to_flows``/``from_flows`` round-trip,
  ``slots()`` equals per-flow ``Flow.slots`` (including fractional
  slot granularity — the hoisted-bugfix regression), and
  ``to_dict``/``from_dict`` are exact inverses.
"""

import numpy as np
import pytest

from repro.network.traffic import (
    Flow,
    FlowBatch,
    cpu_memory_batch,
    cpu_memory_traffic,
    gpu_allreduce_batch,
    gpu_allreduce_traffic,
    gpu_hbm_batch,
    gpu_hbm_traffic,
    hotspot_batch,
    hotspot_traffic,
    uniform_batch,
    uniform_traffic,
)

# -- frozen pre-vectorization loops (the reference oracles) ------------------


def oracle_uniform(n_nodes, n_flows, gbps, rng):
    flows = []
    for _ in range(n_flows):
        src = int(rng.integers(n_nodes))
        dst = int(rng.integers(n_nodes - 1))
        if dst >= src:
            dst += 1
        flows.append(Flow(src, dst, gbps, kind="uniform"))
    return flows


def oracle_hotspot(n_nodes, hotspot, n_flows, gbps, rng):
    flows = []
    for _ in range(n_flows):
        src = int(rng.integers(n_nodes - 1))
        if src >= hotspot:
            src += 1
        flows.append(Flow(src, hotspot, gbps, kind="hotspot"))
    return flows


def oracle_cpu_memory(cpu_nodes, memory_nodes, rng):
    sigma = (np.log(125.0) - np.log(25.0)) / (2.576 - 1.881)
    mu = np.log(25.0) - 1.881 * sigma
    demand_gbps = rng.lognormal(mu, sigma, size=len(cpu_nodes))
    flows = []
    for i, cpu in enumerate(cpu_nodes):
        mem = memory_nodes[i % len(memory_nodes)]
        flows.append(Flow(cpu, mem, float(max(demand_gbps[i], 0.01)),
                          kind="cpu-mem"))
    return flows


def assert_same_flows(batch_flows, oracle_flows):
    assert len(batch_flows) == len(oracle_flows)
    for got, want in zip(batch_flows, oracle_flows):
        assert (got.src, got.dst, got.kind) == \
            (want.src, want.dst, want.kind)
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
        assert_same_flows(batch.to_flows(), want)
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
        assert_same_flows(batch.to_flows(), want)
        assert r_batch.bit_generator.state == r_oracle.bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cpu_memory(self, seed):
        cpus = list(range(120))
        mems = list(range(120, 140))
        r_batch = np.random.default_rng(seed)
        r_oracle = np.random.default_rng(seed)
        batch = cpu_memory_batch(cpus, mems, rng=r_batch)
        want = oracle_cpu_memory(cpus, mems, r_oracle)
        assert_same_flows(batch.to_flows(), want)
        assert r_batch.bit_generator.state == r_oracle.bit_generator.state

    def test_list_forms_are_views_of_the_batch_forms(self):
        assert (uniform_traffic(16, 50, rng=3)
                == uniform_batch(16, 50, rng=3).to_flows())
        assert (hotspot_traffic(16, 2, 50, rng=3)
                == hotspot_batch(16, 2, 50, rng=3).to_flows())
        assert (cpu_memory_traffic([0, 1, 2], [3], rng=3)
                == cpu_memory_batch([0, 1, 2], [3], rng=3).to_flows())
        assert (gpu_allreduce_traffic([4, 5, 6], 900.0)
                == gpu_allreduce_batch([4, 5, 6], 900.0).to_flows())
        assert (gpu_hbm_traffic([0, 1], [2, 3])
                == gpu_hbm_batch([0, 1], [2, 3]).to_flows())

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
        for i, f in enumerate(batch.to_flows()):
            assert int(got[i]) == f.slots(gbps_per_slot)


class TestFlowBatch:
    def test_round_trip_through_flows(self):
        flows = (uniform_traffic(10, 20, rng=1)
                 + gpu_hbm_traffic([0, 1], [2, 3]))
        batch = FlowBatch.from_flows(flows)
        assert batch.kinds == ["uniform", "gpu-hbm"]
        assert batch.to_flows() == flows
        assert len(batch) == len(flows)
        assert list(batch) == flows

    def test_from_flows_passes_batches_through(self):
        batch = uniform_batch(8, 5, rng=0)
        assert FlowBatch.from_flows(batch) is batch

    def test_flow_at_and_kind_of(self):
        batch = FlowBatch.from_flows(
            [Flow(0, 1, 5.0, "a"), Flow(2, 3, 7.0, "b")])
        assert batch.kind_of(1) == "b"
        assert batch.flow_at(0) == Flow(0, 1, 5.0, "a")

    def test_concat_reinterns_kinds(self):
        a = uniform_batch(8, 4, rng=0)
        b = hotspot_batch(8, 2, 3, rng=0)
        c = uniform_batch(8, 2, rng=1)
        cat = FlowBatch.concat([a, b, c])
        assert cat.kinds == ["uniform", "hotspot"]
        assert cat.to_flows() == (a.to_flows() + b.to_flows()
                                  + c.to_flows())

    def test_concat_empty(self):
        assert len(FlowBatch.concat([])) == 0
        assert len(FlowBatch.concat([FlowBatch.empty()])) == 0

    def test_to_dict_is_json_native(self):
        batch = uniform_batch(8, 6, rng=2)
        payload = batch.to_dict()
        assert all(isinstance(v, int)
                   for v in payload["src"] + payload["dst"]
                   + payload["kind_codes"])
        assert all(isinstance(v, float) for v in payload["gbps"])
        again = FlowBatch.from_dict(payload)
        assert np.array_equal(again.src, batch.src)
        assert np.array_equal(again.dst, batch.dst)
        assert np.array_equal(again.gbps, batch.gbps)
        assert again.kinds == batch.kinds

    def test_validation_mirrors_flow(self):
        with pytest.raises(ValueError):
            FlowBatch(src=np.array([1]), dst=np.array([1]),
                      gbps=np.array([1.0]))
        with pytest.raises(ValueError):
            FlowBatch(src=np.array([0]), dst=np.array([1]),
                      gbps=np.array([0.0]))
        with pytest.raises(ValueError):
            FlowBatch(src=np.array([0]), dst=np.array([1, 2]),
                      gbps=np.array([1.0]))
        with pytest.raises(ValueError):
            FlowBatch(src=np.array([0]), dst=np.array([1]),
                      gbps=np.array([1.0]), kinds=["x"],
                      kind_codes=np.array([4]))
