"""Per-flow episode generation: the loops the ``*_batch`` draws replaced.

``oracle_uniform``, ``oracle_hotspot`` and ``oracle_cpu_memory`` are
frozen copies of the traffic generators' pre-vectorization loops: one
scalar RNG call per draw, one :class:`~tests.oracles.flows.Flow` per
flow. :class:`ScalarEpisode` builds
:meth:`~repro.scenarios.episodes.Episode.generate_batch`'s oracle from
them, plus per-flow loops for the collective, gpu-hbm and cori-replay
kinds. Twin tests demand the same flows, bit for bit, and the same
generator state afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.scenarios.episodes import Episode, sample_count
from repro.workloads.cori import CORI_PROFILES
from tests.oracles.flows import Flow


def oracle_uniform(n_nodes, n_flows, gbps, rng):
    flows = []
    for _ in range(n_flows):
        src = int(rng.integers(n_nodes))
        dst = int(rng.integers(n_nodes - 1))
        if dst >= src:
            dst += 1
        flows.append(Flow(src, dst, gbps))
    return flows


def oracle_hotspot(n_nodes, hotspot, n_flows, gbps, rng):
    flows = []
    for _ in range(n_flows):
        src = int(rng.integers(n_nodes - 1))
        if src >= hotspot:
            src += 1
        flows.append(Flow(src, hotspot, gbps))
    return flows


def oracle_cpu_memory(cpu_nodes, memory_nodes, rng):
    sigma = (np.log(125.0) - np.log(25.0)) / (2.576 - 1.881)
    mu = np.log(25.0) - 1.881 * sigma
    demand_gbps = rng.lognormal(mu, sigma, size=len(cpu_nodes))
    flows = []
    for i, cpu in enumerate(cpu_nodes):
        mem = memory_nodes[i % len(memory_nodes)]
        flows.append(Flow(cpu, mem, float(max(demand_gbps[i], 0.01))))
    return flows


class ScalarEpisode(Episode):
    """:class:`Episode` emitting its epoch's flows one at a time."""

    def generate(self, epoch: int, n_epochs: int, n_nodes: int,
                 rng: np.random.Generator) -> list[Flow]:
        if not self.active(epoch):
            return []
        scale = self.intensity(epoch, n_epochs)
        if scale <= 0.0:
            return []
        if self.kind in ("uniform", "hotspot"):
            count = int(round(sample_count(self.flows, rng) * scale))
            if count <= 0:
                return []
            if self.kind == "uniform":
                return oracle_uniform(n_nodes, count, self.gbps, rng)
            return oracle_hotspot(n_nodes,
                                  int(self.params.get("hotspot", 0)),
                                  count, self.gbps, rng)
        gbps = max(0.01, self.gbps * scale)
        if self.kind == "collective":
            nodes = self._nodes(n_nodes, minimum=2)
            return [Flow(src, nodes[(i + 1) % len(nodes)], gbps)
                    for i, src in enumerate(nodes)]
        nodes = self._nodes(n_nodes)
        mem = self._memory_nodes(n_nodes, nodes)
        if self.kind == "gpu-hbm":
            return [Flow(src, mem[i % len(mem)], gbps)
                    for i, src in enumerate(nodes)]
        if self.kind == "cpu-mem":
            return [Flow(f.src, f.dst, max(0.01, f.gbps * scale))
                    for f in oracle_cpu_memory(nodes, mem, rng)]
        # "cori-replay"
        profile = CORI_PROFILES[self.params.get("resource",
                                                "memory_bandwidth")]
        peak_gbps = float(self.params.get("peak_gbps", 1096.0))
        utilization = profile.sample(len(nodes), rng)
        return [Flow(src, mem[i % len(mem)],
                     max(0.01, float(utilization[i]) * peak_gbps * scale))
                for i, src in enumerate(nodes)]
