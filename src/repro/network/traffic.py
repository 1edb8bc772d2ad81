"""Traffic generators for the network simulator.

Patterns mirror the communication classes the paper's bandwidth
analysis reasons about (§VI-A): CPU <-> DDR4 and NIC <-> memory flows
sized from production profiles, GPU <-> HBM streams at near-line-rate,
and GPU <-> GPU collective traffic that replaces NVLink.

Traffic has one form, :class:`FlowBatch`: structure-of-arrays
(``src``/``dst``/``gbps`` numpy arrays plus an interned kind table).
The generators sample it with vectorized draws, every fabric reads its
arrays, and hand-built traffic is
``FlowBatch(src=[...], dst=[...], gbps=[...])``.

Every ``*_batch`` generator consumes the RNG in exactly the order of
the historical per-flow loop (``rng.integers(0, high_array)`` with a
broadcast bound array draws the same Lemire-bounded stream as the
equivalent sequence of scalar calls, including the 32-bit half-word
buffer), so for any seed a generator yields the flows the per-flow
loop drew and leaves the generator in the same state. Those loops are
kept, as the oracles of that identity, in ``tests/oracles/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Accepted wherever a generator is needed: an existing ``Generator``,
#: a plain int seed (JSON-serializable, so sweep/scenario configs can
#: carry it through the result cache's stable hashing), or ``None``
#: for the historical default of ``default_rng(0)``.
SeedLike = np.random.Generator | int | None


def as_generator(rng: SeedLike) -> np.random.Generator:
    """Coerce a seed-like value to a ``numpy`` ``Generator``."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(0 if rng is None else rng)


@dataclass(eq=False)
class FlowBatch:
    """A set of flows as structure-of-arrays.

    ``src``/``dst`` are int64 endpoint arrays, ``gbps`` the float64
    offered loads, and each flow's kind is ``kinds[kind_codes[i]]`` —
    kind strings are interned once per batch instead of hung off every
    flow. All four arrays have one entry per flow (``kinds`` is the
    intern table, typically length 1 per generator).

    Batches are the one form traffic takes: generators emit them,
    the simulators' ``run``, ``offer_batch`` and every backend's
    ``step`` consume them, and :meth:`concat` joins them in order.
    A batch is not iterable; code reads its arrays. Batches compare by
    identity: a field-wise ``==`` over arrays has no single truth
    value.
    """

    src: np.ndarray
    dst: np.ndarray
    gbps: np.ndarray
    kinds: list[str] = field(default_factory=lambda: ["generic"])
    kind_codes: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.src = np.ascontiguousarray(self.src, dtype=np.int64)
        self.dst = np.ascontiguousarray(self.dst, dtype=np.int64)
        self.gbps = np.ascontiguousarray(self.gbps, dtype=np.float64)
        if self.kind_codes is None:
            self.kind_codes = np.zeros(len(self.src), dtype=np.int64)
        self.kind_codes = np.ascontiguousarray(self.kind_codes,
                                               dtype=np.int64)
        n = len(self.src)
        if not (len(self.dst) == len(self.gbps)
                == len(self.kind_codes) == n):
            raise ValueError("batch arrays must share one length")
        if n and np.any(self.src == self.dst):
            raise ValueError("flow endpoints must differ")
        if n and not np.all(np.isfinite(self.gbps)):
            raise ValueError("flow bandwidth must be finite")
        if n and np.any(self.gbps <= 0):
            raise ValueError("flow bandwidth must be positive")
        if not self.kinds:
            raise ValueError("batch needs a non-empty kind table")
        if n and (int(self.kind_codes.min()) < 0
                  or int(self.kind_codes.max()) >= len(self.kinds)):
            raise ValueError("kind code outside the intern table")

    def __len__(self) -> int:
        return len(self.src)

    def slots(self, gbps_per_slot: float) -> np.ndarray:
        """Per-flow sub-slot demand at a given slot granularity.

        Ceil of ``gbps / gbps_per_slot``, at least one, per flow
        (fractional ``gbps_per_slot`` included).
        """
        slots = np.ceil(self.gbps / gbps_per_slot).astype(np.int64)
        np.maximum(slots, 1, out=slots)
        return slots

    @classmethod
    def empty(cls, kind: str = "generic") -> "FlowBatch":
        """A zero-flow batch."""
        z = np.zeros(0, dtype=np.int64)
        return cls(src=z, dst=z.copy(), gbps=np.zeros(0),
                   kinds=[kind], kind_codes=z.copy())

    @classmethod
    def concat(cls, batches) -> "FlowBatch":
        """Concatenate batches in order, re-interning kind tables."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty()
        if len(batches) == 1:
            return batches[0]
        kinds: list[str] = []
        intern: dict[str, int] = {}
        codes = []
        for b in batches:
            remap = np.empty(len(b.kinds), dtype=np.int64)
            for j, kind in enumerate(b.kinds):
                code = intern.get(kind)
                if code is None:
                    code = intern[kind] = len(kinds)
                    kinds.append(kind)
                remap[j] = code
            codes.append(remap[b.kind_codes])
        return cls(src=np.concatenate([b.src for b in batches]),
                   dst=np.concatenate([b.dst for b in batches]),
                   gbps=np.concatenate([b.gbps for b in batches]),
                   kinds=kinds, kind_codes=np.concatenate(codes))


# -- generators ---------------------------------------------------------------


def uniform_batch(n_nodes: int, n_flows: int, gbps: float = 25.0,
                  rng: SeedLike = None) -> FlowBatch:
    """Uniform-random pairs, fixed per-flow load.

    Draw order matches the historical per-flow loop exactly: one
    ``integers(n_nodes)`` then one ``integers(n_nodes - 1)`` per flow,
    via a single broadcast-bound call.
    """
    rng = as_generator(rng)
    high = np.empty(2 * n_flows, dtype=np.int64)
    high[0::2] = n_nodes
    high[1::2] = n_nodes - 1
    draws = (rng.integers(0, high) if n_flows
             else np.zeros(0, dtype=np.int64))
    src = np.ascontiguousarray(draws[0::2])
    dst = np.ascontiguousarray(draws[1::2])
    dst += dst >= src
    return FlowBatch(src=src, dst=dst,
                     gbps=np.full(n_flows, float(gbps)),
                     kinds=["uniform"])


def hotspot_batch(n_nodes: int, hotspot: int, n_flows: int,
                  gbps: float = 25.0,
                  rng: SeedLike = None) -> FlowBatch:
    """Many sources converge on one destination (worst case for direct
    wavelengths; exercises indirect routing)."""
    rng = as_generator(rng)
    if not 0 <= hotspot < n_nodes:
        raise ValueError("hotspot index out of range")
    src = rng.integers(n_nodes - 1, size=n_flows)
    src += src >= hotspot
    return FlowBatch(src=src,
                     dst=np.full(n_flows, hotspot, dtype=np.int64),
                     gbps=np.full(n_flows, float(gbps)),
                     kinds=["hotspot"])


def cpu_memory_batch(cpu_nodes: list[int], memory_nodes: list[int],
                     demand_gbps: np.ndarray | None = None,
                     rng: SeedLike = None) -> FlowBatch:
    """CPU <-> DDR4 flows with a production-like heavy-tailed demand.

    §VI-A: on Cori, 25 Gbps covers CPU-memory demand 97% of the time
    and 125 Gbps 99.5% of the time. We draw demands from a lognormal
    whose quantiles approximate that profile (median ~3.7 Gbps = the
    0.46 GB/s three-quarters figure of §II-A), unless explicit demands
    are given.
    """
    rng = as_generator(rng)
    if not cpu_nodes or not memory_nodes:
        raise ValueError("need at least one CPU and one memory node")
    n = len(cpu_nodes)
    if demand_gbps is None:
        # Lognormal calibrated so P(demand > 25 Gbps) ~ 3% and
        # P(demand > 125 Gbps) ~ 0.5%: solve mu/sigma from those two
        # quantile equations. ln25=3.22 at z=1.88, ln125=4.83 at z=2.58.
        sigma = (np.log(125.0) - np.log(25.0)) / (2.576 - 1.881)
        mu = np.log(25.0) - 1.881 * sigma
        demand_gbps = rng.lognormal(mu, sigma, size=n)
    gbps = np.maximum(np.asarray(demand_gbps,
                                 dtype=np.float64)[:n], 0.01)
    mems = np.asarray(memory_nodes, dtype=np.int64)
    return FlowBatch(src=np.asarray(cpu_nodes, dtype=np.int64),
                     dst=mems[np.arange(n) % len(mems)],
                     gbps=gbps, kinds=["cpu-mem"])


def gpu_allreduce_batch(gpu_nodes: list[int], gbps_per_pair: float,
                        ) -> FlowBatch:
    """Ring-style GPU <-> GPU collective: node i sends to node i+1.

    §VI-A worst case: every GPU MCM communicates at full NVLink-class
    bandwidth with other GPU MCMs simultaneously, so indirect routing
    through GPUs is unproductive and HBM paths must carry the slack.
    """
    if len(gpu_nodes) < 2:
        raise ValueError("need at least two GPU nodes")
    src = np.asarray(gpu_nodes, dtype=np.int64)
    return FlowBatch(src=src, dst=np.roll(src, -1),
                     gbps=np.full(len(src), float(gbps_per_pair)),
                     kinds=["gpu-gpu"])
