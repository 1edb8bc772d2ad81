"""Composable workload episodes: phase-based, time-varying traffic.

An :class:`Episode` describes one application phase that is active for
a window of scenario epochs and emits a flow batch each epoch it is
active: uniform background chatter, a converging hotspot, CPU<->DDR4
demand, GPU<->HBM streaming, ring collectives, or a Cori-trace replay
that resamples per-node utilization from the §II-A profiles
(:mod:`repro.workloads.cori`) every epoch.

Two knobs make episodes *time-varying* and *heavy-tailed* rather than
the static hand-built batches the simulators used to receive:

* an intensity **envelope** — a declarative modulation of offered load
  over the episode's lifetime (constant, linear ramp, diurnal cosine,
  on/off burst);
* a flow-count **sampler** — per-epoch flow counts drawn from a fixed,
  Poisson, lognormal, or Pareto distribution, so episode sizes follow
  the heavy-tailed job/flow-size statistics production traces show
  rather than a fixed count.

Everything here is a frozen dataclass over JSON-stable fields, so a
whole scenario round-trips through ``to_config``/``from_config`` and
hashes stably into the sweep engine's result cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.network.traffic import (
    FlowBatch,
    cpu_memory_batch,
    gpu_allreduce_batch,
    hotspot_batch,
    uniform_batch,
)

#: Episode kinds and the traffic class each one emits.
EPISODE_KINDS = ("uniform", "hotspot", "cpu-mem", "gpu-hbm",
                 "collective", "cori-replay")


# -- flow-count samplers -------------------------------------------------------

def sample_count(spec: int | dict, rng: np.random.Generator) -> int:
    """Draw one per-epoch flow count from a declarative sampler spec.

    ``spec`` is either a plain int (fixed count) or a dict naming a
    distribution: ``{"dist": "fixed", "value": n}``,
    ``{"dist": "poisson", "mean": m}``,
    ``{"dist": "lognormal", "median": m, "sigma": s}``, or
    ``{"dist": "pareto", "minimum": m, "alpha": a}`` (heavy-tailed;
    smaller ``alpha`` = heavier tail).
    """
    if isinstance(spec, (int, np.integer)):
        if spec < 0:
            raise ValueError("flow count must be >= 0")
        return int(spec)
    dist = spec.get("dist")
    if dist == "fixed":
        return int(spec["value"])
    if dist == "poisson":
        return int(rng.poisson(spec["mean"]))
    if dist == "lognormal":
        sigma = float(spec.get("sigma", 1.0))
        draw = rng.lognormal(math.log(spec["median"]), sigma)
        return int(round(draw))
    if dist == "pareto":
        minimum = float(spec.get("minimum", 1.0))
        alpha = float(spec.get("alpha", 1.5))
        draw = minimum * (1.0 + rng.pareto(alpha))
        return int(round(draw))
    raise ValueError(f"unknown count sampler {spec!r}")


# -- intensity envelopes -------------------------------------------------------

def envelope_value(spec: dict | None, t: int, duration: int) -> float:
    """Intensity multiplier at episode-relative epoch ``t``.

    ``spec`` is ``None`` (constant 1.0) or a dict:
    ``{"kind": "constant", "value": v}``;
    ``{"kind": "ramp", "start": a, "end": b}`` — linear over the
    episode's ``duration``;
    ``{"kind": "diurnal", "period": p, "low": a, "high": b,
    "phase": k}`` — raised cosine, trough at phase 0;
    ``{"kind": "burst", "period": p, "duty": d, "low": a,
    "high": b}`` — ``high`` for the first ``d`` fraction of each
    period, ``low`` otherwise.
    """
    if spec is None:
        return 1.0
    kind = spec.get("kind")
    if kind == "constant":
        return float(spec["value"])
    if kind == "ramp":
        start = float(spec.get("start", 0.0))
        end = float(spec.get("end", 1.0))
        if duration <= 1:
            return end
        return start + (end - start) * (t / (duration - 1))
    if kind == "diurnal":
        period = float(spec.get("period", 24))
        low = float(spec.get("low", 0.2))
        high = float(spec.get("high", 1.0))
        phase = float(spec.get("phase", 0.0))
        wave = 0.5 - 0.5 * math.cos(2.0 * math.pi * (t + phase) / period)
        return low + (high - low) * wave
    if kind == "burst":
        period = int(spec.get("period", 4))
        duty = float(spec.get("duty", 0.25))
        low = float(spec.get("low", 0.0))
        high = float(spec.get("high", 1.0))
        return high if (t % period) < duty * period else low
    raise ValueError(f"unknown envelope {spec!r}")


# -- episodes ------------------------------------------------------------------

@dataclass(frozen=True)
class Episode:
    """One phase of an application's traffic over a scenario window.

    Parameters
    ----------
    kind:
        One of :data:`EPISODE_KINDS`.
    start:
        First scenario epoch the episode is active in.
    duration:
        Active epochs; ``None`` runs to the end of the scenario.
    flows:
        Per-epoch flow-count sampler (int or sampler dict, see
        :func:`sample_count`). Ignored by the "collective", "cpu-mem",
        "gpu-hbm" and "cori-replay" kinds, whose flow count follows
        their node sets.
    gbps:
        Per-flow offered load before the envelope is applied.
    envelope:
        Intensity envelope spec (see :func:`envelope_value`). Scales
        the flow count for count-based kinds and the per-flow Gbps for
        node-set kinds.
    params:
        Kind-specific settings: ``hotspot`` (destination node),
        ``nodes`` / ``memory_nodes`` (node subsets), ``resource`` and
        ``peak_gbps`` for "cori-replay".
    """

    kind: str
    start: int = 0
    duration: int | None = None
    flows: int | dict = 8
    gbps: float = 25.0
    envelope: dict | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EPISODE_KINDS:
            raise ValueError(f"unknown episode kind {self.kind!r}; "
                             f"known: {EPISODE_KINDS}")
        if self.start < 0:
            raise ValueError("start must be >= 0")
        if self.duration is not None and self.duration < 1:
            raise ValueError("duration must be >= 1 (or None)")
        if self.gbps <= 0:
            raise ValueError("gbps must be positive")

    def active(self, epoch: int) -> bool:
        """Is the episode emitting traffic at this scenario epoch?"""
        if epoch < self.start:
            return False
        return self.duration is None or epoch < self.start + self.duration

    def intensity(self, epoch: int, n_epochs: int) -> float:
        """Envelope multiplier at an absolute scenario epoch."""
        duration = (self.duration if self.duration is not None
                    else n_epochs - self.start)
        return max(0.0, envelope_value(self.envelope, epoch - self.start,
                                       duration))

    def generate_batch(self, epoch: int, n_epochs: int, n_nodes: int,
                       rng: np.random.Generator) -> FlowBatch:
        """Emit this episode's flow batch for one epoch.

        Flows come back as a :class:`~repro.network.traffic.FlowBatch`
        with no per-flow Python objects, bit-identical (values and RNG
        stream) to the historical per-flow loops that
        ``tests/oracles/episodes.py`` keeps as its oracle.
        """
        if not self.active(epoch):
            return FlowBatch.empty()
        scale = self.intensity(epoch, n_epochs)
        if scale <= 0.0:
            return FlowBatch.empty()
        if self.kind in ("uniform", "hotspot"):
            count = int(round(sample_count(self.flows, rng) * scale))
            if count <= 0:
                return FlowBatch.empty()
            if self.kind == "uniform":
                return uniform_batch(n_nodes, count, gbps=self.gbps,
                                     rng=rng)
            return hotspot_batch(n_nodes,
                                 int(self.params.get("hotspot", 0)),
                                 count, gbps=self.gbps, rng=rng)
        gbps = max(0.01, self.gbps * scale)
        if self.kind == "collective":
            nodes = self._nodes(n_nodes, minimum=2)
            return gpu_allreduce_batch(nodes, gbps_per_pair=gbps)
        if self.kind == "gpu-hbm":
            nodes = self._nodes(n_nodes)
            mem = np.asarray(self._memory_nodes(n_nodes, nodes),
                             dtype=np.int64)
            return FlowBatch(
                src=np.asarray(nodes, dtype=np.int64),
                dst=mem[np.arange(len(nodes)) % len(mem)],
                gbps=np.full(len(nodes), gbps))
        if self.kind == "cpu-mem":
            nodes = self._nodes(n_nodes)
            mem = self._memory_nodes(n_nodes, nodes)
            base = cpu_memory_batch(nodes, mem, rng=rng)
            return FlowBatch(src=base.src, dst=base.dst,
                             gbps=np.maximum(0.01, base.gbps * scale))
        # "cori-replay": resample per-node utilization each epoch and
        # convert it to CPU->memory Gbps against the resource's peak.
        from repro.workloads.cori import CORI_PROFILES
        resource = self.params.get("resource", "memory_bandwidth")
        profile = CORI_PROFILES[resource]
        peak_gbps = float(self.params.get("peak_gbps", 1096.0))
        nodes = self._nodes(n_nodes)
        mem = np.asarray(self._memory_nodes(n_nodes, nodes),
                         dtype=np.int64)
        utilization = np.asarray(profile.sample(len(nodes), rng),
                                 dtype=np.float64)
        return FlowBatch(
            src=np.asarray(nodes, dtype=np.int64),
            dst=mem[np.arange(len(nodes)) % len(mem)],
            gbps=np.maximum(0.01, utilization * peak_gbps * scale))

    # -- node-set helpers ------------------------------------------------------

    def _nodes(self, n_nodes: int, minimum: int = 1) -> list[int]:
        """Primary node set (defaults to the lower half of the rack)."""
        nodes = self.params.get("nodes")
        if nodes is not None:
            return [int(n) for n in nodes]
        return list(range(min(n_nodes, max(minimum, n_nodes // 2))))

    def _memory_nodes(self, n_nodes: int, primary: list[int]) -> list[int]:
        """Peer node set (defaults to everything not in ``primary``).

        Raises when no peer exists: every flow needs distinct
        endpoints, so a primary set covering the whole rack cannot be
        paired.
        """
        nodes = self.params.get("memory_nodes")
        if nodes is not None:
            return [int(n) for n in nodes]
        rest = [n for n in range(n_nodes) if n not in set(primary)]
        if not rest:
            raise ValueError(
                f"{self.kind} episode's node set covers the whole "
                "rack; no peer nodes left to pair with (set "
                "params['memory_nodes'])")
        return rest
