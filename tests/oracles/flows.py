"""The per-flow form of traffic: one :class:`Flow` object per flow.

Production traffic has one form, the structure-of-arrays
:class:`~repro.network.traffic.FlowBatch`. The ``Scalar*`` oracles
admit, serve and generate one flow at a time, and some tests reason
about single flows, so this module keeps the object form for them:
:func:`to_flows` views a batch as ``Flow`` objects, in order, and
:func:`from_flows` builds a batch from them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.traffic import FlowBatch


@dataclass(frozen=True)
class Flow:
    """One steady flow between two endpoints.

    Parameters
    ----------
    src, dst:
        Endpoint indices in the simulated fabric.
    gbps:
        Offered load.
    """

    src: int
    dst: int
    gbps: float

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError("flow endpoints must differ")
        if self.gbps <= 0:
            raise ValueError("flow bandwidth must be positive")

    def slots(self, gbps_per_slot: float) -> int:
        """Sub-slots this flow needs at a given slot granularity."""
        return max(1, int(np.ceil(self.gbps / gbps_per_slot)))


def to_flows(batch: FlowBatch) -> list[Flow]:
    """The flows of ``batch`` as objects, in batch order."""
    return [Flow(s, d, g)
            for s, d, g in zip(batch.src.tolist(), batch.dst.tolist(),
                               batch.gbps.tolist())]


def from_flows(flows: list[Flow]) -> FlowBatch:
    """A batch of ``flows``, in order."""
    if not flows:
        return FlowBatch.empty()
    return FlowBatch(src=[f.src for f in flows],
                     dst=[f.dst for f in flows],
                     gbps=[f.gbps for f in flows])
