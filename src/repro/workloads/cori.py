"""Synthetic production-utilization traces (Cori-like, §II-A).

The iso-performance analysis of §VI-E rests on observed resource
under-utilization in NERSC's Cori (and similar systems): most of the
time nodes use a small fraction of their memory capacity, memory
bandwidth, NIC bandwidth, and cores. The paper consumes these as
distribution quantiles; we synthesize per-node utilization samples
whose marginals match the quoted quantiles:

* memory capacity: 75% of the time below 17.4% (Haswell nodes);
* memory bandwidth: 75% of the time below 0.46 GB/s (~0.2% of peak);
* NIC bandwidth: 75% of the time below 1.25% of peak;
* cores: half the time no more than half the cores in use.

A lognormal clipped to [0, 1] is fit to two quantiles per resource;
heavy upper tails (jobs that *do* saturate) emerge from the fit, which
is what makes naive provisioning wasteful and pooled (disaggregated)
provisioning effective.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri


@dataclass(frozen=True)
class UtilizationProfile:
    """Lognormal utilization profile fit to two quantiles.

    Parameters
    ----------
    resource:
        Label ("memory_capacity", ...).
    q1, v1:
        First quantile: P(U <= v1) = q1 (e.g. 0.75, 0.174).
    q2, v2:
        Second quantile, further out in the tail.
    """

    resource: str
    q1: float
    v1: float
    q2: float
    v2: float

    def __post_init__(self) -> None:
        if not (0 < self.q1 < self.q2 < 1):
            raise ValueError(f"{self.resource}: need 0 < q1 < q2 < 1")
        if not (0 < self.v1 < self.v2 <= 1):
            raise ValueError(f"{self.resource}: need 0 < v1 < v2 <= 1")

    @functools.cached_property
    def lognormal_params(self) -> tuple[float, float]:
        """(mu, sigma) of the underlying normal in log-utilization,
        computed once per profile (``ndtri`` is the standard normal
        quantile)."""
        z1 = ndtri(self.q1)
        z2 = ndtri(self.q2)
        sigma = (math.log(self.v2) - math.log(self.v1)) / (z2 - z1)
        mu = math.log(self.v1) - z1 * sigma
        return mu, sigma

    def sample(self, n: int, rng: np.random.Generator | None = None
               ) -> np.ndarray:
        """Draw ``n`` utilization samples in [0, 1]."""
        if n <= 0:
            raise ValueError("n must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        mu, sigma = self.lognormal_params
        return np.clip(rng.lognormal(mu, sigma, size=n), 0.0, 1.0)

    def quantile(self, q: float) -> float:
        """Closed-form quantile of the (unclipped) fit."""
        mu, sigma = self.lognormal_params
        return float(min(1.0, math.exp(mu + sigma * ndtri(q))))


#: Profiles fit to the §II-A quantiles. The second quantile encodes the
#: tail the text implies (saturating jobs exist but are rare).
CORI_PROFILES: dict[str, UtilizationProfile] = {
    # 75% of the time < 17.4% of memory capacity; ~99% below 80%.
    "memory_capacity": UtilizationProfile("memory_capacity",
                                          0.75, 0.174, 0.99, 0.80),
    # 75% of the time < 0.46 GB/s of ~137 GB/s peak (~0.34%); 99.5%
    # below the 125 Gbps (~11%) figure used in §VI-A.
    "memory_bandwidth": UtilizationProfile("memory_bandwidth",
                                           0.75, 0.0034, 0.995, 0.114),
    # 75% of the time < 1.25% of NIC bandwidth; 99.5% below 50%.
    "nic_bandwidth": UtilizationProfile("nic_bandwidth",
                                        0.75, 0.0125, 0.995, 0.50),
    # Half the time <= 50% of cores; 95% below 100% (clipped).
    "cores": UtilizationProfile("cores", 0.50, 0.50, 0.95, 1.0),
}


def sample_node_utilization(resource: str, n_nodes: int,
                            rng: np.random.Generator | None = None,
                            ) -> np.ndarray:
    """Per-node utilization snapshot for one resource."""
    try:
        profile = CORI_PROFILES[resource]
    except KeyError:
        raise KeyError(f"unknown resource {resource!r}; "
                       f"known: {sorted(CORI_PROFILES)}") from None
    return profile.sample(n_nodes, rng)


def rack_demand_quantile(resource: str, n_nodes: int = 128,
                         quantile: float = 0.99,
                         n_snapshots: int = 2000,
                         rng: np.random.Generator | None = None) -> float:
    """Quantile of *rack-aggregate* utilization for one resource.

    The pooling argument of disaggregation: per-node demand is heavy
    tailed, but the rack-level sum concentrates (independent nodes), so
    provisioning the rack for a high quantile of aggregate demand needs
    far fewer resources than provisioning every node for its own tail.
    Returns the quantile of mean-per-node utilization.
    """
    if not 0 < quantile < 1:
        raise ValueError("quantile must be in (0, 1)")
    rng = rng if rng is not None else np.random.default_rng(0)
    profile = CORI_PROFILES[resource]
    totals = np.empty(n_snapshots)
    for i in range(n_snapshots):
        totals[i] = profile.sample(n_nodes, rng).mean()
    return float(np.quantile(totals, quantile))
