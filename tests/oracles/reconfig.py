"""Per-destination WSS scheduler loop and one-switch-at-a-time bank.

``schedule_demand`` walks each source row's sorted destinations and
grants one wavelength at a time; ``reconfigure`` plans a
:class:`~repro.network.reconfig.ReconfigurableFabric`'s switches one
after another with it. Both are kept verbatim as the bit-identity
oracle of the sparse-row scheduler in :mod:`repro.network.reconfig`,
which plans every switch at once and each source over its
positive-demand columns only.
"""

from __future__ import annotations

import numpy as np

from repro.network.reconfig import ReconfigurableFabric, SwitchConfiguration


def schedule_demand(demand: np.ndarray, wavelengths_per_port: int,
                    stagger: int = 0) -> np.ndarray:
    """Greedy proportional water-filling, one destination at a time."""
    demand = np.asarray(demand, dtype=float)
    if demand.ndim != 2 or demand.shape[0] != demand.shape[1]:
        raise ValueError("demand must be square")
    if (demand < 0).any():
        raise ValueError("demand must be nonnegative")
    n = demand.shape[0]
    w = wavelengths_per_port
    demand = demand.copy()
    np.fill_diagonal(demand, 0.0)

    assignment = np.zeros((n, n), dtype=np.int64)
    out_capacity = np.full(n, w, dtype=np.int64)
    active = [s for s in range(n) if demand[s].sum() > 0]
    idle = [s for s in range(n) if demand[s].sum() <= 0]

    # Pass 1: sources with demand claim output capacity first, so
    # idle sources' reachability fallback cannot starve real traffic.
    for src in active:
        row = demand[src]
        share = row / row.sum() * w
        base = np.floor(share).astype(np.int64)
        base = np.minimum(base, out_capacity)
        assignment[src] = base
        out_capacity -= base
        leftover = w - int(base.sum())
        remainders = share - np.floor(share)
        # Stagger breaks remainder ties (and near-ties) differently on
        # each parallel switch.
        bias = ((np.arange(n) - stagger) % n) / (4.0 * n)
        for dst in np.argsort(-(remainders - bias)):
            if leftover == 0:
                break
            if dst == src or row[dst] <= 0:
                continue
            if out_capacity[dst] > 0:
                assignment[src, dst] += 1
                out_capacity[dst] -= 1
                leftover -= 1

    # Pass 2: idle sources spread one wavelength toward each peer with
    # spare output capacity (all-to-all reachability, §V-B spirit).
    for src in idle:
        budget = w
        for dst in np.argsort(-out_capacity):
            if dst == src or budget == 0:
                continue
            if out_capacity[dst] > 0:
                assignment[src, dst] += 1
                out_capacity[dst] -= 1
                budget -= 1
    return assignment


def reconfigure(fabric: ReconfigurableFabric, demand: np.ndarray) -> None:
    """``ReconfigurableFabric.reconfigure``, planning switch by switch."""
    per_switch = np.asarray(demand, dtype=float) / fabric.n_switches
    for i, old in enumerate(fabric.configs):
        stagger = (i * fabric.radix) // max(1, fabric.n_switches)
        new = SwitchConfiguration(
            fabric.radix, fabric.wavelengths_per_port,
            schedule_demand(per_switch, fabric.wavelengths_per_port,
                            stagger=stagger))
        fabric.ports_disturbed += new.ports_changed(old)
        fabric.configs[i] = new
    fabric.reconfigurations += 1
    fabric.time_reconfiguring_s += (fabric.scheduler_latency_s
                                    + fabric.reconfig_time_s)
