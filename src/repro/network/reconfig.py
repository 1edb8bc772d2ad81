"""Reconfigurable fabric model for case (B) — spatial / wave-selective
switches with a centralized scheduler (paper §III-D3, §IV-B, §VI-A).

Unlike AWGRs (passive, all pairs always reachable on one wavelength),
spatial and wave-selective switches must be *configured*: a switch
holds a mapping from (input port, wavelength subset) to output port.
Changing it costs ``reconfig_time`` (tens of ns to tens of ms
depending on technology) during which the affected ports carry no
traffic, and the mapping is computed by a centralized scheduler from a
demand estimate — the overhead and imperfect-decision source the paper
cites for preferring AWGRs.

The model here is wavelength-granular per switch: each of a switch's
ports carries W wavelengths; the scheduler assigns, per input port,
how many of its wavelengths point at each output port. The demand-
driven scheduler is a greedy water-filling heuristic (proportional to
demand, max-min fair for remainders), which is the style of solution a
real controller would compute.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SwitchConfiguration:
    """One switch's wavelength assignment.

    ``assignment[i, j]`` = wavelengths that input port ``i`` currently
    steers toward output port ``j``. Row sums may not exceed the
    wavelengths per port.
    """

    radix: int
    wavelengths_per_port: int
    assignment: np.ndarray = field(default=None)

    def __post_init__(self) -> None:
        if self.radix <= 1:
            raise ValueError("radix must exceed 1")
        if self.wavelengths_per_port <= 0:
            raise ValueError("wavelengths_per_port must be positive")
        if self.assignment is None:
            self.assignment = np.zeros((self.radix, self.radix),
                                       dtype=np.int64)
        self.validate()

    def validate(self) -> None:
        """Check conservation: no port over-commits its wavelengths."""
        if self.assignment.shape != (self.radix, self.radix):
            raise ValueError("assignment has wrong shape")
        if (self.assignment < 0).any():
            raise ValueError("negative wavelength assignment")
        row = self.assignment.sum(axis=1)
        if (row > self.wavelengths_per_port).any():
            raise ValueError("input port over-committed")
        # Wave-selective constraint: an output port cannot receive more
        # wavelengths than it can carry either.
        col = self.assignment.sum(axis=0)
        if (col > self.wavelengths_per_port).any():
            raise ValueError("output port over-committed")

    def pair_gbps(self, src: int, dst: int,
                  gbps_per_wavelength: float = 25.0) -> float:
        """Configured bandwidth from input ``src`` to output ``dst``."""
        return float(self.assignment[src, dst]) * gbps_per_wavelength

    def ports_changed(self, other: "SwitchConfiguration") -> int:
        """Input ports whose steering differs from ``other``.

        Reconfiguration disturbs only the ports whose assignment
        changes; this is what the fabric charges downtime for.
        """
        if other.assignment.shape != self.assignment.shape:
            raise ValueError("configurations have different shapes")
        diff = (self.assignment != other.assignment).any(axis=1)
        return int(np.count_nonzero(diff))


def schedule_demand(demand: np.ndarray, wavelengths_per_port: int,
                    stagger: int = 0) -> np.ndarray:
    """Centralized scheduler: demand matrix -> wavelength assignment.

    Greedy proportional water-filling: each input port splits its
    wavelengths across destinations proportionally to demand (floor),
    then the largest fractional remainders get the leftovers, subject
    to output-port capacity. Zero-demand rows fall back to a uniform
    spread so the fabric retains all-to-all reachability (the paper's
    "small number of ports left unconnected" spirit).

    Parameters
    ----------
    demand:
        (N, N) nonnegative demand estimate (any units; only ratios
        matter). The diagonal is ignored.
    wavelengths_per_port:
        Wavelength budget per input *and* output port.
    stagger:
        Tie-breaking rotation. Parallel switches pass their own index
        here so fractional-remainder leftovers land on *different*
        destination subsets per switch — otherwise every switch makes
        the same choice and the losing pairs get nothing fabric-wide.

    Notes
    -----
    Sources are planned one after another (they share output-port
    capacity), but each source's leftovers are granted in one masked
    take: the first ``leftover`` *eligible* destinations in
    ``np.argsort`` order, where eligible means not the source, positive
    demand and spare output capacity. That is exactly what a walk over
    the sorted destinations granting one wavelength at a time yields,
    because eligibility cannot change during the walk: it visits each
    destination once and a grant decrements only the capacity of the
    destination just visited. The same holds for an idle source's
    spread, which takes the first ``wavelengths_per_port`` eligible
    peers in order of spare capacity. Parallel switches differ only
    in stagger and in the output capacity they have left, so
    :meth:`ReconfigurableFabric.reconfigure` plans the whole bank in
    the same pass over rows; this function is its one-switch case.
    """
    return _schedule(np.array(demand, dtype=float), wavelengths_per_port,
                     [stagger])[0]


def _schedule(demand: np.ndarray, wavelengths_per_port: int,
              staggers: list[int]) -> list[np.ndarray]:
    """Plan parallel switches that share one demand estimate.

    ``demand`` is a float array the planner owns: its diagonal is
    zeroed in place. Returns one (N, N) assignment per stagger, the
    ``s``-th equal to ``schedule_demand(demand, wavelengths_per_port,
    staggers[s])``. The share, floor and remainder work depends only
    on the source row, so each row computes it once for all S
    switches; only output capacity, stagger and the grants are per
    switch, held as (S, N) arrays.
    """
    if demand.ndim != 2 or demand.shape[0] != demand.shape[1]:
        raise ValueError("demand must be square")
    if (demand < 0).any():
        raise ValueError("demand must be nonnegative")
    n = demand.shape[0]
    w = wavelengths_per_port
    np.fill_diagonal(demand, 0.0)

    staggers = np.asarray(staggers, dtype=np.int64)[:, None]
    assignments = [np.zeros((n, n), dtype=np.int64) for _ in staggers]
    out_capacity = np.full((len(staggers), n), w, dtype=np.int64)
    # Row s of an (S, N) array starts at flat index s * n.
    offsets = np.arange(len(staggers))[:, None] * n
    totals = demand.sum(axis=1)
    # Stagger breaks remainder ties (and near-ties) differently on
    # each parallel switch.
    bias = ((np.arange(n) - staggers) % n) / (4.0 * n)

    def grant(plan: np.ndarray, order: np.ndarray, eligible: np.ndarray,
              counts) -> None:
        # One more wavelength to each of the first counts[s] eligible
        # destinations of order[s], on every switch s at once.
        slots = order + offsets
        ranked = eligible.take(slots)
        ranked &= ranked.cumsum(axis=1) <= counts
        won = slots[ranked]
        plan.reshape(-1)[won] += 1
        out_capacity.reshape(-1)[won] -= 1

    # Pass 1: sources with demand claim output capacity first, so
    # idle sources' reachability fallback cannot starve real traffic.
    for src in np.flatnonzero(totals > 0):
        row = demand[src]
        share = row / row.sum() * w
        floor = np.floor(share)
        plan = np.minimum(floor.astype(np.int64), out_capacity)
        out_capacity -= plan
        leftover = w - plan.sum(axis=1, keepdims=True)
        if leftover.any():
            # The zeroed diagonal already keeps the source ineligible.
            grant(plan, np.argsort(-((share - floor) - bias), axis=1),
                  (row > 0) & (out_capacity > 0), leftover)
        for assignment, planned in zip(assignments, plan):
            assignment[src] = planned

    # Pass 2: idle sources spread one wavelength toward each peer with
    # spare output capacity (all-to-all reachability, §V-B spirit).
    for src in np.flatnonzero(totals <= 0):
        plan = np.zeros_like(out_capacity)
        eligible = out_capacity > 0
        eligible[:, src] = False
        grant(plan, np.argsort(-out_capacity, axis=1), eligible, w)
        for assignment, planned in zip(assignments, plan):
            assignment[src] = planned
    return assignments


@dataclass
class ReconfigurableFabric:
    """A bank of parallel reconfigurable switches plus their scheduler.

    Parameters
    ----------
    n_switches, radix, wavelengths_per_port:
        Fabric dimensions (11 x 256 x 256 for the paper's case B).
    gbps_per_wavelength:
        Line rate.
    reconfig_time_s:
        Time one reconfiguration takes (1 ms default — the middle of
        the paper's "tens of nanoseconds to tens of milliseconds").
    scheduler_latency_s:
        Time the centralized scheduler needs to compute and distribute
        a new configuration.
    """

    n_switches: int = 11
    radix: int = 256
    wavelengths_per_port: int = 256
    gbps_per_wavelength: float = 25.0
    reconfig_time_s: float = 1e-3
    scheduler_latency_s: float = 1e-3

    def __post_init__(self) -> None:
        if self.n_switches <= 0:
            raise ValueError("n_switches must be positive")
        if self.reconfig_time_s < 0 or self.scheduler_latency_s < 0:
            raise ValueError("times must be >= 0")
        self.configs = [SwitchConfiguration(self.radix,
                                            self.wavelengths_per_port)
                        for _ in range(self.n_switches)]
        self.reconfigurations = 0
        self.ports_disturbed = 0
        self.time_reconfiguring_s = 0.0

    def reconfigure(self, demand: np.ndarray) -> None:
        """Apply the centralized scheduler to all switches.

        Demand is split evenly across the parallel switches (each sees
        1/n of the traffic), matching how an operator would stripe.
        All switches are planned in one pass over the source rows.
        """
        per_switch = np.asarray(demand, dtype=float) / self.n_switches
        staggers = [(i * self.radix) // max(1, self.n_switches)
                    for i in range(len(self.configs))]
        for i, assignment in enumerate(_schedule(
                per_switch, self.wavelengths_per_port, staggers)):
            new = SwitchConfiguration(self.radix,
                                      self.wavelengths_per_port,
                                      assignment)
            self.ports_disturbed += new.ports_changed(self.configs[i])
            self.configs[i] = new
        self.reconfigurations += 1
        self.time_reconfiguring_s += (self.scheduler_latency_s
                                      + self.reconfig_time_s)

    def snapshot(self) -> dict:
        """JSON-stable capture of the fabric's mutable state.

        Switch count and reconfiguration/scheduler lag are included
        because scenario events mutate them mid-run; the per-switch
        assignments are what the next epoch's served bandwidth depends
        on, and the counters keep availability accounting continuous
        across a checkpoint boundary.
        """
        return {
            "n_switches": self.n_switches,
            "reconfig_time_s": self.reconfig_time_s,
            "scheduler_latency_s": self.scheduler_latency_s,
            "assignments": [cfg.assignment.tolist()
                            for cfg in self.configs],
            "reconfigurations": self.reconfigurations,
            "ports_disturbed": self.ports_disturbed,
            "time_reconfiguring_s": self.time_reconfiguring_s,
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (accepts JSON-decoded dicts)."""
        assignments = state["assignments"]
        if len(assignments) != int(state["n_switches"]):
            raise ValueError("snapshot switch count does not match "
                             "its assignment list")
        self.n_switches = int(state["n_switches"])
        self.reconfig_time_s = float(state["reconfig_time_s"])
        self.scheduler_latency_s = float(state["scheduler_latency_s"])
        self.configs = [
            SwitchConfiguration(self.radix, self.wavelengths_per_port,
                                np.asarray(a, dtype=np.int64))
            for a in assignments]
        self.reconfigurations = int(state["reconfigurations"])
        self.ports_disturbed = int(state["ports_disturbed"])
        self.time_reconfiguring_s = float(state["time_reconfiguring_s"])

    def pair_gbps(self, src: int, dst: int) -> float:
        """Configured bandwidth between two ports across all switches."""
        return sum(cfg.pair_gbps(src, dst, self.gbps_per_wavelength)
                   for cfg in self.configs)

    def configured_gbps(self) -> np.ndarray:
        """(N, N) bandwidth the current configuration provides per pair.

        Summed switch by switch, left to right: served matrices and
        fractions depend on that order bit for bit.
        """
        return sum(cfg.assignment.astype(float) * self.gbps_per_wavelength
                   for cfg in self.configs)

    def served_fraction(self, demand: np.ndarray) -> float:
        """Fraction of offered demand the current configuration carries.

        min(demand, configured) summed over pairs / total demand.
        """
        demand = np.asarray(demand, dtype=float)
        d = demand.copy()
        np.fill_diagonal(d, 0.0)
        total = d.sum()
        if total <= 0:
            return 1.0
        return float(np.minimum(d, self.configured_gbps()).sum() / total)

    def availability(self, window_s: float) -> float:
        """Fraction of a window the fabric was not reconfiguring."""
        if window_s <= 0:
            raise ValueError("window must be positive")
        return max(0.0, 1.0 - self.time_reconfiguring_s / window_s)


def reconfiguration_overhead_ok(job_event_rate_hz: float,
                                reconfig_time_s: float,
                                budget_fraction: float = 0.01) -> bool:
    """§III-D3's feasibility check.

    Jobs start every few seconds and change traffic patterns slowly, so
    even millisecond reconfiguration keeps the fabric busy less than
    ``budget_fraction`` of the time.
    """
    if job_event_rate_hz < 0 or reconfig_time_s < 0:
        raise ValueError("rates and times must be >= 0")
    return job_event_rate_hz * reconfig_time_s <= budget_fraction
