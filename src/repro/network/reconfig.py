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

from repro.network.wavelength import decode_array, encode_array


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

    def pair_gbps(self, src: int | np.ndarray, dst: int | np.ndarray,
                  gbps_per_wavelength: float = 25.0) -> float | np.ndarray:
        """Configured bandwidth from input ``src`` to output ``dst``.

        ``src`` and ``dst`` may be index arrays: the result is then the
        bandwidth of each (src, dst) pair, elementwise.
        """
        return self.assignment[src, dst] * gbps_per_wavelength

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
        (N, N) nonnegative, finite demand estimate (any units; only
        ratios matter). The diagonal is ignored.
    wavelengths_per_port:
        Wavelength budget per input *and* output port.
    stagger:
        Tie-breaking rotation. Parallel switches pass their own index
        here so fractional-remainder leftovers land on *different*
        destination subsets per switch — otherwise every switch makes
        the same choice and the losing pairs get nothing fabric-wide.

    Notes
    -----
    Sources are planned in order (they share output-port capacity),
    each only over its positive-demand columns: a zero-demand column
    has floor 0 and is never eligible for a leftover, so a plan over
    the full row never touches it. A source waits only for the
    earlier sources that share one of its columns, so the planner
    takes them a dependency level at a time: a source's level is 1
    plus the highest level of an earlier source sharing a column.
    Sources of one level share no column, and every earlier source
    that touches one of their columns sits at a lower level, so each
    reads exactly the output capacity source order leaves it. A
    source's leftovers go to the first ``leftover`` *eligible*
    columns, those with output capacity to spare after the floors,
    in ascending remainder-key order. That is exactly what a walk
    over the ``np.argsort``-sorted destinations granting one
    wavelength at a time yields, because eligibility cannot change
    during the walk: it visits each destination once and a grant
    decrements only the capacity of the destination just visited.
    While a row's positive keys are pairwise distinct they fix that
    order alone, so it is sorted once for all rows. A row whose
    positive columns tie exactly takes ``np.argsort``'s own tie
    order from a sort of its full row. An idle source's spread still
    sorts its full row: it takes the first ``wavelengths_per_port``
    eligible peers in ``np.argsort`` order of spare capacity, whose
    integer keys tie heavily. Parallel switches differ only in
    stagger and in the output capacity they have left, so
    :meth:`ReconfigurableFabric.reconfigure` plans the whole bank in
    the same pass over levels; this function is its one-switch case.
    """
    return _schedule(np.array(demand, dtype=float), wavelengths_per_port,
                     [stagger])[0]


def _schedule(demand: np.ndarray, wavelengths_per_port: int,
              staggers: list[int]) -> list[np.ndarray]:
    """Plan parallel switches that share one demand estimate.

    ``demand`` is a float array the planner owns: its diagonal is
    zeroed in place. Returns one (N, N) assignment per stagger, the
    ``s``-th equal to ``schedule_demand(demand, wavelengths_per_port,
    staggers[s])``.

    Pass 1 plans each source with demand over its positive-demand
    columns only; zero-demand columns stay untouched (see
    :func:`schedule_demand`'s Notes). Share, floor and the remainder
    key depend on the source row and the stagger but not on output
    capacity, so :func:`_grant_order` computes them once per call for
    every positive entry and sorts each row's keys, falling back to a
    full-row ``np.argsort`` for a row whose keys tie. The level loop
    keeps only the work that depends on capacity, for all the rows of
    one :func:`_levels` dependency level and every switch at once:
    gather the spare capacity, clamp the floors to it, take each (row,
    switch) leftover with ``np.add.reduceat``, grant it to the row's
    first eligible columns in key order and scatter the plan. Pass 2
    plans idle sources one by one over full (S, N) rows.
    """
    if demand.ndim != 2 or demand.shape[0] != demand.shape[1]:
        raise ValueError("demand must be square")
    if (demand < 0).any():
        raise ValueError("demand must be nonnegative")
    if not np.isfinite(demand).all():
        raise ValueError("demand must be finite")
    # C order makes each of the batched row sums equal that row's own
    # ``sum()`` bit for bit, which the shares depend on.
    demand = np.ascontiguousarray(demand)
    n = demand.shape[0]
    w = wavelengths_per_port
    np.fill_diagonal(demand, 0.0)

    staggers = np.asarray(staggers, dtype=np.int64)[:, None]
    switch = np.arange(len(staggers))
    assignments = np.zeros((len(staggers), n, n), dtype=np.int64)
    out_capacity = np.full((len(staggers), n), w, dtype=np.int64)
    capacity = out_capacity.reshape(-1)
    totals = demand.sum(axis=1)
    # Stagger breaks remainder ties (and near-ties) differently on
    # each parallel switch.
    bias = ((np.arange(n) - staggers) % n) / (4.0 * n)

    # Pass 1: sources with demand claim output capacity first, so
    # idle sources' reachability fallback cannot starve real traffic.
    bounds, rows, cols, floors, _ = _grant_order(demand, totals, w, bias)
    # Rows are taken a dependency level at a time. A stable sort by
    # level keeps source order inside a level and each row's key order
    # on every switch.
    level = _levels(bounds, cols[:, 0], n)
    counts = np.diff(bounds)
    order = np.argsort(np.repeat(level, counts), kind="stable")
    counts = counts[np.argsort(level, kind="stable")]
    # Level l + 1 is the sizes[l] sorted rows row_bounds[l]:row_bounds[l
    # + 1], and sorted row r starts at entry starts[r].
    sizes = np.bincount(level)[1:]
    row_bounds = np.concatenate(([0], np.cumsum(sizes)))
    starts = np.concatenate(([0], np.cumsum(counts)))
    # Each row's first entry and each entry's row, counted from the
    # start of its level.
    heads = starts[:-1] - np.repeat(starts[row_bounds[:-1]], sizes)
    member = np.repeat(
        np.arange(len(counts)) - np.repeat(row_bounds[:-1], sizes), counts)
    cols = cols.take(order, axis=0)
    floors = floors.take(order, axis=0)
    # Flat slots of each (entry, switch) in out_capacity and in the
    # assignments.
    capacity_slots = cols + switch * n
    plan_slots = cols + (switch * n + rows.take(order)[:, None]) * n
    planned = assignments.reshape(-1)
    entry_bounds = starts[row_bounds].tolist()
    row_bounds = row_bounds.tolist()
    for start, stop, first, last in zip(entry_bounds[:-1], entry_bounds[1:],
                                        row_bounds[:-1], row_bounds[1:]):
        slots = capacity_slots[start:stop]
        spare = capacity[slots]
        floor = floors[start:stop]
        plan = np.minimum(floor, spare)
        # A column with capacity left after its floor is eligible for
        # one leftover wavelength; the first ``leftover`` eligible
        # columns of each row in key order win one each. ``rank``
        # counts eligible columns across the whole level, so a row's
        # limit is raised by the count before its first entry.
        head = heads[first:last]
        grant = spare > floor
        rank = np.add.accumulate(grant)
        limit = (w - np.add.reduceat(plan, head) + rank.take(head, axis=0)
                 - grant.take(head, axis=0))
        grant &= rank <= limit.take(member[start:stop], axis=0)
        plan += grant
        capacity[slots] = spare - plan
        planned[plan_slots[start:stop]] = plan

    # Pass 2: idle sources spread one wavelength toward each peer with
    # spare output capacity (all-to-all reachability, §V-B spirit).
    # Row s of an (S, N) array starts at flat index s * n.
    offsets = switch[:, None] * n
    for src in np.flatnonzero(totals <= 0):
        eligible = out_capacity > 0
        eligible[:, src] = False
        slots = np.argsort(-out_capacity, axis=1) + offsets
        ranked = eligible.take(slots)
        ranked &= ranked.cumsum(axis=1) <= w
        won = slots[ranked]
        capacity[won] -= 1
        plan = np.zeros_like(out_capacity)
        plan.reshape(-1)[won] = 1
        assignments[:, src] = plan
    return list(assignments)


def _grant_order(demand: np.ndarray, totals: np.ndarray, w: int,
                 bias: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every source row's positive-demand columns in leftover order.

    Returns ``(bounds, rows, cols, floors, tied)``. The E positive
    entries of ``demand`` are grouped by source row: ``rows`` (E,)
    holds each entry's source, ascending, and a row's entries are
    ``bounds[r]:bounds[r + 1]``. Column ``s`` of ``cols`` and
    ``floors`` (E, S) lists each row's columns and their floors in
    the order switch ``s`` grants leftovers: ascending remainder key
    ``-((share - floor) - bias[s])``, the order in which a full-row
    ``np.argsort`` puts the positive columns.

    That order is fixed by the keys alone while they are pairwise
    distinct, so one argsort of the keys, padded per row to the
    longest row, finds it for every row and switch. Where two positive
    columns of a row tie exactly on some switch, ``np.argsort``'s own
    tie order decides, so such a row (its source listed in ``tied``)
    takes its order from the full-row ``np.argsort`` the one-row
    scheduler runs.
    """
    rows, cols = np.nonzero(demand)
    bounds = np.flatnonzero(np.diff(rows, prepend=-1, append=len(demand)))
    counts = np.diff(bounds)
    share = demand[rows, cols] / totals[rows] * w
    floor = np.floor(share)
    key = -((share - floor) - bias[:, cols])
    # (S, R, kmax) keys; the +inf pads sort after every finite key.
    real = np.arange(counts.max(initial=0)) < counts[:, None]
    padded = np.full((len(bias),) + real.shape, np.inf)
    padded[:, real] = key
    order = np.argsort(padded, axis=2)
    keys = np.sort(padded, axis=2)
    tie = (keys[:, :, 1:] == keys[:, :, :-1]) & real[:, 1:]
    entries = (order + bounds[:-1, None])[:, real].T
    cols, floors = cols[entries], floor.astype(np.int64)[entries]
    tied = np.flatnonzero(tie.any(axis=(0, 2)))
    for start, stop in zip(bounds[tied].tolist(), bounds[tied + 1].tolist()):
        row = demand[rows[start]]
        share = row / totals[rows[start]] * w
        floor = np.floor(share)
        full = np.argsort(-((share - floor) - bias), axis=1)
        cols[start:stop] = full[row[full] > 0].reshape(len(bias), -1).T
        floors[start:stop] = floor[cols[start:stop]]
    return bounds, rows, cols, floors, rows[bounds[tied]]


def _levels(bounds: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Dependency level of each row of a grouped column list.

    Row ``r`` holds the distinct columns ``cols[bounds[r]:bounds[r +
    1]]`` of ``range(n)``. Its level is 1 plus the highest level among
    earlier rows that share one of its columns, or 1 if none does. So
    rows of one level share no column, and every earlier row that
    touches one of a row's columns sits at a lower level.
    """
    # The highest level so far among rows that touched each column.
    reached = [0] * n
    levels = []
    cols = cols.tolist()
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        row = cols[start:stop]
        level = 1 + max(map(reached.__getitem__, row))
        for col in row:
            reached[col] = level
        levels.append(level)
    return np.array(levels, dtype=np.int64)


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
        across a checkpoint boundary. Each assignment travels as an
        :func:`~repro.network.wavelength.encode_array` envelope.
        """
        return {
            "n_switches": self.n_switches,
            "reconfig_time_s": self.reconfig_time_s,
            "scheduler_latency_s": self.scheduler_latency_s,
            "assignments": [encode_array(cfg.assignment)
                            for cfg in self.configs],
            "reconfigurations": self.reconfigurations,
            "ports_disturbed": self.ports_disturbed,
            "time_reconfiguring_s": self.time_reconfiguring_s,
        }

    def restore(self, state: dict) -> None:
        """Inverse of :meth:`snapshot` (accepts JSON-decoded dicts)."""
        assignments = [decode_array(a).astype(np.int64)
                       for a in state["assignments"]]
        if len(assignments) != int(state["n_switches"]):
            raise ValueError("snapshot switch count does not match "
                             "its assignment list")
        for assignment in assignments:
            if assignment.shape != (self.radix, self.radix):
                raise ValueError(
                    f"snapshot assignment shape {assignment.shape} does "
                    f"not match radix {self.radix}")
        self.n_switches = int(state["n_switches"])
        self.reconfig_time_s = float(state["reconfig_time_s"])
        self.scheduler_latency_s = float(state["scheduler_latency_s"])
        self.configs = [
            SwitchConfiguration(self.radix, self.wavelengths_per_port, a)
            for a in assignments]
        self.reconfigurations = int(state["reconfigurations"])
        self.ports_disturbed = int(state["ports_disturbed"])
        self.time_reconfiguring_s = float(state["time_reconfiguring_s"])

    def pair_gbps(self, src: int | np.ndarray,
                  dst: int | np.ndarray) -> float | np.ndarray:
        """Configured bandwidth between two ports across all switches.

        ``src`` and ``dst`` may be index arrays. Each pair is summed
        switch by switch, left to right as in :meth:`configured_gbps`,
        so it equals that matrix's ``[src, dst]`` bit for bit.
        """
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
