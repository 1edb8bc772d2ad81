"""Ablation — piggybacked-state staleness (§IV-A).

Sweeps the status-broadcast period and measures how stale views affect
indirect routing: mispredictions rise with staleness and the two-stage
fallback converts them into double-indirect hops instead of blocking.
The paper's claim that "even if we piggyback this information multiple
times a second" suffices rests on this insensitivity.

Runs on the sweep engine: the grid in
``repro.experiments.library.ABLATION_STALENESS`` replaces the old
hand-rolled period loop.
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.experiments import SweepRunner, get_experiment


def _sweep():
    result = SweepRunner(workers=1).run(
        get_experiment("ablation_staleness")).raise_on_failure()
    return [{
        "update_period_slots": row["update_period"],
        "acceptance": row["acceptance_ratio"],
        "double_indirect": row["double_indirect"],
        "stale_mispredictions": row["stale_mispredictions"],
    } for row in result.rows()]


def test_ablation_staleness():
    rows = _sweep()
    emit("Ablation — piggyback staleness", render_table(rows))
    fresh = rows[0]
    stalest = rows[-1]
    # Staleness costs mispredictions...
    assert stalest["stale_mispredictions"] >= fresh["stale_mispredictions"]
    # ...but acceptance stays within a few points (the §IV-A claim).
    assert stalest["acceptance"] >= fresh["acceptance"] - 0.1
