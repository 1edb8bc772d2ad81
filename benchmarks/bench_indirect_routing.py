"""§IV — indirect routing behaviour under load and stale state.

Exercises the flow-level AWGR simulator: a hotspot drives traffic past
the direct-wavelength budget so Valiant indirection engages; stale
piggybacked state triggers the second-intermediate fallback without
collapsing acceptance.

Runs on the sweep engine: ``repro.experiments.library.INDIRECT_ROUTING``
holds the fresh/stale grid the old loop hard-coded.
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.experiments import SweepRunner, get_experiment

_KEEP = ("offered", "direct", "indirect", "double_indirect", "blocked",
         "acceptance_ratio", "indirect_fraction",
         "stale_mispredictions")


def _experiment():
    result = SweepRunner(workers=1).run(
        get_experiment("indirect_routing")).raise_on_failure()
    labels = {1: "fresh-state", 40: "stale-state"}
    return [{"state": labels[row["update_period"]],
             **{k: row[k] for k in _KEEP}}
            for row in result.rows()]


def test_indirect_routing():
    rows = _experiment()
    emit("§IV — indirect routing under hotspot load",
         render_table(rows))
    fresh, stale = rows
    # Indirection engages in both regimes.
    assert fresh["indirect"] + fresh["double_indirect"] > 0
    assert stale["indirect"] + stale["double_indirect"] > 0
    # Stale state produces mispredictions yet acceptance stays close.
    assert stale["acceptance_ratio"] > fresh["acceptance_ratio"] - 0.25
    # Most traffic still goes direct (the §VI-A low-utilization point).
    assert fresh["direct"] > fresh["indirect"]
