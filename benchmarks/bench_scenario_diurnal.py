"""Scenario — diurnal Cori replay with a mid-run plane failure.

The scenario engine's flagship study: §II-A Cori memory-bandwidth
demand replayed under a day-shaped envelope against pooled memory,
with a checkpoint burst and a GPU collective in the afternoon, and an
AWGR plane failing at noon (repaired at hour 20). Case (A) rides the
failure on indirect routing; case (B) — same scenario, WSS backend —
pays for central scheduling that lags the shifting demand.

Runs on the sweep engine via
``repro.experiments.library.SCENARIO_DIURNAL``; the exact aggregate
numbers are pinned by ``tests/scenarios/test_library.py``.
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.experiments import SweepRunner, get_experiment


def _sweep():
    result = SweepRunner(workers=1).run(
        get_experiment("scenario_diurnal_cori")).raise_on_failure()
    return [{
        "fabric": row["fabric"],
        "offered_gbps": row["offered_gbps"],
        "carried_gbps": row["carried_gbps"],
        "blocked_gbps": row["blocked_gbps"],
        "throughput": row["throughput_ratio"],
        "indirect_fraction": row["indirect_fraction"],
        "slowdown_p99": row["slowdown_p99"],
    } for row in result.rows()]


def test_scenario_diurnal():
    rows = _sweep()
    emit("Scenario — diurnal Cori replay + noon plane failure",
         render_table(rows))
    awgr = next(r for r in rows if r["fabric"] == "awgr")
    wss = next(r for r in rows if r["fabric"] == "wss")
    # Same offered load on both fabrics.
    assert awgr["offered_gbps"] == wss["offered_gbps"]
    # The AWGR fabric leans on indirection through the failure window
    # and carries more of the day than the centrally scheduled WSS.
    assert awgr["indirect_fraction"] > 0.0
    assert awgr["slowdown_p99"] > 1.0
    assert awgr["throughput"] > wss["throughput"]
    # Both fabrics stay usable — blocked, not partitioned.
    assert wss["throughput"] > 0.3
    assert awgr["throughput"] > 0.7
