"""Ablation — DRAM load vs effective miss latency vs slowdown.

Grounds the EXPERIMENTS.md calibration note: the MemoryModel's 25 ns
base LLC-to-data latency corresponds to the DRAM channel model at
moderate load with bank-level parallelism; heavier memory traffic
raises the effective base latency, which *shrinks* the relative impact
of the fixed 35 ns photonic adder — disaggregation hurts bandwidth-
starved codes less than latency-bound ones.

Runs on the sweep engine: the grid in
``repro.experiments.library.ABLATION_DRAM_LOAD`` replaces the old
hand-rolled demand loop.
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.experiments import SweepRunner, get_experiment


def _sweep():
    result = SweepRunner(workers=1).run(
        get_experiment("ablation_dram_load")).raise_on_failure()
    return [{
        "demand_gbyte_s": row["demand_gbyte_s"],
        "effective_base_ns": row["effective_base_ns"],
        "queueing_ns": row["queueing_ns"],
        "canneal_slowdown@35ns": row["slowdown"],
    } for row in result.rows()]


def test_ablation_dram_load():
    rows = _sweep()
    emit("Ablation — DRAM load vs base latency vs slowdown",
         render_table(rows))
    base = [r["effective_base_ns"] for r in rows]
    slow = [r["canneal_slowdown@35ns"] for r in rows]
    # Base latency grows with load; relative slowdown from the fixed
    # adder shrinks correspondingly.
    assert base == sorted(base)
    assert slow == sorted(slow, reverse=True)
    # At the calibration point (~5 GB/s) the base sits near the
    # MemoryModel default.
    cal = rows[1]
    assert 15.0 <= cal["effective_base_ns"] <= 35.0
