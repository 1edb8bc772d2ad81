"""Ablation — number of parallel AWGR planes.

The paper picks 5 full planes (+1 partial) because 32 fibers split as
five groups of six. This ablation sweeps the plane count and measures
what it buys: guaranteed direct bandwidth scales linearly, and hotspot
acceptance under overload improves with planes (more direct capacity
before indirection and blocking kick in).

Runs on the sweep engine: the grid in
``repro.experiments.library.ABLATION_AWGR_PLANES`` replaces the old
hand-rolled plane loop.
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.experiments import SweepRunner, get_experiment


def _sweep():
    result = SweepRunner(workers=1).run(
        get_experiment("ablation_awgr_planes")).raise_on_failure()
    return [{
        "planes": row["planes"],
        "direct_pair_gbps": row["planes"] * 25.0,
        "acceptance": row["acceptance_ratio"],
        "indirect_fraction": row["indirect_fraction"],
        "blocked": row["blocked"],
    } for row in result.rows()]


def test_ablation_awgr_planes():
    rows = _sweep()
    emit("Ablation — AWGR plane count under hotspot", render_table(rows))
    acceptance = [r["acceptance"] for r in rows]
    assert acceptance == sorted(acceptance)  # more planes never hurt
    # The paper's 5-plane point already clears the hotspot.
    five = next(r for r in rows if r["planes"] == 5)
    assert five["acceptance"] > 0.9
