"""Ablation — AWGR plane failure and graceful degradation.

The fabric has six parallel AWGRs; losing one is a realistic failure
(laser bank, connector). Because every pair keeps one wavelength per
surviving plane and indirect routing pools the slack, capacity
degrades proportionally instead of partitioning the rack.

Runs on the sweep engine: the grid in
``repro.experiments.library.ABLATION_PLANE_FAILURE`` replaces the old
hand-rolled failure loop. (For *mid-run* failures and recovery, see
the scenario engine's diurnal study in ``bench_scenario_diurnal.py``.)
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.experiments import SweepRunner, get_experiment


def _sweep():
    result = SweepRunner(workers=1).run(
        get_experiment("ablation_plane_failure")).raise_on_failure()
    return [{
        "failed_planes": row["failed_planes"],
        "healthy_planes": 5 - row["failed_planes"],
        "acceptance": row["acceptance_ratio"],
        "indirect_fraction": row["indirect_fraction"],
        "blocked": row["blocked"],
    } for row in result.rows()]


def test_ablation_plane_failure():
    rows = _sweep()
    emit("Ablation — AWGR plane failures", render_table(rows))
    acceptance = [r["acceptance"] for r in rows]
    # Degradation is graceful: monotone, and still >80% of flows with
    # two of five planes dark.
    assert acceptance[0] >= acceptance[1] >= acceptance[2]
    assert acceptance[2] > 0.8
    # Indirection works harder as capacity shrinks.
    assert (rows[2]["indirect_fraction"]
            >= rows[0]["indirect_fraction"] - 1e-9)
