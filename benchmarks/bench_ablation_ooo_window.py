"""Ablation — OOO latency-tolerance parameters (§VII).

The paper's discussion argues "more latency-tolerant CPUs would make
resource disaggregation more attractive". This ablation quantifies it
on the calibrated workloads: sweep the OOO hide window and MLP scaling
and measure the mean slowdown at 35 ns.

Runs on the sweep engine: the grid in
``repro.experiments.library.ABLATION_OOO_WINDOW`` replaces the old
hand-rolled double loop.
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.experiments import SweepRunner, get_experiment


def _sweep():
    result = SweepRunner(workers=1).run(
        get_experiment("ablation_ooo_window")).raise_on_failure()
    rows = [{
        "hide_cycles": row["hide_cycles"],
        "mlp_scale": row["mlp_scale"],
        "mean_slowdown": row["mean_slowdown"],
        "max_slowdown": row["max_slowdown"],
    } for row in result.rows()]
    return sorted(rows, key=lambda r: (r["hide_cycles"],
                                       r["mlp_scale"]))


def test_ablation_ooo_window():
    rows = _sweep()
    emit("Ablation — OOO latency tolerance (Parsec large @35 ns)",
         render_table(rows))
    by_key = {(r["hide_cycles"], r["mlp_scale"]): r["mean_slowdown"]
              for r in rows}
    # More MLP always reduces the relative penalty (§VII).
    assert by_key[(24.0, 2.0)] < by_key[(24.0, 1.0)]
    # The hide window is only a win once it exceeds the ~70-cycle base
    # miss path and starts absorbing the *adder* itself: a shallow
    # window shrinks the baseline (raising the relative penalty), a
    # 120-cycle window eats 50 of the adder's 70 cycles.
    assert by_key[(24.0, 1.0)] > by_key[(0.0, 1.0)]   # shallow: worse
    assert by_key[(120.0, 1.0)] < by_key[(0.0, 1.0)]  # deep: better
    assert by_key[(120.0, 2.0)] < 0.66 * by_key[(0.0, 1.0)]
