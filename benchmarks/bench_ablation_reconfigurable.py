"""Ablation — case (A) AWGR+indirect routing vs case (B) reconfigurable
switches with a centralized scheduler (§VI-A's architectural argument).

Both fabrics face the same shifting demand matrix. The AWGR needs no
reconfiguration (passive; indirect routing adapts per-flow), while the
reconfigurable fabric must invoke its scheduler on every shift, paying
reconfiguration downtime and mismatch whenever demand moves before the
next reconfiguration.

Runs on the sweep engine:
``repro.experiments.library.ABLATION_RECONFIGURABLE`` carries the
whole stateful epoch loop as one fixed task (the FIG12 pattern — the
loop threads fabric state between epochs, so it can't split into grid
points), with the per-epoch rows riding along as a list metric.
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.experiments import SweepRunner, get_experiment


def _experiment():
    result = SweepRunner(workers=1).run(
        get_experiment("ablation_reconfigurable")).raise_on_failure()
    (row,) = result.rows()
    return row["epoch_rows"], row


def test_ablation_reconfigurable():
    rows, totals = _experiment()
    emit("Ablation — reconfigurable fabric vs shifting demand",
         render_table(rows))
    emit("Reconfiguration cost", "\n".join([
        f"reconfigurations: {totals['reconfigurations']}",
        f"ports disturbed: {totals['ports_disturbed']}",
        f"time reconfiguring: "
        f"{totals['time_reconfiguring_s'] * 1e3:.1f} ms",
        "AWGR case (A): zero reconfigurations by construction",
    ]))
    # After reconfiguration the scheduler serves the bulk of demand
    # (the hotspot column saturates its output ports, so 100% is
    # unreachable by construction)...
    assert all(r["served_after_reconfig"] > 0.6 for r in rows)
    assert totals["min_served_after"] > 0.6
    # ...but stale configurations serve less (the case-B weakness).
    laters = [r for r in rows if r["epoch"] > 0]
    assert all(r["served_before_reconfig"] < r["served_after_reconfig"]
               for r in laters)
    assert totals["reconfigurations"] == len(rows)
