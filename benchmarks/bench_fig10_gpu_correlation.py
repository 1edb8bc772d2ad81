"""Fig. 10 — GPU slowdown vs LLC miss rate and HBM transactions.

Paper: correlation 0.87 with LLC miss rate and 0.79 with HBM
transactions per instruction; no significant correlation with the raw
memory-instruction fraction (caches filter it).
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.analysis.stats import pearson
from repro.core.slowdown import run_gpu_study


def test_fig10_gpu_correlation():
    results = run_gpu_study(35.0)
    rows = [{
        "application": g.name, "slowdown": g.slowdown,
        "llc_miss_rate": g.llc_miss_rate,
        "hbm_txn_per_instr": g.hbm_txn_per_instr,
    } for g in sorted(results, key=lambda g: -g.slowdown)]
    emit("Fig. 10 — GPU slowdown drivers", render_table(rows))

    slow = [g.slowdown for g in results]
    r_miss = pearson(slow, [g.llc_miss_rate for g in results])
    r_hbm = pearson(slow, [g.hbm_txn_per_instr for g in results])
    emit("Fig. 10 — Pearson coefficients",
         f"LLC miss rate: {r_miss:.3f} (paper 0.87)\n"
         f"HBM txn/instr: {r_hbm:.3f} (paper 0.79)")
    assert r_miss > 0.8
    assert r_hbm > 0.7
