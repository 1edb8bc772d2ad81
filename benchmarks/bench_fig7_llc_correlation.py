"""Fig. 7 — per-benchmark slowdown vs. LLC miss rate (in-order).

Paper: Pearson 0.89 for Parsec-large, 0.76 for Rodinia (in-order);
0.75 / 0.93 for OOO. Streamcluster's input-size cliff (<0.5% miss ->
>60% miss) drives its 57% large-input slowdown.
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.analysis.stats import pearson
from repro.core.slowdown import run_cpu_study
from repro.workloads.cpu_suites import (
    parsec_benchmarks,
    rodinia_cpu_benchmarks,
)


def _study():
    benches = parsec_benchmarks("large") + rodinia_cpu_benchmarks()
    return run_cpu_study(35.0, benchmarks=benches)


def test_fig7_llc_correlation():
    results = _study()
    rows = [{
        "benchmark": r.name, "core": r.core,
        "slowdown": r.slowdown, "llc_miss_rate": r.llc_miss_rate,
    } for r in results if r.core == "inorder"]
    emit("Fig. 7 — slowdown vs LLC miss rate (in-order)",
         render_table(sorted(rows, key=lambda r: -r["slowdown"])))

    def corr(prefix, core):
        sel = [r for r in results
               if r.core == core and r.name.startswith(prefix)]
        return pearson([r.slowdown for r in sel],
                       [r.llc_miss_rate for r in sel])

    coeffs = {
        "parsec-large/inorder (paper 0.89)": corr("parsec", "inorder"),
        "rodinia/inorder (paper 0.76)": corr("rodinia", "inorder"),
        "parsec-large/ooo (paper 0.75)": corr("parsec", "ooo"),
        "rodinia/ooo (paper 0.93)": corr("rodinia", "ooo"),
    }
    emit("Fig. 7 — Pearson coefficients",
         "\n".join(f"{k}: {v:.3f}" for k, v in coeffs.items()))
    assert all(v > 0.7 for v in coeffs.values())
