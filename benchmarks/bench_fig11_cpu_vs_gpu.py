"""Fig. 11 — CPU vs GPU slowdown on the shared Rodinia subset.

Paper: "GPUs tolerate the additional 35 ns latency better with a
maximum slowdown of 12%", while CPU cores suffer up to ~79% (NW).
"""

import numpy as np
from conftest import emit

from repro.analysis.report import render_table
from repro.core.slowdown import cpu_gpu_rodinia_comparison


def test_fig11_cpu_vs_gpu():
    rows = cpu_gpu_rodinia_comparison(35.0)
    table = [{
        "benchmark": r.benchmark, "inorder": r.inorder,
        "ooo": r.ooo, "gpu": r.gpu,
    } for r in rows]
    emit("Fig. 11 — Rodinia on CPU vs GPU @35 ns", render_table(table))

    gpu_max = max(r.gpu for r in rows)
    emit("Fig. 11 — GPU max slowdown",
         f"measured {gpu_max:.3f} vs paper ~0.12")
    assert gpu_max < 0.15
    assert float(np.mean([r.gpu for r in rows])) < \
        float(np.mean([r.inorder for r in rows]))
    nw = next(r for r in rows if r.benchmark == "nw")
    assert nw.inorder > 0.7 and nw.gpu < 0.15
