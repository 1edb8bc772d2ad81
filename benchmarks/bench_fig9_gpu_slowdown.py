"""Fig. 9 — GPU slowdown at 25/30/35 ns per application.

Paper: "The average slowdown across all 24 GPU applications is 5.35%"
at 35 ns, with Polybench's memory-stressing kernels at the top.
"""

import numpy as np
from conftest import emit

from repro.analysis.report import render_table
from repro.core.latency import SENSITIVITY_POINTS_NS
from repro.core.slowdown import run_gpu_study


def _sweep():
    return {ns: run_gpu_study(ns) for ns in SENSITIVITY_POINTS_NS}


def test_fig9_gpu_slowdown():
    sweeps = _sweep()
    at35 = {g.name: g for g in sweeps[35.0]}
    rows = [{
        "application": name,
        "s25": next(g.slowdown for g in sweeps[25.0] if g.name == name),
        "s30": next(g.slowdown for g in sweeps[30.0] if g.name == name),
        "s35": g.slowdown,
    } for name, g in sorted(at35.items())]
    emit("Fig. 9 — GPU slowdown (25/30/35 ns)", render_table(rows))

    mean35 = float(np.mean([g.slowdown for g in sweeps[35.0]]))
    emit("Fig. 9 — average @35 ns",
         f"measured {mean35:.4f} vs paper 0.0535")
    assert abs(mean35 - 0.0535) < 0.02
    for row in rows:
        assert row["s25"] <= row["s30"] <= row["s35"]
