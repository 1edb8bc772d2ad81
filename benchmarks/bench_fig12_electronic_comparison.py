"""Fig. 12 — photonic (35 ns) vs best electronic (85 ns) speedups.

Paper: in-order average 9% (max 41%), OOO 15% (max 45%), GPUs ~61%
(throttled bandwidth plus latency). PARSEC counted at medium only.

Runs on the sweep engine:
``repro.experiments.library.FIG12_ELECTRONIC_COMPARISON`` replaces the
old hand-rolled ``electronic_vs_photonic`` call (one task covering all
three core types, since they share the underlying CPU study).
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.experiments import SweepRunner, get_experiment


def _sweep():
    return SweepRunner(workers=1).run(
        get_experiment("fig12_electronic_comparison")
    ).raise_on_failure().rows()


def test_fig12_electronic_comparison():
    row = _sweep()[0]
    table = [{
        "core": core,
        "mean_speedup": row[f"{core}_mean_speedup"],
        "max_speedup": row[f"{core}_max_speedup"],
        "n": row[f"{core}_n"],
    } for core in ("inorder", "ooo", "gpu")]
    emit("Fig. 12 — photonic over electronic",
         render_table(table)
         + "\npaper: inorder 9%/41%, OOO 15%/45%, GPU ~61%")

    emit("Fig. 12 — top-10 benchmark speedups",
         render_table(row["top_speedups"]))

    assert 0.05 < row["inorder_mean_speedup"] < 0.15
    assert 0.08 < row["ooo_mean_speedup"] < 0.20
    assert 0.40 < row["gpu_mean_speedup"] < 0.80
    assert row["min_speedup"] >= 0
