"""Fig. 8 — slowdown at 25/30/35 ns of additional LLC-memory latency.

Paper: "reducing the additional latency to 25 ns from 35 ns reduces
application slowdown by about half" for both core types.

Runs on the sweep engine:
``repro.experiments.library.FIG8_LATENCY_SENSITIVITY`` replaces the
old serial loop over ``SENSITIVITY_POINTS_NS`` (one task per
(latency, core) grid point).
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.experiments import SweepRunner, get_experiment


def _sweep():
    return SweepRunner(workers=1).run(
        get_experiment("fig8_latency_sensitivity")).raise_on_failure().rows()


def test_fig8_latency_sensitivity():
    raw = _sweep()
    rows = [{"extra_ns": r["latency_ns"], "core": r["core"],
             "mean_slowdown": r["overall_mean_slowdown"],
             "max_slowdown": r["overall_max_slowdown"]} for r in raw]
    emit("Fig. 8 — latency sensitivity", render_table(rows))

    means = {(r["extra_ns"], r["core"]): r["mean_slowdown"] for r in rows}
    for core in ("inorder", "ooo"):
        assert means[(25.0, core)] < means[(30.0, core)] < \
            means[(35.0, core)]
    # OOO cores: fixed hide window makes the 25 ns point ~half of 35 ns.
    ratio = means[(25.0, "ooo")] / means[(35.0, "ooo")]
    assert 0.35 < ratio < 0.75
