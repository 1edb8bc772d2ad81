"""Fig. 6 — average and maximum slowdown per suite and input size.

35 ns LLC<->memory adder; in-order (left panel) and OOO (right panel).

Paper values: NAS negligible; Rodinia ~16% both cores; Parsec large
23% in-order / 41% OOO, medium 13% / 24%; overall Parsec 16% / 27%;
NW worst at ~79% / ~55%.

Runs on the sweep engine:
``repro.experiments.library.FIG6_CPU_SLOWDOWN`` replaces the old
hand-rolled ``run_cpu_study`` call (one task per core type).
"""

import numpy as np
from conftest import emit

from repro.analysis.report import render_table
from repro.experiments import SweepRunner, get_experiment


def _sweep():
    return SweepRunner(workers=1).run(
        get_experiment("fig6_cpu_slowdown")).raise_on_failure().rows()


def test_fig6_cpu_slowdown():
    raw = _sweep()
    rows = []
    for task_row in raw:
        core = task_row["core"]
        groups = {key.rsplit(".", 1)[0]
                  for key in task_row if key.count(".") == 2}
        for group in sorted(groups):
            suite, input_size = group.split(".")
            rows.append({
                "suite": suite, "input": input_size, "core": core,
                "mean_slowdown": task_row[f"{group}.mean_slowdown"],
                "max_slowdown": task_row[f"{group}.max_slowdown"],
                "n": task_row[f"{group}.n"],
            })
    emit("Fig. 6 — CPU slowdown @35 ns", render_table(rows))

    summary = {(r["suite"], r["input"], r["core"]): r for r in rows}
    assert summary[("parsec", "large", "inorder")]["mean_slowdown"] == \
        np.clip(summary[("parsec", "large", "inorder")]["mean_slowdown"],
                0.19, 0.27)
    assert summary[("parsec", "large", "ooo")]["mean_slowdown"] > \
        summary[("parsec", "large", "inorder")]["mean_slowdown"]
    for cls in ("A", "B", "C"):
        assert summary[("nas", cls, "inorder")]["mean_slowdown"] < 0.05
    assert 0.12 <= summary[("rodinia", "default", "inorder")][
        "mean_slowdown"] <= 0.20
    # NW dominates the Rodinia maxima.
    assert summary[("rodinia", "default", "inorder")][
        "max_slowdown"] > 0.70
