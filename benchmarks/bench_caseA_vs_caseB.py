"""§VI-A architectural argument — case (A) AWGRs + distributed indirect
routing vs case (B) reconfigurable switches + centralized scheduler.

Identical shifting flow batches hit both fabrics. Case (A) adapts
per-flow with no reconfiguration; case (B) pays scheduler lag and
reconfiguration downtime whenever demand moves. The paper's conclusion
("case (A) ... avoids the need for a scheduler ... that would
otherwise add overhead and increase reaction time") shows up as the
AWGR carrying at least as much of the shifting demand.

Runs on the sweep engine: ``repro.experiments.library.CASE_A_VS_CASE_B``
sweeps the fabric axis over the same traffic seed.
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.experiments import SweepRunner, get_experiment

_COLUMNS = ("fabric", "throughput_ratio", "reconfigurations",
            "downtime_s")


def _experiment():
    result = SweepRunner(workers=1).run(
        get_experiment("case_a_vs_case_b")).raise_on_failure()
    return [{k: row[k] for k in _COLUMNS} for row in result.rows()]


def test_case_a_vs_case_b():
    rows = _experiment()
    emit("§VI-A — case (A) vs case (B) under shifting demand",
         render_table(rows))
    case_a, case_b = rows
    # The AWGR never reconfigures and carries at least as much of the
    # shifting demand.
    assert case_a["reconfigurations"] == 0
    assert case_b["reconfigurations"] > 0
    assert (case_a["throughput_ratio"]
            >= case_b["throughput_ratio"] - 0.02)
    assert case_a["throughput_ratio"] > 0.9
