"""Fig. 5 / §V-B — fabric connectivity invariants.

Case (A): six parallel 370-port AWGRs give every MCM pair at least
five direct 25 Gbps wavelengths (125 Gbps guaranteed).
Case (B): eleven 256-port wave-selective switches, staggered, give
every MCM pair at least three direct switch paths.

Runs on the sweep engine:
``repro.experiments.library.FIG5_CONNECTIVITY`` replaces the old
hand-rolled build-and-verify body.
"""

from conftest import emit

from repro.analysis.report import render_kv
from repro.experiments import SweepRunner, get_experiment


def _build_and_verify():
    result = SweepRunner(workers=1).run(
        get_experiment("fig5_connectivity")).raise_on_failure()
    return result.rows()[0]


def test_fig5_connectivity():
    result = _build_and_verify()
    emit("Fig. 5 — fabric connectivity",
         render_kv(result) + "\npaper: >=5 wavelengths/pair (AWGR), "
         ">=3 direct paths/pair (WSS), 125 Gbps direct")
    assert result["awgr_planes"] == 6
    assert result["awgr_min_direct_wavelengths"] >= 5
    assert result["awgr_guaranteed_pair_gbps"] == 125.0
    assert result["wss_switches"] == 11
    assert result["wss_min_direct_paths"] >= 3
    assert result["wss_max_ports_per_mcm"] <= 8
