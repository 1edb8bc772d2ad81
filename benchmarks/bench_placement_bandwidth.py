"""§VI-A, empirically — place a production job mix on the 350-MCM rack
and verify the AWGR fabric carries the resulting traffic.

The analytical §VI-A argument says the six-plane AWGR fabric satisfies
CPU-memory, NIC, and GPU-HBM demands with indirect routing. Here the
same claim is checked constructively through the sweep engine's
``placement_bandwidth`` experiment: jobs from the §III-D3 mix are
placed first-fit on Table III's MCMs, their chip-to-chip flows are
derived, striped into wavelengths, and offered to the flow simulator.
"""

from conftest import emit

from repro.analysis.report import render_kv
from repro.experiments import SweepRunner, get_experiment


def _experiment():
    result = SweepRunner(workers=1).run(
        get_experiment("placement_bandwidth")).raise_on_failure()
    return result.rows()[0]


def test_placement_bandwidth():
    row = _experiment()
    emit("§VI-A (empirical) — placed job mix on the AWGR fabric",
         render_kv({
             "logical flows": row["logical_flows"],
             "striped wavelength flows offered": row["offered"],
             "carried": row["carried"],
             "direct": row["direct"],
             "indirect": row["indirect"],
             "blocked": row["blocked"],
             "acceptance_ratio": row["acceptance_ratio"],
             "throughput_ratio": row["throughput_ratio"],
         }))
    # The six-plane fabric carries the mix; indirect routing does the
    # heavy lifting for GPU-HBM streams (>5 wavelengths per pair).
    assert row["acceptance_ratio"] > 0.95
    assert row["indirect"] > 0
