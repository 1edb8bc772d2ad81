"""§III-C3 — FEC/BER budget.

Paper: lightweight CXL/PCIe-Gen6 FEC adds 2-3 ns (plus serialization),
suppresses flit failures quadratically, keeps bandwidth loss <0.1%,
and reaches the 1e-18 server-memory BER with CRC + retransmission.

Runs on the sweep engine: ``repro.experiments.library.FEC_BER``
replaces the old hand-rolled raw-BER loop.
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.experiments import SweepRunner, get_experiment


def _sweep():
    result = SweepRunner(workers=1).run(
        get_experiment("fec_ber")).raise_on_failure()
    return result.rows()


def test_fec_ber():
    rows = _sweep()
    emit("§III-C3 — FEC/BER sweep", render_table([{
        "raw_ber": r["raw_ber"],
        "flit_fail": r["flit_fail"],
        "residual_ber": r["residual_ber"],
        "retx_overhead": r["retx_overhead"],
        "meets_1e-18": r["meets_1e18"],
    } for r in rows], precision=3))
    latency = {
        "fec+serialization @200 Gbps (paper ~12-13 ns)":
            rows[0]["latency_ns_200g"],
        "fec+serialization @400 Gbps (paper ~7-8 ns)":
            rows[0]["latency_ns_400g"],
    }
    emit("§III-C3 — FEC latency", "\n".join(
        f"{k}: {v:.2f}" for k, v in latency.items()))

    by_ber = {r["raw_ber"]: r for r in rows}
    assert by_ber[1e-6]["meets_1e18"]
    assert by_ber[1e-6]["retx_overhead"] < 1e-3
    # Quadratic suppression: 100x better raw BER -> ~10,000x fewer
    # flit failures.
    ratio = by_ber[1e-6]["flit_fail"] / by_ber[1e-8]["flit_fail"]
    assert 5_000 < ratio < 20_000
