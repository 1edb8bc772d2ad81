"""§VI-A — bandwidth satisfaction for case (A), parallel AWGRs.

Paper: 125 Gbps direct suffices >99.5% (CPU-memory) and virtually
always (NIC-memory); one 25 Gbps wavelength suffices 97%; the GPU
indirect budget covers HBM (1555.2 GB/s) and GPU-GPU (900 GB/s) with
~5.5 TB/s to spare.

Runs on the sweep engine:
``repro.experiments.library.BANDWIDTH_ANALYSIS`` replaces the old
direct ``awgr_bandwidth_analysis()`` call.
"""

from conftest import emit

from repro.analysis.report import render_kv
from repro.experiments import SweepRunner, get_experiment


def _analyze():
    result = SweepRunner(workers=1).run(
        get_experiment("bandwidth_analysis")).raise_on_failure()
    return result.rows()[0]


def test_bandwidth_analysis():
    row = _analyze()
    emit("§VI-A — case (A) bandwidth analysis", render_kv({
        "direct_pair_gbps": row["direct_pair_gbps"],
        "p(cpu-mem <= direct) [paper >0.995]":
            row["cpu_mem_p_sufficient"],
        "p(cpu-mem <= 1 wavelength) [paper ~0.97]":
            row["cpu_mem_p_single_wavelength"],
        "p(nic-mem <= direct) [paper ~1.0]":
            row["nic_mem_p_sufficient"],
        "gpu_indirect_total_gbyte_s [paper 8000]":
            row["gpu_indirect_total_gbyte_s"],
        "after_hbm_gbyte_s [paper 6444.8]": row["after_hbm_gbyte_s"],
        "after_gpu_gpu_gbyte_s [paper 5544.8]":
            row["after_gpu_gpu_gbyte_s"],
        "all_satisfied": row["all_satisfied"],
    }))
    assert row["all_satisfied"]
    assert abs(row["after_gpu_gpu_gbyte_s"] - 5544.8) < 1.0
