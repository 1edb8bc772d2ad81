"""§VI-E — iso-performance module comparison.

Paper: +15% CPUs, +6% GPUs, 4x fewer DDR4 modules, 2x fewer NICs =>
1075 modules vs 1920 baseline (~44% reduction); alternatively keep all
resources and add ~7% chips to double throughput.

The slowdown inputs are *measured* from the CPU and GPU studies, and
the pooling factors are cross-checked against the synthetic Cori
profiles (which support at least the paper's conservative 4x / 2x).
The full chain runs as the sweep engine's ``isoperf`` experiment.
"""

from conftest import emit

from repro.analysis.report import render_kv
from repro.experiments import SweepRunner, get_experiment


def _full_chain():
    result = SweepRunner(workers=1).run(
        get_experiment("isoperf")).raise_on_failure()
    return result.rows()[0]


def test_isoperf():
    row = _full_chain()
    emit("§VI-E — iso-performance comparison", render_kv({
        "measured_cpu_slowdown (inorder mean)": row["cpu_slowdown"],
        "measured_gpu_slowdown (mean)": row["gpu_slowdown"],
        "baseline_modules [paper 1920]": row["baseline_modules"],
        "disaggregated_modules [paper ~1075]":
            row["disaggregated_modules"],
        "module_reduction [paper ~0.44]": row["module_reduction"],
        "empirical_memory_pooling_factor [paper uses 4x]":
            row["empirical_memory_pooling"],
        "empirical_nic_pooling_factor [paper uses 2x]":
            row["empirical_nic_pooling"],
        "alt: chip_increase_to_double_throughput [paper ~0.07]":
            row["alt_chip_increase"],
    }))
    assert row["baseline_modules"] == 1920
    assert abs(row["module_reduction"] - 0.44) < 0.04
    assert row["empirical_memory_pooling"] >= 4.0
    assert row["empirical_nic_pooling"] >= 2.0
