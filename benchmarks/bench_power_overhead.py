"""§VI-C — photonic power overhead.

Paper: ~11 kW of photonics (0.5 pJ/bit always-on transceivers for
350 MCMs x 2048 wavelengths x 25 Gbps, plus <=1 kW of switches)
against the rack's compute power => ~5% overhead.

Runs on the sweep engine:
``repro.experiments.library.POWER_OVERHEAD`` replaces the old direct
call, so the result lands in the shared cache like every experiment.
"""

from conftest import emit

from repro.analysis.report import render_kv
from repro.experiments import SweepRunner, get_experiment


def _run():
    result = SweepRunner(workers=1).run(
        get_experiment("power_overhead")).raise_on_failure()
    return result.rows()[0]


def test_power_overhead():
    result = _run()
    emit("§VI-C — power overhead", render_kv({
        "photonic_w [paper ~11000]": result["photonic_w"],
        "compute_w": result["compute_w"],
        "overhead_fraction [paper ~0.05]": result["overhead_fraction"],
    }))
    assert 9_000 < result["photonic_w"] < 12_000
    assert 0.03 < result["overhead_fraction"] < 0.07
