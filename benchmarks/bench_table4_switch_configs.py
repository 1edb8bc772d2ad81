"""Table IV — switch configurations used by the study.

All families clamped to 25 Gbps/wavelength; radices 370 (cascaded
AWGR), 240 (spatial), 256 (wave-selective).

Runs on the sweep engine:
``repro.experiments.library.TABLE4_SWITCH_CONFIGS`` replaces the old
direct ``table4_rows()`` call (one task per switch family).
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.experiments import SweepRunner, get_experiment


def _sweep():
    return SweepRunner(workers=1).run(
        get_experiment("table4_switch_configs")).raise_on_failure().rows()


def test_table4_switch_configs():
    rows = _sweep()
    emit("Table IV — study switch configurations", render_table(rows))
    by_type = {r["switch_type"]: r for r in rows}
    assert by_type["awgr"]["radix"] == 370
    assert by_type["spatial"]["radix"] == 240
    assert by_type["wave-selective"]["radix"] == 256
    assert all(r["gbps_per_wavelength"] == 25.0 for r in rows)
