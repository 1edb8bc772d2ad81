"""Table II — high-radix CMOS-compatible photonic switches.

Regenerates the device catalog including the cascaded-AWGR
construction (3 x 12 x 11 = 396 built, 370 usable) and the projected
256-port wave-selective switch.
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.photonics.awgr import CascadedAWGR
from repro.photonics.switches import project_wave_selective, table2_rows


def _build():
    rows = table2_rows()
    cascade = CascadedAWGR.paper_config()
    wss = project_wave_selective(256)
    return rows, cascade, wss


def test_table2_switches():
    rows, cascade, wss = _build()
    emit("Table II — photonic switch catalog", render_table(rows))
    # Cascaded AWGR construction reproduces the paper's sizing.
    assert cascade.built_ports == 396
    assert cascade.ports == 370
    assert abs(cascade.insertion_loss_db - 15.0) < 1e-9
    assert cascade.crosstalk_db == -35.0
    # Projected wave-selective switch used as case (B).
    assert wss.radix == 256 and wss.wavelengths_per_port == 256
