"""Table III — chips per MCM and MCMs per rack.

Regenerates the packing from escape-bandwidth equality (32 fibers x
64 wavelengths x 25 Gbps per MCM; chip escape bandwidths from the
baseline node).

Paper values: CPU 14/10, GPU 3/171, NIC 203/3, HBM 4/128, DDR4 27/38,
total 350 MCMs.
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.rack.mcm import table3_rows


def test_table3_mcm_packing():
    rows = table3_rows()
    emit("Table III — MCM packing", render_table(rows))
    expected = {"cpu": (14, 10), "gpu": (3, 171), "nic": (203, 3),
                "hbm": (4, 128), "ddr4": (27, 38)}
    for row in rows[:-1]:
        per, mcms = expected[row["chip_type"]]
        assert row["chips_per_mcm"] == per
        assert row["mcms_per_rack"] == mcms
    assert rows[-1]["mcms_per_rack"] == 350
