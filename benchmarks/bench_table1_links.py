"""Table I — WDM photonic link technologies.

Regenerates the computed columns (#links and aggregate W for a 2 TB/s
escape) from the device parameters.

Paper values: links 160/40/21/16/8; aggregate W 480/197/14.4/7.2/4.8
(the 400G row's published wattage is inconsistent with its printed
30 pJ/bit — see EXPERIMENTS.md).
"""

from conftest import emit

from repro.analysis.report import render_table
from repro.photonics.links import table1_rows


def test_table1_links():
    rows = table1_rows(2.0)
    emit("Table I — link technologies (2 TB/s escape)",
         render_table(rows, columns=["name", "gbps", "pj_per_bit",
                                     "channel_structure", "links",
                                     "aggregate_w"]))
    by_name = {r["name"]: r for r in rows}
    assert by_name["100G-ethernet"]["links"] == 160
    assert by_name["400G-ethernet"]["links"] == 40
    assert by_name["ayar-teraphy"]["links"] == 21
    assert by_name["dwdm-1tbps"]["links"] == 16
    assert by_name["dwdm-2tbps"]["links"] == 8
    assert abs(by_name["dwdm-2tbps"]["aggregate_w"] - 4.8) < 1e-9
