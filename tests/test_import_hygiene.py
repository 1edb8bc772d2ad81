"""Importing the package loads neither scipy.stats nor networkx.

``scipy.stats`` takes about a second to import and the package needs
only two ``scipy.special`` functions from it; networkx is needed only
by the graph views in :mod:`repro.network.topology`. Neither belongs
on the import path of the library, the experiment and scenario
engines or the service. A fresh interpreter is the only place a
clean ``sys.modules`` can be observed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import sys
import repro, repro.experiments, repro.scenarios, repro.service
print(sorted(m for m in ("scipy.stats", "networkx") if m in sys.modules))
"""


def test_package_import_loads_neither_scipy_stats_nor_networkx():
    result = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"
