"""What importing the package may and may not load.

``scipy.stats`` takes about a second to import and the package needs
only two ``scipy.special`` functions from it; networkx is needed only
by the graph views in :mod:`repro.network.topology`. Neither belongs
on the import path of the library, the experiment and scenario
engines or the service. A fresh interpreter is the only place a
clean ``sys.modules`` can be observed.

The service imports the lock sanitizer, :mod:`repro.checks.runtime`,
and nothing else of the checker: the linter's engine and rules load
only for ``repro check``. Neither the scenario engine nor the service
loads the sweep engine: the fan-out and the cache-key hash they share
with it live in :mod:`repro.scaleout`.

The scalar oracles under ``tests/oracles/`` are the other direction:
production must never run them, so nothing under ``src/`` imports the
``tests`` package, statically or at import time. The per-flow
``Flow`` form of traffic lives there too: the package exports one
flow form, ``FlowBatch``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"

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


SERVICE_PROBE = """
import sys
import repro.service
print(sorted(m for m in sys.modules if m.startswith("repro.checks")))
"""


def test_service_import_loads_only_the_sanitizer():
    result = subprocess.run(
        [sys.executable, "-c", SERVICE_PROBE], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == str(["repro.checks",
                                         "repro.checks.runtime"])


EXPERIMENTS_PROBE = """
import sys
import repro.scenarios, repro.service
print(sorted(m for m in sys.modules
             if m == "repro.experiments"
             or m.startswith("repro.experiments.")))
"""


def test_scenarios_and_service_load_no_sweep_engine():
    result = subprocess.run(
        [sys.executable, "-c", EXPERIMENTS_PROBE], capture_output=True,
        text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"


TESTS_PROBE = """
import sys
import repro, repro.experiments, repro.scenarios, repro.service
import repro.checks.report
print(sorted(m for m in sys.modules
             if m == "tests" or m.startswith("tests.")))
"""


def test_package_import_loads_no_test_module():
    # Run from the repo root, where ``tests`` would be importable.
    result = subprocess.run(
        [sys.executable, "-c", TESTS_PROBE], capture_output=True,
        text=True, timeout=120, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"


def test_no_source_file_imports_tests():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(n == "tests" or n.startswith("tests.")
                   for n in names):
                offenders.append(f"{path.relative_to(REPO)}:"
                                 f"{node.lineno}")
    assert offenders == []


def test_package_has_one_flow_form():
    import repro.network
    import repro.network.traffic

    assert not hasattr(repro.network.traffic, "Flow")
    assert [name for name in repro.network.__all__
            if name.endswith("_traffic")] == []
