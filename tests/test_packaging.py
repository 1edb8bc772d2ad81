"""Package metadata and test collection: ``setup.py`` names the
package and takes its version from ``repro.__version__``, the one
place it is written, and ``pytest.ini`` collects the paper-figure
modules but not the wall-clock floors."""

import ast
import configparser
import fnmatch
import subprocess
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
SETUP = ROOT / "setup.py"


def test_setup_py_reports_name_and_version(tmp_path):
    # Run from an empty directory so no build output lands in the repo.
    result = subprocess.run(
        [sys.executable, str(SETUP), "--name", "--version"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == ["repro", repro.__version__]


def _python_files_patterns() -> list:
    """``python_files`` from ``pytest.ini`` (pytest's default if unset)."""
    ini = configparser.ConfigParser()
    ini.read(ROOT / "pytest.ini")
    return ini.get("pytest", "python_files",
                   fallback="test_*.py *_test.py").split()


def test_tier1_collects_every_figure_module_and_no_timing_floor():
    # The paper-figure modules are asserted checks: a plain ``pytest``
    # run must collect each of them. The wall-clock floors must stay
    # out of it, and run only when named.
    patterns = _python_files_patterns()
    modules = sorted((ROOT / "benchmarks").glob("bench_*.py"))
    assert modules
    for module in modules:
        assert any(fnmatch.fnmatch(module.name, p) for p in patterns), (
            module.name)
        tree = ast.parse(module.read_text())
        assert any(isinstance(node, ast.FunctionDef)
                   and node.name.startswith("test_")
                   for node in tree.body), module.name
    floors = ROOT / "benchmarks" / "timing_floors.py"
    assert floors.exists()
    assert not any(fnmatch.fnmatch(floors.name, p) for p in patterns)
