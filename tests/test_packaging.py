"""Package metadata: ``setup.py`` names the package and takes its
version from ``repro.__version__``, the one place it is written."""

import subprocess
import sys
from pathlib import Path

import repro

SETUP = Path(__file__).resolve().parents[1] / "setup.py"


def test_setup_py_reports_name_and_version(tmp_path):
    # Run from an empty directory so no build output lands in the repo.
    result = subprocess.run(
        [sys.executable, str(SETUP), "--name", "--version"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.split() == ["repro", repro.__version__]
