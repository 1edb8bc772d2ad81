"""Engine mechanics: markers, parse errors, file discovery, reports."""

from pathlib import Path

import pytest

from repro.checks.engine import check_source, iter_python_files, run_checks
from repro.checks.report import render_text

BAD_DEFAULT = "def f(acc=[]):\n    return acc\n"
FIXTURES = Path(__file__).parent / "fixtures"


class TestSuppressions:
    """No comment can silence a finding; SIM001's markers are read
    from real comments only."""

    def test_disable_comment_silences_nothing(self):
        # ``disable=`` is an unknown clause, and unknown clauses are
        # ignored.
        source = ("def f(acc=[]):  # repro-check: disable=PY001\n"
                  "    return acc\n")
        report = check_source(source, "x.py", rules=["PY001"])
        assert [f.rule for f in report.findings] == ["PY001"]

    def test_directive_inside_string_is_ignored(self):
        # A string holding the ``derived`` marker text marks nothing.
        source = (FIXTURES / "sim001_good.py").read_text().replace(
            "  # repro-check: derived", '; _ = "# repro-check: derived"')
        report = check_source(source, "sim001_good.py", rules=["SIM001"])
        assert [f.key for f in report.findings] == ["Complete._cache"]


class TestParseErrors:
    def test_syntax_error_reported_not_raised(self):
        report = check_source("def broken(:\n", "bad.py")
        assert report.findings == []
        assert len(report.errors) == 1
        assert report.errors[0].path == "bad.py"
        assert "line 1" in report.errors[0].message


class TestFileDiscovery:
    def test_skips_hidden_and_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "a.py").write_text("x = 1\n")
        (tmp_path / ".hidden").mkdir()
        (tmp_path / ".hidden" / "b.py").write_text("x = 1\n")
        (tmp_path / "top.py").write_text("x = 1\n")
        found = iter_python_files([tmp_path])
        assert [p.name for p in found] == ["top.py", "a.py"] or \
               [p.name for p in found] == ["a.py", "top.py"]

    def test_explicit_file_always_included(self, tmp_path):
        target = tmp_path / "script.py"
        target.write_text(BAD_DEFAULT)
        report = run_checks([target], rules=["PY001"])
        assert report.files == 1
        assert len(report.findings) == 1


class TestReports:
    def test_text_report_lists_new_findings_and_summary(self):
        report = check_source(BAD_DEFAULT, "x.py", rules=["PY001"])
        text = render_text(report)
        assert "x.py:1:10: PY001" in text
        assert text.endswith(
            "1 files checked: 1 finding(s), 0 parse error(s)")

    def test_unknown_rule_selection_raises(self):
        with pytest.raises(KeyError, match="NOPE"):
            check_source("x = 1\n", "x.py", rules=["NOPE"])
