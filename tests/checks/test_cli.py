"""The ``repro check`` CLI subcommand end to end."""

import pytest

from repro.cli import main

BAD = "def f(acc=[]):\n    return acc\n"
CLEAN = "def f(acc=None):\n    return acc or []\n"


def run_cli(argv, capsys):
    """main() with SystemExit folded into the returned exit code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return code, capsys.readouterr().out


class TestCheckCommand:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        code, out = run_cli(["check", str(tmp_path)], capsys)
        assert code == 0
        assert "1 files checked: 0 finding(s), 0 parse error(s)" in out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BAD)
        code, out = run_cli(["check", str(tmp_path)], capsys)
        assert code == 1
        assert "PY001" in out

    def test_parse_error_fails_the_gate(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        (tmp_path / "bad_syntax.py").write_text("def broken(:\n")
        code, out = run_cli(["check", str(tmp_path)], capsys)
        assert code == 1
        assert "PARSE" in out
        (tmp_path / "bad_syntax.py").write_text(CLEAN)
        code, out = run_cli(["check", str(tmp_path)], capsys)
        assert code == 0
        assert "2 files checked: 0 finding(s), 0 parse error(s)" in out

    def test_select_restricts_rules(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(BAD)
        code, out = run_cli(
            ["check", str(tmp_path), "--select", "SIM002"], capsys)
        assert code == 0

    def test_list_rules(self, capsys):
        code, out = run_cli(["check", "--list-rules"], capsys)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == [
            "PY001", "SIM001", "SIM002", "SIM003", "SIM004", "SIM005",
            "SIM006"]

    def test_unknown_rule_is_an_error(self, tmp_path, capsys):
        code, _ = run_cli(
            ["check", str(tmp_path), "--select", "NOPE"], capsys)
        assert code == 1

    def test_default_invocation_matches_ci_gate(self, capsys):
        # `repro check` with no arguments from the repo root is the CI
        # gate; it must run clean.
        code, out = run_cli(["check"], capsys)
        assert code == 0, out

    def test_default_invocation_outside_the_repo_root(
            self, tmp_path, monkeypatch, capsys):
        # Elsewhere the package's own tree is checked, with the tests/
        # tree of the repo that holds it indexed: SIM006 must still
        # find the oracles under tests/oracles/.
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(["check"], capsys)
        assert code == 0, out
        assert " 0 finding(s), 0 parse error(s)" in out

    def test_missing_test_tree_is_an_error(self, tmp_path, monkeypatch):
        # A src/repro without a tests/ beside it cannot be gated:
        # the command names the missing index instead of reporting
        # findings the index would have cleared.
        (tmp_path / "src" / "repro").mkdir(parents=True)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["check"])
        message = str(excinfo.value.code)
        assert message.startswith("check: no test tree to index at ")
        assert str(tmp_path.resolve() / "tests") in message
