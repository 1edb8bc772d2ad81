"""File discovery and two-pass rule dispatch.

Pass 1 parses each file once into a
:class:`~repro.checks.context.ModuleContext`, runs every selected
per-file rule, and boils the AST down to a
:class:`~repro.checks.concurrency.ModuleSummary`. Pass 2 merges the
summaries into a :class:`~repro.checks.concurrency.ProjectIndex` and
runs the project-wide rules (SIM005/SIM006) over it.

``index_paths`` name files that join the project index — feeding
method resolution, thread seeds, and SIM006's twin-test evidence —
without being checked themselves: findings never anchor on them.
The CLI indexes ``tests/`` automatically for this reason.

Files that fail to parse are reported as errors, never swallowed, so
a module no test imports still fails the gate when it stops parsing.
Every finding counts: nothing grandfathers or silences one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.checks.concurrency import (ModuleSummary, ProjectIndex,
                                      build_summary)
from repro.checks.context import ModuleContext
from repro.checks.findings import Finding
from repro.checks.rules import PROJECT_RULES, RULES


@dataclass(frozen=True)
class ParseError:
    """One file the checker could not parse."""

    path: str
    message: str

    def render(self) -> str:
        return f"{self.path}: PARSE {self.message}"


@dataclass
class CheckReport:
    """Outcome of one engine run over a set of files."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[ParseError] = field(default_factory=list)
    files: int = 0
    #: index-only files parsed for the project index (not checked).
    indexed: int = 0

    def extend(self, other: "CheckReport") -> None:
        self.findings.extend(other.findings)
        self.errors.extend(other.errors)
        self.files += other.files
        self.indexed += other.indexed


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files,
    skipping hidden directories and ``__pycache__``."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                relative = candidate.relative_to(path).parts
                if any(part == "__pycache__" or part.startswith(".")
                       for part in relative):
                    continue
                out.append(candidate)
        else:
            out.append(path)
    return out


def display_path(path: str | Path) -> str:
    """Stable, cwd-relative POSIX path for reports and fingerprints."""
    path = Path(path)
    try:
        path = path.resolve().relative_to(Path.cwd().resolve())
    except ValueError:
        pass
    return path.as_posix()


def _selected_rules(rules: Sequence[str] | None):
    """(per-file rules, project rules) for a ``--select`` list."""
    if rules is None:
        return list(RULES.values()), list(PROJECT_RULES.values())
    known = set(RULES) | set(PROJECT_RULES)
    unknown = [r for r in rules if r not in known]
    if unknown:
        raise KeyError(f"unknown rule(s) {unknown}; "
                       f"known: {sorted(known)}")
    return ([RULES[r] for r in rules if r in RULES],
            [PROJECT_RULES[r] for r in rules if r in PROJECT_RULES])


def _analyze_source(source: str, path: str, file_rules,
                    index_only: bool = False
                    ) -> tuple[CheckReport, ModuleSummary | None]:
    """Pass 1 for one in-memory blob: per-file rules + summary."""
    report = CheckReport(files=int(not index_only),
                         indexed=int(index_only))
    try:
        ctx = ModuleContext.parse(source, path)
    except SyntaxError as exc:
        report.errors.append(ParseError(
            path=path, message=f"{exc.msg} (line {exc.lineno})"))
        return report, None
    for rule in file_rules:
        report.findings.extend(rule.check(ctx))
    return report, build_summary(ctx.tree, path, index_only=index_only)


def _analyze_path(path: Path, file_rules, index_only: bool = False
                  ) -> tuple[CheckReport, ModuleSummary | None]:
    """Pass 1 for one file on disk; an unreadable file is an error."""
    shown = display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        report = CheckReport(files=int(not index_only),
                             indexed=int(index_only))
        report.errors.append(ParseError(path=shown, message=str(exc)))
        return report, None
    return _analyze_source(source, shown, file_rules,
                           index_only=index_only)


def _finish(report: CheckReport, summaries: list, project_rules
            ) -> CheckReport:
    """Pass 2: project rules over the merged index, then sort."""
    summaries = [s for s in summaries if s is not None]
    if summaries and project_rules:
        project = ProjectIndex(summaries)
        for rule in project_rules:
            report.findings.extend(rule.check_project(project))
    report.findings.sort()
    return report


def check_source(source: str, path: str,
                 rules: Sequence[str] | None = None,
                 index_sources: dict | None = None) -> CheckReport:
    """Run rules over one in-memory source blob (plus optional
    index-only companions, for twin-test evidence in tests)."""
    file_rules, project_rules = _selected_rules(rules)
    report, summary = _analyze_source(source, path, file_rules)
    summaries = [summary]
    for extra_path, extra_source in sorted(
            (index_sources or {}).items()):
        extra, extra_summary = _analyze_source(
            extra_source, extra_path, (), index_only=True)
        report.extend(extra)
        summaries.append(extra_summary)
    return _finish(report, summaries, project_rules)


def check_file(path: str | Path,
               rules: Sequence[str] | None = None) -> CheckReport:
    file_rules, project_rules = _selected_rules(rules)
    report, summary = _analyze_path(Path(path), file_rules)
    return _finish(report, [summary], project_rules)


def run_checks(paths: Iterable[str | Path],
               rules: Sequence[str] | None = None,
               index_paths: Iterable[str | Path] = ()) -> CheckReport:
    """Check every python file under ``paths``.

    ``index_paths`` files join the cross-module index without being
    checked."""
    file_rules, project_rules = _selected_rules(rules)
    checked = iter_python_files(paths)
    checked_set = {p.resolve() for p in checked}
    index_only = [p for p in iter_python_files(index_paths)
                  if p.resolve() not in checked_set]
    report = CheckReport()
    summaries = []
    for path in checked:
        part, summary = _analyze_path(path, file_rules)
        report.extend(part)
        summaries.append(summary)
    for path in index_only:
        part, summary = _analyze_path(path, (), index_only=True)
        report.extend(part)
        summaries.append(summary)
    return _finish(report, summaries, project_rules)
