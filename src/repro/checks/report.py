"""Text rendering of a check run and of the rule catalog."""

from __future__ import annotations

from repro.checks.engine import CheckReport
from repro.checks.rules import PROJECT_RULES, RULES


def render_text(report: CheckReport) -> str:
    lines = [error.render() for error in report.errors]
    lines.extend(finding.render() for finding in report.findings)
    lines.append(f"{report.files} files checked: "
                 f"{len(report.findings)} finding(s), "
                 f"{len(report.errors)} parse error(s)")
    return "\n".join(lines)


def render_rules() -> str:
    """The rule catalog, one line per rule."""
    catalog = {rule_id: rule.summary
               for rule_id, rule in {**RULES, **PROJECT_RULES}.items()}
    width = max(len(rule_id) for rule_id in catalog)
    return "\n".join(f"{rule_id:<{width}}  {summary}"
                     for rule_id, summary in sorted(catalog.items()))
