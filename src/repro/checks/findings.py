"""Findings: one rule violation at one source location.

A finding's :attr:`~Finding.fingerprint` deliberately excludes the
line number: rules provide a *semantic* ``key`` (``Class.attr``, a
dotted call name plus occurrence index, …) that names the flagged
construct itself, so one construct reached along several paths is
reported once (SIM005 dedups its findings by fingerprint).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One violation, sortable into stable report order."""

    path: str
    line: int
    col: int
    rule: str
    key: str
    message: str

    @property
    def fingerprint(self) -> str:
        """Line-independent identity of the flagged construct."""
        return f"{self.rule}:{self.path}:{self.key}"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
