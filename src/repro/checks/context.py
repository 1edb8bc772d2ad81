"""Per-file context handed to every rule: AST plus SIM001 markers.

Marker comments (parsed with :mod:`tokenize`, so strings that merely
*contain* the text don't count):

``# repro-check: config`` / ``# repro-check: derived``
    The attribute assigned on this line is configuration (never
    mutated after construction) or derived (recomputable from
    config), so it legitimately stays out of
    ``snapshot()``/``restore()``.

Any other ``repro-check:`` clause is ignored.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field

from repro.checks.findings import Finding

DIRECTIVE_PREFIX = "repro-check:"

#: SIM001 markers a rule may ask about via :meth:`ModuleContext.marker_in_range`.
MARKERS = ("config", "derived")


def parse_markers(source: str) -> dict[int, set[str]]:
    """Line -> the :data:`MARKERS` its ``repro-check:`` comment names."""
    markers: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return markers
    for tok in comments:
        text = tok.string.lstrip("#").strip()
        if not text.startswith(DIRECTIVE_PREFIX):
            continue
        body = text[len(DIRECTIVE_PREFIX):].strip()
        for clause in body.split(";"):
            clause = clause.strip()
            if clause in MARKERS:
                markers.setdefault(tok.start[0], set()).add(clause)
    return markers


@dataclass
class ModuleContext:
    """Everything a rule needs to check one parsed source file."""

    path: str
    source: str
    tree: ast.Module
    markers: dict[int, set[str]] = field(default_factory=dict)

    @classmethod
    def parse(cls, source: str, path: str) -> "ModuleContext":
        """Build a context; propagates ``SyntaxError`` on bad source."""
        tree = ast.parse(source, filename=path)
        return cls(path=path, source=source, tree=tree,
                   markers=parse_markers(source))

    def finding(self, rule: str, node: ast.AST, key: str,
                message: str) -> Finding:
        """Finding anchored at ``node``'s source position."""
        return Finding(path=self.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule=rule, key=key, message=message)

    def marker_in_range(self, node: ast.AST, *names: str) -> bool:
        """True if any requested marker sits on a line ``node`` spans."""
        wanted = set(names) or set(MARKERS)
        start = getattr(node, "lineno", None)
        if start is None:
            return False
        end = getattr(node, "end_lineno", None) or start
        return any(self.markers.get(line, set()) & wanted
                   for line in range(start, end + 1))
