"""SIM003 — protocol conformance for fabric backends.

* Classes adapted as fabric backends (anything defining
  ``apply_event``, the distinguishing method of ``FabricBackend``)
  must implement the full protocol surface — ``name`` plus ``step``,
  ``apply_event``, ``snapshot``, ``restore`` — with signatures a
  protocol caller can invoke positionally.
* ``snapshot``/``restore`` must appear as a pair in any class, never
  alone — a snapshot nobody can restore (or vice versa) is a latent
  resume bug.

Protocol definitions themselves (``Protocol`` bases or
``@runtime_checkable``) are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.checks.classinfo import (
    INIT_METHODS,
    ClassInfo,
    collect_classes,
    positional_arity,
)
from repro.checks.context import ModuleContext
from repro.checks.findings import Finding
from repro.checks.rules import Rule, register

RULE_ID = "SIM003"

#: FabricBackend surface: method -> expected positional parameter
#: count, counting ``self``.
FABRIC_SURFACE = {"step": 2, "apply_event": 2, "snapshot": 1,
                  "restore": 2}


def _signature_ok(func: ast.FunctionDef, expected: int) -> bool:
    required, total, has_star = positional_arity(func)
    if has_star:
        return required <= expected
    return required <= expected <= total


def _check_surface(ctx: ModuleContext, info: ClassInfo, protocol: str,
                   surface: dict[str, int]) -> Iterable[Finding]:
    for method, expected in surface.items():
        func = info.methods.get(method)
        if func is None:
            yield ctx.finding(
                RULE_ID, info.node, key=f"{info.name}.{method}:missing",
                message=(f"{info.name} looks like a {protocol} but "
                         f"does not define {method}()"))
        elif not _signature_ok(func, expected):
            required, total, _ = positional_arity(func)
            yield ctx.finding(
                RULE_ID, func, key=f"{info.name}.{method}:signature",
                message=(f"{info.name}.{method}() takes "
                         f"{required}-{total} positional parameters "
                         f"but the {protocol} protocol calls it with "
                         f"{expected} (counting self)"))


@register
class ProtocolConformance(Rule):
    rule_id = RULE_ID
    summary = ("backend classes must implement their full protocol "
               "surface; snapshot/restore come in pairs")

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for info in collect_classes(ctx.tree):
            if info.is_protocol:
                continue
            has_snap = "snapshot" in info.methods
            has_restore = "restore" in info.methods
            if has_snap != has_restore:
                present, absent = (("snapshot", "restore") if has_snap
                                   else ("restore", "snapshot"))
                yield ctx.finding(
                    RULE_ID, info.methods[present],
                    key=f"{info.name}.pair",
                    message=(f"{info.name} defines {present}() without "
                             f"{absent}() — snapshot/restore must come "
                             f"as a pair"))
            if "apply_event" in info.methods:
                yield from _check_surface(ctx, info, "FabricBackend",
                                          FABRIC_SURFACE)
                if not self._has_name(info):
                    yield ctx.finding(
                        RULE_ID, info.node, key=f"{info.name}.name",
                        message=(f"{info.name} looks like a "
                                 f"FabricBackend but never defines a "
                                 f"`name` attribute"))

    @staticmethod
    def _has_name(info: ClassInfo) -> bool:
        if "name" in info.class_attrs:
            return True
        return any(w.attr == "name" and w.direct
                   for w in info.writes_in(*INIT_METHODS))
