"""SIM006 — vectorized/scalar twin conformance.

Every hot path is vectorized, and each keeps a scalar oracle it must
match bit for bit. That guarantee only holds while both sides exist
and a twin test proves the identity — so this rule makes the pairing
structural:

* every class defining a vectorized entry point must keep its scalar
  oracle: in the same class, as a module-level function, or as a
  method of a ``Scalar<Class>`` class in a module under
  ``tests/oracles/`` — the home of oracles production never runs;
* fabric backends (classes defining ``apply_event``, SIM003's marker
  for the ``FabricBackend`` protocol; protocol definitions are exempt)
  have ``step`` as their entry point and ``Scalar<Class>.step`` under
  ``tests/oracles/`` as its oracle; and
* some test module must reference the class together with both twin
  names, plus ``Scalar<Class>`` when the oracle lives there — the
  "bit-identity twin test" — so optimizing one side without
  re-proving the identity fails the gate.

``tests/oracles/`` and the twin tests are only visible when they are
indexed (``repro check``/CLI auto-index ``tests/``; engine
``index_paths``). The backend ``step`` twin is checked once either
is; the twin-test evidence once a test module is. A bare run checks
in-class and module-level oracles only, and must not cry wolf about
what it cannot see.
"""

from __future__ import annotations

from pathlib import PurePosixPath
from typing import Iterable

from repro.checks.concurrency import ClassSummary, ProjectIndex
from repro.checks.findings import Finding
from repro.checks.rules import ProjectRule, register_project

#: vectorized entry point -> its scalar oracle.
TWIN_ORACLES = {
    "offer_batch": "offer",
    "route_tokens": "route_flow",
    "generate_batch": "generate",
}

#: A fabric backend's epoch entry point, twinned with the ``step`` of
#: its ``Scalar<Class>`` oracle.
BACKEND_ENTRY = "step"

#: Oracles moved out of production live in ``ORACLE_PREFIX + <Class>``
#: classes in modules under this directory.
ORACLE_DIR = ("tests", "oracles")
ORACLE_PREFIX = "Scalar"


@register_project
class TwinConformance(ProjectRule):
    rule_id = "SIM006"
    summary = ("vectorized twins: scalar oracle present and a twin "
               "test references both")

    def check_project(self, project: ProjectIndex) -> Iterable[Finding]:
        findings: list[Finding] = []
        have_tests = bool(project.test_modules)
        oracles = _oracle_classes(project)
        backends = have_tests or bool(oracles)
        for mod in project.modules:
            if mod.is_test or mod.index_only:
                continue
            for cls in mod.classes:
                scalar = ORACLE_PREFIX + cls.name
                for vec, oracle, local in _twin_pairs(cls, backends):
                    method = cls.methods[vec]
                    if local and (oracle in cls.methods
                                  or oracle in mod.functions):
                        evidence = (cls.name, vec, oracle)
                    elif oracle in oracles.get(scalar, ()):
                        evidence = (cls.name, scalar, vec, oracle)
                    else:
                        findings.append(Finding(
                            path=mod.path, line=method.line,
                            col=method.col, rule=self.rule_id,
                            key=f"{cls.name}.{vec}:oracle",
                            message=_missing_oracle(
                                cls.name, vec, oracle, local)))
                        continue
                    evidence = tuple(dict.fromkeys(evidence))
                    if have_tests and not _has_twin_test(project,
                                                         evidence):
                        findings.append(Finding(
                            path=mod.path, line=method.line,
                            col=method.col, rule=self.rule_id,
                            key=f"{cls.name}.{vec}:twin-test",
                            message=f"no twin test found for "
                                    f"{cls.name}.{vec}(): no test "
                                    f"module references "
                                    f"{' and '.join(evidence)} — add "
                                    "a bit-identity test driving "
                                    "both twins"))
        return sorted(findings)


def _twin_pairs(cls: ClassSummary, backends: bool):
    """(entry point, oracle, may the oracle live in the class itself)
    for every twin ``cls`` owes; fabric backends' ``step`` only when
    ``backends``."""
    pairs = [(vec, oracle, True) for vec, oracle in TWIN_ORACLES.items()
             if vec in cls.methods]
    if (backends and not cls.is_protocol
            and "apply_event" in cls.methods
            and BACKEND_ENTRY in cls.methods):
        pairs.append((BACKEND_ENTRY, BACKEND_ENTRY, False))
    return pairs


def _oracle_classes(project: ProjectIndex) -> dict[str, set]:
    """``Scalar<Class>`` name -> its methods, over the modules indexed
    under ``tests/oracles/``."""
    found: dict[str, set] = {}
    for mod in project.modules:
        parts = PurePosixPath(mod.path).parts
        if not any(parts[i:i + 2] == ORACLE_DIR
                   for i in range(len(parts) - 1)):
            continue
        for cls in mod.classes:
            if cls.name.startswith(ORACLE_PREFIX):
                found.setdefault(cls.name, set()).update(cls.methods)
    return found


def _missing_oracle(name: str, vec: str, oracle: str, local: bool) -> str:
    moved = (f"{ORACLE_PREFIX}{name}.{oracle}() under "
             f"{'/'.join(ORACLE_DIR)}/")
    if not local:
        return (f"fabric backend {name}.{vec}() has no per-flow oracle "
                f"{moved} — every backend's vectorized epoch needs "
                "its scalar twin")
    return (f"vectorized entry point {name}.{vec}() has no scalar "
            f"oracle {oracle}() in the same class or module, nor "
            f"{moved} (indexed) — the twin pair must stay together")


def _has_twin_test(project: ProjectIndex, names: tuple) -> bool:
    return any(all(name in test.names for name in names)
               for test in project.test_modules)
