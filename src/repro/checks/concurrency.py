"""Pass-1 concurrency index: an AST-free module summary.

The two-pass engine parses each file once and boils it down to a
:class:`ModuleSummary` — classes, methods, every attribute access with
the set of locks lexically held at that point, lock-object attributes,
``threading.Thread`` targets, waits/notifies, and the module's name
surface (used by SIM006 as twin-test evidence). Summaries hold no AST
nodes, so a file's tree is dropped as soon as pass 1 is done with it.
Pass 2 (:mod:`repro.checks.rules.locks`, :mod:`repro.checks.rules.twins`)
runs over the merged :class:`ProjectIndex`.

Lock tracking is lexical and name-based: any plain dotted expression
used as a ``with`` context (``with self._lock:``, ``with
session.updated:``) counts as a candidate acquisition — calls like
``with open(...)`` never do — and an access "holds" a lock when the
normalized expression text matches. The rules decide which candidate
expressions actually resolve to lock objects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.checks.classinfo import (INIT_METHODS, dotted_name,
                                    is_protocol_class, self_name)

#: Constructor names whose result is a lock-like object, mapped to the
#: lock kind the rules care about. Covers both the raw ``threading``
#: primitives and the :mod:`repro.checks.runtime` factory seam.
LOCK_CONSTRUCTORS = {
    "Lock": "lock",
    "RLock": "lock",
    "Semaphore": "lock",
    "BoundedSemaphore": "lock",
    "Condition": "condition",
    "new_lock": "lock",
    "new_condition": "condition",
    "SanitizedLock": "lock",
    "SanitizedCondition": "condition",
}

#: Method calls that mutate their receiver in place — treated as
#: writes to the receiving attribute by the guarded-by analysis.
MUTATOR_METHODS = frozenset({
    "append", "appendleft", "extend", "insert", "pop", "popleft",
    "popitem", "remove", "clear", "update", "setdefault", "add",
    "discard", "sort", "reverse",
})

_WAIT_NAMES = ("wait", "wait_for")
_NOTIFY_NAMES = ("notify", "notify_all")

#: Longest string constant indexed into a module's name surface.
#: Tests may name a method or class in a string (``getattr(obj,
#: "step")``, a parametrize id), so short identifier-like literals
#: count as references; long strings (doc text) do not.
_NAME_STRING_MAX = 40


@dataclass(frozen=True)
class AttrAccess:
    """One read or write of ``<owner>.<attr>`` inside a method."""

    owner: str  #: normalized root name — "self" or the variable name
    attr: str
    kind: str  #: "read" | "write"
    line: int
    col: int
    held: tuple[str, ...]  #: lock expressions lexically held here


@dataclass(frozen=True)
class LockAcquire:
    """One ``with <expr>:`` over a plain dotted expression."""

    expr: str
    line: int
    col: int
    held: tuple[str, ...]  #: locks already held when acquiring


@dataclass(frozen=True)
class CallSite:
    """A ``<owner>.<name>(...)`` call (owner is a bare name)."""

    owner: str
    name: str
    line: int
    col: int
    held: tuple[str, ...]


@dataclass(frozen=True)
class WaitSite:
    """``<expr>.wait(...)`` / ``<expr>.wait_for(...)``."""

    expr: str
    line: int
    col: int
    held: tuple[str, ...]
    in_loop: bool
    is_wait_for: bool


@dataclass(frozen=True)
class NotifySite:
    """``<expr>.notify(...)`` / ``<expr>.notify_all(...)``."""

    expr: str
    line: int
    col: int
    held: tuple[str, ...]


@dataclass
class MethodSummary:
    name: str
    line: int
    col: int
    accesses: list[AttrAccess] = field(default_factory=list)
    acquires: list[LockAcquire] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    waits: list[WaitSite] = field(default_factory=list)
    notifies: list[NotifySite] = field(default_factory=list)


@dataclass
class ClassSummary:
    name: str
    line: int
    col: int
    methods: dict[str, MethodSummary] = field(default_factory=dict)
    #: lock attribute -> "lock" | "condition"
    locks: dict[str, str] = field(default_factory=dict)
    #: own methods passed as ``Thread(target=self.<m>)`` anywhere in
    #: the class body.
    thread_targets: list[str] = field(default_factory=list)
    #: class-body attribute declarations (dataclass fields, class
    #: vars) — part of the attr-name ambiguity surface for SIM005's
    #: cross-object checks.
    declared: set = field(default_factory=set)
    #: a ``Protocol`` definition (SIM006 exempts them).
    is_protocol: bool = False


@dataclass
class ModuleSummary:
    """Everything pass 2 needs to know about one parsed module."""

    path: str
    is_test: bool
    #: True for files given via ``index_paths``: they feed resolution,
    #: twin-test evidence, and thread seeds, but never anchor findings.
    index_only: bool = False
    classes: list[ClassSummary] = field(default_factory=list)
    #: module-level function names (SIM006 oracle fallback).
    functions: frozenset = frozenset()
    #: identifier / attribute / kwarg / short-string surface of the
    #: module — what "this module references X" means for SIM006.
    names: frozenset = frozenset()
    #: ``Thread(target=...)`` targets that are not ``self.<m>``:
    #: trailing attribute or bare function names, resolved by pass 2.
    thread_target_names: list[str] = field(default_factory=list)


def is_test_path(path: str) -> bool:
    """Test modules are named ``test_*.py`` (or ``conftest.py``) —
    directory placement alone doesn't count, so rule fixtures living
    under ``tests/checks/fixtures/`` are still analyzed as source."""
    stem = path.rsplit("/", 1)[-1]
    return stem.startswith("test_") or stem == "conftest.py"


def _plain_dotted(node: ast.expr) -> str | None:
    """``session.updated`` -> "session.updated"; anything with calls
    or subscripts -> None."""
    parts = dotted_name(node)
    return ".".join(parts) if parts else None


class _MethodWalker:
    """Walks one method body tracking the lexically-held lock set."""

    def __init__(self, selfname: str | None, summary: MethodSummary,
                 class_targets: list[str]) -> None:
        self.selfname = selfname
        self.out = summary
        self.class_targets = class_targets
        self.extra_targets: list[str] = []

    def _norm(self, text: str) -> str:
        """Rewrite the instance parameter to the literal "self"."""
        if self.selfname and self.selfname != "self":
            root, _, rest = text.partition(".")
            if root == self.selfname:
                return "self." + rest if rest else "self"
        return text

    def walk(self, stmts, held: tuple[str, ...], in_loop: bool) -> None:
        for stmt in stmts:
            self._visit(stmt, held, in_loop)

    def _visit(self, node: ast.AST, held, in_loop) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            return  # nested scope: runs at another time, under other locks
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                self._visit(item.context_expr, held, in_loop)
                expr = _plain_dotted(item.context_expr)
                if expr is not None:
                    expr = self._norm(expr)
                    self.out.acquires.append(LockAcquire(
                        expr=expr, line=node.lineno,
                        col=node.col_offset, held=inner))
                    inner = inner + (expr,)
                if item.optional_vars is not None:
                    self._visit(item.optional_vars, inner, in_loop)
            self.walk(node.body, inner, in_loop)
            return
        if isinstance(node, (ast.While, ast.For, ast.AsyncFor)):
            for child in ast.iter_child_nodes(node):
                self._visit(child, held, True)
            return
        self._record(node, held, in_loop)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held, in_loop)

    def _record(self, node: ast.AST, held, in_loop) -> None:
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                owner = ("self" if node.value.id == self.selfname
                         else node.value.id)
                kind = ("write"
                        if isinstance(node.ctx, (ast.Store, ast.Del))
                        else "read")
                self.out.accesses.append(AttrAccess(
                    owner=owner, attr=node.attr, kind=kind,
                    line=node.lineno, col=node.col_offset, held=held))
            return
        if isinstance(node, ast.Subscript) and isinstance(
                node.ctx, (ast.Store, ast.Del)):
            root = node.value
            while isinstance(root, ast.Subscript):
                root = root.value
            if (isinstance(root, ast.Attribute)
                    and isinstance(root.value, ast.Name)):
                owner = ("self" if root.value.id == self.selfname
                         else root.value.id)
                self.out.accesses.append(AttrAccess(
                    owner=owner, attr=root.attr, kind="write",
                    line=node.lineno, col=node.col_offset, held=held))
            return
        if isinstance(node, ast.Call):
            self._record_call(node, held, in_loop)

    def _record_call(self, node: ast.Call, held, in_loop) -> None:
        parts = dotted_name(node.func)
        if parts and parts[-1] == "Thread":
            self._record_thread_target(node)
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        recv = _plain_dotted(func.value)
        if func.attr in _WAIT_NAMES and recv is not None:
            self.out.waits.append(WaitSite(
                expr=self._norm(recv), line=node.lineno,
                col=node.col_offset, held=held, in_loop=in_loop,
                is_wait_for=func.attr == "wait_for"))
        elif func.attr in _NOTIFY_NAMES and recv is not None:
            self.out.notifies.append(NotifySite(
                expr=self._norm(recv), line=node.lineno,
                col=node.col_offset, held=held))
        if func.attr in MUTATOR_METHODS and isinstance(
                func.value, ast.Attribute) and isinstance(
                func.value.value, ast.Name):
            owner = ("self" if func.value.value.id == self.selfname
                     else func.value.value.id)
            self.out.accesses.append(AttrAccess(
                owner=owner, attr=func.value.attr, kind="write",
                line=node.lineno, col=node.col_offset, held=held))
        if isinstance(func.value, ast.Name):
            owner = ("self" if func.value.id == self.selfname
                     else func.value.id)
            self.out.calls.append(CallSite(
                owner=owner, name=func.attr, line=node.lineno,
                col=node.col_offset, held=held))

    def _record_thread_target(self, node: ast.Call) -> None:
        target = next((kw.value for kw in node.keywords
                       if kw.arg == "target"), None)
        if target is None:
            return
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self.selfname):
            self.class_targets.append(target.attr)
        elif isinstance(target, ast.Attribute):
            self.extra_targets.append(target.attr)
        elif isinstance(target, ast.Name):
            self.extra_targets.append(target.id)


def _lock_kind(value: ast.expr) -> str | None:
    """"lock"/"condition" when ``value`` constructs a lock object."""
    if not isinstance(value, ast.Call):
        return None
    parts = dotted_name(value.func)
    return LOCK_CONSTRUCTORS.get(parts[-1]) if parts else None


def _summarize_class(
        node: ast.ClassDef) -> tuple[ClassSummary, list[str]]:
    """(class summary, thread targets pointing outside the class)."""
    cls = ClassSummary(name=node.name, line=node.lineno,
                       col=node.col_offset,
                       is_protocol=is_protocol_class(node))
    extra: list[str] = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name):
            cls.declared.add(stmt.target.id)
            kind = _lock_kind(stmt.value) if stmt.value else None
            if kind:
                cls.locks[stmt.target.id] = kind
        elif isinstance(stmt, ast.Assign):
            cls.declared.update(t.id for t in stmt.targets
                                if isinstance(t, ast.Name))
            kind = (_lock_kind(stmt.value)
                    if isinstance(stmt.value, ast.Call) else None)
            if kind:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        cls.locks[target.id] = kind
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        selfname = self_name(stmt)
        method = MethodSummary(name=stmt.name, line=stmt.lineno,
                               col=stmt.col_offset)
        walker = _MethodWalker(selfname, method, cls.thread_targets)
        walker.walk(stmt.body, held=(), in_loop=False)
        extra.extend(walker.extra_targets)
        cls.methods[stmt.name] = method
        if selfname is None:
            continue
        # Lock attributes: ``self.<attr> = threading.Condition()`` /
        # ``new_lock(...)`` in any method (factories usually live in
        # __init__/__post_init__, but re-creation counts too).
        for sub in ast.walk(stmt):
            targets = ()
            value = None
            if isinstance(sub, ast.Assign):
                targets, value = sub.targets, sub.value
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                targets, value = (sub.target,), sub.value
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == selfname):
                    kind = _lock_kind(value)
                    if kind:
                        cls.locks[target.attr] = kind
    # Non-self thread targets found inside this class body are module
    # business (they point at other objects' methods).
    return cls, extra


def _name_surface(tree: ast.Module) -> frozenset:
    """Identifiers, attribute names, kwarg names, and short string
    constants appearing anywhere in the module."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            names.add(node.name)
        elif (isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and 0 < len(node.value) <= _NAME_STRING_MAX
                and node.value.isidentifier()):
            names.add(node.value)
    return frozenset(names)


def build_summary(tree: ast.Module, path: str,
                  index_only: bool = False) -> ModuleSummary:
    """Build the pass-1 summary for one parsed module."""
    summary = ModuleSummary(path=path, is_test=is_test_path(path),
                            index_only=index_only)
    functions: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.add(node.name)
    module_targets: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            cls, extra = _summarize_class(node)
            module_targets.extend(extra)
            summary.classes.append(cls)
    # Thread targets in module-level code (incl. inside plain
    # functions): collect every Thread(target=...) not owned by a class.
    collector = _ModuleTargetCollector()
    collector.visit(tree)
    module_targets.extend(collector.targets)
    summary.functions = frozenset(functions)
    summary.names = _name_surface(tree)
    summary.thread_target_names = sorted(set(module_targets))
    return summary


class _ModuleTargetCollector(ast.NodeVisitor):
    """``Thread(target=...)`` sites outside class bodies."""

    def __init__(self) -> None:
        self.targets: list[str] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return  # class bodies handled by _summarize_class

    def visit_Call(self, node: ast.Call) -> None:
        parts = dotted_name(node.func)
        if parts and parts[-1] == "Thread":
            target = next((kw.value for kw in node.keywords
                           if kw.arg == "target"), None)
            if isinstance(target, ast.Attribute):
                self.targets.append(target.attr)
            elif isinstance(target, ast.Name):
                self.targets.append(target.id)
        self.generic_visit(node)


class ProjectIndex:
    """Merged pass-1 summaries plus the resolution tables pass 2 uses."""

    def __init__(self, modules: list[ModuleSummary]) -> None:
        self.modules = modules
        self.source_modules = [m for m in modules if not m.is_test]
        self.test_modules = [m for m in modules if m.is_test]
        #: class name -> [(module, class)] over non-test modules.
        self.classes: dict[str, list] = {}
        #: method name -> [(module, class)] over non-test modules.
        self.method_owners: dict[str, list] = {}
        for mod in self.source_modules:
            for cls in mod.classes:
                self.classes.setdefault(cls.name, []).append((mod, cls))
                for name in cls.methods:
                    self.method_owners.setdefault(name, []).append(
                        (mod, cls))

    def resolve_method(self, name: str):
        """The unique (module, class) defining ``name``, or None.

        Deliberately refuses ambiguous names (``to_dict``, ``restore``)
        — cross-class reasoning only follows edges it can prove."""
        owners = self.method_owners.get(name, [])
        return owners[0] if len(owners) == 1 else None
