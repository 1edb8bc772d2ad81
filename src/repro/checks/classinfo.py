"""Shared AST analysis of class bodies for the SIM rules.

Collects, per class: its methods, class-body attributes (dataclass
fields), and every ``self.<attr>`` write in every method — classified
by where it happens (``__init__``/``__post_init__`` vs. run-time
methods) and whether the assigned value is mutable. Understands the
``object.__setattr__(self, "attr", value)`` idiom frozen dataclasses
use in ``__post_init__``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Methods treated as construction time by SIM001.
INIT_METHODS = ("__init__", "__post_init__")

#: Builtin calls whose results are immutable scalars/containers.
_IMMUTABLE_CALLS = frozenset({
    "int", "float", "str", "bool", "bytes", "tuple", "frozenset",
    "len", "min", "max", "round", "abs", "hash", "id", "repr",
})

_FUNC_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass(frozen=True)
class AttrWrite:
    """One write to ``self.<attr>`` inside a method."""

    attr: str
    method: str
    node: ast.stmt
    value: ast.expr | None  #: RHS for plain assignments, else None
    direct: bool  #: plain ``self.x = ...`` (vs. aug/subscript write)


@dataclass
class ClassInfo:
    node: ast.ClassDef
    name: str
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    class_attrs: set[str] = field(default_factory=set)
    attr_writes: list[AttrWrite] = field(default_factory=list)
    is_protocol: bool = False

    def writes_in(self, *methods: str) -> list[AttrWrite]:
        return [w for w in self.attr_writes if w.method in methods]

    def writes_outside(self, *methods: str) -> list[AttrWrite]:
        return [w for w in self.attr_writes if w.method not in methods]


def self_name(func: ast.FunctionDef) -> str | None:
    """Name of the instance parameter, or None for staticmethods."""
    for deco in func.decorator_list:
        if isinstance(deco, ast.Name) and deco.id == "staticmethod":
            return None
    params = list(func.args.posonlyargs) + list(func.args.args)
    return params[0].arg if params else None


def _attr_root(node: ast.expr) -> ast.expr:
    """Strip trailing ``[...]`` subscripts: ``self.x[i]`` -> ``self.x``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _self_attr_target(node: ast.expr, selfname: str) -> str | None:
    node = _attr_root(node)
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == selfname):
        return node.attr
    return None


def _method_attr_writes(func: ast.FunctionDef) -> list[AttrWrite]:
    selfname = self_name(func)
    if selfname is None:
        return []
    writes: list[AttrWrite] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                attr = _self_attr_target(target, selfname)
                if attr is not None:
                    writes.append(AttrWrite(
                        attr=attr, method=func.name, node=node,
                        value=node.value,
                        direct=isinstance(target, ast.Attribute)))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            attr = _self_attr_target(node.target, selfname)
            if attr is not None:
                value = (node.value
                         if isinstance(node, ast.AnnAssign) else None)
                writes.append(AttrWrite(
                    attr=attr, method=func.name, node=node, value=value,
                    direct=isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Attribute)))
        elif isinstance(node, ast.Call):
            # object.__setattr__(self, "attr", value) — frozen dataclasses.
            func_expr = node.func
            if (isinstance(func_expr, ast.Attribute)
                    and func_expr.attr == "__setattr__"
                    and len(node.args) >= 3
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id == selfname
                    and isinstance(node.args[1], ast.Constant)
                    and isinstance(node.args[1].value, str)):
                writes.append(AttrWrite(
                    attr=node.args[1].value, method=func.name, node=node,
                    value=node.args[2], direct=True))
    return writes


def is_protocol_class(node: ast.ClassDef) -> bool:
    """True for ``Protocol`` subclasses and ``@runtime_checkable``
    classes (protocol definitions, exempt from conformance rules)."""
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else "")
        if name == "Protocol":
            return True
    for deco in node.decorator_list:
        name = deco.attr if isinstance(deco, ast.Attribute) else (
            deco.id if isinstance(deco, ast.Name) else "")
        if name == "runtime_checkable":
            return True
    return False


def collect_classes(tree: ast.Module) -> list[ClassInfo]:
    """All class definitions in the module, including nested ones."""
    infos = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        info = ClassInfo(node=node, name=node.name,
                         is_protocol=is_protocol_class(node))
        for stmt in node.body:
            if isinstance(stmt, _FUNC_DEFS):
                info.methods.setdefault(stmt.name, stmt)
                info.attr_writes.extend(_method_attr_writes(stmt))
            elif isinstance(stmt, ast.AnnAssign):
                if isinstance(stmt.target, ast.Name):
                    info.class_attrs.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                info.class_attrs.update(
                    t.id for t in stmt.targets if isinstance(t, ast.Name))
        infos.append(info)
    return infos


def is_mutable_value(node: ast.expr | None) -> bool:
    """Heuristic: does this initializer produce mutable runtime state?

    Containers, comprehensions, and calls to anything but a known
    scalar builtin count as mutable; constants, name/attribute loads,
    and arithmetic over immutable operands do not.
    """
    if node is None:
        return False
    if isinstance(node, (ast.Constant, ast.Name, ast.Attribute,
                         ast.Subscript, ast.JoinedStr, ast.Compare)):
        return False
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp, ast.GeneratorExp,
                         ast.Lambda, ast.Await)):
        return True
    if isinstance(node, ast.Tuple):
        return any(is_mutable_value(e) for e in node.elts)
    if isinstance(node, ast.BinOp):
        return is_mutable_value(node.left) or is_mutable_value(node.right)
    if isinstance(node, ast.UnaryOp):
        return is_mutable_value(node.operand)
    if isinstance(node, ast.BoolOp):
        return any(is_mutable_value(v) for v in node.values)
    if isinstance(node, ast.IfExp):
        return is_mutable_value(node.body) or is_mutable_value(node.orelse)
    if isinstance(node, ast.Call):
        return not (isinstance(node.func, ast.Name)
                    and node.func.id in _IMMUTABLE_CALLS)
    return True


def self_attr_uses(func: ast.FunctionDef) -> set[str]:
    """Every attribute name read or written on ``self`` in ``func``."""
    selfname = self_name(func)
    if selfname is None:
        return set()
    return {node.attr for node in ast.walk(func)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == selfname}


def positional_arity(func: ast.FunctionDef) -> tuple[int, int, bool]:
    """(required positional count, total positional count, has *args)."""
    positional = list(func.args.posonlyargs) + list(func.args.args)
    total = len(positional)
    required = total - len(func.args.defaults)
    return required, total, func.args.vararg is not None


def returned_dict_keys(func: ast.FunctionDef) -> set[str] | None:
    """Union of constant-string keys over dicts ``func`` returns.

    Follows ``return {...}`` directly and the ``result = {...};
    return result`` pattern. Returns None when any returned dict is
    not statically known (non-literal return, ``**`` expansion, or a
    non-constant key) — callers must then skip key checks.
    """
    assigned: dict[str, ast.Dict] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned[target.id] = node.value
    keys: set[str] = set()
    saw_return = False
    for node in ast.walk(func):
        if not isinstance(node, ast.Return) or node.value is None:
            continue
        saw_return = True
        value = node.value
        if isinstance(value, ast.Name) and value.id in assigned:
            value = assigned[value.id]
        if not isinstance(value, ast.Dict):
            return None
        for key in value.keys:
            if (key is None or not isinstance(key, ast.Constant)
                    or not isinstance(key.value, str)):
                return None
            keys.add(key.value)
    return keys if saw_return else None


def state_key_reads(func: ast.FunctionDef,
                    param: str) -> dict[str, ast.expr]:
    """Constant-string keys read off ``param`` via ``param["k"]`` or
    ``param.get("k", ...)`` — mapped to the first node reading each."""
    reads: dict[str, ast.expr] = {}
    for node in ast.walk(func):
        key = None
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == param
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            key = node.slice.value
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == param
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)):
            key = node.args[0].value
        if key is not None and key not in reads:
            reads[key] = node
    return reads


def dotted_name(node: ast.expr) -> tuple[str, ...] | None:
    """``np.random.default_rng`` -> ("np", "random", "default_rng")."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None
