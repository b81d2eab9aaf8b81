"""Per-module analysis summaries: one parse, many cross-module rules.

A *summary* is a JSON-serializable dict distilled from one module's AST
that carries everything the project-level rules consume:

* ``classes``/``functions`` — the symbol table plus, per function, the
  outgoing call records and state-mutation records the worker
  reachability check walks;
* ``checkpoints`` — statically extracted ``snapshot()`` key sets and
  ``restore()`` key reads per class;
* ``obs`` — every ``repro.obs`` metric/span/event call site with its
  resolved name string and label keys;
* ``locks`` — per class using ``with self._lock:``, each ``self.*``
  attribute access with its guarded/unguarded context;
* ``registry`` — parameter-grid lengths, ``EXPECTED_*`` constants and
  symbolic factory configuration terms (grid names resolved later,
  project-wide);
* ``causality`` — candidate no-lookahead findings, gated at project
  time by the cross-module class hierarchy;
* ``suppressions`` — the inline-directive table the engine filters
  findings through.

Summaries never hold AST nodes, so they round-trip through the analysis
cache and a warm run needs no re-parse.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, List, Optional, Set

from ..rules.base import ModuleInfo, base_names

#: Bump when the summary schema changes; part of the cache fingerprint.
SUMMARY_SCHEMA_VERSION = 3

#: Method names that mutate their receiver in place.
MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "sort", "reverse",
    "appendleft", "extendleft", "fill", "put", "itemset", "rotate",
}

#: The observability facade methods whose first argument names a
#: metric/span/event (see ``repro.obs.provider``).
OBS_METRIC_APIS = {"counter", "gauge", "histogram", "timer"}
OBS_APIS = OBS_METRIC_APIS | {"span", "emit"}

#: Receiver spellings that address the observability layer.
_OBS_RECEIVER_NAMES = {"obs", "provider", "registry", "tracer", "events"}

#: Registry factory functions whose configuration count is pinned.
FACTORY_NAMES = {"default_detectors", "extended_detectors"}

_SNAPSHOT_METHOD = "snapshot"
_RESTORE_METHODS = ("restore_snapshot", "restore")


def _loc(node: ast.AST) -> Dict[str, int]:
    return {
        "lineno": getattr(node, "lineno", 1),
        "col": getattr(node, "col_offset", 0),
    }


def _is_abstract(cls: ast.ClassDef) -> bool:
    """Statically abstract: declares an ``@abstractmethod`` of its own."""
    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in item.decorator_list:
                target = decorator
                if isinstance(target, ast.Call):
                    target = target.func
                name = ""
                if isinstance(target, ast.Name):
                    name = target.id
                elif isinstance(target, ast.Attribute):
                    name = target.attr
                if name.endswith("abstractmethod"):
                    return True
    return False


def _base_name(node: ast.AST) -> str:
    """The root ``Name`` of an attribute/subscript chain, or ``""``."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return ""


def _local_names(function: ast.AST) -> Set[str]:
    """Names bound inside ``function``: arguments, assignment targets,
    loop/with/comprehension targets, local defs and imports."""
    names: Set[str] = set()
    assert isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = function.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    ):
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node is not function:
                names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name.split(".")[0])
    return names


# ---------------------------------------------------------------------------
# Function records: calls + mutations
# ---------------------------------------------------------------------------
def _call_records(module: ModuleInfo, func: ast.AST) -> List[dict]:
    calls: List[dict] = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if isinstance(target, ast.Name):
            calls.append({
                "kind": "name",
                "target": module.import_map.get(target.id, target.id),
                **_loc(node),
            })
        elif isinstance(target, ast.Attribute):
            receiver = target.value
            if isinstance(receiver, ast.Name):
                if receiver.id in ("self", "cls"):
                    calls.append({
                        "kind": "attr", "attr": target.attr,
                        "receiver": receiver.id, **_loc(node),
                    })
                elif receiver.id in module.import_map:
                    # mod.func(...) through an import: a plain-name call
                    # with a fully resolved dotted target.
                    calls.append({
                        "kind": "name",
                        "target": module.resolve(target),
                        **_loc(node),
                    })
                else:
                    calls.append({
                        "kind": "attr", "attr": target.attr,
                        "receiver": receiver.id, **_loc(node),
                    })
            elif (
                isinstance(receiver, ast.Call)
                and isinstance(receiver.func, ast.Name)
                and receiver.func.id == "super"
            ):
                calls.append({
                    "kind": "attr", "attr": target.attr,
                    "receiver": "super", **_loc(node),
                })
            else:
                calls.append({
                    "kind": "attr", "attr": target.attr,
                    "receiver": "", **_loc(node),
                })
    return calls


def _mutation_records(func: ast.AST) -> dict:
    """``global`` statements, attribute/subscript writes and mutating
    method calls inside one function, with local-shadow information."""
    locals_ = _local_names(func)
    globals_: List[dict] = []
    attr_writes: List[dict] = []
    mut_calls: List[dict] = []
    for node in ast.walk(func):
        if isinstance(node, ast.Global):
            globals_.append({"names": list(node.names), **_loc(node)})
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if not isinstance(target, (ast.Attribute, ast.Subscript)):
                    continue
                base = _base_name(target)
                value = target.value if isinstance(target, ast.Attribute) else None
                is_type_call = (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "type"
                )
                attr_writes.append({
                    "base": base,
                    "is_local": base in locals_,
                    "direct_attr": isinstance(target, ast.Attribute),
                    "is_type_call": is_type_call,
                    **_loc(node),
                })
        elif isinstance(node, ast.Call):
            target = node.func
            if (
                isinstance(target, ast.Attribute)
                and target.attr in MUTATING_METHODS
            ):
                base = _base_name(target.value)
                mut_calls.append({
                    "base": base,
                    "method": target.attr,
                    "is_local": base in locals_,
                    **_loc(node),
                })
    return {"globals": globals_, "attr_writes": attr_writes,
            "mut_calls": mut_calls}


def _function_record(
    module: ModuleInfo, func: ast.AST, cls: Optional[str]
) -> dict:
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    record = {
        "name": func.name,
        "cls": cls,
        "qualname": f"{cls}.{func.name}" if cls else func.name,
        **_loc(func),
        "calls": _call_records(module, func),
    }
    record.update(_mutation_records(func))
    return record


# ---------------------------------------------------------------------------
# Checkpoint symmetry: snapshot() keys vs restore() reads
# ---------------------------------------------------------------------------
def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _unsafe_reason(module: ModuleInfo, value: ast.AST) -> Optional[str]:
    """Why a snapshot value is provably not JSON-serializable."""
    if isinstance(value, ast.Set) or (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("set", "frozenset", "bytes", "bytearray")
    ):
        return "a set/bytes value"
    if isinstance(value, ast.Constant) and isinstance(
        value.value, (bytes, bytearray)
    ):
        return "a bytes literal"
    if isinstance(value, ast.Call):
        path = module.resolve(value.func)
        if path.startswith("numpy."):
            return f"a numpy object ({path})"
    return None


def _snapshot_info(module: ModuleInfo, method: ast.AST) -> dict:
    """Static keys written by one ``snapshot()`` body.

    ``dynamic`` is set when the produced dict cannot be enumerated
    statically (``super().snapshot()`` delegation, ``self.__dict__``
    walks, returning a non-literal); statically added keys (dict-literal
    entries and ``state["k"] = ...`` assignments) are still collected.
    """
    assert isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
    keys: List[dict] = []
    unsafe: List[dict] = []
    dynamic = False
    dict_vars: Dict[str, bool] = {}  # var name -> statically known

    def note_value(key: str, value: ast.AST, node: ast.AST) -> None:
        reason = _unsafe_reason(module, value)
        if reason is not None:
            unsafe.append({"key": key, "reason": reason, **_loc(node)})

    def collect_literal(node: ast.Dict) -> bool:
        known = True
        for key_node, value in zip(node.keys, node.values):
            if key_node is None:  # {**other}
                known = False
                continue
            key = _const_str(key_node)
            if key is None:
                known = False
                continue
            keys.append({"key": key, **_loc(key_node)})
            note_value(key, value, key_node)
        return known

    for node in ast.walk(method):
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            dynamic = True
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                if isinstance(node.value, ast.Dict):
                    dict_vars[target.id] = collect_literal(node.value)
                else:
                    dict_vars[target.id] = False
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in dict_vars
            ):
                key = _const_str(target.slice)
                if key is not None:
                    keys.append({"key": key, **_loc(target)})
                    note_value(key, node.value, target)
        elif isinstance(node, ast.Return) and node.value is not None:
            value = node.value
            if isinstance(value, ast.Dict):
                if not collect_literal(value):
                    dynamic = True
            elif isinstance(value, ast.Name):
                if not dict_vars.get(value.id, False):
                    dynamic = True
            else:
                dynamic = True
    return {
        "keys": keys, "unsafe": unsafe, "dynamic": dynamic, **_loc(method)
    }


def _restore_info(method: ast.AST) -> dict:
    """String keys one ``restore()`` body reads off its state argument."""
    assert isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
    args = method.args.posonlyargs + method.args.args
    params = [a.arg for a in args if a.arg not in ("self", "cls")]
    if not params:
        return {"reads": [], "dynamic": True, "name": method.name,
                **_loc(method)}
    aliases = {params[0]}
    reads: List[dict] = []
    dynamic = False

    def is_alias(node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id in aliases

    for node in ast.walk(method):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
            if isinstance(target, ast.Name):
                if is_alias(value):
                    aliases.add(target.id)
                elif (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "dict"
                    and value.args
                    and is_alias(value.args[0])
                ):
                    aliases.add(target.id)
        elif isinstance(node, ast.Subscript) and is_alias(node.value):
            key = _const_str(node.slice)
            if key is not None and isinstance(node.ctx, ast.Load):
                reads.append({"key": key, "kind": "subscript", **_loc(node)})
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and is_alias(func.value):
                if func.attr in ("get", "pop") and node.args:
                    key = _const_str(node.args[0])
                    if key is not None:
                        reads.append({
                            "key": key, "kind": func.attr, **_loc(node)
                        })
                elif func.attr in ("items", "keys", "values", "update"):
                    dynamic = True  # iterates/forwards the whole mapping
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Call)
                and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super"
            ):
                dynamic = True  # delegates to a base-class restore
            elif isinstance(func, ast.Name) and func.id == "setattr":
                dynamic = True
    return {"reads": reads, "dynamic": dynamic, "name": method.name,
            **_loc(method)}


def _checkpoint_records(module: ModuleInfo, cls: ast.ClassDef) -> Optional[dict]:
    methods = {
        item.name: item
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    snapshot = methods.get(_SNAPSHOT_METHOD)
    restore = next(
        (methods[name] for name in _RESTORE_METHODS if name in methods), None
    )
    if snapshot is None or restore is None:
        return None
    return {
        "cls": cls.name,
        "snapshot": _snapshot_info(module, snapshot),
        "restore": _restore_info(restore),
    }


# ---------------------------------------------------------------------------
# Observability call sites
# ---------------------------------------------------------------------------
def _str_constants(module: ModuleInfo) -> Dict[str, str]:
    """Top-level ``NAME = "literal"`` string constants of the module."""
    constants: Dict[str, str] = {}
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Constant
        ) and isinstance(node.value.value, str):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = node.value.value
    return constants


def _is_obs_receiver(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return node.id in _OBS_RECEIVER_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _OBS_RECEIVER_NAMES and isinstance(
            node.value, ast.Name
        )
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        return name == "get_provider"
    return False


def _obs_records(module: ModuleInfo) -> List[dict]:
    constants = _str_constants(module)
    sites: List[dict] = []
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (isinstance(func, ast.Attribute) and func.attr in OBS_APIS):
            continue
        if not _is_obs_receiver(func.value):
            continue
        name: Optional[str] = None
        prefix = ""
        if node.args:
            first = node.args[0]
            name = _const_str(first)
            if name is None and isinstance(first, ast.Name):
                name = constants.get(first.id)
            if (
                name is None
                and isinstance(first, ast.JoinedStr)
                and first.values
            ):
                # f"alert_{event.kind}": keep the literal prefix so the
                # doc cross-check can match documented alert_* names.
                head = first.values[0]
                if isinstance(head, ast.Constant) and isinstance(
                    head.value, str
                ):
                    prefix = head.value
        labels: List[str] = []
        labels_dynamic = False
        for keyword in node.keywords:
            if keyword.arg is None:
                labels_dynamic = True  # **labels forwarding
            elif keyword.arg not in ("help_text", "buckets"):
                labels.append(keyword.arg)
        sites.append({
            "api": func.attr,
            "name": name,  # None = dynamic, skip checks
            "prefix": prefix,  # literal f-string head of a dynamic name
            "labels": sorted(labels),
            "labels_dynamic": labels_dynamic,
            **_loc(node),
        })
    return sites


# ---------------------------------------------------------------------------
# Lock discipline
# ---------------------------------------------------------------------------
_LOCK_ATTR = "_lock"
_LOCK_EXEMPT_METHODS = {"__init__", "__new__", "__del__"}


def _is_lock_guard(item: ast.withitem) -> bool:
    expr = item.context_expr
    return (
        isinstance(expr, ast.Attribute)
        and expr.attr == _LOCK_ATTR
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    )


def _lock_records(cls: ast.ClassDef) -> Optional[dict]:
    method_names = {
        item.name
        for item in cls.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    accesses: List[dict] = []
    self_calls: List[dict] = []
    uses_lock = False

    def visit(node: ast.AST, method: str, guarded: bool) -> None:
        nonlocal uses_lock
        if isinstance(node, ast.With):
            inner = guarded or any(_is_lock_guard(i) for i in node.items)
            if inner and not guarded:
                uses_lock = True
            for item in node.items:
                visit(item.context_expr, method, guarded)
            for child in node.body:
                visit(child, method, inner)
            return
        if isinstance(node, ast.Attribute) and isinstance(
            node.value, ast.Name
        ) and node.value.id == "self" and node.attr != _LOCK_ATTR:
            accesses.append({
                "attr": node.attr,
                "method": method,
                "guarded": guarded,
                "write": isinstance(node.ctx, (ast.Store, ast.Del)),
                **_loc(node),
            })
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            # self.attr[i] = ... mutates self.attr even though the inner
            # Attribute node itself carries a Load context.
            target = node.value
            if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ) and target.value.id == "self" and target.attr != _LOCK_ATTR:
                accesses.append({
                    "attr": target.attr,
                    "method": method,
                    "guarded": guarded,
                    "write": True,
                    **_loc(node),
                })
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ) and func.value.id == "self" and func.attr in method_names:
                self_calls.append({
                    "caller": method, "callee": func.attr,
                    "guarded": guarded, **_loc(node),
                })
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"
            ):
                # self.attr.append(...) mutates self.attr
                accesses.append({
                    "attr": func.value.attr,
                    "method": method,
                    "guarded": guarded,
                    "write": True,
                    **_loc(node),
                })
        for child in ast.iter_child_nodes(node):
            visit(child, method, guarded)

    for item in cls.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in item.body:
                visit(child, item.name, False)

    if not uses_lock:
        return None
    # A subscript/augassign through self.attr loads the attribute, so
    # writes like ``self._counts[i] += 1`` are already recorded as
    # accesses; mark them as writes by post-processing augmented targets.
    return {
        "cls": cls.name,
        "accesses": accesses,
        "self_calls": self_calls,
        "methods": sorted(method_names),
    }


# ---------------------------------------------------------------------------
# Registry factory terms
# ---------------------------------------------------------------------------
def _literal_grids(module: ModuleInfo) -> Dict[str, int]:
    grids: Dict[str, int] = {}
    for node in module.tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or not isinstance(value, (ast.Tuple, ast.List)):
            continue
        try:
            length = len(ast.literal_eval(value))
        except (ValueError, SyntaxError, TypeError):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                grids[target.id] = length
    return grids


def _int_constants(module: ModuleInfo) -> Dict[str, dict]:
    constants: Dict[str, dict] = {}
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and isinstance(
            node.value, ast.Constant
        ) and isinstance(node.value.value, int) and not isinstance(
            node.value.value, bool
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = {
                        "value": node.value.value, **_loc(node)
                    }
    return constants


class _Symbolic(Exception):
    """An expression whose count needs an unresolvable runtime value."""

    def __init__(self, expr: ast.AST):
        super().__init__(ast.unparse(expr))
        self.expr = expr


def _call_name(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        parts = [node.attr]
        value = node.value
        while isinstance(value, ast.Attribute):
            parts.append(value.attr)
            value = value.value
        if isinstance(value, ast.Name):
            parts.append(value.id)
        return ".".join(reversed(parts))
    return ""


def _returned_name(factory: ast.FunctionDef) -> str:
    for node in ast.walk(factory):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Name):
            return node.value.id
    return ""


def _iter_factors(node: ast.AST) -> List[Any]:
    """Symbolic length factors of an iterable expression: int literals
    and grid *names* (resolved project-wide at check time)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, (ast.Tuple, ast.List)):
        return [len(node.elts)]
    if isinstance(node, ast.Call):
        path = _call_name(node)
        if path in ("product", "itertools.product"):
            factors: List[Any] = []
            for arg in node.args:
                factors.extend(_iter_factors(arg))
            return factors
        if path == "range" and all(
            isinstance(a, ast.Constant) for a in node.args
        ):
            return [len(range(*[a.value for a in node.args]))]
    raise _Symbolic(node)


def _noted_classes(node: ast.AST) -> List[str]:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return [func.id]
        if isinstance(func, ast.Attribute):
            return [func.attr]
    return []


def _count_contributions(node: ast.AST) -> List[dict]:
    """Symbolic configuration-count contributions of one expression."""
    if isinstance(node, ast.List):
        contributions: List[dict] = []
        for elt in node.elts:
            contributions.extend(_count_contributions(elt))
        return contributions
    if isinstance(node, ast.ListComp):
        factors: List[Any] = []
        try:
            if any(gen.ifs for gen in node.generators):
                raise _Symbolic(node)
            for gen in node.generators:
                factors.extend(_iter_factors(gen.iter))
        except _Symbolic as exc:
            return [{
                "unresolvable": str(exc), **_loc(exc.expr)
            }]
        return [{
            "factors": factors, "classes": _noted_classes(node.elt),
            **_loc(node),
        }]
    if isinstance(node, ast.Call):
        return [{
            "factors": [1], "classes": _noted_classes(node), **_loc(node)
        }]
    return [{"unresolvable": ast.unparse(node), **_loc(node)}]


def _factory_record(factory: ast.FunctionDef) -> dict:
    accumulator = _returned_name(factory)
    contributions: List[dict] = []
    for node in ast.walk(factory):
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == accumulator
                for t in node.targets
            ):
                contributions.extend(_count_contributions(node.value))
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == accumulator
                and node.value is not None
            ):
                contributions.extend(_count_contributions(node.value))
        elif isinstance(node, ast.AugAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.target.id == accumulator
                and isinstance(node.op, ast.Add)
            ):
                contributions.extend(_count_contributions(node.value))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            if (
                isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == accumulator
            ):
                if call.func.attr == "append":
                    for arg in call.args:
                        contributions.append({
                            "factors": [1], "classes": _noted_classes(arg),
                            **_loc(call),
                        })
                elif call.func.attr == "extend":
                    for arg in call.args:
                        contributions.extend(_count_contributions(arg))
    referenced = sorted({
        n.id for n in ast.walk(factory) if isinstance(n, ast.Name)
    })
    return {
        "name": factory.name,
        **_loc(factory),
        "contributions": contributions,
        "referenced": referenced,
    }


# ---------------------------------------------------------------------------
# The summary builder
# ---------------------------------------------------------------------------
def summarize_module(
    module: ModuleInfo, suppressions: Dict[int, frozenset]
) -> dict:
    """Distil one parsed module into its JSON-serializable summary."""
    from ..rules.causality import scan_class  # late: avoid import cycles

    classes: List[dict] = []
    functions: List[dict] = []
    checkpoints: List[dict] = []
    locks: List[dict] = []
    causality: List[dict] = []
    factories: List[dict] = []

    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(_function_record(module, node, None))
            if node.name in FACTORY_NAMES and isinstance(
                node, ast.FunctionDef
            ):
                factories.append(_factory_record(node))

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        methods = [
            item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        classes.append({
            "name": node.name,
            **_loc(node),
            "bases": base_names(node),
            "is_abstract": _is_abstract(node),
            "methods": [m.name for m in methods],
        })
        for method in methods:
            functions.append(_function_record(module, method, node.name))
        checkpoint = _checkpoint_records(module, node)
        if checkpoint is not None:
            checkpoints.append(checkpoint)
        lock = _lock_records(node)
        if lock is not None:
            locks.append(lock)
        causality.extend(scan_class(module, node))

    bindings = module.top_level_bindings()
    imports = sorted(
        name
        for name, node in bindings.items()
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )

    return {
        "schema": SUMMARY_SCHEMA_VERSION,
        "path": module.display_path,
        "top_level": sorted(bindings),
        "imports": imports,
        "classes": classes,
        "functions": functions,
        "checkpoints": checkpoints,
        "obs": _obs_records(module),
        "locks": locks,
        "registry": {
            "grids": _literal_grids(module),
            "int_constants": _int_constants(module),
            "factories": factories,
        },
        "causality": causality,
        "suppressions": {
            str(line): sorted(rules) for line, rules in suppressions.items()
        },
    }
