"""``no-lookahead``: detectors must be causal (§4.3.2 of the paper).

The severity of point *t* may use only points ``0..t`` — otherwise the
batch :meth:`severities` and online :meth:`stream` modes diverge and
training silently leaks the future into the features. This rule scans
the ``severities``/``stream`` bodies of every ``Detector`` subclass, the
``evaluate`` bodies of every ``FamilyEvaluator`` subclass (the fused
Table 3 math) and the ``update`` bodies of every ``SeverityStream`` and
``FamilyStream`` subclass for the lookahead shapes that have actually
bitten detector zoos:

1. **Forward indexing** — ``values[t + 1]`` (any ``name + positive
   int`` subscript index reads a future point relative to the loop
   variable).
2. **Forward slicing** — ``values[t + 1:]`` (a slice *starting* past
   the current point; slice *upper* bounds like ``values[t - w : t + 1]``
   are exclusive and therefore causal, so they are allowed).
3. **Whole-series aggregates** — ``np.mean(values)`` / ``values.std()``
   where ``values`` is the full input series. Statistics must come
   from a window or prefix; an aggregate over the whole series bakes
   future points into every severity. Derived arrays (``values[:t]``,
   ``values[mask]``) are windows, not the whole series, and are fine.
4. **Series reversal** — ``values[::-1]`` on the full series (an
   anti-causal traversal).

Aggregates are only flagged on names that *directly* alias the full
series: the ``series`` parameter's ``.values``, ``_validate(series)``
results (``self._validate`` or ``Detector._validate``), or
``np.asarray(series.values)``. Anything reached through a
subscript breaks the alias, which keeps legitimate windowed statistics
(``prefix.mean()``, ``windows[:-1].std(axis=1)``) quiet.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Dict, Iterable, List, Set

from ..finding import Finding, Severity
from .base import ModuleInfo, Rule, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..project.index import ProjectIndex

RULE_ID = "no-lookahead"

#: Method names whose bodies must be causal, per root class.
DETECTOR_METHODS = {"severities", "stream"}
EVALUATOR_METHODS = {"evaluate"}
STREAM_METHODS = {"update"}

#: Aggregate callables/methods that summarise a whole array.
AGGREGATE_FUNCS = {
    "mean", "std", "var", "median", "average", "sum", "max", "min",
    "percentile", "quantile", "ptp",
    "nanmean", "nanstd", "nanvar", "nanmedian", "nansum", "nanmax",
    "nanmin", "nanpercentile", "nanquantile",
}
AGGREGATE_METHODS = {"mean", "std", "var", "sum", "max", "min", "ptp"}


def _positive_int(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
        and node.value > 0
    )


def _is_forward_offset(node: ast.AST) -> bool:
    """``t + k`` / ``k + t`` with an integer constant ``k > 0``."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    left, right = node.left, node.right
    return (isinstance(left, ast.Name) and _positive_int(right)) or (
        _positive_int(left) and isinstance(right, ast.Name)
    )


class _SeriesAliases(ast.NodeVisitor):
    """Names in a method body that alias the *entire* input series."""

    def __init__(self, series_param: str):
        self.series_param = series_param
        self.aliases: Set[str] = set()

    def _is_series_wide(self, node: ast.AST) -> bool:
        # series.values
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "values"
            and isinstance(node.value, ast.Name)
            and node.value.id == self.series_param
        ):
            return True
        # an existing alias
        if isinstance(node, ast.Name) and node.id in self.aliases:
            return True
        if isinstance(node, ast.Call):
            func = node.func
            # self._validate(series)
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "_validate"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == self.series_param
            ):
                return True
            # np.asarray(<series-wide>, ...) / np.ascontiguousarray(...)
            if (
                isinstance(func, ast.Attribute)
                and func.attr in {"asarray", "ascontiguousarray", "array"}
                and node.args
                and self._is_series_wide(node.args[0])
            ):
                return True
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_series_wide(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.aliases.add(target.id)
        else:
            # rebinding an alias to something derived clears it
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.aliases.discard(target.id)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# Summary-time scan: candidates, gated by hierarchy at project time
# ---------------------------------------------------------------------------
def _candidate(node: ast.AST, root: str, cls: str, message: str,
               shape: str, where: str) -> dict:
    return {
        "cls": cls,
        "root": root,
        "lineno": getattr(node, "lineno", 1),
        "col": getattr(node, "col_offset", 0),
        "message": message,
        "data": {"shape": shape, "method": where},
    }


def _scan_method(
    cls: ast.ClassDef, method: ast.FunctionDef, module: ModuleInfo, root: str
) -> Iterable[dict]:
    where = f"{cls.name}.{method.name}"
    args = method.args.posonlyargs + method.args.args
    series_param = args[1].arg if len(args) > 1 else ""
    alias_scan = _SeriesAliases(series_param)
    alias_scan.visit(method)
    aliases = alias_scan.aliases

    def series_wide(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in aliases
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "values"
            and isinstance(node.value, ast.Name)
            and node.value.id == series_param
        )

    for node in ast.walk(method):
        if isinstance(node, ast.Subscript):
            index = node.slice
            if isinstance(index, ast.Slice):
                if index.lower is not None and _is_forward_offset(index.lower):
                    yield _candidate(
                        node, root, cls.name,
                        f"{where}: slice starts past the current point "
                        f"({ast.unparse(index.lower)}); severities must be "
                        f"causal (§4.3.2)",
                        "forward-slice", where,
                    )
                if (
                    series_wide(node.value)
                    and isinstance(index.step, ast.UnaryOp)
                    and isinstance(index.step.op, ast.USub)
                    and _positive_int(index.step.operand)
                ):
                    yield _candidate(
                        node, root, cls.name,
                        f"{where}: reversing the input series traverses "
                        f"future-to-past; severities must be causal",
                        "reversal", where,
                    )
            elif _is_forward_offset(index):
                yield _candidate(
                    node, root, cls.name,
                    f"{where}: index {ast.unparse(index)} reads a future "
                    f"point; the severity of t may use only points 0..t",
                    "forward-index", where,
                )
        elif isinstance(node, ast.Call):
            func = node.func
            # np.mean(values) etc. — resolved through the module's imports.
            if isinstance(func, ast.Attribute) and func.attr in AGGREGATE_FUNCS:
                path = module.resolve(func)
                if (
                    path.startswith("numpy.")
                    and node.args
                    and series_wide(node.args[0])
                ):
                    yield _candidate(
                        node, root, cls.name,
                        f"{where}: whole-series aggregate "
                        f"{ast.unparse(func)}(...) over the full input bakes "
                        f"future points into every severity; aggregate a "
                        f"window or prefix instead",
                        "whole-series-aggregate", where,
                    )
                    continue
            # values.mean() etc. — method call on a series-wide alias.
            if (
                isinstance(func, ast.Attribute)
                and func.attr in AGGREGATE_METHODS
                and series_wide(func.value)
            ):
                yield _candidate(
                    node, root, cls.name,
                    f"{where}: whole-series aggregate .{func.attr}() over "
                    f"the full input bakes future points into every "
                    f"severity; aggregate a window or prefix instead",
                    "whole-series-aggregate", where,
                )


def scan_class(module: ModuleInfo, cls: ast.ClassDef) -> List[dict]:
    """Candidate lookahead findings for one class, hierarchy-agnostic.

    Runs at summary time on *every* class defining a ``severities``/
    ``stream``/``evaluate``/``update`` method. Each candidate records
    the root (``Detector``, ``FamilyEvaluator`` or ``SeverityStream``,
    which stands for both stream hierarchies) whose subclasses the
    contract binds; :class:`NoLookaheadRule` keeps only candidates whose class is
    actually in that hierarchy once the cross-module class graph is
    known — so a ``Smoother.severities`` on an unrelated class stays
    quiet without re-parsing anything.
    """
    candidates: List[dict] = []
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if item.name in DETECTOR_METHODS:
            candidates.extend(_scan_method(cls, item, module, "Detector"))
        elif item.name in EVALUATOR_METHODS:
            candidates.extend(
                _scan_method(cls, item, module, "FamilyEvaluator")
            )
        elif item.name in STREAM_METHODS:
            candidates.extend(
                _scan_method(cls, item, module, "SeverityStream")
            )
    return candidates


@register
class NoLookaheadRule(Rule):
    id = RULE_ID
    description = (
        "detector severities()/stream(), family evaluate() and stream "
        "update() bodies must not read future points (forward "
        "indexing/slicing, whole-series aggregates, reversal)"
    )
    default_severity = Severity.ERROR

    def check_summaries(self, index: "ProjectIndex") -> Iterable[Finding]:
        members: Dict[str, Set[str]] = {
            "Detector": index.subclasses_of(["Detector"]),
            "FamilyEvaluator": index.subclasses_of(["FamilyEvaluator"]),
            "SeverityStream": index.subclasses_of(
                ["SeverityStream", "FamilyStream"]
            ),
        }
        for summary in index.summaries:
            for candidate in summary["causality"]:
                if candidate["cls"] not in members[candidate["root"]]:
                    continue
                yield Finding(
                    file=summary["path"],
                    line=candidate["lineno"],
                    col=candidate["col"],
                    rule=self.id,
                    severity=self.default_severity,
                    message=candidate["message"],
                    data=dict(candidate["data"]),
                )
