"""``lock-discipline``: guarded attributes stay guarded everywhere.

In every class that takes ``with self._lock:`` anywhere
(``SeverityCache``, the obs registries, tracer and event log), an
attribute accessed under the lock in one method and without it in
another is a data race waiting for the first concurrent caller. From the per-class lock tables
in the module summaries, the rule computes:

* the *guarded set* — attributes with at least one access lexically
  inside a ``with self._lock:`` block, or inside a **lock-held helper**
  (a method whose intra-class call sites are all guarded — fixpoint
  inference, so ``_remember()`` called only under the lock counts as
  guarded without holding the lock itself);
* the exemptions — ``__init__``/``__new__``/``__del__`` run before or
  after sharing, and attributes written *only* in ``__init__`` are
  immutable configuration that is safe to read unguarded.

Every remaining unguarded access to a guarded attribute is a finding.
Subscript stores (``self._counts[i] += 1``) and in-place mutator calls
(``self._buf.append(x)``) count as writes, so container mutation cannot
masquerade as immutable config.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Set

from ..finding import Finding, Severity
from .base import Rule, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..project.index import ProjectIndex

RULE_ID = "lock-discipline"

_EXEMPT_METHODS = {"__init__", "__new__", "__del__"}


def _lock_held_methods(record: dict) -> Set[str]:
    """Methods only ever entered with the lock already held (fixpoint)."""
    calls_by_callee: Dict[str, List[dict]] = {}
    for call in record["self_calls"]:
        calls_by_callee.setdefault(call["callee"], []).append(call)
    held: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for callee, calls in calls_by_callee.items():
            if callee in held or callee in _EXEMPT_METHODS:
                continue
            if all(
                call["guarded"] or call["caller"] in held for call in calls
            ):
                held.add(callee)
                changed = True
    return held


@register
class LockDisciplineRule(Rule):
    id = RULE_ID
    description = (
        "attributes accessed under `with self._lock:` in one method must "
        "be accessed under it everywhere in the class"
    )
    default_severity = Severity.ERROR

    def check_summaries(self, index: "ProjectIndex") -> Iterable[Finding]:
        for summary in index.summaries:
            for record in summary["locks"]:
                yield from self._check_class(summary, record)

    # ------------------------------------------------------------------
    def _check_class(self, summary: dict, record: dict) -> Iterable[Finding]:
        held = _lock_held_methods(record)

        def effective(access: dict) -> bool:
            return access["guarded"] or access["method"] in held

        accesses = [
            access
            for access in record["accesses"]
            if access["method"] not in _EXEMPT_METHODS
        ]
        guarded_attrs = {
            access["attr"] for access in accesses if effective(access)
        }
        # Attributes written only in __init__ are immutable configuration
        # and safe to read unguarded, however defensively other methods
        # lock around them.
        written_later = {
            access["attr"]
            for access in record["accesses"]
            if access["write"] and access["method"] != "__init__"
        }
        checked = guarded_attrs & written_later

        for access in accesses:
            attr = access["attr"]
            if attr not in checked or effective(access):
                continue
            action = "writes" if access["write"] else "reads"
            yield Finding(
                file=summary["path"],
                line=access["lineno"],
                col=access["col"],
                rule=self.id,
                severity=self.default_severity,
                message=(
                    f"{record['cls']}.{access['method']} {action} "
                    f"self.{attr} without holding self._lock, but other "
                    f"methods guard it; lock it here too or move the "
                    f"access into a lock-held helper"
                ),
                data={"cls": record["cls"], "attr": attr,
                      "method": access["method"]},
            )
