"""``worker-reachability``: shard processes keep no hidden state.

``repro-serve`` forks one shard process per ``ShardSupervisor`` slot
(``repro.serve.shard.shard_worker_main``). The promise is that a
checkpoint taken anywhere restores to the same state as an undisturbed
run: when a shard dies (kill -9), the supervisor re-forks it from the
parent and restores its fleet from the last checkpoint. Module- and
class-level state the shard mutated is in no checkpoint, so the
re-forked shard silently starts from the parent's copy and its
decisions diverge from the twin that was never killed. This rule walks
the approximate project call graph from the configured entry points
(``shard_worker_main`` by default, see
``[tool.repro-lint.worker-reachability] entry-points``) and flags every
*transitively reachable* function that:

* declares ``global`` and rebinds module names,
* writes class attributes (``cls.x = ...``, ``type(self).x = ...``,
  ``SomeClass.x = ...``),
* assigns through module-level state (``STATE["k"] = ...``), or
* calls a mutating method on module-level state (``CACHE.append(...)``).

Mutations of imported *modules* (``os``, ``np``) are out of scope here —
seeding is the determinism rule's job — as is instance state
(``self.x``), which checkpoints carry (``checkpoint-symmetry`` checks
that). Each finding names the call chain the mutation is reached
through, so the fix (or the justified suppression) is one hop away.
The call graph resolves dispatch by name only; functions invoked via
``getattr`` or stored callables are invisible to it (documented in
docs/static_analysis.md).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Set

from ..config import DEFAULT_WORKER_ENTRY_POINTS
from ..finding import Finding, Severity
from .base import Rule, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..project.index import ProjectIndex

RULE_ID = "worker-reachability"


@register
class WorkerReachabilityRule(Rule):
    id = RULE_ID
    description = (
        "functions reachable from the shard process entry points must not "
        "mutate module or class state (call-graph reachability)"
    )
    default_severity = Severity.ERROR

    def check_summaries(self, index: "ProjectIndex") -> Iterable[Finding]:
        entries = index.worker_entry_points or DEFAULT_WORKER_ENTRY_POINTS
        graph = index.callgraph
        parents = graph.reachable_from(entries)
        if not parents:
            return

        class_names = index.class_names()
        module_state: dict = {}
        for summary in index.summaries:
            imported = set(summary["imports"])
            module_state[summary["path"]] = (
                set(summary["top_level"]) - imported - class_names
            )

        for key in sorted(parents):
            summary, func = graph.units[key]
            chain = " -> ".join(graph.chain(key, parents))
            where = func["qualname"]
            shared = module_state[summary["path"]]
            yield from self._check_unit(
                summary, func, where, chain, shared, class_names
            )

    # ------------------------------------------------------------------
    def _check_unit(
        self, summary: dict, func: dict, where: str, chain: str,
        shared: Set[str], class_names: Set[str],
    ) -> Iterable[Finding]:
        def finding(record: dict, message: str, data: dict) -> Finding:
            data = dict(data, chain=chain)
            return Finding(
                file=summary["path"],
                line=record["lineno"],
                col=record.get("col", 0),
                rule=self.id,
                severity=self.default_severity,
                message=message,
                data=data,
            )

        for record in func["globals"]:
            names = ", ".join(record["names"])
            yield finding(
                record,
                f"{where} rebinds module globals ({names}) and is reachable "
                f"from a shard process via {chain}; no checkpoint carries "
                f"it, so a re-forked shard loses it",
                {"kind": "global"},
            )

        for record in func["attr_writes"]:
            base = record["base"]
            if record["direct_attr"] and (
                base == "cls"
                or record["is_type_call"]
                or base in class_names
            ):
                yield finding(
                    record,
                    f"{where} writes a class attribute; no checkpoint carries "
                    f"class state, so a re-forked shard loses it "
                    f"(reachable via {chain})",
                    {"kind": "class-write"},
                )
            elif not record["is_local"] and base in shared:
                yield finding(
                    record,
                    f"{where} writes module-level {base!r}; no checkpoint "
                    f"carries it, so a re-forked shard loses it "
                    f"(reachable via {chain})",
                    {"kind": "module-write"},
                )

        for record in func["mut_calls"]:
            if not record["is_local"] and record["base"] in shared:
                yield finding(
                    record,
                    f"{where} calls {record['base']}.{record['method']}(...) "
                    f"on module-level state; no checkpoint carries it, so a "
                    f"re-forked shard loses it (reachable via {chain})",
                    {"kind": "module-mutation"},
                )
