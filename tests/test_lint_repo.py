"""Tier-1 contract: the library itself is lint-clean.

This is the teeth of the static-analysis subsystem — the causality,
determinism, registry and hygiene contracts of §4.3 are enforced on
``src/repro`` by the same CI run as the unit tests. A new detector with
a lookahead, an unseeded RNG call, or a bank/Table-3 mismatch fails
here before any fixture-dependent dynamic test has a chance to miss it.
"""

import ast
from pathlib import Path

from repro.analysis import LintEngine, discover_files, load_config
from repro.analysis.project.index import ProjectIndex
from repro.analysis.project.summary import summarize_module
from repro.analysis.rules.base import ModuleInfo
from repro.analysis.suppressions import build_suppressions

REPO_ROOT = Path(__file__).resolve().parents[1]
LIBRARY = REPO_ROOT / "src" / "repro"


def _run():
    config = load_config(REPO_ROOT / "pyproject.toml")
    return LintEngine(config).run([str(LIBRARY)])


def test_library_has_no_lint_errors():
    result = _run()
    errors = [f for f in result.findings if f.severity.value == "error"]
    assert not errors, "lint errors in src/repro:\n" + "\n".join(
        f.format() for f in errors
    )


def test_library_has_no_lint_warnings():
    # Warnings do not fail `repro-lint` by default, but the library
    # itself ships warning-free so new ones stand out immediately.
    result = _run()
    assert not result.findings, "lint findings in src/repro:\n" + "\n".join(
        f.format() for f in result.findings
    )


def test_library_lint_covers_every_module():
    result = _run()
    n_modules = len(list(LIBRARY.rglob("*.py")))
    assert result.summary.files == n_modules
    # Every contract rule ran (none disabled by config), including the
    # cross-module families introduced with the project call graph.
    assert {"no-lookahead", "determinism", "registry-contract",
            "api-hygiene", "worker-reachability", "checkpoint-symmetry",
            "obs-taxonomy", "lock-discipline",
            "suppression-justification"} <= set(result.rules)


def test_worker_reachability_roots_reach_the_ingest_path():
    # A root that names no function (or a dead one) turns the rule into
    # a silent no-op: it walks from nothing and finds nothing. The
    # configured roots must reach the per-point path a shard serves.
    config = load_config(REPO_ROOT / "pyproject.toml")
    summaries = []
    for path in discover_files([str(LIBRARY)], config.exclude):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        info = ModuleInfo(path.as_posix(), text, tree)
        summaries.append(summarize_module(info, build_suppressions(text, tree)))
    index = ProjectIndex(
        summaries, worker_entry_points=config.worker_entry_points
    )
    graph = index.callgraph
    reached = {
        graph.units[key][1]["qualname"]
        for key in graph.reachable_from(config.worker_entry_points)
    }
    assert set(config.worker_entry_points) <= reached
    assert "MonitoringService.ingest" in reached
