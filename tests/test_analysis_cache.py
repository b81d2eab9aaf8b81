"""Content-addressed analysis-cache behaviour.

The engine counts parses and cache hits in ``LintResult.timing``, so
these tests assert the cache contract directly: a warm run re-parses
nothing, an edit invalidates exactly the touched module, and
cross-module findings still refresh when a *dependency* of a cached
module changes (project rules always re-run over the summaries).
"""

import textwrap
from pathlib import Path

from repro.analysis import LintConfig, LintEngine, load_config
from repro.analysis.project.cache import (
    AnalysisCache,
    engine_fingerprint,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

ENTRY = """\
    def shard_worker_main(task):
        return helper(task)
"""

MUTATOR = """\
    STATE = {}


    def helper(task):
        STATE["k"] = task
        return task
"""


def write(tmp_path, name, source):
    (tmp_path / name).write_text(textwrap.dedent(source))


def run(tmp_path, cache_dir):
    engine = LintEngine(LintConfig(), cache_dir=cache_dir)
    return engine.run([str(tmp_path / "pkg")])


class TestWarmRuns:
    def test_warm_run_parses_nothing(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        write(tmp_path, "pkg/a.py", ENTRY)
        write(tmp_path, "pkg/b.py", MUTATOR)
        cache = tmp_path / "cache"

        cold = run(tmp_path, cache)
        assert cold.timing["parsed"] == 2
        assert cold.timing["cached"] == 0

        warm = run(tmp_path, cache)
        assert warm.timing["parsed"] == 0
        assert warm.timing["cached"] == 2
        assert [f.message for f in warm.findings] == [
            f.message for f in cold.findings
        ]

    def test_edit_invalidates_exactly_the_touched_entry(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        write(tmp_path, "pkg/a.py", ENTRY)
        write(tmp_path, "pkg/b.py", MUTATOR)
        cache = tmp_path / "cache"
        run(tmp_path, cache)

        write(tmp_path, "pkg/b.py", MUTATOR + "\n\nEXTRA = 1\n")
        warm = run(tmp_path, cache)
        assert warm.timing["parsed"] == 1
        assert warm.timing["cached"] == 1

    def test_cross_module_findings_refresh_on_dependency_change(
        self, tmp_path
    ):
        # b.py's mutation is only a finding because a.py's worker entry
        # point reaches it; editing *a.py* must clear the finding even
        # though b.py itself is served from cache.
        (tmp_path / "pkg").mkdir()
        write(tmp_path, "pkg/a.py", ENTRY)
        write(tmp_path, "pkg/b.py", MUTATOR)
        cache = tmp_path / "cache"

        cold = run(tmp_path, cache)
        assert [f.rule for f in cold.findings] == ["worker-reachability"]
        assert cold.findings[0].file.endswith("b.py")

        write(tmp_path, "pkg/a.py", """\
            def shard_worker_main(task):
                return task
        """)
        warm = run(tmp_path, cache)
        assert warm.timing["cached"] == 1  # b.py never re-parsed
        assert warm.findings == []

    def test_parse_errors_are_cached_too(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        write(tmp_path, "pkg/broken.py", "def f(:\n")
        cache = tmp_path / "cache"
        cold = run(tmp_path, cache)
        assert [f.rule for f in cold.findings] == ["parse-error"]

        warm = run(tmp_path, cache)
        assert warm.timing["parsed"] == 0
        assert [f.rule for f in warm.findings] == ["parse-error"]


class TestFingerprint:
    def test_rule_set_change_invalidates(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        write(tmp_path, "pkg/a.py", "x = 1\n")
        cache = tmp_path / "cache"
        run(tmp_path, cache)

        engine = LintEngine(
            LintConfig(disabled_rules=["determinism"]), cache_dir=cache
        )
        result = engine.run([str(tmp_path / "pkg")])
        assert result.timing["parsed"] == 1

    def test_fingerprint_orders_rule_ids(self):
        assert engine_fingerprint(1, ["b", "a"]) == engine_fingerprint(
            1, ["a", "b"]
        )
        assert engine_fingerprint(1, ["a"]) != engine_fingerprint(2, ["a"])

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = AnalysisCache(tmp_path, engine_fingerprint(1, ["a"]))
        key = cache.key_for(b"source")
        cache.put(key, {"summary": {}})
        entry = tmp_path / key[:2] / f"{key}.json"
        entry.write_text("{not json")
        fresh = AnalysisCache(tmp_path, engine_fingerprint(1, ["a"]))
        assert fresh.get(key) is None
        assert fresh.misses == 1


class TestFullRepoTiming:
    def test_warm_full_repo_run_is_twice_as_fast(self, tmp_path):
        # The acceptance bar from the issue: a warm-cache run over the
        # whole library takes < 50% of the cold wall time (in practice
        # it skips every parse, so the margin is far larger).
        config = load_config(REPO_ROOT / "pyproject.toml")
        library = str(REPO_ROOT / "src" / "repro")
        cache = tmp_path / "cache"

        cold = LintEngine(config, cache_dir=cache).run([library])
        assert cold.timing["parsed"] > 0

        warm = LintEngine(config, cache_dir=cache).run([library])
        assert warm.timing["parsed"] == 0
        assert warm.timing["cached"] == cold.timing["parsed"]
        assert (
            warm.timing["duration_seconds"]
            < 0.5 * cold.timing["duration_seconds"]
        )
