"""Per-rule tests for :mod:`repro.analysis`: each rule gets fixtures
that violate it and fixtures that must stay quiet (the false-positive
shapes that exist in the real detector bank)."""

import textwrap

import pytest

from repro.analysis import LintConfig, LintEngine, Severity


def mod(*parts):
    """Join snippet parts, dedenting each part independently."""
    return "".join(textwrap.dedent(part) for part in parts)


def lint(tmp_path, sources, config=None):
    """Write ``{filename: source}`` fixtures and lint the directory."""
    for name, source in sources.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(mod(source))
    return LintEngine(config or LintConfig()).run([str(tmp_path)])


def rules_hit(result):
    return {finding.rule for finding in result.findings}


DETECTOR_PREAMBLE = """\
import numpy as np

from repro.detectors.base import Detector

"""


# ---------------------------------------------------------------------------
# no-lookahead
# ---------------------------------------------------------------------------
class TestNoLookahead:
    def test_forward_index_flagged(self, tmp_path):
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            class Bad(Detector):
                kind = "bad"

                def severities(self, series):
                    values = self._validate(series)
                    out = np.zeros(len(values))
                    for t in range(len(values) - 1):
                        out[t] = values[t + 1]
                    return out
        """)})
        lookaheads = [f for f in result.findings if f.rule == "no-lookahead"]
        assert len(lookaheads) == 1
        assert lookaheads[0].data["shape"] == "forward-index"
        assert lookaheads[0].severity is Severity.ERROR

    def test_forward_slice_flagged(self, tmp_path):
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            class Bad(Detector):
                kind = "bad"

                def severities(self, series):
                    values = self._validate(series)
                    t = 10
                    future = values[t + 1:]
                    return np.zeros(len(values))
        """)})
        shapes = {f.data.get("shape") for f in result.findings
                  if f.rule == "no-lookahead"}
        assert shapes == {"forward-slice"}

    def test_whole_series_aggregate_flagged(self, tmp_path):
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            class Bad(Detector):
                kind = "bad"

                def severities(self, series):
                    values = self._validate(series)
                    return np.abs(values - np.mean(values))
        """)})
        shapes = {f.data.get("shape") for f in result.findings
                  if f.rule == "no-lookahead"}
        assert shapes == {"whole-series-aggregate"}

    def test_method_aggregate_on_series_values_flagged(self, tmp_path):
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            class Bad(Detector):
                kind = "bad"

                def severities(self, series):
                    baseline = series.values.mean()
                    return np.abs(self._validate(series) - baseline)
        """)})
        assert "no-lookahead" in rules_hit(result)

    def test_series_reversal_flagged(self, tmp_path):
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            class Bad(Detector):
                kind = "bad"

                def severities(self, series):
                    values = self._validate(series)
                    return values[::-1]
        """)})
        shapes = {f.data.get("shape") for f in result.findings
                  if f.rule == "no-lookahead"}
        assert shapes == {"reversal"}

    def test_stream_update_checked(self, tmp_path):
        result = lint(tmp_path, {"det.py": """
            from repro.detectors.base import SeverityStream


            class BadStream(SeverityStream):
                def update(self, value):
                    t = len(self._buffer)
                    return self._buffer[t + 1]
        """})
        assert "no-lookahead" in rules_hit(result)

    def test_family_evaluate_checked(self, tmp_path):
        # The fused Table 3 batch math lives in FamilyEvaluator.evaluate;
        # Detector._validate(series) aliases the whole series there.
        result = lint(tmp_path, {"fam.py": """
            from repro.detectors.base import Detector, FamilyEvaluator


            class BadFamily(FamilyEvaluator):
                def evaluate(self, series):
                    values = Detector._validate(series)
                    return (values - values.mean())[:, None]
        """})
        lookaheads = [f for f in result.findings if f.rule == "no-lookahead"]
        assert len(lookaheads) == 1
        assert lookaheads[0].data["shape"] == "whole-series-aggregate"
        assert "BadFamily.evaluate" in lookaheads[0].message

    def test_family_stream_update_checked(self, tmp_path):
        result = lint(tmp_path, {"fam.py": """
            from repro.detectors.base import FamilyStream


            class BadFamilyStream(FamilyStream):
                def update(self, value):
                    t = len(self._ring)
                    return self._ring[t + 1:]
        """})
        shapes = {f.data.get("shape") for f in result.findings
                  if f.rule == "no-lookahead"}
        assert shapes == {"forward-slice"}

    def test_evaluate_outside_the_family_hierarchy_ignored(self, tmp_path):
        result = lint(tmp_path, {"other.py": """
            import numpy as np


            class Scorer:
                def evaluate(self, series):
                    values = np.asarray(series.values)
                    return values - values.mean()
        """})
        assert "no-lookahead" not in rules_hit(result)

    def test_causal_shapes_stay_quiet(self, tmp_path):
        # Every shape here exists in the real bank and must not fire:
        # past indexing, exclusive slice uppers, windowed aggregates,
        # reversal of a non-series array (WeightedMA's weights).
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            class Good(Detector):
                kind = "good"

                def severities(self, series):
                    values = self._validate(series)
                    n = len(values)
                    out = np.full(n, np.nan)
                    weights = np.arange(1.0, 6.0)
                    kernel = weights[::-1]
                    prefix = values[:10]
                    floor = prefix[np.isfinite(prefix)].mean()
                    for t in range(10, n):
                        window = values[t - 10:t]
                        out[t] = abs(values[t] - window.mean()) / floor
                        out[t] += values[t - 1]
                    out[: 10 + 1] = np.nan
                    return out
        """)})
        assert "no-lookahead" not in rules_hit(result)

    def test_subclass_through_intermediate_base(self, tmp_path):
        # _Base(Detector) in one file, Leaf(_Base) in another: the
        # hierarchy is resolved across the analysed set.
        result = lint(tmp_path, {
            "base_mod.py": mod(DETECTOR_PREAMBLE, """
                class _Base(Detector):
                    kind = "base"
            """),
            "leaf_mod.py": """
                from base_mod import _Base


                class Leaf(_Base):
                    def severities(self, series):
                        values = self._validate(series)
                        t = 0
                        return values[t + 1:]
            """,
        })
        lookaheads = [f for f in result.findings if f.rule == "no-lookahead"]
        assert len(lookaheads) == 1
        assert "Leaf.severities" in lookaheads[0].message

    def test_non_detector_class_ignored(self, tmp_path):
        result = lint(tmp_path, {"other.py": """
            import numpy as np


            class Smoother:
                def severities(self, series):
                    values = np.asarray(series.values)
                    return values - np.mean(values)
        """})
        assert "no-lookahead" not in rules_hit(result)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("call", [
        "np.random.normal(size=3)",
        "np.random.rand(4)",
        "np.random.seed(0)",
        "np.random.shuffle(x)",
        "np.random.default_rng()",
        "np.random.default_rng(None)",
        "np.random.default_rng(seed=None)",
        "np.random.RandomState()",
    ])
    def test_global_rng_flagged(self, tmp_path, call):
        result = lint(tmp_path, {"mod.py": f"""
            import numpy as np

            x = [1, 2, 3]
            y = {call}
        """})
        assert "determinism" in rules_hit(result)

    @pytest.mark.parametrize("call", [
        "np.random.default_rng(42)",
        "np.random.default_rng(seed=7)",
        "np.random.default_rng(seed)",
        "rng.normal(size=3)",
    ])
    def test_seeded_and_instance_calls_ok(self, tmp_path, call):
        result = lint(tmp_path, {"mod.py": f"""
            import numpy as np

            seed = 1
            rng = np.random.default_rng(seed)
            y = {call}
        """})
        assert "determinism" not in rules_hit(result)

    def test_import_aliases_resolved(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            from numpy.random import default_rng
            from numpy import random as npr

            a = default_rng()
            b = npr.normal()
        """})
        symbols = {f.data["symbol"] for f in result.findings
                   if f.rule == "determinism"}
        assert symbols == {
            "numpy.random.default_rng", "numpy.random.normal"
        }

    def test_stdlib_random_flagged(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            import random

            a = random.random()
            b = random.Random()
            good = random.Random(1234)
        """})
        flagged = [f for f in result.findings if f.rule == "determinism"]
        assert len(flagged) == 2


# ---------------------------------------------------------------------------
# registry-contract
# ---------------------------------------------------------------------------
REGISTRY_FIXTURE = """
    from det import Registered

    EXPECTED_CONFIGURATIONS = {configs}
    EXPECTED_DETECTORS = {detectors}

    WINDOWS = (10, 20, 30)


    def default_detectors(interval):
        detectors = [Registered(w) for w in WINDOWS]
        return detectors
"""


class TestRegistryContract:
    def _sources(self, configs=3, detectors=1, extra_detector=""):
        return {
            "det.py": mod(DETECTOR_PREAMBLE, """
                class Registered(Detector):
                    kind = "registered"

                    def severities(self, series):
                        return self._validate(series) * 0.0
            """, extra_detector),
            "registry.py": REGISTRY_FIXTURE.format(
                configs=configs, detectors=detectors
            ),
        }

    def test_consistent_bank_is_clean(self, tmp_path):
        result = lint(tmp_path, self._sources())
        assert "registry-contract" not in rules_hit(result)

    def test_unregistered_detector_flagged(self, tmp_path):
        result = lint(tmp_path, self._sources(extra_detector="""

            class Orphan(Detector):
                kind = "orphan"

                def severities(self, series):
                    return self._validate(series) * 0.0
        """))
        flagged = [f for f in result.findings
                   if f.rule == "registry-contract"]
        assert len(flagged) == 1
        assert flagged[0].data == {
            "detector": "Orphan", "check": "reachability"
        }

    def test_exempt_config_allows_unregistered(self, tmp_path):
        config = LintConfig(registry_exempt=["Orphan"])
        result = lint(tmp_path, self._sources(extra_detector="""

            class Orphan(Detector):
                kind = "orphan"

                def severities(self, series):
                    return self._validate(series) * 0.0
        """), config=config)
        assert "registry-contract" not in rules_hit(result)

    def test_private_and_abstract_classes_ignored(self, tmp_path):
        result = lint(tmp_path, self._sources(extra_detector="""

            class _Helper(Detector):
                kind = "helper"


            class AbstractKind(Detector):
                import abc

                @abc.abstractmethod
                def params(self):
                    ...
        """))
        assert "registry-contract" not in rules_hit(result)

    def test_configuration_count_drift_flagged(self, tmp_path):
        result = lint(tmp_path, self._sources(configs=4))
        flagged = [f for f in result.findings
                   if f.rule == "registry-contract"]
        assert len(flagged) == 1
        assert flagged[0].data["check"] == "config-count"
        assert flagged[0].data["derived"] == "3"
        assert "EXPECTED_CONFIGURATIONS = 4" in flagged[0].message

    def test_detector_count_drift_flagged(self, tmp_path):
        result = lint(tmp_path, self._sources(detectors=2))
        flagged = [f for f in result.findings
                   if f.rule == "registry-contract"]
        assert len(flagged) == 1
        assert flagged[0].data["check"] == "detector-count"

    def test_product_comprehension_and_append_counted(self, tmp_path):
        sources = self._sources()
        sources["registry.py"] = """
            import itertools

            from det import Registered

            EXPECTED_CONFIGURATIONS = 14
            EXPECTED_DETECTORS = 1

            GRID_A = (0.2, 0.4)
            GRID_B = (1, 2, 3)


            def default_detectors(interval):
                detectors = [Registered(0)]
                detectors += [
                    Registered(a * b)
                    for a, b in itertools.product(GRID_A, GRID_B)
                ]
                detectors += [Registered(w) for w in (5, 6, 7)]
                detectors.extend([Registered(8), Registered(9)])
                detectors.append(Registered(10))
                detectors.append(Registered(11))
                return detectors
        """
        result = lint(tmp_path, sources)
        assert "registry-contract" not in rules_hit(result)

    def test_unresolvable_grid_is_warning(self, tmp_path):
        sources = self._sources()
        sources["registry.py"] = """
            from det import Registered

            EXPECTED_CONFIGURATIONS = 3


            def _windows():
                return [1, 2, 3]


            def default_detectors(interval):
                detectors = [Registered(w) for w in _windows()]
                return detectors
        """
        result = lint(tmp_path, sources)
        flagged = [f for f in result.findings
                   if f.rule == "registry-contract"]
        assert len(flagged) == 1
        assert flagged[0].severity is Severity.WARNING
        assert flagged[0].data["check"] == "grid-unresolvable"


# ---------------------------------------------------------------------------
# api-hygiene
# ---------------------------------------------------------------------------
class TestApiHygiene:
    def test_bare_and_broad_except_flagged(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            def f():
                try:
                    return 1
                except:
                    return None


            def g():
                try:
                    return 1
                except Exception:
                    return None
        """})
        flagged = [f for f in result.findings
                   if f.data.get("check") == "broad-except"]
        assert len(flagged) == 2

    def test_reraising_handler_allowed(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            def f():
                try:
                    return 1
                except Exception as exc:
                    raise RuntimeError("wrapped") from exc
        """})
        assert "api-hygiene" not in rules_hit(result)

    def test_specific_except_allowed(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            def f():
                try:
                    return 1
                except ValueError:
                    return None
        """})
        assert "api-hygiene" not in rules_hit(result)

    def test_mutable_defaults_flagged(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            def f(items=[], mapping={}, *, names=set()):
                return items, mapping, names


            def g(items=None, n=3, name="x"):
                return items
        """})
        flagged = [f for f in result.findings
                   if f.data.get("check") == "mutable-default"]
        assert len(flagged) == 3

    def test_all_undefined_name_flagged(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            __all__ = ["present", "missing"]


            def present():
                return 1
        """})
        flagged = [f for f in result.findings
                   if f.data.get("check") == "all-undefined"]
        assert [f.data["name"] for f in flagged] == ["missing"]

    def test_public_def_missing_from_all_is_warning(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            __all__ = ["listed"]


            def listed():
                return 1


            def unlisted():
                return 2


            def _private():
                return 3
        """})
        flagged = [f for f in result.findings
                   if f.data.get("check") == "all-missing"]
        assert [f.data["name"] for f in flagged] == ["unlisted"]
        assert flagged[0].severity is Severity.WARNING

    def test_module_without_all_not_checked(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            def anything():
                return 1
        """})
        assert "api-hygiene" not in rules_hit(result)


# ---------------------------------------------------------------------------
# worker-reachability
# ---------------------------------------------------------------------------
#: A shard entry point dispatching into detector methods, so the
#: call graph makes ``severities`` (and whatever it calls) reachable.
WORKER_ENTRY = """

    def shard_worker_main(task, series):
        return task.severities(series)
"""


class TestWorkerReachability:
    def test_global_statement_flagged(self, tmp_path):
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            _CALLS = 0

            class Bad(Detector):
                kind = "bad"

                def severities(self, series):
                    global _CALLS
                    _CALLS += 1
                    return np.zeros(len(series))
        """, WORKER_ENTRY)})
        flagged = [f for f in result.findings
                   if f.rule == "worker-reachability"]
        assert len(flagged) == 1
        assert flagged[0].severity is Severity.ERROR
        assert flagged[0].data["kind"] == "global"
        assert "_CALLS" in flagged[0].message
        assert "shard_worker_main" in flagged[0].data["chain"]

    def test_module_container_mutation_flagged(self, tmp_path):
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            CACHE = {}

            class Bad(Detector):
                kind = "bad"

                def severities(self, series):
                    CACHE[series.name] = len(series)
                    return np.zeros(len(series))
        """, WORKER_ENTRY)})
        flagged = [f for f in result.findings
                   if f.rule == "worker-reachability"]
        assert [f.data["kind"] for f in flagged] == ["module-write"]
        assert "'CACHE'" in flagged[0].message

    def test_mutating_method_on_module_list_flagged(self, tmp_path):
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            _SEEN = []

            class Bad(Detector):
                kind = "bad"

                def severities(self, series):
                    _SEEN.append(series.name)
                    return np.zeros(len(series))
        """, WORKER_ENTRY)})
        flagged = [f for f in result.findings
                   if f.rule == "worker-reachability"]
        assert [f.data["kind"] for f in flagged] == ["module-mutation"]
        assert "_SEEN.append" in flagged[0].message

    def test_class_attribute_write_flagged(self, tmp_path):
        # Only the reachable method fires; the classmethod nobody calls
        # from the worker path stays quiet (that's the point of walking
        # the call graph instead of scanning every method).
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            class Bad(Detector):
                kind = "bad"
                runs = 0

                def severities(self, series):
                    cls = type(self)
                    cls.runs = cls.runs + 1
                    return np.zeros(len(series))

                @classmethod
                def reset(cls):
                    cls.runs = 0
        """, WORKER_ENTRY)})
        flagged = [f for f in result.findings
                   if f.rule == "worker-reachability"]
        assert len(flagged) == 1
        assert flagged[0].data["kind"] == "class-write"
        assert "Bad.severities" in flagged[0].message

    def test_transitive_helper_flagged_with_chain(self, tmp_path):
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            _HITS = []


            def _record(name):
                _HITS.append(name)


            class Bad(Detector):
                kind = "bad"

                def severities(self, series):
                    _record(series.name)
                    return np.zeros(len(series))
        """, WORKER_ENTRY)})
        flagged = [f for f in result.findings
                   if f.rule == "worker-reachability"]
        assert len(flagged) == 1
        chain = flagged[0].data["chain"]
        assert "shard_worker_main" in chain
        assert "_record" in chain

    def test_unreachable_mutator_stays_quiet(self, tmp_path):
        # Same mutation, but no worker entry point anywhere: nothing is
        # reachable, so nothing fires.
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            CACHE = {}

            class Offline(Detector):
                kind = "offline"

                def severities(self, series):
                    CACHE[series.name] = len(series)
                    return np.zeros(len(series))
        """)})
        assert "worker-reachability" not in rules_hit(result)

    def test_local_shadowing_stays_quiet(self, tmp_path):
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            CACHE = {}

            class Fine(Detector):
                kind = "fine"

                def severities(self, series):
                    CACHE = {}
                    CACHE[series.name] = len(series)
                    return np.zeros(len(series))
        """, WORKER_ENTRY)})
        assert "worker-reachability" not in rules_hit(result)

    def test_self_state_and_module_reads_stay_quiet(self, tmp_path):
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            WINDOWS = (10, 20, 40)

            class Fine(Detector):
                kind = "fine"

                def __init__(self, window):
                    self.window = window
                    self._buffer = []

                def severities(self, series):
                    self._buffer.append(len(series))
                    self.window = min(self.window, WINDOWS[-1])
                    out = list(WINDOWS)
                    out.append(self.window)
                    return np.zeros(len(series))
        """, WORKER_ENTRY)})
        assert "worker-reachability" not in rules_hit(result)

    def test_custom_entry_points_config(self, tmp_path):
        config = LintConfig(worker_entry_points=["run_in_worker"])
        result = lint(tmp_path, {"mod.py": """
            STATE = {}


            def mutate():
                STATE["k"] = 1


            def run_in_worker():
                mutate()
        """}, config=config)
        flagged = [f for f in result.findings
                   if f.rule == "worker-reachability"]
        assert len(flagged) == 1
        assert "run_in_worker" in flagged[0].data["chain"]


# ---------------------------------------------------------------------------
# checkpoint-symmetry
# ---------------------------------------------------------------------------
class TestCheckpointSymmetry:
    def test_dropped_key_flagged(self, tmp_path):
        # The seeded asymmetry from the issue: snapshot() stores a key
        # the paired restore never reads back.
        result = lint(tmp_path, {"mod.py": """
            class Stream:
                def __init__(self):
                    self._window = 5
                    self._count = 0

                def snapshot(self):
                    return {"window": self._window, "count": self._count}

                def restore_snapshot(self, state):
                    self._window = state["window"]
        """})
        flagged = [f for f in result.findings
                   if f.rule == "checkpoint-symmetry"]
        assert len(flagged) == 1
        assert flagged[0].data["check"] == "dropped-key"
        assert flagged[0].data["key"] == "count"
        assert "silently drop" in flagged[0].message

    def test_phantom_key_flagged(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            class Stream:
                def snapshot(self):
                    return {"window": 5}

                def restore(self, state):
                    self._window = state["window"]
                    self._count = state["count"]
        """})
        flagged = [f for f in result.findings
                   if f.rule == "checkpoint-symmetry"]
        assert [f.data["check"] for f in flagged] == ["phantom-key"]
        assert flagged[0].data["key"] == "count"

    def test_optional_get_read_is_not_phantom(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            class Stream:
                def snapshot(self):
                    return {"window": 5}

                def restore(self, state):
                    self._window = state["window"]
                    self._count = state.get("count", 0)
        """})
        assert "checkpoint-symmetry" not in rules_hit(result)

    def test_json_unsafe_value_flagged(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            class Stream:
                def snapshot(self):
                    return {"seen": set(self._seen)}

                def restore(self, state):
                    self._seen = set(state["seen"])
        """})
        flagged = [f for f in result.findings
                   if f.data.get("check") == "json-unsafe"]
        assert len(flagged) == 1
        assert flagged[0].data["key"] == "seen"

    def test_symmetric_pair_stays_quiet(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            class Stream:
                def snapshot(self):
                    state = {"window": self._window}
                    state["count"] = self._count
                    return state

                def restore_snapshot(self, state):
                    self._window = state["window"]
                    self._count = state.pop("count")
        """})
        assert "checkpoint-symmetry" not in rules_hit(result)

    def test_dynamic_restore_skips_coverage_check(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            class Stream:
                def snapshot(self):
                    return {"window": self._window, "count": self._count}

                def restore(self, state):
                    for key, value in state.items():
                        setattr(self, "_" + key, value)
        """})
        assert "checkpoint-symmetry" not in rules_hit(result)


# ---------------------------------------------------------------------------
# obs-taxonomy
# ---------------------------------------------------------------------------
class TestObsTaxonomy:
    def test_label_keys_must_match_across_sites(self, tmp_path):
        result = lint(tmp_path, {
            "a.py": """
                def f(registry):
                    registry.counter("x_total", "help", kpi="a")
            """,
            "b.py": """
                def g(registry):
                    registry.counter("x_total", "help", backend="b")
            """,
        })
        flagged = [f for f in result.findings if f.rule == "obs-taxonomy"]
        assert [f.data["check"] for f in flagged] == ["label-mismatch"]
        assert flagged[0].data["name"] == "x_total"

    def test_kind_must_match_across_sites(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            def f(registry):
                registry.counter("x_total", "help")
                registry.gauge("x_total", "help")
        """})
        flagged = [f for f in result.findings if f.rule == "obs-taxonomy"]
        assert [f.data["check"] for f in flagged] == ["kind-mismatch"]

    def test_timer_and_histogram_are_one_kind(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            def f(obs):
                obs.histogram("x_seconds", "help")
                obs.timer("x_seconds", "help")
        """})
        assert "obs-taxonomy" not in rules_hit(result)

    def test_undocumented_name_flagged(self, tmp_path):
        doc = tmp_path / "obs.md"
        doc.write_text("| name |\n|---|\n| `known_total` |\n")
        config = LintConfig(obs_doc=str(doc))
        result = lint(tmp_path, {"mod.py": """
            def f(registry):
                registry.counter("known_total", "help")
                registry.counter("rogue_total", "help")
        """}, config=config)
        flagged = [f for f in result.findings if f.rule == "obs-taxonomy"]
        assert [f.data["check"] for f in flagged] == ["undocumented"]
        assert flagged[0].data["name"] == "rogue_total"

    def test_stale_documented_name_flagged(self, tmp_path):
        doc = tmp_path / "obs.md"
        doc.write_text(
            "| name |\n|---|\n| `known_total` |\n| `gone_total` |\n"
        )
        config = LintConfig(obs_doc=str(doc))
        result = lint(tmp_path, {"mod.py": """
            def f(registry):
                registry.counter("known_total", "help")
        """}, config=config)
        flagged = [f for f in result.findings if f.rule == "obs-taxonomy"]
        assert [f.data["check"] for f in flagged] == ["stale"]
        assert flagged[0].data["name"] == "gone_total"
        assert flagged[0].line == 4  # anchored at the doc table row

    def test_multiple_names_in_one_doc_cell(self, tmp_path):
        doc = tmp_path / "obs.md"
        doc.write_text("| name |\n|---|\n| `opened` / `closed` |\n")
        config = LintConfig(obs_doc=str(doc))
        result = lint(tmp_path, {"mod.py": """
            def f(events):
                events.emit("opened")
                events.emit("closed")
        """}, config=config)
        assert "obs-taxonomy" not in rules_hit(result)

    def test_dynamic_fstring_prefix_covers_documented_names(self, tmp_path):
        doc = tmp_path / "obs.md"
        doc.write_text("| name |\n|---|\n| `alert_opened` / `alert_closed` |\n")
        config = LintConfig(obs_doc=str(doc))
        result = lint(tmp_path, {"mod.py": """
            def f(events, kind):
                events.emit(f"alert_{kind}")
        """}, config=config)
        assert "obs-taxonomy" not in rules_hit(result)

    def test_name_via_module_constant_resolved(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            METRIC = "x_total"


            def f(registry):
                registry.counter(METRIC, "help", kpi="a")


            def g(registry):
                registry.counter("x_total", "help")
        """})
        flagged = [f for f in result.findings if f.rule == "obs-taxonomy"]
        assert [f.data["check"] for f in flagged] == ["label-mismatch"]


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------
LOCK_PREAMBLE = """\
import threading

"""


class TestLockDiscipline:
    def test_unguarded_read_of_guarded_attr_flagged(self, tmp_path):
        result = lint(tmp_path, {"mod.py": mod(LOCK_PREAMBLE, """
            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = 0

                def inc(self):
                    with self._lock:
                        self._value += 1

                def value(self):
                    return self._value
        """)})
        flagged = [f for f in result.findings if f.rule == "lock-discipline"]
        assert len(flagged) == 1
        assert flagged[0].data == {
            "cls": "Counter", "attr": "_value", "method": "value",
        }
        assert "reads self._value" in flagged[0].message

    def test_unguarded_write_flagged(self, tmp_path):
        result = lint(tmp_path, {"mod.py": mod(LOCK_PREAMBLE, """
            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._value = 0

                def read(self):
                    with self._lock:
                        return self._value

                def reset(self):
                    self._value = 0
        """)})
        flagged = [f for f in result.findings if f.rule == "lock-discipline"]
        assert len(flagged) == 1
        assert "writes self._value" in flagged[0].message

    def test_container_mutation_counts_as_write(self, tmp_path):
        result = lint(tmp_path, {"mod.py": mod(LOCK_PREAMBLE, """
            class Buffer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def push(self, item):
                    with self._lock:
                        self._items.append(item)

                def peek(self):
                    return self._items[-1]
        """)})
        flagged = [f for f in result.findings if f.rule == "lock-discipline"]
        assert len(flagged) == 1
        assert flagged[0].data["attr"] == "_items"

    def test_immutable_config_read_stays_quiet(self, tmp_path):
        # _cap is written only in __init__; defensive locking elsewhere
        # must not force every reader to take the lock.
        result = lint(tmp_path, {"mod.py": mod(LOCK_PREAMBLE, """
            class Buffer:
                def __init__(self, cap):
                    self._lock = threading.Lock()
                    self._cap = cap
                    self._items = []

                def push(self, item):
                    with self._lock:
                        if len(self._items) < self._cap:
                            self._items.append(item)

                def capacity(self):
                    return self._cap
        """)})
        assert "lock-discipline" not in rules_hit(result)

    def test_lock_held_helper_stays_quiet(self, tmp_path):
        # _evict touches _items without the lock, but every call site
        # holds it — the fixpoint marks it lock-held.
        result = lint(tmp_path, {"mod.py": mod(LOCK_PREAMBLE, """
            class Buffer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def _evict(self):
                    del self._items[0]

                def push(self, item):
                    with self._lock:
                        self._items.append(item)
                        if len(self._items) > 10:
                            self._evict()

                def pop(self):
                    with self._lock:
                        self._evict()
        """)})
        assert "lock-discipline" not in rules_hit(result)

    def test_helper_also_called_unguarded_is_flagged(self, tmp_path):
        result = lint(tmp_path, {"mod.py": mod(LOCK_PREAMBLE, """
            class Buffer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def _evict(self):
                    del self._items[0]

                def push(self, item):
                    with self._lock:
                        self._items.append(item)
                        self._evict()

                def hurry(self):
                    self._evict()
        """)})
        flagged = [f for f in result.findings if f.rule == "lock-discipline"]
        assert flagged
        assert {f.data["method"] for f in flagged} == {"_evict"}

    def test_class_without_lock_not_checked(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            class Plain:
                def __init__(self):
                    self._value = 0

                def inc(self):
                    self._value += 1
        """})
        assert "lock-discipline" not in rules_hit(result)


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------
class TestSuppressions:
    def test_line_level_suppression(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            import numpy as np

            x = np.random.normal()  # repro: disable=determinism — test fixture
            y = np.random.normal()
        """})
        flagged = [f for f in result.findings if f.rule == "determinism"]
        assert len(flagged) == 1
        assert flagged[0].line == 5
        assert result.summary.suppressed == 1

    def test_def_scope_suppression(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            import numpy as np


            def noisy():  # repro: disable=determinism — test fixture
                a = np.random.normal()
                b = np.random.rand()
                return a + b
        """})
        assert "determinism" not in rules_hit(result)
        assert result.summary.suppressed == 2

    def test_class_scope_suppression_on_registry_rule(self, tmp_path):
        result = lint(tmp_path, {"det.py": mod(DETECTOR_PREAMBLE, """
            class Orphan(Detector):  # repro: disable=registry-contract — test fixture
                kind = "orphan"

                def severities(self, series):
                    return self._validate(series) * 0.0
        """)})
        assert "registry-contract" not in rules_hit(result)

    def test_bare_disable_still_suppresses_other_rules(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            import numpy as np

            x = np.random.normal()  # repro: disable
        """})
        assert "determinism" not in rules_hit(result)

    def test_suppression_only_hits_named_rule(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            import numpy as np

            x = np.random.normal()  # repro: disable=api-hygiene — test fixture
        """})
        assert "determinism" in rules_hit(result)


# ---------------------------------------------------------------------------
# suppression-justification
# ---------------------------------------------------------------------------
class TestSuppressionJustification:
    def test_bare_disable_is_a_finding(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            import numpy as np

            x = np.random.normal()  # repro: disable
        """})
        flagged = [f for f in result.findings
                   if f.rule == "suppression-justification"]
        assert [f.data["check"] for f in flagged] == ["bare"]
        assert flagged[0].line == 4

    def test_unjustified_named_disable_is_a_finding(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            import numpy as np

            x = np.random.normal()  # repro: disable=determinism
        """})
        flagged = [f for f in result.findings
                   if f.rule == "suppression-justification"]
        assert [f.data["check"] for f in flagged] == ["unjustified"]
        assert "determinism" in flagged[0].message

    def test_justified_disable_stays_quiet(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            import numpy as np

            x = np.random.normal()  # repro: disable=determinism — seeding is exercised elsewhere
        """})
        assert "suppression-justification" not in rules_hit(result)

    def test_rule_cannot_suppress_itself(self, tmp_path):
        result = lint(tmp_path, {"mod.py": """
            import numpy as np

            x = np.random.normal()  # repro: disable=determinism,suppression-justification
        """})
        flagged = [f for f in result.findings
                   if f.rule == "suppression-justification"]
        assert len(flagged) == 1


# ---------------------------------------------------------------------------
# config behaviour (overrides via LintConfig; TOML parsing in test_lint_cli)
# ---------------------------------------------------------------------------
class TestConfigOverrides:
    def test_disabled_rule_does_not_run(self, tmp_path):
        config = LintConfig(disabled_rules=["determinism"])
        result = lint(tmp_path, {"mod.py": """
            import numpy as np

            x = np.random.normal()
        """}, config=config)
        assert result.findings == []
        assert "determinism" not in result.rules

    def test_severity_override_downgrades_to_warning(self, tmp_path):
        config = LintConfig(
            severity_overrides={"determinism": Severity.WARNING}
        )
        result = lint(tmp_path, {"mod.py": """
            import numpy as np

            x = np.random.normal()
        """}, config=config)
        assert result.summary.errors == 0
        assert result.summary.warnings == 1
        assert result.exit_code() == 0
        assert result.exit_code(strict=True) == 1

    def test_exclude_patterns_skip_files(self, tmp_path):
        config = LintConfig(exclude=["*/skipme/*"])
        result = lint(tmp_path, {
            "skipme/mod.py": "import numpy as np\nx = np.random.normal()\n",
            "keep.py": "import numpy as np\ny = np.random.normal()\n",
        }, config=config)
        assert len(result.findings) == 1
        assert "keep.py" in result.findings[0].file

    def test_parse_error_reported_not_raised(self, tmp_path):
        result = lint(tmp_path, {"broken.py": """
            def f(:
                pass
        """})
        assert [f.rule for f in result.findings] == ["parse-error"]
        assert result.summary.errors == 1
