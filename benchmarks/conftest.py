"""Session fixtures for the benchmarks; heavy lifting in _common.py."""

import os
from typing import Dict

import pytest

from repro.core import FeatureExtractor, FeatureMatrix
from repro.data import InjectionResult, make_all

from _common import (
    WeeklyScores,
    maybe_enable_observability,
    run_i1_weekly_scores,
    write_metrics_snapshot,
)


def pytest_benchmark_update_machine_info(config, machine_info):
    """Stamp BENCH_4.json with the core count the cross-process
    benchmarks sharded over, which makes scaling numbers interpretable
    across heterogeneous runners. tools/bench_compare.py warns when
    baseline and current disagree on cores (it never gates on them)."""
    machine_info["cpu_count"] = os.cpu_count()


@pytest.fixture(scope="session", autouse=True)
def observability():
    """With REPRO_OBS=1, record metrics/spans for the whole bench run
    and write a JSON + Prometheus snapshot at session end (see
    docs/observability.md; CI uploads the artifact)."""
    enabled = maybe_enable_observability()
    yield
    if enabled:
        path = write_metrics_snapshot("benchmarks")
        if path is not None:
            print(f"\nmetrics snapshot written to {path}")


@pytest.fixture(scope="session")
def kpis() -> Dict[str, InjectionResult]:
    """The three Table 1 KPIs with exact ground truth."""
    return make_all()


@pytest.fixture(scope="session")
def feature_matrices(kpis) -> Dict[str, FeatureMatrix]:
    """133-column severity matrices, one per KPI."""
    return {
        name: FeatureExtractor().extract(result.series)
        for name, result in kpis.items()
    }


@pytest.fixture(scope="session")
def weekly_scores(kpis, feature_matrices) -> Dict[str, WeeklyScores]:
    """I1 weekly random-forest scores, one per KPI."""
    return {
        name: run_i1_weekly_scores(name, kpis[name], feature_matrices[name])
        for name in kpis
    }
