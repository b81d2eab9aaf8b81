"""Table 3 — 14 basic detectors / 133 configurations.

Regenerates the registry table and times full feature extraction of
each KPI (the per-point cost also feeds §5.8's detection-lag bench).
The CI ``bench-regression`` job records this file's timings in
BENCH_4.json and gates median slowdowns via tools/bench_compare.py.
"""

import collections

import pytest

from repro.core import FeatureExtractor
from repro.detectors import default_configs, registry_table

from _common import print_header

TABLE3 = {
    "simple threshold": 1,
    "diff": 3,
    "simple MA": 5,
    "weighted MA": 5,
    "MA of diff": 5,
    "ewma": 5,
    "tsd": 5,
    "tsd MAD": 5,
    "historical average": 5,
    "historical MAD": 5,
    "holt-winters": 64,
    "svd": 15,
    "wavelet": 9,
    "arima": 1,
}


def test_registry_matches_table3(benchmark):
    configs = benchmark(lambda: default_configs(600))
    print_header("Table 3: detectors and sampled parameters")
    print(registry_table(configs))
    counts = collections.Counter(c.detector.kind for c in configs)
    assert dict(counts) == TABLE3
    assert len(configs) == 133


@pytest.mark.parametrize("name", ["PV", "#SR", "SRT"])
def test_feature_extraction_full_kpi(benchmark, kpis, name):
    """Time extracting all 133 features over the whole KPI."""
    series = kpis[name].series
    extractor = FeatureExtractor()
    matrix = benchmark.pedantic(
        lambda: extractor.extract(series), rounds=1, iterations=1
    )
    per_point_ms = (
        benchmark.stats.stats.mean / len(series) * 1000.0
    )
    print_header(f"Feature extraction [{name}]")
    print(
        f"{matrix.n_features} configurations x {len(series)} points: "
        f"{per_point_ms:.3f} ms/point"
    )
    assert matrix.n_features == 133

