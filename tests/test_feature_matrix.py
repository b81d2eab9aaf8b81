"""Feature-matrix assembly tests (§4.3), incl. the batched HW path."""

import hashlib

import numpy as np
import pytest

from repro.core import FeatureExtractor, FeatureMatrix
from repro.detectors import (
    Diff,
    EWMA,
    HoltWinters,
    SimpleThreshold,
    build_configs,
    build_family_evaluators,
    configs_for,
)

#: sha256 of the Table 3 matrix of the ``hourly_kpi`` fixture; any
#: change to an extracted bit changes it.
HOURLY_KPI_MATRIX_SHA256 = (
    "e07e79bf0bd5a068cb8c9ebae8a436d920b39250ed0a28c77b44970f654c0ba4"
)


class TestFeatureMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            FeatureMatrix(values=np.zeros(5), names=["a"])
        with pytest.raises(ValueError, match="columns"):
            FeatureMatrix(values=np.zeros((5, 2)), names=["a"])

    def test_rows_and_column_access(self):
        matrix = FeatureMatrix(
            values=np.arange(12, dtype=float).reshape(4, 3),
            names=["a", "b", "c"],
        )
        assert matrix.rows(1, 3).shape == (2, 3)
        np.testing.assert_array_equal(matrix.column("b"), [1.0, 4.0, 7.0, 10.0])
        with pytest.raises(KeyError):
            matrix.column("zzz")
        with pytest.raises(ValueError):
            matrix.rows(2, 10)


class TestFeatureExtractor:
    def test_custom_bank(self, hourly_kpi):
        configs = build_configs(
            [SimpleThreshold(), Diff("last-slot", 1), EWMA(0.5)]
        )
        matrix = FeatureExtractor(configs).extract(hourly_kpi)
        assert matrix.n_features == 3
        assert matrix.n_points == len(hourly_kpi)
        assert matrix.names == [
            "simple threshold", "diff(lag=last-slot)", "ewma(alpha=0.5)"
        ]

    def test_columns_match_individual_detectors(self, hourly_kpi):
        detectors = [SimpleThreshold(), Diff("last-slot", 1), EWMA(0.5)]
        matrix = FeatureExtractor(build_configs(detectors)).extract(hourly_kpi)
        for j, detector in enumerate(detectors):
            np.testing.assert_allclose(
                matrix.values[:, j],
                detector.severities(hourly_kpi),
                equal_nan=True,
            )

    def test_batched_hw_matches_individual(self, hourly_kpi):
        """The grouped Holt-Winters fast path must be exact."""
        detectors = [
            HoltWinters(a, 0.4, 0.6, 24) for a in (0.2, 0.4, 0.6, 0.8)
        ] + [SimpleThreshold()]
        matrix = FeatureExtractor(build_configs(detectors)).extract(hourly_kpi)
        for j, detector in enumerate(detectors[:4]):
            expected = detector.severities(hourly_kpi)
            np.testing.assert_allclose(
                matrix.values[:, j], expected, equal_nan=True, atol=1e-9
            )

    def test_default_bank_is_table3(self, hourly_kpi):
        matrix = FeatureExtractor().extract(hourly_kpi)
        assert matrix.n_features == 133
        assert len(set(matrix.names)) == 133

    def test_matrix_digest_is_pinned(self, hourly_kpi):
        values = FeatureExtractor().extract(hourly_kpi).values
        assert values.dtype == np.float64 and values.flags["C_CONTIGUOUS"]
        digest = hashlib.sha256(values.tobytes()).hexdigest()
        assert digest == HOURLY_KPI_MATRIX_SHA256

    def test_tasks_cover_every_config_exactly_once(self, hourly_kpi):
        configs = configs_for(hourly_kpi)
        evaluators = build_family_evaluators(configs)
        indices = [i for e in evaluators for i in e.indices]
        assert sorted(indices) == list(range(len(configs)))
        names = {n for e in evaluators for n in e.names}
        assert names == {c.name for c in configs}

    def test_extractor_without_configs_requires_series(self):
        with pytest.raises(ValueError, match="no series"):
            FeatureExtractor().configs()

    def test_names_require_configs(self):
        with pytest.raises(RuntimeError):
            _ = FeatureExtractor().names

