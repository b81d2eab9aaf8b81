"""Execution backends (docs/performance.md).

The contract under test: the feature matrix is *bit-identical* whichever
backend computes it, and worker counts resolve the documented way.
"""

import os

import numpy as np
import pytest

from repro.core import (
    BACKEND_NAMES,
    FeatureExtractor,
    ProcessBackend,
    ThreadBackend,
    resolve_backend,
    resolve_workers,
)
from repro.detectors import build_family_evaluators, configs_for
from repro.obs import ObservabilityProvider, set_provider


@pytest.fixture()
def live_obs():
    """A fresh live provider for counter assertions, restored after."""
    provider = ObservabilityProvider()
    previous = set_provider(provider)
    yield provider
    set_provider(previous)


@pytest.fixture(scope="module")
def serial_matrix(hourly_kpi):
    return FeatureExtractor(backend="serial").extract(hourly_kpi)


class TestBackendEquivalence:
    """serial == thread == process, bit for bit, over all 133 configs."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_full_bank_bit_identical(self, hourly_kpi, serial_matrix, backend):
        matrix = FeatureExtractor(workers=2, backend=backend).extract(hourly_kpi)
        assert matrix.n_features == 133
        assert matrix.names == serial_matrix.names
        np.testing.assert_array_equal(matrix.values, serial_matrix.values)

    def test_backend_instance_accepted(self, hourly_kpi, serial_matrix):
        matrix = FeatureExtractor(backend=ProcessBackend(workers=2)).extract(
            hourly_kpi
        )
        np.testing.assert_array_equal(matrix.values, serial_matrix.values)

    def test_process_backend_single_worker_falls_back(self, hourly_kpi, serial_matrix):
        # One worker or one evaluator short-circuits to the serial path.
        matrix = FeatureExtractor(backend=ProcessBackend(workers=1)).extract(
            hourly_kpi
        )
        np.testing.assert_array_equal(matrix.values, serial_matrix.values)

    def test_tasks_cover_every_config_exactly_once(self, hourly_kpi):
        configs = configs_for(hourly_kpi)
        evaluators = build_family_evaluators(configs)
        indices = [i for e in evaluators for i in e.indices]
        assert sorted(indices) == list(range(len(configs)))
        names = {n for e in evaluators for n in e.names}
        assert names == {c.name for c in configs}


class TestWorkerResolution:
    def test_zero_means_one_per_cpu(self):
        assert resolve_workers(0) == (os.cpu_count() or 1)
        assert FeatureExtractor(workers=0).workers == (os.cpu_count() or 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            resolve_workers(-2)
        with pytest.raises(ValueError, match="workers"):
            FeatureExtractor(workers=-1)

    def test_default_backend_mapping(self):
        assert resolve_backend(None, 1).name == "serial"
        assert resolve_backend(None, 4).name == "thread"
        assert isinstance(resolve_backend(None, 4), ThreadBackend)
        with pytest.raises(ValueError, match="unknown execution backend"):
            resolve_backend("gpu", 2)
        assert set(BACKEND_NAMES) == {"serial", "thread", "process"}


class TestExtractionMetrics:
    def test_extract_workers_gauge(self, hourly_kpi, live_obs):
        FeatureExtractor(workers=3, backend="thread").extract(hourly_kpi)
        snapshot = live_obs.registry.snapshot()
        gauges = {
            metric["name"]: sample["value"]
            for metric in snapshot["metrics"]
            for sample in metric["samples"]
            if metric["kind"] == "gauge"
        }
        assert gauges["repro_extract_workers"] == 3
