"""Fused family extraction: equivalence, streams, and the process pool.

Three code paths produce severities — the fused per-family batch pass
(:func:`repro.detectors.build_family_evaluators`), the per-config
serial path (``Detector.severities``), and the incremental per-point
path (:class:`repro.detectors.StreamBank`). The contract under test:

* fused == per-config serial, *bit for bit*, including NaN masks, over
  the full 133-configuration bank on both clean and dirty (§6) data;
* incremental == batch with identical NaN masks; exact for the
  families whose stream shares the batch kernel (Holt-Winters, SVD),
  documented-ULP-close (<= 1e-9) elsewhere — see docs/performance.md;
* ``rolling_std`` survives large offsets (the catastrophic-cancellation
  fix), agreeing with the strided fallback up to 1e9;
* the ``process`` backend keeps ONE pool across ``run_tasks`` calls,
  re-forks exactly once when a worker dies, and never orphans its
  shared-memory segment — even when an evaluator raises and the result
  generator is abandoned.
"""

import gc
import os
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.execution import ProcessBackend
from repro.detectors import (
    DetectorConfig,
    SimpleThreshold,
    StreamBank,
    build_family_evaluators,
    configs_for,
    rolling_std,
)
from repro.detectors.base import FamilyEvaluator
from repro.timeseries import TimeSeries

#: Families whose per-point stream runs the same fused kernel as the
#: batch pass — stream == batch must hold exactly, not just closely.
EXACT_STREAM_FAMILIES = {"holt-winters", "svd"}

#: Everything else may differ by accumulated float64 rounding between
#: the fused batch formulation and the per-point recurrence.
STREAM_ATOL = 1e-9


def dirty(series: TimeSeries) -> TimeSeries:
    """The series with injected NaN runs (a lost point, a short gap,
    and a long outage) — the §6 dirty-data shapes."""
    values = series.values.copy()
    values[200] = np.nan
    values[50:55] = np.nan
    values[400:412] = np.nan
    return TimeSeries(
        values=values,
        interval=series.interval,
        start=series.start,
        name=series.name,
    )


def serial_reference(series: TimeSeries, configs) -> np.ndarray:
    """The per-config ground truth: every detector run on its own."""
    matrix = np.full((len(series), len(configs)), np.nan)
    for config in configs:
        matrix[:, config.index] = config.detector.severities(series)
    return matrix


class TestFusedEquivalence:
    """fused family pass == per-config serial, bit for bit."""

    @pytest.mark.parametrize("make", [lambda s: s, dirty], ids=["clean", "dirty"])
    def test_full_bank_bit_identical(self, hourly_kpi, make):
        series = make(hourly_kpi)
        configs = configs_for(series)
        assert len(configs) == 133
        reference = serial_reference(series, configs)
        for evaluator in build_family_evaluators(configs):
            columns = np.asarray(evaluator.evaluate(series))
            assert columns.shape == (len(series), len(evaluator.configs))
            for j, config in enumerate(evaluator.configs):
                np.testing.assert_array_equal(
                    columns[:, j],
                    reference[:, config.index],
                    err_msg=f"fused != serial for {config.name}",
                )

    def test_families_actually_fuse(self, hourly_kpi):
        """The bank must compile to far fewer evaluators than configs —
        otherwise the fusion layer silently degenerated to solo runs."""
        configs = configs_for(hourly_kpi)
        evaluators = build_family_evaluators(configs)
        assert len(evaluators) < len(configs) / 2
        kinds = {e.kind for e in evaluators}
        assert {"window-bank", "holt-winters"} <= kinds

    def test_subset_grouping_covers_exactly_the_subset(self, hourly_kpi):
        """Grouping works on arbitrary subsets of a bank."""
        configs = configs_for(hourly_kpi)
        subset = configs[::7]
        evaluators = build_family_evaluators(subset)
        indices = sorted(i for e in evaluators for i in e.indices)
        assert indices == sorted(c.index for c in subset)


class TestIncrementalEquivalence:
    """StreamBank per-point rows == the fused batch matrix."""

    @pytest.mark.parametrize("make", [lambda s: s, dirty], ids=["clean", "dirty"])
    def test_stream_bank_matches_batch(self, hourly_kpi, make):
        series = make(hourly_kpi)
        configs = configs_for(series)
        reference = serial_reference(series, configs)

        bank = StreamBank(configs)
        rows = np.vstack([bank.extract_point(v) for v in series.values])
        assert rows.shape == reference.shape

        # Identical NaN masks everywhere: warm-up windows and dirty
        # points invalidate exactly the same cells.
        np.testing.assert_array_equal(
            np.isnan(rows), np.isnan(reference), err_msg="NaN masks differ"
        )
        np.testing.assert_allclose(
            rows, reference, rtol=0, atol=STREAM_ATOL, equal_nan=True
        )

        # Shared-kernel families must agree exactly, not just closely.
        for config in configs:
            family = config.detector.family()
            kind = family[0] if family else config.detector.kind
            if kind in EXACT_STREAM_FAMILIES:
                np.testing.assert_array_equal(
                    rows[:, config.index],
                    reference[:, config.index],
                    err_msg=f"stream != batch for shared-kernel {config.name}",
                )

    def test_bank_checkpoints_are_per_config(self, hourly_kpi):
        """A fused bank snapshot decomposes into one dict per config and
        restores into a fresh bank mid-stream."""
        configs = configs_for(hourly_kpi)
        bank = StreamBank(configs)
        half = len(hourly_kpi) // 2
        for value in hourly_kpi.values[:half]:
            bank.extract_point(value)
        states = bank.snapshots()
        assert len(states) == len(configs)
        assert all(isinstance(state, dict) for state in states)

        restored = StreamBank(configs)
        restored.restore(states)
        for value in hourly_kpi.values[half:]:
            np.testing.assert_array_equal(
                restored.extract_point(value), bank.extract_point(value)
            )


class TestRollingStdOffsets:
    """The catastrophic-cancellation fix: the cumsum fast path must
    agree with the strided fallback at offsets where the uncentred
    sum-of-squares formula lost the entire variance."""

    @pytest.mark.parametrize("offset", [0.0, 1e4, 1e6, 1e8, 1e9])
    @pytest.mark.parametrize("window", [5, 24])
    def test_fast_path_matches_strided_fallback(self, rng, offset, window):
        values = offset + rng.normal(0.0, 3.0, size=400)
        fast = rolling_std(values, window)

        # Force the strided fallback by breaking the all-finite check
        # on a copy, then compare the unaffected region.
        dirty_values = values.copy()
        dirty_values[0] = np.nan
        slow = rolling_std(dirty_values, window)
        start = window + 1  # first window untouched by the NaN
        assert np.isfinite(fast[window:]).all()
        np.testing.assert_allclose(
            fast[start:], slow[start:], rtol=1e-6, atol=1e-9
        )
        # The spread is ~3.0; a cancelled variance would collapse the
        # std toward 0 (the pre-fix failure at 1e8+).
        assert fast[window:].mean() > 1.0

    def test_zero_variance_is_exactly_zero(self):
        values = np.full(50, 1e9)
        out = rolling_std(values, 10)
        np.testing.assert_array_equal(out[10:], 0.0)
        assert np.isnan(out[:10]).all()


# ----------------------------------------------------------------------
# Process-backend lifecycle. The fake evaluators live at module level so
# the fork-based workers can unpickle them by qualified name.
# ----------------------------------------------------------------------
class _PidEvaluator(FamilyEvaluator):
    """Returns the executing worker's PID as a constant column."""

    kind = "pid"

    def __init__(self, index: int):
        super().__init__([DetectorConfig(index, SimpleThreshold())])

    def evaluate(self, series):
        return np.full((len(series), 1), float(os.getpid()))


class _RaiseEvaluator(FamilyEvaluator):
    """Raises inside the worker (an ordinary evaluator failure)."""

    kind = "raise"

    def __init__(self):
        super().__init__([DetectorConfig(0, SimpleThreshold())])

    def evaluate(self, series):
        raise ValueError("injected task failure")


class _KillOnceEvaluator(FamilyEvaluator):
    """Kills its worker process the first time it runs; the sentinel
    file makes the resubmitted attempt succeed."""

    kind = "kill"

    def __init__(self, sentinel: str):
        super().__init__([DetectorConfig(0, SimpleThreshold())])
        self.sentinel = sentinel

    def evaluate(self, series):
        if not os.path.exists(self.sentinel):
            with open(self.sentinel, "w"):
                pass
            os._exit(17)
        return np.zeros((len(series), 1))


def tiny_series() -> TimeSeries:
    return TimeSeries(
        values=np.arange(32, dtype=float), interval=60, name="tiny"
    )


class TestPersistentPool:
    def test_pool_is_reused_across_run_tasks_calls(self):
        """One fork, many extractions: the acceptance criterion that no
        call pays a per-call pool fork."""
        backend = ProcessBackend(workers=2)
        series = tiny_series()
        evaluators = [_PidEvaluator(0), _PidEvaluator(1), _PidEvaluator(2)]
        try:
            first = {
                int(columns[0, 0])
                for _, columns in backend.run_tasks(evaluators, series)
            }
            pool_after_first = backend._resources.pool
            assert pool_after_first is not None
            # The pool's workers, read once: the fork context starts
            # all of them on first submit, and a re-forked pool would
            # bring new pids.
            workers = set(pool_after_first._processes)
            assert workers and os.getpid() not in workers
            second = {
                int(columns[0, 0])
                for _, columns in backend.run_tasks(evaluators, series)
            }
            # Same executor object — and both calls really ran in its
            # workers, not in the parent or a silently re-forked pool.
            # Which worker takes which evaluator is up to scheduling.
            assert backend._resources.pool is pool_after_first
            assert first <= workers
            assert second <= workers
            assert os.getpid() not in first | second
        finally:
            backend.close()

    def test_segment_is_republished_per_series(self):
        """Each call gets a fresh segment; the previous one is gone."""
        backend = ProcessBackend(workers=2)
        pair = [_PidEvaluator(0), _PidEvaluator(1)]
        try:
            list(backend.run_tasks(pair, tiny_series()))
            first_name = backend._resources.shm.name
            other = TimeSeries(
                values=np.arange(16, dtype=float), interval=60, name="other"
            )
            list(backend.run_tasks(pair, other))
            assert backend._resources.shm.name != first_name
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=first_name)
        finally:
            backend.close()

    def test_refork_once_after_worker_death(self, tmp_path):
        backend = ProcessBackend(workers=2)
        series = tiny_series()
        sentinel = tmp_path / "killed-once"
        evaluators = [
            _PidEvaluator(0), _KillOnceEvaluator(str(sentinel)), _PidEvaluator(2)
        ]
        try:
            results = list(backend.run_tasks(evaluators, series))
            delivered = sorted(
                i for evaluator, _ in results for i in evaluator.indices
            )
            # Every evaluator's result arrives exactly once despite the
            # mid-flight worker death, served by the re-forked pool.
            assert delivered == [0, 0, 2]
            assert sentinel.exists()
        finally:
            backend.close()

    def test_task_exception_propagates_without_orphaning_segment(self):
        """A worker-raised exception abandons the result
        generator mid-iteration; close() must still unlink the shared
        segment (pre-fix, the generator owned it and leaked)."""
        backend = ProcessBackend(workers=2)
        series = tiny_series()
        generator = backend.run_tasks([_RaiseEvaluator(), _PidEvaluator(1)], series)
        with pytest.raises(ValueError, match="injected task failure"):
            for _ in generator:
                pass
        name = backend._resources.shm.name
        # Owned by the backend, so it survives the dead generator...
        probe = shared_memory.SharedMemory(name=name)
        probe.close()
        del generator
        backend.close()
        # ...and close() unlinks it: nothing left to attach to.
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_abandoned_generator_then_gc_releases_segment(self):
        """Dropping every reference (no explicit close) must also free
        the segment, via the weakref finalizer."""
        backend = ProcessBackend(workers=2)
        series = tiny_series()
        generator = backend.run_tasks([_PidEvaluator(0), _PidEvaluator(1)], series)
        next(generator)  # partially consumed, then abandoned
        name = backend._resources.shm.name
        del generator
        del backend
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_close_is_idempotent_and_backend_recovers(self):
        backend = ProcessBackend(workers=2)
        series = tiny_series()
        try:
            pair = [_PidEvaluator(0), _PidEvaluator(1)]
            list(backend.run_tasks(pair, series))
            backend.close()
            backend.close()
            # Usable again after close: resources are re-acquired.
            results = list(backend.run_tasks(pair, series))
            assert len(results) == 2
        finally:
            backend.close()
