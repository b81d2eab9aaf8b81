"""Grid resampling tests."""

import warnings

import numpy as np
import pytest

from repro.timeseries import TimeSeries, TimeSeriesError, downsample, to_interval


def series(values, interval=60, labels=None):
    return TimeSeries(
        values=np.asarray(values, dtype=float),
        interval=interval,
        labels=None if labels is None else np.asarray(labels, dtype=np.int8),
        name="resample-kpi",
    )


class TestDownsample:
    def test_mean_aggregation(self):
        ts = series([1.0, 3.0, 5.0, 7.0])
        out = downsample(ts, 2)
        assert out.values.tolist() == [2.0, 6.0]
        assert out.interval == 120
        assert out.name == "resample-kpi"

    def test_max_preserves_spikes(self):
        ts = series([1.0, 100.0, 1.0, 1.0])
        assert downsample(ts, 2, aggregate="max").values.tolist() == [100.0, 1.0]

    def test_sum_aggregation(self):
        ts = series([1.0, 2.0, 3.0, 4.0])
        assert downsample(ts, 2, aggregate="sum").values.tolist() == [3.0, 7.0]

    def test_trailing_partial_block_dropped(self):
        ts = series([1.0, 2.0, 3.0, 4.0, 5.0])
        assert len(downsample(ts, 2)) == 2

    def test_labels_use_any_semantics(self):
        ts = series([0.0] * 6, labels=[0, 1, 0, 0, 0, 0])
        out = downsample(ts, 3)
        assert out.labels.tolist() == [1, 0]

    def test_missing_points_ignored_in_aggregate(self):
        ts = series([1.0, np.nan, 3.0, 5.0])
        out = downsample(ts, 2)
        assert out.values.tolist() == [1.0, 4.0]

    def test_all_missing_block_stays_missing(self):
        ts = series([np.nan, np.nan, 1.0, 3.0])
        out = downsample(ts, 2, aggregate="sum")
        assert np.isnan(out.values[0])
        assert out.values[1] == 4.0
        # Every aggregator, and no all-NaN RuntimeWarning escapes.
        expected = {"mean": 2.0, "max": 3.0, "min": 1.0, "median": 2.0, "sum": 4.0}
        for aggregate, value in expected.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                out = downsample(ts, 2, aggregate=aggregate)
            assert np.isnan(out.values[0])
            assert out.values[1] == value

    def test_factor_one_is_copy(self):
        ts = series([1.0, 2.0])
        out = downsample(ts, 1)
        np.testing.assert_array_equal(out.values, ts.values)
        out.values[0] = 99.0
        assert ts.values[0] == 1.0

    def test_validation(self):
        ts = series([1.0, 2.0])
        with pytest.raises(TimeSeriesError):
            downsample(ts, 0)
        with pytest.raises(TimeSeriesError):
            downsample(ts, 2, aggregate="mode")
        with pytest.raises(TimeSeriesError):
            downsample(ts, 5)


class TestToInterval:
    def test_exact_interval(self):
        ts = series(np.arange(60, dtype=float), interval=60)
        out = to_interval(ts, 600)
        assert out.interval == 600
        assert len(out) == 6

    def test_non_multiple_rejected(self):
        ts = series(np.arange(10, dtype=float), interval=60)
        with pytest.raises(TimeSeriesError, match="multiple"):
            to_interval(ts, 90)

    def test_paper_grid_to_default_grid(self):
        """The documented workflow: 1-minute paper data -> the 10-minute
        evaluation grid, preserving Table 1 statistics."""
        from repro.data import make_kpi
        from repro.data.datasets import PV_PROFILE
        from repro.timeseries import summarize

        fine = make_kpi(PV_PROFILE, weeks=2, paper_interval=True).series
        coarse = to_interval(fine, 600, aggregate="mean")
        assert coarse.interval == 600
        assert len(coarse) == len(fine) // 10
        fine_summary = summarize(fine)
        coarse_summary = summarize(coarse)
        # Aggregation smooths noise slightly but keeps the shape class.
        assert coarse_summary.cv == pytest.approx(fine_summary.cv, rel=0.2)
        # ANY-label semantics can only increase the anomaly fraction.
        assert coarse_summary.anomaly_fraction >= fine_summary.anomaly_fraction
