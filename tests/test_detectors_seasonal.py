"""TSD / TSD MAD / historical average / historical MAD tests.

These detectors compare each point with the same phase in previous
periods, so the tests build series with exactly known periodic
structure (tiny periods keep the arithmetic checkable by hand).
"""

import numpy as np
import pytest

from repro.detectors import (
    CUSUM,
    SHESD,
    DetectorError,
    HistoricalAverage,
    HistoricalMad,
    TSD,
    TSDMad,
    WaveletDetector,
)
from repro.timeseries import TimeSeries

#: The least normal float64: a warm-up prefix holding it (and zeros)
#: has a mean magnitude whose 1e-6 is subnormal.
TINY = 2.2250738585072014e-308


def ts(values, interval=60):
    return TimeSeries(values=np.asarray(values, dtype=float), interval=interval)


class TestTSD:
    def test_residual_from_phase_mean(self):
        # "Week" of 3 points, window 2 weeks.
        values = [1.0, 2.0, 3.0,   3.0, 4.0, 5.0,   2.0, 9.0, 4.0]
        detector = TSD(window_weeks=2, points_per_week=3)
        out = detector.severities(ts(values))
        assert np.isnan(out[:6]).all()
        assert out[6] == pytest.approx(abs(2.0 - (1.0 + 3.0) / 2))
        assert out[7] == pytest.approx(abs(9.0 - (2.0 + 4.0) / 2))
        assert out[8] == pytest.approx(abs(4.0 - (3.0 + 5.0) / 2))

    def test_warmup_length(self):
        assert TSD(3, 10).warmup() == 30

    def test_periodic_series_scores_zero(self):
        pattern = [5.0, 8.0, 2.0, 6.0]
        values = pattern * 6
        out = TSD(window_weeks=2, points_per_week=4).severities(ts(values))
        assert np.nanmax(out) == pytest.approx(0.0)

    def test_anomaly_scores_high(self):
        pattern = [5.0, 8.0, 2.0, 6.0]
        values = np.array(pattern * 6, dtype=float)
        values[18] += 50.0
        out = TSD(window_weeks=2, points_per_week=4).severities(ts(values))
        assert out[18] == pytest.approx(50.0)

    def test_parameter_validation(self):
        with pytest.raises(DetectorError):
            TSD(0, 10)
        with pytest.raises(DetectorError):
            TSD(2, 0)


class TestTSDMad:
    def test_median_baseline_resists_past_anomaly(self):
        # Phase history (10, 10, 100): mean is polluted, median is not.
        week = [10.0, 0.0, 0.0]
        values = np.array(week * 4, dtype=float)
        values[3] = 100.0  # an old anomaly at phase 0 in week 2
        mean_detector = TSD(window_weeks=3, points_per_week=3)
        median_detector = TSDMad(window_weeks=3, points_per_week=3)
        mean_out = mean_detector.severities(ts(values))
        median_out = median_detector.severities(ts(values))
        # Point 9 (phase 0, value 10) is normal; the contaminated mean
        # baseline flags it, the median baseline does not.
        assert median_out[9] == pytest.approx(0.0)
        assert mean_out[9] == pytest.approx(30.0)

    def test_equals_tsd_for_window_one(self, rng):
        values = rng.normal(50.0, 5.0, size=30)
        a = TSD(1, 5).severities(ts(values))
        b = TSDMad(1, 5).severities(ts(values))
        np.testing.assert_allclose(a, b, equal_nan=True)


class TestHistoricalAverage:
    def _daily(self, daily_values):
        """Build a series from consecutive 'days' of 2 points each."""
        return ts(np.concatenate(daily_values))

    def test_zscore_semantics(self):
        # 7 days of history per phase needed for win=1 week, ppd=2.
        days = [[10.0, 20.0]] * 7 + [[16.0, 20.0]]
        values = np.concatenate(days)
        # Add variation so the std is nonzero: perturb day values.
        values[::2] += np.arange(8.0)  # phase-0 values: 10..17
        detector = HistoricalAverage(window_weeks=1, points_per_day=2)
        out = detector.severities(ts(values))
        phase0_history = values[0:14:2]
        expected = abs(values[14] - phase0_history.mean()) / phase0_history.std()
        assert out[14] == pytest.approx(expected)

    def test_warmup(self):
        assert HistoricalAverage(2, 24).warmup() == 14 * 24

    def test_constant_history_uses_floor_not_inf(self):
        values = [10.0, 20.0] * 7 + [15.0, 20.0]
        out = HistoricalAverage(1, 2).severities(ts(values))
        assert np.isfinite(out[14])
        assert out[14] > 1e3  # tiny floor -> very large severity

    @pytest.mark.parametrize("detector, values", [
        pytest.param(
            HistoricalAverage(1, 2), [0.0, TINY] + [0.0] * 12 + [9e3, -9e3],
            id="HistoricalAverage",
        ),
        pytest.param(
            HistoricalMad(1, 2), [0.0, TINY] + [0.0] * 12 + [9e3, -9e3],
            id="HistoricalMad",
        ),
        pytest.param(
            CUSUM(4, 0.5), [TINY] + [0.0] * 7 + [9e3, -9e3], id="CUSUM"
        ),
        pytest.param(
            SHESD(1, 2), [0.0, 0.0, TINY] + [0.0] * 5 + [9e3, -9e3],
            id="SHESD",
        ),
        pytest.param(
            WaveletDetector(1, "high", 2), [TINY] + [0.0] * 7 + [9e3, 0.0],
            id="WaveletDetector",
        ),
    ])
    def test_subnormal_prefix_floor_does_not_overflow(self, detector, values):
        # A warm-up prefix of near-zero magnitude must not shrink the
        # scale floor below the all-zero prefix's (MIN_SCALE_FLOOR):
        # over a zero-spread window, 9000 / 1e-315 overflows.
        out = detector.severities(ts(values))
        stream = detector.stream()
        streamed = [stream.update(v) for v in values]
        warm = detector.warmup()
        assert np.isfinite(out[warm:]).all()
        np.testing.assert_array_equal(streamed, out)

    def test_spike_scores_higher_than_normal(self, rng):
        base = np.tile(rng.normal(100.0, 3.0, size=4), 20)
        values = base + rng.normal(0, 1.0, size=80)
        values[70] += 60.0
        # 4-point "days", window 1 week = 7 days of history.
        out = HistoricalAverage(1, 4).severities(ts(values))
        normal = np.nanmedian(out)
        assert out[70] > 5 * normal


class TestHistoricalMad:
    def test_robust_to_outlier_history(self):
        # Phase-0 history: six 10s and one 1000 (an old anomaly).
        values = np.array([10.0, 5.0] * 7 + [12.0, 5.0])
        values[::2] += np.linspace(0, 1, 8)  # break exact ties
        values[6] = 1000.0
        mad_detector = HistoricalMad(1, 2)
        avg_detector = HistoricalAverage(1, 2)
        mad_out = mad_detector.severities(ts(values))
        avg_out = avg_detector.severities(ts(values))
        # The outlier inflates the average detector's std so much that
        # it underweights the current deviation relative to MAD.
        assert np.isfinite(mad_out[14]) and np.isfinite(avg_out[14])
        assert mad_out[14] > avg_out[14]

    def test_missing_history_ignored(self):
        values = np.array([10.0, 5.0] * 7 + [12.0, 5.0])
        values[::2] += np.linspace(0, 1, 8)
        clean = HistoricalMad(1, 2).severities(ts(values.copy()))
        values[2] = np.nan  # knock out one history point
        dirty = HistoricalMad(1, 2).severities(ts(values))
        assert np.isfinite(dirty[14])
        # Severity changes but stays in the same ballpark.
        assert dirty[14] == pytest.approx(clean[14], rel=2.0)

    def test_nan_current_point_gives_nan(self):
        values = np.array([10.0, 5.0] * 8)
        values[14] = np.nan
        out = HistoricalMad(1, 2).severities(ts(values))
        assert np.isnan(out[14])


class TestAllNaNHistory:
    """All-NaN same-phase histories give NaN baselines without numpy's
    RuntimeWarning (an error under the test config) and without
    touching the process-global warning filters."""

    @staticmethod
    def reference(stat, matrix):
        import warnings

        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            return stat(matrix, axis=1)

    @pytest.mark.parametrize("stat", [np.nanmean, np.nanmedian])
    def test_nan_row_stat_is_bit_identical(self, stat):
        from repro.detectors.base import nan_row_stat

        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(40, 5))
        matrix[rng.random(matrix.shape) < 0.3] = np.nan
        matrix[[0, 1, 7, 20, 21, 22, 39]] = np.nan
        matrix[5, 0] = np.inf
        expected = self.reference(stat, matrix)
        with np.errstate(invalid="ignore"):
            actual = nan_row_stat(stat, matrix)
        assert np.isnan(actual[[0, 1, 7, 20, 21, 22, 39]]).all()
        # Bit-identical wherever a value exists (numpy's own NaN for an
        # empty row may carry a sign bit; severities take abs()).
        observed = ~np.isnan(expected)
        np.testing.assert_array_equal(np.isnan(actual), ~observed)
        np.testing.assert_array_equal(
            actual[observed].view(np.int64), expected[observed].view(np.int64)
        )

    def test_nan_row_stat_sliding_view_left_intact(self):
        from repro.detectors.base import nan_row_stat

        values = np.array([np.nan] * 6 + [1.0, 4.0, 2.0, np.nan, 5.0])
        windows = np.lib.stride_tricks.sliding_window_view(values, 3)
        actual = nan_row_stat(np.nanmedian, windows)
        np.testing.assert_array_equal(
            actual, self.reference(np.nanmedian, windows)
        )
        assert np.isnan(values[:6]).all() and values[7] == 4.0

    @pytest.mark.parametrize("cls", [TSD, TSDMad])
    def test_missing_phase_history_batch_and_stream(self, cls):
        # A 4-point week whose phase 1 is missing in weeks 0 and 1: the
        # 2-week baseline for that phase in week 2 is all-NaN.
        values = [1.0, np.nan, 3.0, 4.0,  2.0, np.nan, 4.0, 5.0,
                  3.0, 7.0, 5.0, 6.0,  4.0, 8.0, 6.0, 7.0]
        detector = cls(window_weeks=2, points_per_week=4)
        batch = detector.severities(ts(values))
        stream = detector.stream()
        streamed = np.array([stream.update(v) for v in values])
        assert np.isnan(batch[9]) and np.isnan(streamed[9])
        assert batch[8] == pytest.approx(1.5)
        np.testing.assert_array_equal(batch, streamed)

    @pytest.mark.parametrize("cls", [HistoricalAverage, HistoricalMad])
    def test_all_nan_warm_up_batch_and_stream(self, cls):
        # A first week (7 days of 2 points) with no observed value: the
        # scale floor's prefix and the first histories are all-NaN.
        values = [np.nan] * 14 + [10.0, 20.0, 11.0, 19.0] * 5
        detector = cls(window_weeks=1, points_per_day=2)
        batch = detector.severities(ts(values))
        stream = detector.stream()
        streamed = np.array([stream.update(v) for v in values])
        assert np.isnan(batch[:16]).all()
        assert np.isfinite(batch[-6:]).all()
        np.testing.assert_array_equal(batch, streamed)

    def test_shesd_with_missing_weeks(self):
        from repro.detectors.shesd import SHESD

        values = np.arange(40, dtype=float) % 4 + 10.0
        values[4:13] = np.nan
        out = SHESD(window_weeks=1, points_per_week=4).severities(ts(values))
        assert out.shape == (40,)
        assert np.isnan(out[:8]).all()
