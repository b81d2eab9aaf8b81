"""Hand-computed severity checks for the simple detector families."""

import numpy as np
import pytest

from repro.detectors import (
    ARIMA,
    Diff,
    DetectorError,
    EWMA,
    MAOfDiff,
    SimpleMA,
    SimpleThreshold,
    StreamBank,
    WeightedMA,
    build_configs,
    rolling_mean,
    rolling_std,
)
from repro.timeseries import TimeSeries


def ts(values, interval=60):
    return TimeSeries(values=np.asarray(values, dtype=float), interval=interval)


class TestRollingHelpers:
    def test_rolling_mean_excludes_current(self):
        out = rolling_mean(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        assert np.isnan(out[:2]).all()
        assert out[2] == 1.5  # mean(1, 2)
        assert out[3] == 2.5  # mean(2, 3)

    def test_rolling_std_matches_numpy(self):
        values = np.arange(10, dtype=float) ** 1.5
        out = rolling_std(values, 4)
        for t in range(4, 10):
            assert out[t] == values[t - 4: t].std()

    def test_rejects_bad_window(self):
        with pytest.raises(DetectorError):
            rolling_mean(np.zeros(5), 0)
        with pytest.raises(DetectorError):
            rolling_std(np.zeros(5), 1)


class TestSimpleThreshold:
    def test_severity_is_value(self):
        detector = SimpleThreshold()
        np.testing.assert_array_equal(
            detector.severities(ts([1.0, 5.0, 2.0])), [1.0, 5.0, 2.0]
        )

    def test_no_warmup(self):
        assert SimpleThreshold().warmup() == 0

    def test_feature_name(self):
        assert SimpleThreshold().feature_name == "simple threshold"


class TestDiff:
    def test_last_slot(self):
        detector = Diff("last-slot", 1)
        out = detector.severities(ts([10.0, 13.0, 9.0]))
        assert np.isnan(out[0])
        assert out[1] == pytest.approx(3.0)
        assert out[2] == pytest.approx(4.0)

    def test_longer_lag(self):
        detector = Diff("last-day", 3)
        out = detector.severities(ts([1.0, 2.0, 3.0, 5.0, 2.0]))
        assert np.isnan(out[:3]).all()
        assert out[3] == pytest.approx(4.0)
        assert out[4] == pytest.approx(0.0)

    def test_rejects_unknown_lag_name(self):
        with pytest.raises(DetectorError, match="lag_name"):
            Diff("yesterday", 1)

    def test_rejects_nonpositive_lag(self):
        with pytest.raises(DetectorError):
            Diff("last-slot", 0)

    def test_feature_name_includes_lag(self):
        assert Diff("last-week", 7).feature_name == "diff(lag=last-week)"


class TestSimpleMA:
    def test_severity_is_abs_residual_from_window_mean(self):
        detector = SimpleMA(window=3)
        out = detector.severities(ts([1.0, 2.0, 3.0, 10.0, 2.0]))
        assert np.isnan(out[:3]).all()
        assert out[3] == pytest.approx(8.0)   # |10 - mean(1,2,3)|
        assert out[4] == pytest.approx(3.0)   # |2 - mean(2,3,10)|

    def test_constant_series_zero_severity(self):
        out = SimpleMA(window=5).severities(ts([7.0] * 10))
        assert np.nanmax(out) == 0.0


class TestWeightedMA:
    def test_recent_points_weigh_more(self):
        # Window (1, 2, 3): weights 1, 2, 3 -> forecast (1+4+9)/6 = 7/3.
        detector = WeightedMA(window=3)
        out = detector.severities(ts([1.0, 2.0, 3.0, 0.0]))
        assert out[3] == pytest.approx(7.0 / 3.0)

    def test_reacts_faster_than_simple_ma_after_shift(self):
        values = [10.0] * 20 + [20.0] * 20
        simple = SimpleMA(window=10).severities(ts(values))
        weighted = WeightedMA(window=10).severities(ts(values))
        # Several points after the shift, the weighted forecast has
        # caught up more, so its residual is smaller.
        assert weighted[25] < simple[25]


class TestMAOfDiff:
    def test_mean_of_recent_abs_diffs(self):
        detector = MAOfDiff(window=2)
        out = detector.severities(ts([1.0, 3.0, 2.0, 2.0]))
        assert np.isnan(out[:2]).all()
        assert out[2] == pytest.approx((2.0 + 1.0) / 2)
        assert out[3] == pytest.approx((1.0 + 0.0) / 2)

    def test_sustained_jitter_keeps_severity_high(self):
        jitter = [100.0, 200.0] * 20
        out = MAOfDiff(window=4).severities(ts(jitter))
        assert np.nanmin(out[10:]) == pytest.approx(100.0)


class TestEWMA:
    def test_alpha_one_equals_last_slot_diff(self):
        values = [5.0, 8.0, 2.0, 2.0]
        ewma = EWMA(alpha=1.0).severities(ts(values))
        diff = Diff("last-slot", 1).severities(ts(values))
        np.testing.assert_allclose(ewma[1:], diff[1:])

    def test_hand_computed_recursion(self):
        # pred1 = v0 = 10; pred2 = .5*20 + .5*10 = 15
        out = EWMA(alpha=0.5).severities(ts([10.0, 20.0, 10.0]))
        assert out[1] == pytest.approx(10.0)
        assert out[2] == pytest.approx(5.0)

    def test_alpha_bounds(self):
        with pytest.raises(DetectorError):
            EWMA(alpha=0.0)
        with pytest.raises(DetectorError):
            EWMA(alpha=1.5)

    def test_small_alpha_remembers_history(self):
        values = [10.0] * 50 + [20.0] * 5
        fast = EWMA(alpha=0.9).severities(ts(values))
        slow = EWMA(alpha=0.1).severities(ts(values))
        # After a few shifted points the fast EWMA has adapted; the slow
        # one still flags them.
        assert slow[54] > fast[54]


class TestStreamsMatchBatch:
    @pytest.mark.parametrize(
        "detector",
        [
            SimpleThreshold(),
            Diff("last-slot", 1),
            Diff("last-day", 5),
            SimpleMA(4),
            WeightedMA(4),
            MAOfDiff(3),
            EWMA(0.3),
        ],
        ids=lambda d: d.feature_name,
    )
    def test_stream_equals_batch(self, detector, rng):
        values = rng.normal(100.0, 10.0, size=60)
        series = ts(values)
        batch = detector.severities(series)
        stream = detector.stream()
        online = np.array([stream.update(v) for v in values])
        np.testing.assert_array_equal(online, batch)


class TestInfiniteValuesAreMissing:
    """±inf enters the detectors as a missing point, in the batch mode
    (``Detector._validate``) and at the stream bank's entry alike."""

    DETECTORS = [
        SimpleThreshold(),
        Diff("last-slot", 1),
        SimpleMA(4),
        WeightedMA(4),
        MAOfDiff(3),
        EWMA(0.3),
        ARIMA(fit_points=100),
    ]

    def test_batch_and_stream_bank_treat_inf_as_nan(self, rng):
        values = rng.normal(50.0, 5.0, size=150)
        values[40] = np.inf  # inside ARIMA's fit prefix
        values[120] = -np.inf
        missing = np.where(np.isinf(values), np.nan, values)
        configs = build_configs(self.DETECTORS)
        bank = StreamBank(configs)
        rows = np.vstack([bank.extract_point(v) for v in values])
        for config in configs:
            batch = config.detector.severities(ts(values))
            np.testing.assert_array_equal(
                batch, config.detector.severities(ts(missing))
            )
            np.testing.assert_array_equal(rows[:, config.index], batch)

    def test_validate_leaves_the_caller_array_alone(self):
        values = np.array([1.0, np.inf, -np.inf, 2.0])
        out = SimpleThreshold().severities(ts(values))
        np.testing.assert_array_equal(out, [1.0, np.nan, np.nan, 2.0])
        assert np.isinf(values[1:3]).all()
