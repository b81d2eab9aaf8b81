"""Brutlag and CUSUM — the "emerging detectors" of §5.2 — plus the
dirty-data fixes for the moving-average family."""

import numpy as np
import pytest

from repro.detectors import (
    Brutlag,
    CUSUM,
    DetectorError,
    EWMA,
    MAOfDiff,
    SHESD,
    SimpleMA,
    extended_detectors,
    rolling_mean,
    rolling_std,
)
from repro.timeseries import TimeSeries


def ts(values, interval=3600):
    return TimeSeries(values=np.asarray(values, dtype=float), interval=interval)


def seasonal_series(rng, periods=15, period=24, noise=0.5):
    pattern = 100.0 + 20.0 * np.sin(
        np.linspace(0, 2 * np.pi, period, endpoint=False)
    )
    return np.tile(pattern, periods) + rng.normal(0, noise, periods * period)


class TestBrutlag:
    def test_parameter_validation(self):
        with pytest.raises(DetectorError):
            Brutlag(0.0, 0.4, 0.4, 24)
        with pytest.raises(DetectorError):
            Brutlag(0.4, 0.4, 0.4, 1)

    def test_warmup_is_two_seasons(self, rng):
        values = seasonal_series(rng, periods=4)
        out = Brutlag(0.5, 0.4, 0.5, 24).severities(ts(values))
        assert np.isnan(out[:48]).all()
        assert np.isfinite(out[48:]).all()

    def test_severity_is_band_relative(self, rng):
        """A spike of k band-widths scores ~k regardless of KPI scale."""
        values = seasonal_series(rng)
        spiked = values.copy()
        spiked[300] += 60.0
        detector = Brutlag(0.5, 0.3, 0.5, 24)
        base = detector.severities(ts(values))
        hit = detector.severities(ts(spiked))
        assert hit[300] > 5 * np.nanmedian(base)

    def test_scale_free(self, rng):
        """Band-relative severities barely change when the KPI scales."""
        values = seasonal_series(rng)
        detector = Brutlag(0.5, 0.3, 0.5, 24)
        small = detector.severities(ts(values))
        large = detector.severities(ts(values * 100.0))
        np.testing.assert_allclose(small, large, equal_nan=True, rtol=1e-6)

    def test_stream_matches_batch(self, rng):
        values = seasonal_series(rng, periods=6)
        detector = Brutlag(0.4, 0.4, 0.6, 24)
        batch = detector.severities(ts(values))
        stream = detector.stream()
        online = np.array([stream.update(v) for v in values])
        np.testing.assert_array_equal(online, batch)

    def test_missing_points_freeze_state(self, rng):
        values = seasonal_series(rng, periods=6)
        values[90] = np.nan
        out = Brutlag(0.4, 0.4, 0.6, 24).severities(ts(values))
        assert np.isnan(out[90])
        assert np.isfinite(out[91])

    def test_causality(self, rng):
        values = seasonal_series(rng, periods=5)
        detector = Brutlag(0.4, 0.4, 0.6, 24)
        prefix = detector.severities(ts(values))
        extended = detector.severities(
            ts(np.concatenate([values, [1e6, 0.0]]))
        )
        np.testing.assert_array_equal(extended[: len(values)], prefix)


class TestCUSUM:
    def test_parameter_validation(self):
        with pytest.raises(DetectorError):
            CUSUM(1, 0.5)
        with pytest.raises(DetectorError):
            CUSUM(20, -0.1)

    def test_sustained_shift_accumulates(self, rng):
        values = np.concatenate(
            [rng.normal(100, 1.0, 300), rng.normal(103, 1.0, 50)]
        )
        out = CUSUM(50, 0.5).severities(ts(values))
        # The shift accumulates: severity keeps growing over the run.
        assert out[340] > out[310] > np.nanmedian(out[:300])

    def test_isolated_wiggle_decays(self, rng):
        values = rng.normal(100, 1.0, 400)
        values[200] += 5.0
        out = CUSUM(30, 0.5).severities(ts(values))
        # A single outlier bumps the statistic, which then decays.
        assert out[200] > out[215]

    def test_two_sided(self, rng):
        values = np.concatenate(
            [rng.normal(100, 1.0, 300), rng.normal(96, 1.0, 40)]
        )
        out = CUSUM(50, 0.5).severities(ts(values))
        assert out[335] > 3.0  # downward shift detected too

    def test_stream_matches_batch(self, rng):
        values = rng.normal(100, 5.0, 300)
        detector = CUSUM(20, 0.25)
        batch = detector.severities(ts(values))
        stream = detector.stream()
        online = np.array([stream.update(v) for v in values])
        np.testing.assert_array_equal(online, batch)

    def test_stream_matches_batch_with_missing(self, rng):
        values = rng.normal(100, 5.0, 300)
        values[rng.choice(300, 20, replace=False)] = np.nan
        detector = CUSUM(20, 0.25)
        batch = detector.severities(ts(values))
        stream = detector.stream()
        online = np.array([stream.update(v) for v in values])
        np.testing.assert_array_equal(online, batch)

    def test_causality(self, rng):
        values = rng.normal(100, 5.0, 200)
        detector = CUSUM(20, 0.5)
        prefix = detector.severities(ts(values))
        extended = detector.severities(ts(np.concatenate([values, [1e5]])))
        np.testing.assert_array_equal(extended[:200], prefix)


def flat_tail(seed):
    """600 points of N(100, 7) whose last 300 are flat but for one bump:
    the trailing std is 0 there, so the warm-up scale floor binds."""
    values = np.random.default_rng(seed).normal(100.0, 7.0, 600)
    values[300:] = 100.0
    values[450] = 103.0
    return values


@pytest.mark.parametrize(
    "detector",
    [CUSUM(20, 0.25), CUSUM(50, 0.25), SHESD(1, 24)],
    ids=["cusum-20", "cusum-50", "shesd-1w"],
)
def test_bound_scale_floor_is_the_same_in_both_modes(detector):
    """Batch and stream sum the warm-up prefix in the same order, so a
    floor that binds gives the same severities bit for bit (a pairwise
    batch mean differed from the stream's running sum in the last ulp)."""
    for seed in range(50):
        values = flat_tail(seed)
        batch = detector.severities(ts(values))
        assert np.nanmax(batch) > 1e3  # the bump over the floor
        stream = detector.stream()
        online = np.array([stream.update(v) for v in values])
        np.testing.assert_array_equal(online, batch, err_msg=f"seed {seed}")


class TestExtendedRegistry:
    def test_counts_and_kinds(self):
        detectors = extended_detectors(600)
        kinds = {d.kind for d in detectors}
        assert kinds == {"brutlag", "cusum", "s-h-esd"}
        assert len(detectors) == 17  # 9 Brutlag + 6 CUSUM + 2 S-H-ESD

    def test_names_unique_and_disjoint_from_table3(self):
        from repro.detectors import default_detectors

        base = {d.feature_name for d in default_detectors(600)}
        extra = {d.feature_name for d in extended_detectors(600)}
        assert len(extra) == 17
        assert not base & extra

    def test_interval_validated(self):
        with pytest.raises(ValueError):
            extended_detectors(7 * 60)


class TestDirtyDataMAFamily:
    """The NaN-localisation fixes: a missing point must only affect
    windows containing it, for both batch and stream."""

    @pytest.mark.parametrize(
        "detector", [SimpleMA(5), MAOfDiff(4), EWMA(0.4)],
        ids=lambda d: d.feature_name,
    )
    def test_batch_recovers_after_missing_point(self, detector, rng):
        values = rng.normal(100, 5.0, 100)
        values[40] = np.nan
        out = detector.severities(ts(values))
        assert np.isnan(out[40])
        # Severities become finite again once the NaN leaves the window.
        assert np.isfinite(out[60:]).all()

    @pytest.mark.parametrize(
        "detector", [SimpleMA(5), MAOfDiff(4), EWMA(0.4)],
        ids=lambda d: d.feature_name,
    )
    def test_stream_matches_batch_with_missing(self, detector, rng):
        values = rng.normal(100, 5.0, 120)
        values[rng.choice(120, 10, replace=False)] = np.nan
        batch = detector.severities(ts(values))
        stream = detector.stream()
        online = np.array([stream.update(v) for v in values])
        np.testing.assert_array_equal(online, batch)

    def test_rolling_helpers_localize_nan(self):
        values = np.arange(20, dtype=float)
        values[8] = np.nan
        mean = rolling_mean(values, 3)
        std = rolling_std(values, 3)
        # Windows containing index 8: outputs 9, 10, 11.
        assert np.isnan(mean[9:12]).all()
        assert np.isfinite(mean[12:]).all()
        assert np.isnan(std[9:12]).all()
        assert np.isfinite(std[12:]).all()


class TestSHESD:
    def _seasonal(self, rng, periods=10, period=14):
        pattern = 50.0 + 10.0 * np.sin(
            np.linspace(0, 2 * np.pi, period, endpoint=False)
        )
        return np.tile(pattern, periods) + rng.normal(0, 0.5, periods * period)

    def test_parameter_validation(self):
        from repro.detectors import SHESD

        with pytest.raises(DetectorError):
            SHESD(0, 14)
        with pytest.raises(DetectorError):
            SHESD(2, 0)

    def test_warmup_is_two_windows(self, rng):
        from repro.detectors import SHESD

        values = self._seasonal(rng)
        out = SHESD(2, 14).severities(ts(values))
        assert np.isnan(out[:56]).all()
        assert np.isfinite(out[56:]).all()

    def test_flags_spike_in_mad_units(self, rng):
        from repro.detectors import SHESD

        values = self._seasonal(rng)
        values[100] += 20.0
        out = SHESD(2, 14).severities(ts(values))
        assert out[100] > 10.0  # ~20 / (1.4826 * mad of ~0.5-noise)

    def test_robust_to_past_anomalies_in_window(self, rng):
        """The hybrid (median/MAD) part: a huge past anomaly inside the
        window barely moves the scale estimate."""
        from repro.detectors import SHESD

        values = self._seasonal(rng)
        polluted = values.copy()
        polluted[80] += 500.0
        detector = SHESD(2, 14)
        clean_out = detector.severities(ts(values))
        polluted_out = detector.severities(ts(polluted))
        # Severities 1+ window after the pollution are nearly unchanged.
        tail = slice(120, 140)
        np.testing.assert_allclose(
            polluted_out[tail], clean_out[tail], rtol=0.5
        )

    def test_stream_matches_batch(self, rng):
        from repro.detectors import SHESD

        values = self._seasonal(rng)
        detector = SHESD(2, 14)
        batch = detector.severities(ts(values))
        stream = detector.stream()
        online = np.array([stream.update(v) for v in values])
        np.testing.assert_array_equal(online, batch)

    def test_stream_matches_batch_with_missing(self, rng):
        from repro.detectors import SHESD

        values = self._seasonal(rng)
        values[rng.choice(len(values), 10, replace=False)] = np.nan
        detector = SHESD(2, 14)
        batch = detector.severities(ts(values))
        stream = detector.stream()
        online = np.array([stream.update(v) for v in values])
        np.testing.assert_array_equal(online, batch)

    def test_causality(self, rng):
        from repro.detectors import SHESD

        values = self._seasonal(rng)
        detector = SHESD(2, 14)
        prefix = detector.severities(ts(values))
        extended = detector.severities(ts(np.concatenate([values, [1e6]])))
        np.testing.assert_array_equal(extended[: len(values)], prefix)
