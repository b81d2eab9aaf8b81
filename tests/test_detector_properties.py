"""Property-based tests over the whole detector bank.

Three invariants every configuration must satisfy (§4.3):

1. **Causality** — the severity of point t must not change when future
   points are appended (online detection requirement, §4.3.2).
2. **Stream/batch agreement** — the online stream must produce exactly
   the batch severities.
3. **Severity model** — severities are non-negative where defined, and
   the warm-up prefix is NaN.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detectors import (
    ARIMA,
    Diff,
    EWMA,
    HistoricalAverage,
    HistoricalMad,
    HoltWinters,
    MAOfDiff,
    SVDDetector,
    SimpleMA,
    SimpleThreshold,
    TSD,
    TSDMad,
    WaveletDetector,
    WeightedMA,
)
from repro.timeseries import TimeSeries

#: Small-window instances of all 14 detector kinds, sized so that a
#: ~60-point series exercises them past warm-up. ARIMA is excluded from
#: the quick bank (needs >= 50 fit points) and tested separately.
QUICK_BANK = [
    SimpleThreshold(),
    Diff("last-slot", 1),
    Diff("last-day", 6),
    Diff("last-week", 12),
    SimpleMA(5),
    WeightedMA(5),
    MAOfDiff(4),
    EWMA(0.3),
    TSD(2, 12),
    TSDMad(2, 12),
    HistoricalAverage(1, 2),  # 2-point "days": 14-point warm-up
    HistoricalMad(1, 2),
    HoltWinters(0.4, 0.4, 0.4, 6),
    SVDDetector(5, 3),
    WaveletDetector(1, "high", 12),
]

BANK_IDS = [d.feature_name for d in QUICK_BANK]


def ts(values):
    return TimeSeries(values=np.asarray(values, dtype=float), interval=60)


values_strategy = st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    min_size=40,
    max_size=70,
)


@pytest.mark.parametrize("detector", QUICK_BANK, ids=BANK_IDS)
class TestBankInvariants:
    @given(values=values_strategy)
    @settings(max_examples=15, deadline=None)
    def test_causality(self, detector, values):
        """Appending future data never changes past severities."""
        full = detector.severities(ts(values + [9e3, -9e3, 0.0]))
        prefix = detector.severities(ts(values))
        np.testing.assert_array_equal(
            full[: len(values)], prefix, err_msg=detector.feature_name
        )

    @given(values=values_strategy)
    @settings(max_examples=10, deadline=None)
    def test_severities_non_negative(self, detector, values):
        out = detector.severities(ts(values))
        finite = out[np.isfinite(out)]
        if detector.feature_name == "simple threshold":
            return  # raw value can be negative by design
        assert (finite >= 0).all(), detector.feature_name

    @given(values=values_strategy)
    @settings(max_examples=10, deadline=None)
    def test_warmup_prefix_is_nan(self, detector, values):
        out = detector.severities(ts(values))
        warmup = min(detector.warmup(), len(values))
        assert np.isnan(out[:warmup]).all(), detector.feature_name

    @given(values=values_strategy)
    @settings(max_examples=5, deadline=None)
    def test_output_length(self, detector, values):
        assert len(detector.severities(ts(values))) == len(values)


@pytest.mark.parametrize("detector", QUICK_BANK, ids=BANK_IDS)
def test_stream_matches_batch(detector, rng):
    values = rng.normal(100.0, 15.0, size=60)
    batch = detector.severities(ts(values))
    stream = detector.stream()
    online = np.array([stream.update(v) for v in values])
    np.testing.assert_array_equal(online, batch, err_msg=detector.feature_name)


def test_arima_causality(rng):
    values = rng.normal(50.0, 5.0, size=150)
    detector = ARIMA(fit_points=100)
    prefix = detector.severities(ts(values))
    extended = detector.severities(ts(np.concatenate([values, [500.0, 0.0]])))
    np.testing.assert_array_equal(extended[:150], prefix)


def test_arima_stream_matches_batch(rng):
    values = rng.normal(50.0, 5.0, size=120)
    detector = ARIMA(fit_points=100)
    batch = detector.severities(ts(values))
    stream = detector.stream()
    online = np.array([stream.update(v) for v in values])
    np.testing.assert_array_equal(online, batch)


def test_feature_names_unique_across_bank():
    names = [d.feature_name for d in QUICK_BANK]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("detector", QUICK_BANK, ids=BANK_IDS)
def test_constant_series_severity_is_zero_or_nan(detector):
    """A perfectly flat series contains no anomalies: every defined
    severity must be 0 (simple threshold reports the constant itself)."""
    out = detector.severities(ts([42.0] * 60))
    finite = out[np.isfinite(out)]
    if detector.feature_name == "simple threshold":
        assert (finite == 42.0).all()
    else:
        assert np.allclose(finite, 0.0, atol=1e-9), detector.feature_name
