"""Bounded streaming buffers and stream checkpoints.

Three invariant families from the online-loop rework:

1. `_BufferedStream` caps its history at ``stream_memory()`` without
   breaking stream == batch for window-bounded detectors.
2. Every registered configuration keeps its stream buffers flat (the
   per-point memory does not grow with points seen) while still
   matching the batch severities exactly.
3. ``snapshot()`` / ``restore()`` resume a stream (and a whole
   StreamingDetector) bit-identically to a cold replay, including
   through a JSON round trip — the mechanism behind O(new points)
   retraining and restartable deployments.
4. A family's array ring of recent values (:class:`ValueRing`)
   snapshots as the ``deque`` entry it replaced, and a snapshot written
   while the rings were deques restores.
"""

import json
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from repro.core import FeatureExtractor, Opprentice, StreamingDetector
from repro.detectors import (
    ARIMA,
    CUSUM,
    EWMA,
    SHESD,
    TSD,
    Brutlag,
    Detector,
    Diff,
    HistoricalAverage,
    HistoricalMad,
    HoltWinters,
    MAOfDiff,
    STREAM_BUFFER_SLACK,
    SVDDetector,
    SimpleMA,
    SimpleThreshold,
    TSDMad,
    WaveletDetector,
    StreamBank,
    WeightedMA,
    build_configs,
    configs_for,
    extended_detectors,
    rolling_mean,
)
from repro.detectors.base import ValueRing, _BufferedStream, _encode_state
from repro.timeseries import TimeSeries

from test_opprentice import fast_forest, small_bank


def ts(values, interval=3600):
    return TimeSeries(values=np.asarray(values, dtype=float), interval=interval)


class _WindowedProbe(Detector):
    """A window-bounded detector with no stream override, so it
    exercises the generic `_BufferedStream` fallback."""

    kind = "windowed probe"

    def __init__(self, window: int):
        self.window = window

    def params(self):
        return {"window": self.window}

    def warmup(self):
        return self.window

    def severities(self, series):
        values = self._validate(series)
        return np.abs(values - rolling_mean(values, self.window))


class _UnboundedProbe(_WindowedProbe):
    """Same computation, but declares unbounded memory."""

    kind = "unbounded probe"

    def stream_memory(self):
        return None


class TestBufferedStreamCap:
    def test_cap_is_warmup_plus_slack(self):
        stream = _WindowedProbe(10).stream()
        assert isinstance(stream, _BufferedStream)
        assert stream.max_history == 10 + max(10, STREAM_BUFFER_SLACK)

    def test_cap_floor_allows_one_post_warmup_point(self):
        class _Tight(_WindowedProbe):
            def stream_memory(self):
                return 1  # far below warmup; the floor must win

        stream = _Tight(10).stream()
        assert stream.max_history == 11

    def test_buffer_is_bounded(self, rng):
        detector = _WindowedProbe(10)
        stream = detector.stream()
        for value in rng.normal(100.0, 5.0, size=300):
            stream.update(value)
        assert stream.buffered_points() == stream.max_history

    def test_stream_equals_batch_under_cap(self, rng):
        values = rng.normal(100.0, 5.0, size=300)
        values[rng.choice(300, size=20, replace=False)] = np.nan
        detector = _WindowedProbe(10)
        batch = detector.severities(ts(values))
        stream = detector.stream()
        online = np.array([stream.update(v) for v in values])
        np.testing.assert_array_equal(online, batch)

    def test_unbounded_memory_keeps_full_history(self, rng):
        stream = _UnboundedProbe(10).stream()
        assert stream.max_history is None
        for value in rng.normal(100.0, 5.0, size=150):
            stream.update(value)
        assert stream.buffered_points() == 150


# ----------------------------------------------------------------------
# Every registered configuration: stream == batch with flat buffers.
# ----------------------------------------------------------------------
#: 6-hour sampling keeps day/week-sized warm-ups small (ppd = 4) so the
#: whole Table 3 bank plus the extended detectors fits a short series.
BANK_INTERVAL = 21600
_BANK_N = 480


def _bank_values() -> np.ndarray:
    rng = np.random.default_rng(2024)
    t = np.arange(_BANK_N)
    values = (
        100.0
        + 10.0 * np.sin(2 * np.pi * t / 4)  # daily season at ppd = 4
        + rng.normal(0.0, 2.0, size=_BANK_N)
    )
    values[[120, 200, 360, 361, 455]] = np.nan
    return values


BANK_VALUES = _bank_values()
BANK_CONFIGS = configs_for(ts(BANK_VALUES[:8], interval=BANK_INTERVAL)) + (
    build_configs(extended_detectors(BANK_INTERVAL))
)


@pytest.mark.parametrize(
    "config", BANK_CONFIGS, ids=lambda c: c.name
)
class TestRegisteredBankBounded:
    def test_stream_matches_batch_with_flat_buffer(self, config):
        detector = config.detector
        batch = detector.severities(ts(BANK_VALUES, interval=BANK_INTERVAL))
        stream = detector.stream()
        online = np.empty(_BANK_N)
        buffered = np.empty(_BANK_N, dtype=np.int64)
        for i, value in enumerate(BANK_VALUES):
            online[i] = stream.update(value)
            buffered[i] = stream.buffered_points()
        np.testing.assert_array_equal(online, batch)

        # Memory stays flat once warm: the peak buffer occupancy over a
        # late window never exceeds the peak over an earlier one (both
        # windows span full seasonal periods, so periodic scratch
        # buffers cancel out), and the absolute level is a small
        # multiple of the warm-up window.
        warm = min(detector.warmup() + 1, 360)
        early_peak = int(buffered[warm:420].max())
        late_peak = int(buffered[420:].max())
        assert late_peak <= early_peak
        bound = max(3 * detector.warmup() + 2 * STREAM_BUFFER_SLACK, 64)
        assert early_peak <= bound


# ----------------------------------------------------------------------
# Checkpoint-resume equals cold replay, bit for bit.
# ----------------------------------------------------------------------
#: One instance of every stream implementation, sized for 400 points.
CHECKPOINT_DETECTORS = [
    SimpleThreshold(),
    Diff("last-slot", 1),
    SimpleMA(10),
    WeightedMA(10),
    MAOfDiff(10),
    EWMA(0.3),
    TSD(2, 24),
    TSDMad(2, 24),
    HistoricalAverage(1, 4),
    HistoricalMad(1, 4),
    SVDDetector(10, 3),
    WaveletDetector(1, "mid", 48),
    HoltWinters(0.4, 0.2, 0.4, 24),
    Brutlag(0.4, 0.4, 0.4, 24),
    CUSUM(24, 0.5),
    SHESD(1, 24),
    ARIMA(fit_points=120),
    _WindowedProbe(12),
    _UnboundedProbe(12),
]


def _checkpoint_values() -> np.ndarray:
    rng = np.random.default_rng(77)
    t = np.arange(400)
    values = (
        50.0
        + 8.0 * np.sin(2 * np.pi * t / 24)
        + rng.normal(0.0, 1.5, size=400)
    )
    values[[150, 151, 290, 355]] = np.nan
    return values


CHECKPOINT_VALUES = _checkpoint_values()


@pytest.mark.parametrize(
    "detector", CHECKPOINT_DETECTORS, ids=lambda d: d.feature_name
)
class TestStreamCheckpoint:
    #: 100 snapshots ARIMA *before* its order fit (fit_points = 120) and
    #: most detectors mid-warm-up; 240 snapshots every stream warm.
    @pytest.mark.parametrize("cut", [100, 240])
    def test_resume_equals_cold_replay(self, detector, cut):
        cold = detector.stream()
        expected = np.array(
            [cold.update(v) for v in CHECKPOINT_VALUES]
        )

        warm = detector.stream()
        for value in CHECKPOINT_VALUES[:cut]:
            warm.update(value)
        # Through JSON: exactly what a persisted checkpoint goes through.
        state = json.loads(json.dumps(warm.snapshot()))
        resumed = detector.stream().restore(state)
        online = np.array(
            [resumed.update(v) for v in CHECKPOINT_VALUES[cut:]]
        )
        np.testing.assert_array_equal(online, expected[cut:])

    def test_snapshot_is_json_serializable(self, detector):
        stream = detector.stream()
        for value in CHECKPOINT_VALUES[:260]:
            stream.update(value)
        encoded = json.dumps(stream.snapshot())
        assert isinstance(json.loads(encoded), dict)


class TestStreamingDetectorCheckpoint:
    @pytest.fixture(scope="class")
    def fitted(self, labeled_kpi):
        series = labeled_kpi.series
        split = 3 * series.points_per_week
        opp = Opprentice(
            configs=small_bank(series.points_per_week),
            classifier_factory=fast_forest,
        ).fit(series.slice(0, split))
        return opp, series, split

    def test_restore_resumes_decisions_exactly(self, fitted):
        opp, series, split = fitted
        tail = series.values[split: split + 80]

        reference = StreamingDetector(opp, history=series.slice(0, split))
        reference.push_many(tail[:40])
        checkpoint = json.loads(json.dumps(reference.snapshot()))
        expected = reference.push_many(tail[40:])

        resumed = StreamingDetector(opp, checkpoint=checkpoint)
        assert resumed.points_seen == split + 40
        decisions = resumed.push_many(tail[40:])
        np.testing.assert_array_equal(
            np.array([d.score for d in decisions]),
            np.array([d.score for d in expected]),
        )
        assert [d.index for d in decisions] == [d.index for d in expected]

    def test_history_and_checkpoint_are_exclusive(self, fitted):
        opp, series, split = fitted
        streaming = StreamingDetector(opp, history=series.slice(0, split))
        with pytest.raises(ValueError, match="not both"):
            StreamingDetector(
                opp,
                history=series.slice(0, split),
                checkpoint=streaming.snapshot(),
            )

    def test_bank_mismatch_rejected(self, fitted):
        opp, series, split = fitted
        checkpoint = StreamingDetector(
            opp, history=series.slice(0, split)
        ).snapshot()
        checkpoint["feature_names"] = list(
            reversed(checkpoint["feature_names"])
        )
        with pytest.raises(ValueError, match="bank mismatch"):
            StreamingDetector(opp, checkpoint=checkpoint)

    def test_unknown_version_rejected(self, fitted):
        opp, series, split = fitted
        checkpoint = StreamingDetector(
            opp, history=series.slice(0, split)
        ).snapshot()
        checkpoint["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            StreamingDetector(opp, checkpoint=checkpoint)

    def test_buffered_points_stay_flat(self, fitted):
        opp, series, split = fitted
        streaming = StreamingDetector(opp, history=series.slice(0, split))
        after_replay = streaming.buffered_points()
        streaming.push_many(series.values[split: split + 2 * 7 * 24])
        assert streaming.buffered_points() <= after_replay


class TestFitIncremental:
    @pytest.fixture(scope="class")
    def fitted(self, labeled_kpi):
        series = labeled_kpi.series
        split = 3 * series.points_per_week
        opp = Opprentice(
            configs=small_bank(series.points_per_week),
            classifier_factory=fast_forest,
        ).fit(series.slice(0, split))
        return opp, series, split

    def test_requires_prior_fit(self, labeled_kpi):
        opp = Opprentice(
            configs=small_bank(labeled_kpi.series.points_per_week),
            classifier_factory=fast_forest,
        )
        with pytest.raises(RuntimeError, match="fit\\(\\) must run"):
            opp.fit_incremental(
                labeled_kpi.series, np.zeros((1, 7))
            )

    def test_rejects_wrong_feature_width(self, fitted):
        opp, series, split = fitted
        extended = series.slice(0, split + 2)
        with pytest.raises(ValueError, match="do not match"):
            opp.fit_incremental(extended, np.zeros((2, 3)))

    def test_rejects_wrong_row_count(self, fitted):
        opp, series, split = fitted
        extended = series.slice(0, split + 5)
        with pytest.raises(ValueError, match="do not extend"):
            opp.fit_incremental(extended, np.zeros((2, 7)))

    def test_matches_full_fit(self, labeled_kpi):
        series = labeled_kpi.series
        ppw = series.points_per_week
        split = 3 * ppw
        extended = series.slice(0, split + 48)

        incremental = Opprentice(
            configs=small_bank(ppw), classifier_factory=fast_forest
        ).fit(series.slice(0, split))
        extractor = FeatureExtractor(small_bank(ppw))
        new_rows = extractor.extract(extended).values[split:]
        incremental.fit_incremental(extended, new_rows)

        full = Opprentice(
            configs=small_bank(ppw), classifier_factory=fast_forest
        ).fit(extended)
        np.testing.assert_array_equal(
            incremental._feature_values, full._feature_values
        )
        probe = series.slice(split + 48, split + 96)
        np.testing.assert_array_equal(
            incremental.anomaly_scores(probe), full.anomaly_scores(probe)
        )


# ----------------------------------------------------------------------
# Array rings checkpoint as the deques they replaced.
# ----------------------------------------------------------------------
#: The window-bank, SVD and wavelet states of the Table 3 bank on the
#: hourly test KPI (NaN at points 50..54 and 200) after 120 and 400
#: points, written by the code whose rings of recent values were
#: deques (stream checkpoint format v3).
RINGS_V3 = Path(__file__).parent / "data" / "stream_rings_v3.json"

#: The families whose streams keep rings of recent values.
RING_FAMILIES = ("window-bank", "svd", "wavelet", "historical", "seasonal-residual")


def ring_values(series) -> np.ndarray:
    values = series.values.copy()
    values[200] = np.nan
    values[50:55] = np.nan
    return values


def family_configs(series, kinds):
    return [
        config for config in configs_for(series)
        if config.detector.family() and config.detector.family()[0] in kinds
    ]


class TestValueRingCheckpoint:
    @pytest.mark.parametrize("maxlen", [1, 3, 8])
    def test_ring_holds_what_a_deque_holds(self, rng, maxlen):
        ring, reference = ValueRing(maxlen), deque(maxlen=maxlen)
        for value in rng.normal(size=3 * maxlen + 2):
            assert _encode_state(ring) == _encode_state(reference)
            assert len(ring) == len(reference)
            np.testing.assert_array_equal(ring.view(), np.asarray(reference))
            loaded = ValueRing(maxlen, reference)
            np.testing.assert_array_equal(loaded.view(), ring.view())
            ring.append(value)
            reference.append(float(value))
            loaded.append(value)
            np.testing.assert_array_equal(loaded.view(), np.asarray(reference))

    @pytest.mark.parametrize("kind", RING_FAMILIES)
    @pytest.mark.parametrize("cut", [30, 120, 400, 600])
    def test_mid_stream_restore_equals_an_undisturbed_twin(
        self, hourly_kpi, kind, cut
    ):
        """Cuts with the rings filling, just full and wrapped; through
        JSON, as a persisted checkpoint goes."""
        values = ring_values(hourly_kpi)
        configs = family_configs(hourly_kpi, (kind,))
        twin = StreamBank(configs)
        expected = np.vstack([twin.extract_point(v) for v in values])

        stream = StreamBank(configs)
        for value in values[:cut]:
            stream.extract_point(value)
        states = json.loads(json.dumps(stream.snapshot()))
        resumed = StreamBank(configs).restore(states)
        assert resumed.buffered_points() == stream.buffered_points()
        rows = np.vstack([resumed.extract_point(v) for v in values[cut:]])
        np.testing.assert_array_equal(rows, expected[cut:])

    @pytest.mark.parametrize("kind", ["window-bank", "svd", "wavelet"])
    def test_buffered_points_is_the_logical_ring_length(self, hourly_kpi, kind):
        """The wavelet holds its raw ring plus one detail ring per band;
        its per-config floors are not buffered points."""
        values = ring_values(hourly_kpi)
        bank = StreamBank(family_configs(hourly_kpi, (kind,)))
        for count, value in enumerate(values, start=1):
            bank.extract_point(value)
            state = bank.snapshot()[0]
            rings = (
                [state["_values"], *state["_details"]] if kind == "wavelet"
                else [state["_ring"]]
            )
            if kind == "wavelet":
                assert len(rings) == 4
            held = [min(count, ring["maxlen"]) for ring in rings]
            assert bank.buffered_points() == sum(held)
            assert [len(ring["values"]) for ring in rings] == held

    @pytest.mark.parametrize("cut", ["120", "400"])
    def test_deque_written_rings_restore(self, hourly_kpi, cut):
        """A snapshot written while the rings were deques restores and
        resumes like a twin that never stopped, and the array rings
        write the same snapshot."""
        written = json.loads(RINGS_V3.read_text())[cut]
        values = ring_values(hourly_kpi)
        configs = family_configs(hourly_kpi, ("window-bank", "svd", "wavelet"))
        twin = StreamBank(configs)
        for value in values[:int(cut)]:
            twin.extract_point(value)
        assert json.dumps(twin.snapshot()) == json.dumps(written)

        restored = StreamBank(configs).restore(written)
        assert restored.buffered_points() == twin.buffered_points()
        for value in values[int(cut):]:
            np.testing.assert_array_equal(
                restored.extract_point(value), twin.extract_point(value)
            )
