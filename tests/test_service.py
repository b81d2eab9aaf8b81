"""MonitoringService tests: the full ingest/alert/label/retrain loop."""

import numpy as np
import pytest

from repro.core import AlertEvent, MonitoringService
from repro.timeseries import AnomalyWindow

from test_opprentice import fast_forest, small_bank


@pytest.fixture(scope="module")
def deployment():
    """5 weeks of hourly KPI: 4 bootstrap + 1 live."""
    from repro.data import SeasonalProfile, generate_kpi, inject_anomalies

    generated = generate_kpi(
        weeks=5,
        interval=3600,
        profile=SeasonalProfile(base_level=100.0, daily_amplitude=0.5,
                                noise_scale=0.02, trend=0.0),
        seed=99,
        name="service-kpi",
    )
    result = inject_anomalies(
        generated.series, target_fraction=0.06, seed=100, mean_window=4.0
    )
    series = result.series
    split = 4 * series.points_per_week
    return series, result.windows, split


def make_service(series, **kwargs):
    return MonitoringService(
        configs=small_bank(series.points_per_week),
        classifier_factory=fast_forest,
        **kwargs,
    )


class TestBootstrap:
    def test_requires_labels(self, deployment):
        series, _, split = deployment
        service = make_service(series)
        unlabeled = series.slice(0, split)
        from repro.timeseries import TimeSeries

        raw = TimeSeries(values=unlabeled.values, interval=unlabeled.interval)
        with pytest.raises(ValueError, match="labelled"):
            service.bootstrap(raw)

    def test_ingest_before_bootstrap_rejected(self, deployment):
        series, _, _ = deployment
        with pytest.raises(RuntimeError, match="bootstrap"):
            make_service(series).ingest(1.0)

    def test_bootstrap_sets_threshold(self, deployment):
        series, _, split = deployment
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        assert 0.0 <= service.cthld <= 1.0
        assert service.history_length == split


class TestIngestAndAlerts:
    @pytest.fixture(scope="class")
    def live_run(self, deployment):
        series, truth_windows, split = deployment
        events_seen = []
        service = make_service(
            series,
            min_duration_points=2,
            alert_callback=events_seen.append,
        )
        service.bootstrap(series.slice(0, split))
        all_events = []
        for value in series.values[split:]:
            all_events.extend(service.ingest(value))
        return service, all_events, events_seen, truth_windows, split, series

    def test_alerts_fire_on_injected_anomalies(self, live_run):
        service, events, _, truth_windows, split, series = live_run
        opened = [e for e in events if e.kind == "opened"]
        assert opened, "no alerts over a week with injected anomalies"
        live_truth = [w for w in truth_windows if w.begin >= split and len(w) >= 2]
        hits = sum(
            1 for w in live_truth
            if any(
                e.begin_index < w.end and w.begin < e.begin_index + 50
                for e in opened
            )
        )
        assert hits >= len(live_truth) * 0.5

    def test_open_close_pairing(self, live_run):
        _, events, _, _, _, _ = live_run
        kinds = [e.kind for e in events]
        # Every closed event follows an opened one.
        assert kinds.count("closed") <= kinds.count("opened")
        for first, second in zip(events, events[1:]):
            if first.kind == "opened" and second.kind == "closed":
                assert second.begin_index == first.begin_index

    def test_callback_receives_all_events(self, live_run):
        _, events, events_seen, _, _, _ = live_run
        assert events_seen == events

    def test_stats_counters(self, live_run):
        service, events, _, _, split, series = live_run
        assert service.stats.points_ingested == len(series) - split
        assert service.stats.alerts_opened == sum(
            1 for e in events if e.kind == "opened"
        )

    def test_short_blips_filtered(self, deployment):
        series, _, split = deployment
        service = make_service(series, min_duration_points=3)
        service.bootstrap(series.slice(0, split))
        # A 2-point run must not open an alert at min duration 3.
        events = []
        base = float(np.nanmedian(series.values))
        for value in [base, base * 4, base * 4, base, base, base]:
            events.extend(service.ingest(value))
        assert all(e.kind != "opened" or e.end_index - e.begin_index >= 3
                   for e in events)


class TestAlertCallbackContainment:
    def test_raising_callback_does_not_break_ingest(self, deployment):
        series, _, split = deployment

        def broken_callback(event):
            raise RuntimeError("pager is down")

        service = make_service(
            series, min_duration_points=1, alert_callback=broken_callback
        )
        service.bootstrap(series.slice(0, split))
        all_events = []
        for value in series.values[split:split + 72]:
            all_events.extend(service.ingest(float(value)))
        # Ingest survived every callback explosion; each delivered
        # event corresponds to one contained error.
        assert service.stats.points_ingested == 72
        assert service.stats.callback_errors == len(all_events)
        assert all_events, "no alert events to exercise the callback"

    def test_callback_errors_in_stats_dict(self, deployment):
        series, _, _ = deployment
        stats = make_service(series).stats
        stats.inc_callback_errors(2)
        assert stats.as_dict()["callback_errors"] == 2


class TestAlertAttribution:
    def test_events_carry_the_kpi_name(self, deployment):
        series, _, split = deployment
        service = make_service(series, min_duration_points=1)
        service.bootstrap(series.slice(0, split))
        events = []
        for value in series.values[split:split + 72]:
            events.extend(service.ingest(float(value)))
        assert events, "no alert events in the probe window"
        assert all(e.kpi == "service-kpi" for e in events)
        assert service.kpi == "service-kpi"

    def test_kpi_field_defaults_to_none(self):
        event = AlertEvent(
            kind="opened", begin_index=0, end_index=1, peak_score=0.5
        )
        assert event.kpi is None


class _RawWindow:
    """A window-shaped object that skips AnomalyWindow's own validation,
    so the service-level checks in submit_labels() are exercised."""

    def __init__(self, begin, end):
        self.begin = begin
        self.end = end


class TestSubmitLabels:
    @pytest.mark.parametrize("begin,end", [(-1, 5), (5, 5), (7, 3)])
    def test_invalid_windows_rejected(self, deployment, begin, end):
        series, _, split = deployment
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        with pytest.raises(ValueError, match="invalid label window"):
            service.submit_labels([_RawWindow(begin, end)])


class TestServiceStats:
    def test_inc_methods_are_the_live_path(self, deployment):
        series, _, _ = deployment
        stats = make_service(series).stats
        stats.inc_points_ingested()
        stats.inc_points_ingested(3)
        stats.inc_anomalous_points()
        stats.inc_alerts_opened(2)
        stats.inc_retrain_rounds()
        assert stats.points_ingested == 4
        assert stats.anomalous_points == 1
        assert stats.alerts_opened == 2
        assert stats.retrain_rounds == 1

    def test_setters_still_backfill(self, deployment):
        series, _, _ = deployment
        stats = make_service(series).stats
        stats.points_ingested = 10
        stats.inc_points_ingested()
        assert stats.points_ingested == 11


class TestRetrain:
    def test_full_cycle(self, deployment):
        series, truth_windows, split = deployment
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        before = service.cthld
        for value in series.values[split:]:
            service.ingest(value)
        # Operator labels the live week using the ground truth windows.
        live_windows = [w for w in truth_windows if w.begin >= split]
        service.submit_labels(live_windows)
        after = service.retrain()
        assert service.stats.retrain_rounds == 1
        assert service.history_length == len(series)
        assert 0.0 <= after <= 1.0
        # The service keeps working after retraining.
        events = service.ingest(float(series.values[-1]))
        assert isinstance(events, list)

    def test_retrain_without_new_data_rejected(self, deployment):
        series, _, split = deployment
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        with pytest.raises(ValueError, match="no new data"):
            service.retrain()

    def test_labels_beyond_history_rejected(self, deployment):
        series, _, split = deployment
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        with pytest.raises(ValueError, match="beyond"):
            service.submit_labels([AnomalyWindow(split + 10, split + 20)])

    def test_min_duration_validated(self, deployment):
        series, _, _ = deployment
        with pytest.raises(ValueError):
            make_service(series, min_duration_points=0)

    def test_retrain_closes_dangling_run(self, deployment):
        series, _, split = deployment
        events_seen = []
        service = make_service(
            series, min_duration_points=2, alert_callback=events_seen.append
        )
        service.bootstrap(series.slice(0, split))
        for value in series.values[split: split + 6]:
            service.ingest(value)
        # Force an open run over the last three ingested points, as if
        # they had been classified anomalous.
        service._run_begin = split + 3
        service._run_scores = [0.9, 0.8, 0.95]
        service.submit_labels([AnomalyWindow(split + 3, split + 6)])
        service.retrain()
        closed = [
            e for e in events_seen
            if e.kind == "closed" and e.begin_index == split + 3
        ]
        assert len(closed) == 1
        assert closed[0].end_index == split + 6
        assert closed[0].peak_score == 0.95
        assert service._run_begin is None

    def test_incremental_features_match_batch_extraction(self, deployment):
        from repro.core import FeatureExtractor

        series, truth_windows, split = deployment
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        for value in series.values[split:]:
            service.ingest(value)
        service.submit_labels([w for w in truth_windows if w.begin >= split])
        service.retrain()
        fresh = FeatureExtractor(
            small_bank(series.points_per_week)
        ).extract(service._history)
        np.testing.assert_array_equal(
            service.opprentice._feature_values, fresh.values
        )

    def test_retrain_matches_pre_checkpoint_full_refit(self, deployment):
        """The incremental path (cached features + stream checkpoint)
        must produce the same post-retrain decisions as the original
        implementation: a full refit on the combined labelled series
        followed by a full history replay."""
        from repro.core import Opprentice

        series, truth_windows, split = deployment
        live_end = len(series) - 24
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        for value in series.values[split:live_end]:
            service.ingest(value)
        live = [
            w for w in truth_windows
            if w.begin >= split and w.end <= live_end
        ]
        service.submit_labels(live)
        service.retrain()

        reference = Opprentice(
            configs=small_bank(series.points_per_week),
            classifier_factory=fast_forest,
        ).fit(service._history)
        probe = series.slice(live_end, len(series))
        batch_scores = reference.anomaly_scores(probe)
        decisions = service._streaming.push_many(probe.values)
        online_scores = np.array([d.score for d in decisions])
        np.testing.assert_array_equal(online_scores, batch_scores)
