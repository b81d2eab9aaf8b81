"""repro.diagnosis: anomaly-kind classification of alerted windows."""

import numpy as np
import pytest

from repro.core import MonitoringService, load_model, save_model
from repro.diagnosis import (
    FEATURE_NAMES,
    AnomalyDiagnoser,
    default_diagnoser,
    diagnosis_report,
    fit_diagnoser,
    kind_confusion,
    macro_f1,
    series_period,
    training_corpus,
    window_shape_features,
    window_training_rows,
)
from repro.ml import NotFittedError

from test_opprentice import fast_forest, small_bank


@pytest.fixture(scope="module")
def tiny_diagnoser():
    """A cheap but real diagnoser for integration tests."""
    return fit_diagnoser(seed=0, n_estimators=8, weeks=1.0, repeats=2)


# ----------------------------------------------------------------------
# Shape features
# ----------------------------------------------------------------------
class TestFeatures:
    def test_row_matches_feature_names(self):
        rng = np.random.default_rng(0)
        row = window_shape_features(
            rng.normal(100, 2, 6), rng.normal(100, 2, 64)
        )
        assert row.shape == (len(FEATURE_NAMES),)
        assert np.all(np.isfinite(row))

    def test_single_point_window_stays_finite(self):
        """min_duration_points=1 services close length-1 alert runs;
        their features must still be predictable (no empty-slice NaN
        in late_minus_early)."""
        rng = np.random.default_rng(3)
        row = window_shape_features([150.0], rng.normal(100, 2, 64))
        assert np.all(np.isfinite(row))
        assert row[FEATURE_NAMES.index("late_minus_early")] == 0.0

    def test_spike_vs_dip_direction(self):
        context = np.full(64, 100.0)
        up = window_shape_features(np.array([160.0, 150.0]), context)
        down = window_shape_features(np.array([40.0, 50.0]), context)
        direction = FEATURE_NAMES.index("direction")
        assert up[direction] > 0 > down[direction]

    def test_all_missing_window_is_zeros(self):
        row = window_shape_features(
            np.array([np.nan, np.nan]), np.full(64, 10.0)
        )
        assert np.array_equal(row, np.zeros(len(FEATURE_NAMES)))

    def test_empty_context_survives(self):
        row = window_shape_features(np.array([5.0, 6.0]), np.empty(0))
        assert np.all(np.isfinite(row))

    def test_series_period(self):
        assert series_period(3600) == 24
        assert series_period(600) == 144
        assert series_period(7000) is None
        assert series_period(0) is None


# ----------------------------------------------------------------------
# Classifier
# ----------------------------------------------------------------------
class TestDiagnoser:
    def test_fit_requires_two_kinds(self):
        features = np.zeros((4, len(FEATURE_NAMES)))
        with pytest.raises(ValueError, match="two anomaly kinds"):
            AnomalyDiagnoser().fit(features, ["spike"] * 4)

    def test_fit_requires_matching_lengths(self):
        features = np.zeros((4, len(FEATURE_NAMES)))
        with pytest.raises(ValueError, match="kinds"):
            AnomalyDiagnoser().fit(features, ["spike", "dip"])

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            AnomalyDiagnoser().predict(np.zeros((1, len(FEATURE_NAMES))))
        with pytest.raises(NotFittedError):
            AnomalyDiagnoser().to_dict()

    def test_predict_proba_rows_normalised(self, tiny_diagnoser):
        features, _ = training_corpus(seed=77, weeks=1.0, repeats=1)
        probs = tiny_diagnoser.predict_proba(features)
        assert probs.shape == (len(features), len(tiny_diagnoser.kinds_))
        sums = probs.sum(axis=1)
        assert np.all((np.abs(sums - 1.0) < 1e-9) | (sums == 0.0))

    def test_json_round_trip_is_exact(self, tiny_diagnoser):
        features, _ = training_corpus(seed=78, weeks=1.0, repeats=1)
        clone = AnomalyDiagnoser.from_dict(tiny_diagnoser.to_dict())
        assert clone.kinds_ == tiny_diagnoser.kinds_
        np.testing.assert_array_equal(
            clone.predict_proba(features),
            tiny_diagnoser.predict_proba(features),
        )
        assert clone.to_dict() == tiny_diagnoser.to_dict()

    def test_from_dict_rejects_unknown_version(self, tiny_diagnoser):
        payload = tiny_diagnoser.to_dict()
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format"):
            AnomalyDiagnoser.from_dict(payload)

    def test_fitting_is_deterministic(self):
        first = fit_diagnoser(seed=3, n_estimators=4, weeks=1.0, repeats=1)
        second = fit_diagnoser(seed=3, n_estimators=4, weeks=1.0, repeats=1)
        assert first.to_dict() == second.to_dict()


# ----------------------------------------------------------------------
# Accuracy (the ISSUE acceptance bar)
# ----------------------------------------------------------------------
class TestAccuracy:
    def test_macro_f1_on_held_out_corpus(self):
        """The default diagnoser must clear macro-F1 0.85 on a held-out
        slice of the injector corpus (unseen seeds, same regimes)."""
        diagnoser = default_diagnoser()
        features, kinds = training_corpus(seed=4242, weeks=2.0, repeats=2)
        assert len(set(kinds)) == 5, "held-out slice must cover all kinds"
        report = diagnosis_report(kinds, diagnoser.predict(features))
        assert report["n_windows"] >= 100
        assert report["macro_f1"] >= 0.85, report["per_kind"]

    def test_confusion_matrix_shape(self):
        confusion = kind_confusion(
            ["spike", "dip", "spike"], ["spike", "spike", "spike"]
        )
        assert confusion["kinds"] == ["dip", "spike"]
        assert confusion["matrix"] == [[0, 1], [0, 2]]

    def test_macro_f1_degenerate(self):
        assert macro_f1(["spike", "dip"], ["spike", "dip"]) == 1.0
        assert macro_f1([], []) == 0.0


# ----------------------------------------------------------------------
# Service integration: diagnosis rides the alert lifecycle
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def diagnosing_run(tiny_diagnoser):
    """A live service with a diagnoser, plus its event stream."""
    from repro.data import SeasonalProfile, generate_kpi, inject_anomalies

    generated = generate_kpi(
        weeks=5,
        interval=3600,
        profile=SeasonalProfile(base_level=100.0, daily_amplitude=0.5,
                                noise_scale=0.02, trend=0.0),
        seed=99,
        name="diagnosis-kpi",
    )
    result = inject_anomalies(
        generated.series, target_fraction=0.06, seed=100, mean_window=4.0
    )
    series = result.series
    split = 4 * series.points_per_week
    service = MonitoringService(
        configs=small_bank(series.points_per_week),
        classifier_factory=fast_forest,
        min_duration_points=2,
        diagnoser=tiny_diagnoser,
    )
    service.bootstrap(series.slice(0, split))
    events = []
    for value in series.values[split:]:
        events.extend(service.ingest(value))
    return service, events, series, split


class TestServiceDiagnosis:
    def test_closed_alerts_carry_a_kind(self, diagnosing_run):
        service, events, _, _ = diagnosing_run
        closed = [e for e in events if e.kind == "closed"]
        assert closed, "live span produced no closed alerts"
        kinds = {e.diagnosis for e in closed}
        assert None not in kinds
        assert kinds <= {"spike", "dip", "ramp", "jitter", "level_shift"}

    def test_opened_alerts_are_undiagnosed(self, diagnosing_run):
        _, events, _, _ = diagnosing_run
        opened = [e for e in events if e.kind == "opened"]
        assert opened and all(e.diagnosis is None for e in opened)

    def test_stats_count_by_kind(self, diagnosing_run):
        service, events, _, _ = diagnosing_run
        closed = [e for e in events if e.kind == "closed"]
        expected = {}
        for event in closed:
            expected[event.diagnosis] = expected.get(event.diagnosis, 0) + 1
        assert service.stats.alerts_diagnosed == expected
        assert "alerts_diagnosed" in service.stats.as_dict()

    def test_no_diagnoser_means_none(self):
        from repro.core import AlertEvent

        event = AlertEvent(kind="closed", begin_index=0, end_index=2,
                           peak_score=0.5)
        assert event.diagnosis is None

    def test_diagnosis_survives_checkpoint_bit_identically(
        self, diagnosing_run, tmp_path
    ):
        """Restore into a bare twin (no diagnoser given: the snapshot's
        digest must resolve to the copy a fleet checkpoint writes
        beside its KPIs) and stream the same remainder through both —
        every diagnosis must match the original run exactly."""
        service, _, series, split = diagnosing_run
        checkpoint_at = split + 60
        original = MonitoringService(
            configs=small_bank(series.points_per_week),
            classifier_factory=fast_forest,
            min_duration_points=2,
            diagnoser=service.diagnoser,
        )
        original.bootstrap(series.slice(0, split))
        for value in series.values[split:checkpoint_at]:
            original.ingest(float(value))
        at_checkpoint = original.stats.alerts_diagnosed

        model_path = tmp_path / "model.json"
        save_model(original.opprentice, model_path)
        clone = MonitoringService(
            configs=small_bank(series.points_per_week),
            classifier_factory=fast_forest,
        )
        load_model(model_path, opprentice=clone.opprentice)
        written = AnomalyDiagnoser.from_dict(original.diagnoser.to_dict())
        clone.restore_snapshot(
            original.snapshot(),
            shared_diagnosers={written.sha256(): written},
        )
        assert clone.diagnoser is written
        assert clone.diagnoser.to_dict() == original.diagnoser.to_dict()
        assert clone.stats.alerts_diagnosed == at_checkpoint

        expected, actual = [], []
        for value in series.values[checkpoint_at:]:
            expected.extend(original.ingest(float(value)))
            actual.extend(clone.ingest(float(value)))
        as_tuple = [
            (e.kind, e.begin_index, e.end_index, e.diagnosis)
            for e in expected
        ]
        assert [
            (e.kind, e.begin_index, e.end_index, e.diagnosis)
            for e in actual
        ] == as_tuple
        assert any(
            e.diagnosis is not None for e in expected if e.kind == "closed"
        )
        assert clone.stats.alerts_diagnosed == original.stats.alerts_diagnosed

    def test_training_rows_validate_pairing(self, diagnosing_run):
        from repro.data import InjectionResult

        _, _, series, _ = diagnosing_run
        broken = InjectionResult(series=series, windows=[], kinds=["spike"])
        with pytest.raises(ValueError, match="windows"):
            window_training_rows(broken)
