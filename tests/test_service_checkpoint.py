"""Service checkpoints: crash-restart resume equivalence.

The contract under test: ``load_model`` + ``restore_snapshot`` on a
fresh service reproduces the uninterrupted service's *future* exactly —
the remaining alert stream bit for bit, including an alert run that was
still open at checkpoint time, the pending buffers feeding the next
retraining round, and the EWMA cThld predictor's state.

A checkpoint stores the service's inputs only. The training matrix and
the pending rows and scores are derived on restore by one batch
extraction and one forest vote, and the diagnoser is named by sha256;
the tests below pin that the derived parts equal the live ones bit for
bit and that the diagnoser digest resolves as documented.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import (
    MonitoringService,
    load_model,
    load_service_checkpoint,
    save_model,
    save_service_checkpoint,
)

from repro.timeseries import points_to_windows

from test_diagnosis import tiny_diagnoser  # noqa: F401  (fixture)
from test_opprentice import fast_forest, small_bank


@pytest.fixture(scope="module")
def deployment():
    """4 weeks of hourly KPI: 3 bootstrap + 1 live."""
    from repro.data import SeasonalProfile, generate_kpi, inject_anomalies

    generated = generate_kpi(
        weeks=4,
        interval=3600,
        profile=SeasonalProfile(base_level=100.0, daily_amplitude=0.5,
                                noise_scale=0.02, trend=0.0),
        seed=55,
        name="ckpt-kpi",
    )
    result = inject_anomalies(
        generated.series, target_fraction=0.06, seed=56, mean_window=4.0
    )
    series = result.series
    split = 3 * series.points_per_week
    return series, result.windows, split


def make_service(series, **kwargs):
    kwargs.setdefault("min_duration_points", 2)
    return MonitoringService(
        configs=small_bank(series.points_per_week),
        classifier_factory=fast_forest,
        **kwargs,
    )


def restore_clone(original, series, tmp_path):
    """Clone ``original`` through the public model + snapshot path."""
    model_path = tmp_path / "model.json"
    save_model(original.opprentice, model_path)
    clone = make_service(series)
    load_model(model_path, opprentice=clone.opprentice)
    clone.restore_snapshot(original.snapshot())
    return clone


class TestResumeEquivalence:
    def test_remaining_alert_stream_is_bit_identical(
        self, deployment, tmp_path
    ):
        series, truth_windows, split = deployment
        checkpoint_at = split + 60
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        for value in series.values[split:checkpoint_at]:
            service.ingest(float(value))

        clone = restore_clone(service, series, tmp_path)
        expected, actual = [], []
        for value in series.values[checkpoint_at:]:
            expected.extend(service.ingest(float(value)))
            actual.extend(clone.ingest(float(value)))
        assert actual == expected
        assert clone.stats.as_dict() == service.stats.as_dict()

    def test_open_alert_run_survives_restore(self, deployment, tmp_path):
        series, _, split = deployment
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        checkpoint_at = None
        for offset, value in enumerate(series.values[split:]):
            service.ingest(float(value))
            if service._run_begin is not None:
                checkpoint_at = split + offset + 1
                break
        assert checkpoint_at is not None, (
            "no anomalous point in a live week with injected anomalies"
        )

        snapshot = service.snapshot()
        assert snapshot["run"]["begin"] == service._run_begin
        clone = restore_clone(service, series, tmp_path)
        assert clone._run_begin == service._run_begin
        assert clone._run_scores == service._run_scores

        # The run's eventual closed event matches: same begin, same
        # peak score accumulated across the checkpoint boundary.
        expected, actual = [], []
        for value in series.values[checkpoint_at:]:
            expected.extend(service.ingest(float(value)))
            actual.extend(clone.ingest(float(value)))
        closed_expected = [e for e in expected if e.kind == "closed"]
        closed_actual = [e for e in actual if e.kind == "closed"]
        assert closed_actual == closed_expected
        assert closed_expected, "the open run never closed"

    def test_post_restore_retrain_matches(self, deployment, tmp_path):
        series, truth_windows, split = deployment
        checkpoint_at = split + 100
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        for value in series.values[split:checkpoint_at]:
            service.ingest(float(value))

        clone = restore_clone(service, series, tmp_path)
        windows = [
            w for w in truth_windows
            if w.begin >= split and w.end <= checkpoint_at
        ]
        service.submit_labels(windows)
        clone.submit_labels(windows)
        assert clone.retrain() == service.retrain()

        # And the post-retrain services still agree point for point.
        expected, actual = [], []
        for value in series.values[checkpoint_at:checkpoint_at + 24]:
            expected.extend(service.ingest(float(value)))
            actual.extend(clone.ingest(float(value)))
        assert actual == expected

    def test_ewma_predictor_state_round_trips(self, deployment, tmp_path):
        series, truth_windows, split = deployment
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        for value in series.values[split:split + 100]:
            service.ingest(float(value))
        service.submit_labels(
            [
                w for w in truth_windows
                if w.begin >= split and w.end <= split + 100
            ]
        )
        service.retrain()
        predictor = service.opprentice.cthld_predictor
        assert predictor.snapshot() == {
            "prediction": predictor._prediction
        }

        clone = restore_clone(service, series, tmp_path)
        assert (
            clone.opprentice.cthld_predictor._prediction
            == predictor._prediction
        )


class TestCheckpointFiles:
    def test_file_round_trip(self, deployment, tmp_path):
        series, _, split = deployment
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        for value in series.values[split:split + 30]:
            service.ingest(float(value))

        model_path = tmp_path / "model.json"
        ckpt_path = tmp_path / "service.json"
        save_model(service.opprentice, model_path)
        save_service_checkpoint(service, ckpt_path)

        clone = make_service(series)
        load_model(model_path, opprentice=clone.opprentice)
        load_service_checkpoint(ckpt_path, clone)
        assert clone.kpi == "ckpt-kpi"
        assert clone.pending_points == service.pending_points
        expected = service.ingest(float(series.values[split + 30]))
        actual = clone.ingest(float(series.values[split + 30]))
        assert actual == expected

    def test_default_bank_service_restores_without_bootstrap(
        self, deployment, tmp_path
    ):
        """A default-bank service (configs=None) must be rebuildable
        from model + checkpoint alone: the Table 3 bank is re-derived
        from the restored history, not from a fresh bootstrap."""
        series, _, split = deployment
        service = MonitoringService(
            classifier_factory=fast_forest, min_duration_points=2
        )
        service.bootstrap(series.slice(0, split))
        for value in series.values[split:split + 10]:
            service.ingest(float(value))
        model_path = tmp_path / "model.json"
        ckpt_path = tmp_path / "service.json"
        save_model(service.opprentice, model_path)
        save_service_checkpoint(service, ckpt_path)

        clone = MonitoringService(
            classifier_factory=fast_forest, min_duration_points=2
        )
        assert clone.opprentice.extractor.config_bank is None
        load_model(model_path, opprentice=clone.opprentice)
        load_service_checkpoint(ckpt_path, clone)
        assert clone.opprentice.extractor.config_bank is not None
        probe = float(series.values[split + 10])
        assert clone.ingest(probe) == service.ingest(probe)

    def test_checkpoint_version_rejected(self, deployment, tmp_path):
        series, _, split = deployment
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        ckpt_path = tmp_path / "service.json"
        save_service_checkpoint(service, ckpt_path)
        payload = json.loads(ckpt_path.read_text())
        payload["format_version"] = 999
        ckpt_path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported service"):
            load_service_checkpoint(ckpt_path, service)

    def test_snapshot_version_rejected(self, deployment):
        series, _, split = deployment
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        snapshot = service.snapshot()
        snapshot["format_version"] = 999
        with pytest.raises(ValueError, match="unsupported service"):
            service.restore_snapshot(snapshot)

    def test_restore_requires_fitted_model(self, deployment):
        series, _, split = deployment
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        snapshot = service.snapshot()
        fresh = make_service(series)
        with pytest.raises(RuntimeError, match="fitted model"):
            fresh.restore_snapshot(snapshot)

    def test_snapshot_requires_bootstrap(self, deployment):
        series, _, _ = deployment
        with pytest.raises(RuntimeError, match="bootstrap"):
            make_service(series).snapshot()


# ----------------------------------------------------------------------
# Derived parts: checkpoints at 0, 1 and 672 pending points
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def long_deployment():
    """7 weeks of hourly KPI: 2 bootstrap weeks, then up to 4 weeks
    pending before a checkpoint and one more week after it."""
    from repro.data import SeasonalProfile, generate_kpi, inject_anomalies

    generated = generate_kpi(
        weeks=7,
        interval=3600,
        profile=SeasonalProfile(base_level=100.0, daily_amplitude=0.5,
                                noise_scale=0.02, trend=0.0),
        seed=61,
        name="derive-kpi",
    )
    result = inject_anomalies(
        generated.series, target_fraction=0.06, seed=62, mean_window=4.0
    )
    return result.series, result.windows, 2 * result.series.points_per_week


def model_digest(service, path):
    save_model(service.opprentice, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestDerivedParts:
    @pytest.mark.parametrize("pending", [0, 1, 672])
    def test_restore_equals_undisturbed_twin(
        self, long_deployment, tmp_path, pending
    ):
        series, truth, split = long_deployment
        cut = split + pending
        twin = make_service(series)
        twin.bootstrap(series.slice(0, split))
        for value in series.values[split:cut]:
            twin.ingest(float(value))
        save_model(twin.opprentice, tmp_path / "model.json")
        save_service_checkpoint(twin, tmp_path / "service.json")
        restored = make_service(series)
        load_model(tmp_path / "model.json", opprentice=restored.opprentice)
        load_service_checkpoint(tmp_path / "service.json", restored)

        # The derived parts equal the live ones bit for bit.
        assert restored.pending_points == pending
        assert restored._pending_scores == twin._pending_scores
        assert len(restored._pending_rows) == pending
        for mine, theirs in zip(restored._pending_rows, twin._pending_rows):
            np.testing.assert_array_equal(mine, theirs)
        np.testing.assert_array_equal(
            restored.opprentice._feature_values,
            twin.opprentice._feature_values,
        )

        # Every later decision, alert and retrain agrees.
        resume = cut + 168
        expected, actual = [], []
        for value in series.values[cut:resume]:
            expected.extend(twin.ingest(float(value)))
            actual.extend(restored.ingest(float(value)))
        assert actual == expected
        assert restored._pending_scores == twin._pending_scores
        windows = [
            w for w in truth if w.begin >= split and w.end <= resume
        ]
        twin.submit_labels(windows)
        restored.submit_labels(windows)
        assert restored.retrain() == twin.retrain()
        assert model_digest(restored, tmp_path / "restored.json") == (
            model_digest(twin, tmp_path / "twin.json")
        )
        expected, actual = [], []
        for value in series.values[resume:resume + 24]:
            expected.extend(twin.ingest(float(value)))
            actual.extend(restored.ingest(float(value)))
        assert actual == expected
        assert restored.stats.as_dict() == twin.stats.as_dict()

    def test_checkpoint_holds_no_derived_parts(self, deployment):
        series, _, split = deployment
        service = make_service(series)
        service.bootstrap(series.slice(0, split))
        for value in series.values[split:split + 5]:
            service.ingest(float(value))
        snapshot = service.snapshot()
        assert snapshot["format_version"] == 2
        assert snapshot["pending"] == {
            "values": [float(v) for v in series.values[split:split + 5]]
        }
        assert "train_features" not in snapshot
        assert snapshot["diagnoser"] is None


# ----------------------------------------------------------------------
# Diagnoser digest resolution
# ----------------------------------------------------------------------
def diagnosing_run(series, split, diagnoser, tmp_path):
    """Bootstrap with ``diagnoser``, ingest up to the middle of the
    first alert run that closes, and save the pair there."""
    service = make_service(series, diagnoser=diagnoser)
    service.bootstrap(series.slice(0, split))
    position = split
    while service._run_begin is None or service.stats.alerts_opened == 0:
        service.ingest(float(series.values[position]))
        position += 1
    save_model(service.opprentice, tmp_path / "model.json")
    save_service_checkpoint(service, tmp_path / "service.json")
    return service, position


def restore_pair(series, tmp_path, diagnoser=None, **kwargs):
    clone = make_service(series, diagnoser=diagnoser)
    load_model(tmp_path / "model.json", opprentice=clone.opprentice)
    load_service_checkpoint(tmp_path / "service.json", clone, **kwargs)
    return clone


class TestDiagnoserDigest:
    def test_default_diagnoser_restores_through_a_factory_without_one(
        self, deployment, tmp_path
    ):
        """The benchmark twin's shape: the checkpoint names the default
        diagnoser, the factory builds services without one, and the
        restored service still diagnoses every closed alert alike."""
        from repro.diagnosis import default_diagnoser

        series, _, split = deployment
        service, position = diagnosing_run(
            series, split, default_diagnoser(), tmp_path
        )
        saved = json.loads((tmp_path / "service.json").read_text())
        assert saved["snapshot"]["diagnoser"] == default_diagnoser().sha256()
        clone = restore_pair(series, tmp_path)
        assert clone.diagnoser is default_diagnoser()
        expected, actual = [], []
        for value in series.values[position:]:
            expected.extend(service.ingest(float(value)))
            actual.extend(clone.ingest(float(value)))
        diagnoses = [e.diagnosis for e in expected if e.kind == "closed"]
        assert diagnoses and all(diagnoses)
        assert actual == expected

    def test_own_and_shared_diagnosers_resolve(
        self, deployment, tmp_path, tiny_diagnoser
    ):
        from repro.diagnosis import AnomalyDiagnoser

        series, _, split = deployment
        diagnosing_run(series, split, tiny_diagnoser, tmp_path)
        own = restore_pair(series, tmp_path, diagnoser=tiny_diagnoser)
        assert own.diagnoser is tiny_diagnoser
        copy = AnomalyDiagnoser.from_dict(tiny_diagnoser.to_dict())
        shared = restore_pair(
            series, tmp_path,
            shared_diagnosers={copy.sha256(): copy},
        )
        assert shared.diagnoser is copy

    def test_unknown_digest_raises_and_leaves_the_service_alone(
        self, deployment, tmp_path, tiny_diagnoser
    ):
        series, _, split = deployment
        diagnosing_run(series, split, tiny_diagnoser, tmp_path)
        clone = make_service(series)
        load_model(tmp_path / "model.json", opprentice=clone.opprentice)
        with pytest.raises(ValueError, match="diagnoser"):
            load_service_checkpoint(tmp_path / "service.json", clone)
        assert clone.kpi is None and clone.diagnoser is None


# ----------------------------------------------------------------------
# Checkpoint anywhere: the full bank, cuts drawn at random
# ----------------------------------------------------------------------
def test_checkpoint_anywhere_equals_an_undisturbed_twin(tmp_path):
    """Full Table 3 bank on SRT with a 24-point NaN run and a retrain.
    Seeded random cuts fall before the 3-week same-phase windows warm,
    inside the NaN run and right after the retrain. A service restored
    at each cut runs beside the twin to the end: the same events at
    every point, then the same snapshot and model, bit for bit."""
    from repro.data import make_srt

    series = make_srt(weeks=5).series
    values = series.values.copy()
    ppw = series.points_per_week
    split, nan_run, retrain_at = 2 * ppw, (560, 584), 620
    values[nan_run[0]:nan_run[1]] = np.nan
    rng = np.random.default_rng(30)
    cuts = sorted({
        int(rng.integers(split + 1, 3 * ppw)),
        int(rng.integers(nan_run[0] + 1, nan_run[1])),
        retrain_at + int(rng.integers(0, 3)),
    })
    windows = [
        w for w in points_to_windows(series.labels)
        if w.begin >= split and w.end <= retrain_at
    ]

    def service():
        return MonitoringService(
            classifier_factory=fast_forest, min_duration_points=2
        )

    twin = service()
    twin.bootstrap(series.slice(0, split))
    clones = []
    for i in range(split, len(values)):
        if i == retrain_at:
            for each in [twin] + clones:
                each.submit_labels(windows)
                each.retrain()
        if i in cuts:
            save_model(twin.opprentice, tmp_path / "model.json")
            save_service_checkpoint(twin, tmp_path / "service.json")
            clone = service()
            load_model(tmp_path / "model.json", opprentice=clone.opprentice)
            load_service_checkpoint(tmp_path / "service.json", clone)
            clones.append(clone)
        expected = twin.ingest(float(values[i]))
        for clone in clones:
            assert clone.ingest(float(values[i])) == expected, i
    assert len(clones) == 3
    written = json.dumps(twin.snapshot())
    digest = model_digest(twin, tmp_path / "twin.json")
    for clone in clones:
        assert json.dumps(clone.snapshot()) == written
        assert model_digest(clone, tmp_path / "clone.json") == digest


# ----------------------------------------------------------------------
# Checkpoint size: one value per pending point
# ----------------------------------------------------------------------
#: Upper bound on the service.json bytes one pending point adds: its
#: value as JSON text and a separator (~20 B), with slack for counters
#: whose digit count grows.
BYTES_PER_PENDING_POINT = 25


def test_service_json_grows_by_the_pending_values_only(tmp_path):
    """Full Table 3 bank and default forest on SRT after a two-week
    bootstrap. The file used to carry a 133-column severity row per
    pending point (~2.5 kB each), and then raw-value rings in the
    stream state that filled up to five weeks. Now the stream state
    holds only what the family streams derive, so from 0 pending
    points to 168, 672 and 840 the whole file, stream included, grows
    by at most ~25 B per pending point.
    """
    from repro.data import make_srt

    series = make_srt(weeks=7).series
    split = 2 * series.points_per_week
    service = MonitoringService(min_duration_points=2)
    service.bootstrap(series.slice(0, split))
    sizes = {}
    position = split
    for pending in (0, 168, 672, 840):
        for value in series.values[position:split + pending]:
            service.ingest(float(value))
        position = split + pending
        path = tmp_path / f"service-{pending}.json"
        save_service_checkpoint(service, path)
        sizes[pending] = path.stat().st_size
    assert service.pending_points == 840

    for pending in (168, 672, 840):
        grown = (sizes[pending] - sizes[0]) / pending
        assert grown <= BYTES_PER_PENDING_POINT, sizes
