"""Version-1, version-2 and version-3 stream checkpoints restore by
replay.

Stream checkpoints store one state per detector family and no raw
values (version 4). ``tests/data/stream_checkpoint_v1`` and
``tests/data/stream_checkpoint_v2`` each hold a ``(model.json,
service.json)`` pair written by the code of that version: the
``small_bank`` service of ``test_service_checkpoint.py``'s deployment,
bootstrapped on three weeks and fed ten live points, with an alert run
open at the cut. The pairs were made with ``save_model`` and
``save_service_checkpoint``. A version-1 stream checkpoint held one
state per configuration; a version-2 one held one state per family but
per-config states inside the window bank (and SVD and wavelet, which
``small_bank`` does not use).

``MonitoringService.restore_snapshot`` rebuilds the streams of such a
checkpoint by replaying the history and pending points they had seen;
the restored service must then reach the same decisions as a twin that
never stopped. Each check runs on both pairs.

``tests/data/stream_checkpoint_v3`` is a pair written the same way by
the code whose family states kept rings of raw values (version 3): the
full Table 3 bank over SRT with a 15-tree forest, bootstrapped on two
weeks and fed 88 live points, with an alert run open at the cut. It
restores by replay too.

``tests/data/service_checkpoint_v1`` is a one-KPI fleet directory
(``fleet.json``, ``kpis/ckpt-kpi/model.json`` and ``service.json``)
written by ``FleetManager.save`` of the code whose service snapshots
were version 1: the same service and cut, with the default diagnoser
attached. Its ``service.json`` embeds the training matrix, the pending
rows and scores, and the whole diagnoser. The current reader derives
the first three by one batch extraction and reads the diagnoser from
the dict; the restored service must then decide, alert and retrain
exactly as the twin does.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    SERVICE_SNAPSHOT_VERSION,
    STREAM_CHECKPOINT_VERSION,
    MonitoringService,
    StreamingDetector,
    load_model,
    load_service_checkpoint,
    save_model,
)
from repro.data import SeasonalProfile, generate_kpi, inject_anomalies
from repro.fleet import FleetManager
from repro.timeseries import points_to_windows

from test_opprentice import fast_forest, small_bank

DATA = Path(__file__).parent / "data"


def pair(version: int) -> Path:
    return DATA / f"stream_checkpoint_v{version}"


#: Live points the version-1 service had ingested after its bootstrap.
LIVE_AT_CUT = 10


@pytest.fixture(scope="module")
def deployment():
    generated = generate_kpi(
        weeks=4,
        interval=3600,
        profile=SeasonalProfile(base_level=100.0, daily_amplitude=0.5,
                                noise_scale=0.02, trend=0.0),
        seed=55,
        name="ckpt-kpi",
    )
    series = inject_anomalies(
        generated.series, target_fraction=0.06, seed=56, mean_window=4.0
    ).series
    return series, 3 * series.points_per_week


def make_service(series, diagnoser=None):
    return MonitoringService(
        configs=small_bank(series.points_per_week),
        classifier_factory=fast_forest,
        min_duration_points=2,
        diagnoser=diagnoser,
    )


def old_snapshot(version: int):
    return json.loads((pair(version) / "service.json").read_text())["snapshot"]


def test_fixture_is_a_version_1_stream_checkpoint():
    stream = old_snapshot(1)["stream"]
    assert stream["format_version"] == 1
    # One state per configuration, not per family.
    assert len(stream["streams"]) == len(stream["feature_names"])


def test_fixture_is_a_version_2_stream_checkpoint():
    stream = old_snapshot(2)["stream"]
    assert stream["format_version"] == 2
    # One state per family; the window bank's holds per-config states.
    assert len(stream["streams"]) < len(stream["feature_names"])
    assert len(stream["streams"][0]["streams"]) == 3


def resumes_like_an_undisturbed_twin(version, deployment):
    series, split = deployment
    cut = split + LIVE_AT_CUT
    twin = make_service(series)
    twin.bootstrap(series.slice(0, split))
    for value in series.values[split:cut]:
        twin.ingest(float(value))

    restored = make_service(series)
    load_model(pair(version) / "model.json", opprentice=restored.opprentice)
    load_service_checkpoint(pair(version) / "service.json", restored)
    assert restored.cthld == twin.cthld
    assert restored._run_begin == twin._run_begin is not None
    assert restored._streaming.points_seen == cut

    expected, actual = [], []
    for value in series.values[cut:]:
        expected.extend(twin.ingest(float(value)))
        actual.extend(restored.ingest(float(value)))
    assert expected, "the open run never closed"
    assert actual == expected
    assert restored.stats.as_dict() == twin.stats.as_dict()
    assert restored._pending_scores == twin._pending_scores
    written = restored.snapshot()["stream"]["format_version"]
    assert written == STREAM_CHECKPOINT_VERSION == 4


def test_v1_pair_resumes_like_an_undisturbed_twin(deployment):
    resumes_like_an_undisturbed_twin(1, deployment)


def test_v2_pair_resumes_like_an_undisturbed_twin(deployment):
    resumes_like_an_undisturbed_twin(2, deployment)


def rejected_by_the_streaming_detector(version, deployment):
    series, _ = deployment
    service = make_service(series)
    load_model(pair(version) / "model.json", opprentice=service.opprentice)
    service.opprentice.extractor.configs(series)
    with pytest.raises(ValueError, match=f"version {version}"):
        StreamingDetector(
            service.opprentice, checkpoint=old_snapshot(version)["stream"]
        )


def test_streaming_detector_rejects_version_1(deployment):
    rejected_by_the_streaming_detector(1, deployment)


def test_streaming_detector_rejects_version_2(deployment):
    rejected_by_the_streaming_detector(2, deployment)


def replay_checks_the_bank(version, deployment):
    series, _ = deployment
    service = make_service(series)
    load_model(pair(version) / "model.json", opprentice=service.opprentice)
    snapshot = old_snapshot(version)
    snapshot["stream"]["feature_names"].reverse()
    with pytest.raises(ValueError, match="bank mismatch"):
        service.restore_snapshot(snapshot)


def test_v1_replay_checks_the_bank(deployment):
    replay_checks_the_bank(1, deployment)


def test_v2_replay_checks_the_bank(deployment):
    replay_checks_the_bank(2, deployment)


# ----------------------------------------------------------------------
# Version 3: the full Table 3 bank, raw rings inside the family states
# ----------------------------------------------------------------------
V3 = DATA / "stream_checkpoint_v3"

#: Live points the version-3 SRT service had ingested after its
#: two-week bootstrap.
V3_LIVE_AT_CUT = 88


def srt_service():
    return MonitoringService(classifier_factory=fast_forest, min_duration_points=2)


def test_fixture_is_a_version_3_stream_checkpoint():
    snapshot = json.loads((V3 / "service.json").read_text())["snapshot"]
    stream = snapshot["stream"]
    assert stream["format_version"] == 3
    assert len(stream["feature_names"]) == 133
    # One state per family, the raw rings inside them.
    assert sum("_ring" in state for state in stream["streams"]) == 4
    assert len(snapshot["pending"]["values"]) == V3_LIVE_AT_CUT
    assert snapshot["run"]["begin"] is not None


def test_v3_full_config_checkpoint_resumes_like_an_undisturbed_twin(tmp_path):
    """Replayed streams decide, alert and retrain as the twin does, and
    the restored service ends equal to it, snapshot and model bit for
    bit."""
    from repro.data import make_srt

    series = make_srt(weeks=3).series
    split = 2 * series.points_per_week
    cut = split + V3_LIVE_AT_CUT
    twin = srt_service()
    twin.bootstrap(series.slice(0, split))
    for value in series.values[split:cut]:
        twin.ingest(float(value))

    restored = srt_service()
    load_model(V3 / "model.json", opprentice=restored.opprentice)
    load_service_checkpoint(V3 / "service.json", restored)
    assert restored._run_begin == twin._run_begin is not None
    assert restored._streaming.points_seen == cut

    retrain_at = cut + 40
    expected, actual = [], []
    for value in series.values[cut:retrain_at]:
        expected.extend(twin.ingest(float(value)))
        actual.extend(restored.ingest(float(value)))
    windows = [
        w for w in points_to_windows(series.labels)
        if w.begin >= split and w.end <= retrain_at
    ]
    for service in (twin, restored):
        service.submit_labels(windows)
    assert restored.retrain() == twin.retrain()
    for value in series.values[retrain_at:]:
        expected.extend(twin.ingest(float(value)))
        actual.extend(restored.ingest(float(value)))
    assert expected, "no alert event after the cut"
    assert actual == expected
    assert json.dumps(restored.snapshot()) == json.dumps(twin.snapshot())
    assert model_digest(restored, tmp_path / "restored.json") == (
        model_digest(twin, tmp_path / "twin.json")
    )
    assert restored.snapshot()["stream"]["format_version"] == 4


# ----------------------------------------------------------------------
# Version-1 service checkpoints (embedded derived parts and diagnoser)
# ----------------------------------------------------------------------
SERVICE_V1 = DATA / "service_checkpoint_v1"


def service_v1_snapshot():
    path = SERVICE_V1 / "kpis" / "ckpt-kpi" / "service.json"
    return json.loads(path.read_text())["snapshot"]


def test_fixture_is_a_version_1_service_checkpoint():
    snapshot = service_v1_snapshot()
    assert snapshot["format_version"] == 1
    assert len(snapshot["pending"]["values"]) == LIVE_AT_CUT
    assert len(snapshot["pending"]["rows"]) == LIVE_AT_CUT
    assert snapshot["train_features"]
    assert snapshot["run"]["begin"] is not None
    assert snapshot["diagnoser"]["kinds"]


def model_digest(service, path):
    save_model(service.opprentice, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_v1_service_checkpoint_resumes_like_an_undisturbed_twin(
    deployment, tmp_path
):
    from repro.diagnosis import default_diagnoser

    series, split = deployment
    cut = split + LIVE_AT_CUT
    twin = make_service(series, diagnoser=default_diagnoser())
    twin.bootstrap(series.slice(0, split))
    for value in series.values[split:cut]:
        twin.ingest(float(value))

    fleet = FleetManager.restore(
        SERVICE_V1, service_factory=lambda kpi_id: make_service(series)
    )
    restored = fleet.service("ckpt-kpi")
    assert restored.diagnoser.sha256() == default_diagnoser().sha256()
    assert restored._run_begin == twin._run_begin is not None
    assert restored._pending_scores == twin._pending_scores
    assert len(restored._pending_rows) == LIVE_AT_CUT
    for mine, theirs in zip(restored._pending_rows, twin._pending_rows):
        np.testing.assert_array_equal(mine, theirs)
    np.testing.assert_array_equal(
        restored.opprentice._feature_values, twin.opprentice._feature_values
    )

    retrain_at = cut + 84
    expected, actual = [], []
    for value in series.values[cut:retrain_at]:
        expected.extend(twin.ingest(float(value)))
        actual.extend(restored.ingest(float(value)))
    assert [e.diagnosis for e in expected if e.kind == "closed"]
    assert actual == expected

    windows = [
        w for w in points_to_windows(series.labels)
        if w.begin >= split and w.end <= retrain_at
    ]
    twin.submit_labels(windows)
    restored.submit_labels(windows)
    assert restored.retrain() == twin.retrain()
    assert model_digest(restored, tmp_path / "restored.json") == (
        model_digest(twin, tmp_path / "twin.json")
    )
    expected, actual = [], []
    for value in series.values[retrain_at:]:
        expected.extend(twin.ingest(float(value)))
        actual.extend(restored.ingest(float(value)))
    assert actual == expected
    assert restored.stats.as_dict() == twin.stats.as_dict()

    # The restored service writes the current version, which names the
    # diagnoser by digest instead of embedding it.
    written = restored.snapshot()
    assert written["format_version"] == SERVICE_SNAPSHOT_VERSION == 2
    assert written["diagnoser"] == default_diagnoser().sha256()
