"""Version-1 and version-2 stream checkpoints restore by replay.

Stream checkpoints store one state per detector family, every Table 3
family included (version 3). ``tests/data/stream_checkpoint_v1`` and
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
"""

import json
from pathlib import Path

import pytest

from repro.core import (
    STREAM_CHECKPOINT_VERSION,
    MonitoringService,
    StreamingDetector,
    load_model,
    load_service_checkpoint,
)
from repro.data import SeasonalProfile, generate_kpi, inject_anomalies

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


def make_service(series):
    return MonitoringService(
        configs=small_bank(series.points_per_week),
        classifier_factory=fast_forest,
        min_duration_points=2,
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
    after = restored.snapshot()["pending"]["scores"][LIVE_AT_CUT:]
    assert after == twin.snapshot()["pending"]["scores"][LIVE_AT_CUT:]
    written = restored.snapshot()["stream"]["format_version"]
    assert written == STREAM_CHECKPOINT_VERSION == 3


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
