"""Version-1 stream checkpoints restore by replay.

Stream checkpoints store one state per detector family (version 2).
``tests/data/stream_checkpoint_v1`` holds a ``(model.json,
service.json)`` pair written by the version-1 code, whose stream
checkpoint held one state per configuration: the ``small_bank``
service of ``test_service_checkpoint.py``'s deployment, bootstrapped on
three weeks and fed ten live points, with an alert run open at the cut.
The pair was made with ``save_model`` and ``save_service_checkpoint``.

``MonitoringService.restore_snapshot`` rebuilds the streams of such a
checkpoint by replaying the history and pending points they had seen;
the restored service must then reach the same decisions as a twin that
never stopped.
"""

import json
from pathlib import Path

import pytest

from repro.core import (
    MonitoringService,
    StreamingDetector,
    load_model,
    load_service_checkpoint,
)
from repro.data import SeasonalProfile, generate_kpi, inject_anomalies

from test_opprentice import fast_forest, small_bank

V1_PAIR = Path(__file__).parent / "data" / "stream_checkpoint_v1"

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


def v1_snapshot():
    return json.loads((V1_PAIR / "service.json").read_text())["snapshot"]


def test_fixture_is_a_version_1_stream_checkpoint():
    stream = v1_snapshot()["stream"]
    assert stream["format_version"] == 1
    # One state per configuration, not per family.
    assert len(stream["streams"]) == len(stream["feature_names"])


def test_v1_pair_resumes_like_an_undisturbed_twin(deployment):
    series, split = deployment
    cut = split + LIVE_AT_CUT
    twin = make_service(series)
    twin.bootstrap(series.slice(0, split))
    for value in series.values[split:cut]:
        twin.ingest(float(value))

    restored = make_service(series)
    load_model(V1_PAIR / "model.json", opprentice=restored.opprentice)
    load_service_checkpoint(V1_PAIR / "service.json", restored)
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
    assert restored.snapshot()["stream"]["format_version"] == 2


def test_streaming_detector_rejects_version_1(deployment):
    series, _ = deployment
    service = make_service(series)
    load_model(V1_PAIR / "model.json", opprentice=service.opprentice)
    service.opprentice.extractor.configs(series)
    with pytest.raises(ValueError, match="version 1"):
        StreamingDetector(service.opprentice, checkpoint=v1_snapshot()["stream"])


def test_v1_replay_checks_the_bank(deployment):
    series, _ = deployment
    service = make_service(series)
    load_model(V1_PAIR / "model.json", opprentice=service.opprentice)
    snapshot = v1_snapshot()
    snapshot["stream"]["feature_names"].reverse()
    with pytest.raises(ValueError, match="bank mismatch"):
        service.restore_snapshot(snapshot)
