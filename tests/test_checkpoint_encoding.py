"""Checkpoint files stay byte-identical to their plain encoding.

``save_model`` writes the forest from the JSON text it keeps until the
next fit, and writes the document in fragments; ``save_service_checkpoint``
writes the service's inputs, with the diagnoser named by its sha256.
The oracle is the plain encoding of the public payloads: ``json.dumps``
of ``{"format_version": 1, "snapshot": service.snapshot()}`` and of the
``save_model`` payload with ``forest.to_dict()`` inline. A seeded
sequence of ingest, labels, retrain, restore and save must match it
byte for byte after every step.
"""

import hashlib
import json
import math
from collections import deque

import numpy as np
import pytest

from repro.core import (
    MonitoringService,
    load_model,
    load_service_checkpoint,
    save_model,
    save_service_checkpoint,
)
from repro.core.jsonio import JSONText, iter_json
from repro.detectors.base import _decode_state, _encode_state
from repro.diagnosis import AnomalyDiagnoser
from repro.fleet import FleetManager
from repro.ml import RandomForest
from repro.timeseries import AnomalyWindow

from test_diagnosis import tiny_diagnoser  # noqa: F401  (fixture)
from test_opprentice import fast_forest, small_bank


@pytest.fixture(scope="module")
def deployment():
    """3 weeks of hourly KPI with anomalies: 2 bootstrap + 1 live."""
    from repro.data import SeasonalProfile, generate_kpi, inject_anomalies

    generated = generate_kpi(
        weeks=3,
        interval=3600,
        profile=SeasonalProfile(base_level=100.0, daily_amplitude=0.5,
                                noise_scale=0.02, trend=0.0),
        seed=141,
        name="encoding-kpi",
    )
    result = inject_anomalies(
        generated.series, target_fraction=0.06, seed=142, mean_window=4.0
    )
    series = result.series
    return series, result.windows, 2 * series.points_per_week


def make_service(series, diagnoser=None):
    return MonitoringService(
        configs=small_bank(series.points_per_week),
        classifier_factory=fast_forest,
        min_duration_points=2,
        diagnoser=diagnoser,
    )


def oracle_model(opprentice) -> str:
    return json.dumps({
        "format_version": 1,
        "preference": {
            "recall": opprentice.preference.recall,
            "precision": opprentice.preference.precision,
        },
        "cthld": opprentice.cthld_,
        "feature_names": opprentice.extractor.names,
        "imputer_fill_values": opprentice.imputer_.fill_values_.tolist(),
        "forest": opprentice.classifier_.to_dict(),
    })


def oracle_service(service) -> str:
    return json.dumps({"format_version": 1, "snapshot": service.snapshot()})


def save_and_check(service, directory):
    directory.mkdir(parents=True, exist_ok=True)
    save_model(service.opprentice, directory / "model.json")
    save_service_checkpoint(service, directory / "service.json")
    assert (directory / "model.json").read_bytes() == (
        oracle_model(service.opprentice).encode()
    )
    assert (directory / "service.json").read_bytes() == (
        oracle_service(service).encode()
    )


def restore_from(directory, series, diagnoser, factory_diagnoser):
    """A fresh service rebuilt from a saved pair. With
    ``factory_diagnoser`` the new service is built with ``diagnoser``
    and the checkpoint's digest resolves to it; without, the digest
    resolves through a copy handed over as a fleet checkpoint's shared
    diagnoser."""
    clone = make_service(
        series, diagnoser=diagnoser if factory_diagnoser else None
    )
    shared = {}
    if diagnoser is not None and not factory_diagnoser:
        copy = AnomalyDiagnoser.from_dict(diagnoser.to_dict())
        shared = {copy.sha256(): copy}
    load_model(directory / "model.json", opprentice=clone.opprentice)
    load_service_checkpoint(
        directory / "service.json", clone, shared_diagnosers=shared
    )
    return clone


# ----------------------------------------------------------------------
# Seeded operation sequences
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "seed, with_diagnoser, factory_diagnoser",
    [
        (0, True, True),
        (1, False, True),
        (2, True, False),
        (3, False, False),
    ],
)
def test_seeded_sequence_files_match_oracle(
    deployment, tiny_diagnoser, tmp_path,  # noqa: F811
    seed, with_diagnoser, factory_diagnoser,
):
    series, truth, split = deployment
    rng = np.random.default_rng(seed)
    diagnoser = tiny_diagnoser if with_diagnoser else None
    service = make_service(series, diagnoser=diagnoser)
    service.bootstrap(series.slice(0, split))
    position = split
    ops = ("ingest", "labels", "retrain", "restore")
    done = set()
    for step in range(24):
        op = ops[int(rng.integers(len(ops)))] if step >= 4 else ops[step]
        if op == "ingest" and position < len(series):
            end = min(len(series), position + int(rng.integers(1, 24)))
            for value in series.values[position:end]:
                service.ingest(float(value))
            position = end
        elif op == "labels":
            visible = [
                AnomalyWindow(w.begin, w.end)
                for w in truth
                if split <= w.begin and w.end <= position
            ]
            service.submit_labels(visible)
        elif op == "retrain" and service.pending_points:
            service.retrain()
        elif op == "restore":
            saved = tmp_path / f"restore-{step}"
            save_and_check(service, saved)
            service = restore_from(
                saved, series, tiny_diagnoser, factory_diagnoser
            )
            if with_diagnoser:
                assert service.diagnoser.sha256() == tiny_diagnoser.sha256()
        else:
            continue
        done.add(op)
        save_and_check(service, tmp_path / f"step-{step}")
    assert done == set(ops)
    assert service.stats.retrain_rounds >= 1


def test_fleet_files_match_oracle_and_survive_restore(
    deployment, tiny_diagnoser, tmp_path, monkeypatch,  # noqa: F811
):
    """Two KPIs sharing one diagnoser: it is written once per fleet
    checkpoint, to ``diagnoser.json``, every per-KPI file matches the
    oracle, and a fleet restored through a factory without a diagnoser
    resolves it from that file and writes the same bytes again."""
    series, truth, split = deployment
    fleet = FleetManager(n_shards=1, batch_points=8)
    for kpi_id in ("kpi-a", "kpi-b"):
        service = make_service(series, diagnoser=tiny_diagnoser)
        fleet.add_kpi(
            kpi_id, service=service, bootstrap=series.slice(0, split)
        )
    digest = tiny_diagnoser.sha256()
    encodes = []
    to_dict = AnomalyDiagnoser.to_dict
    monkeypatch.setattr(
        AnomalyDiagnoser, "to_dict",
        lambda self: encodes.append(id(self)) or to_dict(self),
    )

    def check(directory):
        for kpi_id in fleet.kpi_ids:
            kpi_dir = directory / "kpis" / kpi_id
            service = fleet.service(kpi_id)
            assert (kpi_dir / "model.json").read_text() == oracle_model(
                service.opprentice
            )
            assert (kpi_dir / "service.json").read_text() == oracle_service(
                service
            )
        assert json.loads((directory / "diagnoser.json").read_text()) == {
            digest: to_dict(tiny_diagnoser)
        }

    for round_ in range(3):
        for kpi_id in fleet.kpi_ids:
            start = split + 40 * round_
            fleet.offer_many(kpi_id, series.values[start:start + 40])
        fleet.drain_all()
        encodes.clear()
        fleet.save(tmp_path / f"round-{round_}")
        assert encodes == [id(tiny_diagnoser)]
        check(tmp_path / f"round-{round_}")
        if round_ == 1:
            for kpi_id in fleet.kpi_ids:
                fleet.submit_labels(kpi_id, truth)
            fleet.retrain()

    saved = tmp_path / "round-2"
    restored = FleetManager.restore(
        saved, service_factory=lambda kpi_id: make_service(series)
    )
    shared = restored.service("kpi-a").diagnoser
    assert shared is restored.service("kpi-b").diagnoser
    assert shared is not tiny_diagnoser and shared.sha256() == digest
    restored.save(tmp_path / "again")
    for name in ("fleet.json", "diagnoser.json", "kpis/kpi-a/model.json",
                 "kpis/kpi-a/service.json", "kpis/kpi-b/service.json"):
        assert (tmp_path / "again" / name).read_bytes() == (
            saved / name
        ).read_bytes()


# ----------------------------------------------------------------------
# Memo lifetime
# ----------------------------------------------------------------------
def test_retrain_replaces_forest_text(deployment, tmp_path):
    series, truth, split = deployment
    service = make_service(series)
    service.bootstrap(series.slice(0, split))
    for value in series.values[split:split + 48]:
        service.ingest(float(value))
    save_and_check(service, tmp_path / "before")
    opprentice = service.opprentice
    old_forest = opprentice.classifier_
    old_forest_text = old_forest.to_json()
    assert old_forest.to_json() is old_forest_text

    service.submit_labels(
        [w for w in truth if split <= w.begin and w.end <= split + 48]
    )
    service.retrain()
    # The refit built a new forest with a cold memo.
    assert opprentice.classifier_ is not old_forest
    assert opprentice.classifier_._json is None
    save_and_check(service, tmp_path / "after")
    assert opprentice.classifier_.to_json() != old_forest_text


def test_refit_in_place_drops_forest_and_diagnoser_memo():
    rng = np.random.default_rng(7)
    features = rng.normal(size=(60, 4))
    labels = (features[:, 0] > 0.5).astype(np.int8)
    forest = RandomForest(n_estimators=3, seed=1).fit(features, labels)
    text = forest.to_json()
    assert text == json.dumps(forest.to_dict())
    forest.fit(features[:40], labels[:40])
    assert forest._json is None
    assert forest.to_json() == json.dumps(forest.to_dict()) != text

    def plain_sha256(diagnoser):
        text = json.dumps(diagnoser.to_dict())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    kinds = ["spike" if x > 0 else "dip" for x in features[:, 1]]
    diagnoser = AnomalyDiagnoser(n_estimators=3).fit(features, kinds)
    digest = diagnoser.sha256()
    assert digest == plain_sha256(diagnoser)
    assert diagnoser.sha256() is digest
    diagnoser.fit(features[:40], kinds[:40])
    assert diagnoser._sha256 is None
    assert diagnoser.sha256() == plain_sha256(diagnoser) != digest


# ----------------------------------------------------------------------
# The piecewise writer
# ----------------------------------------------------------------------
def test_iter_json_equals_dumps_with_parts_inline():
    part = {"a": [1.5, float("nan"), None], "b": {"c": "dé"}}
    payload = {
        "format_version": 1,
        "snapshot": {
            "x": [1, 2.0, float("inf")],
            "part": JSONText(json.dumps(part)),
            "nested": {"inner": JSONText("[]"), "k": True},
            "empty": {},
            "tail": "☃",
        },
    }
    inline = {
        "format_version": 1,
        "snapshot": {
            "x": [1, 2.0, float("inf")],
            "part": part,
            "nested": {"inner": [], "k": True},
            "empty": {},
            "tail": "☃",
        },
    }
    assert "".join(iter_json(payload)) == json.dumps(inline)
    assert len(list(iter_json(payload))) > 1


# ----------------------------------------------------------------------
# The deque fast path
# ----------------------------------------------------------------------
def generic_deque(value):
    """The per-item walk the fast path must reproduce."""
    return {
        "__kind__": "deque",
        "maxlen": value.maxlen,
        "values": [_encode_state(item) for item in value],
    }


@pytest.mark.parametrize("maxlen", [None, 5, 64])
@pytest.mark.parametrize(
    "items",
    [
        [],
        [1.0, 2.5, -0.0, 1e300],
        [float("nan"), 3.0, float("inf"), float("-inf")],
        [1, 2.0, 3],
        [np.float64(1.5), 2.0, np.float64("nan")],
        [None, 1.0, float("nan")],
        [(1.0, 2), (3.5, None), ((float("nan"),), 4)],
        [True, 0.5, False],
        [[1.0, 2.0], 3.0],
    ],
)
def test_deque_fast_path_matches_generic_walk(items, maxlen):
    value = deque(items, maxlen=maxlen)
    encoded = _encode_state(value)
    assert json.dumps(encoded) == json.dumps(generic_deque(value))
    assert [type(x) for x in encoded["values"]] == [
        type(x) for x in generic_deque(value)["values"]
    ]
    decoded = _decode_state(json.loads(json.dumps(encoded)))
    assert decoded.maxlen == maxlen
    assert json.dumps(list(decoded)) == json.dumps(
        [_decode_state(_encode_state(item)) for item in value]
    )


def test_deque_fast_path_copies():
    value = deque([1.0, 2.0], maxlen=3)
    encoded = _encode_state(value)
    value.append(3.0)
    assert encoded["values"] == [1.0, 2.0]
    assert math.isnan(_encode_state(deque([float("nan")]))["values"][0])
