"""Saving and loading trained Opprentice models.

Weekly incremental retraining (§4.1) happens on a schedule; between
rounds the deployed detector process needs the *latest anomaly
classifier* on disk. This module persists a fitted :class:`Opprentice`
— the forest, the imputer statistics, the selected cThld, the accuracy
preference and the feature-column names — as a single JSON document.
JSON (not pickle) keeps the artifact portable and safe to load.

Only random-forest classifiers are supported for persistence, which is
what Opprentice deploys; the comparison learners of Fig 10 exist for
evaluation only.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

import numpy as np

from ..evaluation import AccuracyPreference
from ..ml import Imputer, RandomForest
from .jsonio import JSONText, write_json
from .opprentice import Opprentice
from .service import MonitoringService

FORMAT_VERSION = 1

#: On-disk envelope version for full service checkpoints (the inner
#: layout is versioned separately by MonitoringService.snapshot()).
SERVICE_CHECKPOINT_FORMAT_VERSION = 1


def save_model(opprentice: Opprentice, path: Union[str, Path]) -> None:
    """Persist a fitted Opprentice to ``path`` (JSON).

    The forest is written from the text it keeps until its next fit
    (:meth:`~repro.ml.RandomForest.to_json`); the file equals
    ``json.dumps`` of the payload with ``forest.to_dict()`` inline.
    """
    if opprentice.classifier_ is None or opprentice.imputer_ is None:
        raise ValueError("cannot save an unfitted Opprentice")
    if not isinstance(opprentice.classifier_, RandomForest):
        raise TypeError(
            "only RandomForest classifiers are persisted; got "
            f"{type(opprentice.classifier_).__name__}"
        )
    payload = {
        "format_version": FORMAT_VERSION,
        "preference": {
            "recall": opprentice.preference.recall,
            "precision": opprentice.preference.precision,
        },
        "cthld": opprentice.cthld_,
        "feature_names": opprentice.extractor.names,
        "imputer_fill_values": opprentice.imputer_.fill_values_.tolist(),
        "forest": JSONText(opprentice.classifier_.to_json()),
    }
    write_json(path, payload)


def load_model(
    path: Union[str, Path], *, opprentice: Opprentice | None = None
) -> Opprentice:
    """Load a model saved by :func:`save_model`.

    Pass an ``opprentice`` (with its detector configs) to load into; a
    default-bank instance is built otherwise. The stored feature names
    must match the instance's configs — a mismatched bank would feed
    features to the wrong forest columns.
    """
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format {version!r} (expected {FORMAT_VERSION})"
        )
    preference = AccuracyPreference(
        recall=payload["preference"]["recall"],
        precision=payload["preference"]["precision"],
    )
    if opprentice is None:
        opprentice = Opprentice(preference=preference)
    else:
        opprentice.preference = preference

    stored_names = payload["feature_names"]
    configs = opprentice.extractor.config_bank
    if configs is not None:
        current = [c.name for c in configs]
        if current != stored_names:
            raise ValueError(
                "detector bank mismatch: the model was trained with a "
                "different feature set"
            )
    else:
        # Default bank: defer validation until the first extraction by
        # storing the expected names for the error message below.
        pass

    imputer = Imputer()
    imputer.fill_values_ = np.asarray(
        payload["imputer_fill_values"], dtype=np.float64
    )
    forest = RandomForest.from_dict(payload["forest"])
    if forest.n_features_ != len(stored_names):
        raise ValueError("forest feature count does not match feature names")

    opprentice.classifier_ = forest
    opprentice.imputer_ = imputer
    opprentice.cthld_ = float(payload["cthld"])
    return opprentice


def save_service_checkpoint(
    service: MonitoringService,
    path: Union[str, Path],
    *,
    include_features: bool = True,
) -> None:
    """Persist a bootstrapped :class:`MonitoringService`'s full mutable
    state (JSON): warm streams, the open alert run, pending buffers,
    label windows, the labelled history and counters.

    The model itself is saved separately with :func:`save_model`; a
    ``(model.json, service.json)`` pair makes the service restartable
    with a future alert stream identical to the uninterrupted one. Set
    ``include_features=False`` to drop the cached training matrix (the
    O(history × configs) bulk) at the cost of one full refit on the
    first post-restore retraining round.

    Only the state that changed since the last fit is encoded here: the
    forest, the training matrix and the diagnoser are written from the
    JSON text their owners keep until the next fit, and the document
    goes to disk in fragments. The file is byte-identical to
    ``json.dumps`` of ``{"format_version": ..., "snapshot":
    service.snapshot(include_features)}``.
    """
    payload = {
        "format_version": SERVICE_CHECKPOINT_FORMAT_VERSION,
        "snapshot": service.snapshot(
            include_features=include_features, memoised=True
        ),
    }
    write_json(path, payload)


def load_service_checkpoint(
    path: Union[str, Path], service: MonitoringService
) -> MonitoringService:
    """Restore a checkpoint saved by :func:`save_service_checkpoint`
    into ``service``, whose Opprentice must already be fitted (via
    :func:`load_model`) over the same detector bank."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != SERVICE_CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"unsupported service checkpoint format {version!r} "
            f"(expected {SERVICE_CHECKPOINT_FORMAT_VERSION})"
        )
    return service.restore_snapshot(payload["snapshot"])
