"""Anomaly-type diagnosis: classify *what kind* of anomaly an alert is.

Opprentice's output is a binary flag; §2.1's operators distinguish
"jitters, slow ramp-ups, sudden spikes and dips" and react to each
differently. This package adds that second stage: windowed shape
features over the alerted run (:mod:`.features`), a one-vs-rest forest
over the existing ``repro.ml`` machinery (:mod:`.classifier`), trained
on the injectors' free ground-truth kinds (:mod:`.training`), and the
multiclass scoring the CI smoke job reports (:mod:`.evaluate`).

`MonitoringService` attaches the predicted kind to every closed alert
(``AlertEvent.diagnosis``). A service checkpoint names its diagnoser by
sha256 only; restore resolves the digest to the service's own
diagnoser, a non-default one written once per fleet checkpoint, or
:func:`default_diagnoser` (deterministic, so every process fits the
same one). Fleet shards and the serve plane therefore diagnose
identically after a crash-restore.
"""

from .classifier import DIAGNOSER_FORMAT_VERSION, AnomalyDiagnoser
from .evaluate import diagnosis_report, kind_confusion, macro_f1
from .features import CONTEXT_POINTS, FEATURE_NAMES, window_shape_features
from .training import (
    default_diagnoser,
    fit_diagnoser,
    is_default_diagnoser,
    series_period,
    training_corpus,
    window_training_rows,
)

__all__ = [
    "AnomalyDiagnoser",
    "DIAGNOSER_FORMAT_VERSION",
    "CONTEXT_POINTS",
    "FEATURE_NAMES",
    "window_shape_features",
    "default_diagnoser",
    "fit_diagnoser",
    "is_default_diagnoser",
    "series_period",
    "training_corpus",
    "window_training_rows",
    "diagnosis_report",
    "kind_confusion",
    "macro_f1",
]
