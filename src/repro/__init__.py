"""Opprentice reproduction: automatic KPI anomaly detection.

This package reproduces *Opprentice: Towards Practical and Automatic
Anomaly Detection Through Machine Learning* (Liu et al., IMC 2015):
KPI anomaly detection that combines 14 classic detectors (133 sampled
configurations) as feature extractors for a random forest, with
preference-centric threshold selection (PC-Score) and EWMA-based online
threshold prediction.

Quickstart::

    from repro import Opprentice, make_pv

    kpi = make_pv().series          # a labelled synthetic PV KPI
    opp = Opprentice()
    opp.fit(kpi.slice(0, 8 * kpi.points_per_week))
    result = opp.detect(kpi.slice(8 * kpi.points_per_week, len(kpi)))
    print(result.accuracy())

See README.md for the full tour and DESIGN.md for the paper mapping.
"""

from .core import (
    Alert,
    AlertEvent,
    CrossValidationPredictor,
    DetectionResult,
    EWMAPredictor,
    FeatureExtractor,
    FeatureMatrix,
    MonitoringService,
    OnlineRun,
    Opprentice,
    SeverityNormalizer,
    StreamingDetector,
    TransferDetector,
    WeeklyOutcome,
    alerts_from_predictions,
    best_cthld,
    default_classifier_factory,
    duration_filter,
    explain_point,
    load_model,
    run_online,
    save_model,
)
from .data import make_all, make_pv, make_sr, make_srt
from .detectors import default_configs, default_detectors
from .evaluation import (
    MODERATE_PREFERENCE,
    AccuracyPreference,
    KPIReport,
    PCScoreSelector,
    aucpr,
    evaluate_kpi,
    pr_curve,
)
from .labeling import LabelSession, LabelingTool
from .ml import RandomForest
from .timeseries import AnomalyWindow, TimeSeries

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # containers
    "TimeSeries",
    "AnomalyWindow",
    # framework
    "Opprentice",
    "DetectionResult",
    "OnlineRun",
    "WeeklyOutcome",
    "run_online",
    "FeatureExtractor",
    "FeatureMatrix",
    "EWMAPredictor",
    "CrossValidationPredictor",
    "best_cthld",
    "default_classifier_factory",
    "Alert",
    "AlertEvent",
    "duration_filter",
    "alerts_from_predictions",
    "SeverityNormalizer",
    "TransferDetector",
    "StreamingDetector",
    "MonitoringService",
    "save_model",
    "load_model",
    "explain_point",
    "KPIReport",
    "evaluate_kpi",
    # detectors
    "default_detectors",
    "default_configs",
    # learning
    "RandomForest",
    # evaluation
    "AccuracyPreference",
    "MODERATE_PREFERENCE",
    "PCScoreSelector",
    "pr_curve",
    "aucpr",
    # data
    "make_pv",
    "make_sr",
    "make_srt",
    "make_all",
    # labeling
    "LabelSession",
    "LabelingTool",
]
