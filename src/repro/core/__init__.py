"""The Opprentice framework: feature matrix, training strategies, cThld
configuration, online detection, alerting, and cross-KPI transfer."""

from .alerting import Alert, alerts_from_predictions, duration_filter
from .backtest import (
    DEFAULT_PREFERENCE_GRID,
    PreferenceOutcome,
    backtest_preferences,
    render_backtest,
)
from .drift import (
    DriftReport,
    FeatureDrift,
    cthld_drift,
    feature_drift,
    population_stability_index,
)
from .explain import DetectionExplanation, FeatureContribution, explain_features, explain_point
from .execution import (
    BACKEND_NAMES,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    build_tasks,
    resolve_backend,
    resolve_workers,
)
from .feature_matrix import FeatureExtractor, FeatureMatrix, extract_features
from .severity_cache import CACHE_DIR_ENV, SeverityCache, column_key, series_digest
from .opprentice import (
    DetectionResult,
    OnlineRun,
    Opprentice,
    WeeklyOutcome,
    default_classifier_factory,
    run_online,
)
from .persistence import (
    load_checkpoint,
    load_model,
    load_service_checkpoint,
    save_checkpoint,
    save_model,
    save_service_checkpoint,
)
from .prediction import (
    EWMA_CTHLD_ALPHA,
    CrossValidationPredictor,
    CThldPredictor,
    EWMAPredictor,
    best_cthld,
)
from .training import (
    F4,
    FIRST_TEST_WEEK,
    I1,
    I4,
    INITIAL_TRAIN_WEEKS,
    R4,
    STRATEGIES,
    TrainingStrategy,
    TrainTestSplit,
)
from .service import (
    SERVICE_SNAPSHOT_VERSION,
    AlertEvent,
    MonitoringService,
    ServiceStats,
)
from .streaming import (
    STREAM_CHECKPOINT_VERSION,
    StreamDecision,
    StreamingDetector,
)
from .transfer import SeverityNormalizer, TransferDetector

__all__ = [
    "save_model",
    "load_model",
    "save_checkpoint",
    "load_checkpoint",
    "save_service_checkpoint",
    "load_service_checkpoint",
    "FeatureExtractor",
    "FeatureMatrix",
    "extract_features",
    "BACKEND_NAMES",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "build_tasks",
    "resolve_backend",
    "resolve_workers",
    "SeverityCache",
    "CACHE_DIR_ENV",
    "column_key",
    "series_digest",
    "backtest_preferences",
    "PreferenceOutcome",
    "render_backtest",
    "DEFAULT_PREFERENCE_GRID",
    "DriftReport",
    "FeatureDrift",
    "feature_drift",
    "cthld_drift",
    "population_stability_index",
    "DetectionExplanation",
    "FeatureContribution",
    "explain_features",
    "explain_point",
    "Opprentice",
    "DetectionResult",
    "OnlineRun",
    "WeeklyOutcome",
    "run_online",
    "default_classifier_factory",
    "CThldPredictor",
    "EWMAPredictor",
    "CrossValidationPredictor",
    "best_cthld",
    "EWMA_CTHLD_ALPHA",
    "TrainingStrategy",
    "TrainTestSplit",
    "I1",
    "I4",
    "R4",
    "F4",
    "STRATEGIES",
    "FIRST_TEST_WEEK",
    "INITIAL_TRAIN_WEEKS",
    "Alert",
    "duration_filter",
    "alerts_from_predictions",
    "MonitoringService",
    "AlertEvent",
    "ServiceStats",
    "SERVICE_SNAPSHOT_VERSION",
    "StreamingDetector",
    "StreamDecision",
    "STREAM_CHECKPOINT_VERSION",
    "SeverityNormalizer",
    "TransferDetector",
]
