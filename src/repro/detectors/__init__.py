"""The 14 basic detectors of Table 3, modelled as feature extractors."""

from .arima import ARIMA, ARIMAOrder
from .brutlag import Brutlag
from .cusum import CUSUM
from .base import (
    STREAM_BUFFER_SLACK,
    Detector,
    DetectorConfig,
    DetectorError,
    FamilyEvaluator,
    FamilyKey,
    FamilyStream,
    SeverityStream,
    SoloEvaluator,
    StreamBank,
    build_configs,
    build_family_evaluators,
    register_family_builder,
    rolling_mean,
    rolling_std,
)
from .diff import Diff
from .historical import HistoricalAverage, HistoricalMad
from .holt_winters import HoltWinters
from .moving_average import EWMA, MAOfDiff, SimpleMA, WeightedMA
from .registry import (
    EXPECTED_CONFIGURATIONS,
    extended_detectors,
    EXPECTED_DETECTORS,
    configs_for,
    default_configs,
    default_detectors,
    registry_table,
)
from .shesd import SHESD
from .svd import SVDDetector
from .threshold import SimpleThreshold
from .tsd import TSD, TSDMad
from .wavelet import WaveletDetector

__all__ = [
    "Detector",
    "DetectorConfig",
    "DetectorError",
    "SeverityStream",
    "FamilyEvaluator",
    "FamilyKey",
    "FamilyStream",
    "SoloEvaluator",
    "StreamBank",
    "STREAM_BUFFER_SLACK",
    "build_configs",
    "build_family_evaluators",
    "register_family_builder",
    "rolling_mean",
    "rolling_std",
    "SimpleThreshold",
    "Diff",
    "SimpleMA",
    "WeightedMA",
    "MAOfDiff",
    "EWMA",
    "TSD",
    "TSDMad",
    "HistoricalAverage",
    "HistoricalMad",
    "HoltWinters",
    "SVDDetector",
    "WaveletDetector",
    "ARIMA",
    "ARIMAOrder",
    "Brutlag",
    "CUSUM",
    "SHESD",
    "extended_detectors",
    "default_detectors",
    "default_configs",
    "configs_for",
    "registry_table",
    "EXPECTED_CONFIGURATIONS",
    "EXPECTED_DETECTORS",
]
