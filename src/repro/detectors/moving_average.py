"""Moving-average family: simple MA [4], weighted MA [11], MA of diff,
and EWMA [11].

All four are *prediction-based* detectors: they forecast the current
point from a trailing window (or exponentially weighted history) and use
the absolute residual ``|actual - forecast|`` as the severity (§4.3.1).
"MA of diff" is the search engine's in-house jitter detector: it averages
recent one-slot differences, so sustained jitter accumulates severity.

Table 3 samples ``win = 10, 20, 30, 40, 50`` points for the window
detectors and ``alpha = 0.1, 0.3, 0.5, 0.7, 0.9`` for EWMA.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

import numpy as np

from ..timeseries import TimeSeries
from .base import (
    Detector,
    DetectorError,
    FamilyEvaluator,
    FamilyKey,
    ParamValue,
    SeverityStream,
    prefix_sums,
    register_family_builder,
    rolling_mean,
)
from .threshold import SimpleThreshold

#: Table 3 window grid (points).
MA_WINDOWS = (10, 20, 30, 40, 50)
#: Table 3 EWMA weight grid.
EWMA_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)


class SimpleMA(Detector):
    """Severity = |v[t] - mean(v[t-win : t])|."""

    kind = "simple MA"

    def __init__(self, window: int):
        if window <= 0:
            raise DetectorError(f"window must be positive, got {window}")
        self.window = window

    def params(self) -> Dict[str, ParamValue]:
        return {"win": self.window}

    def warmup(self) -> int:
        return self.window

    def family(self) -> Optional[FamilyKey]:
        return ("window-bank", None)

    def severities(self, series: TimeSeries) -> np.ndarray:
        values = self._validate(series)
        return np.abs(values - rolling_mean(values, self.window))

    def stream(self) -> SeverityStream:
        return _WindowStream(self.window, _mean_forecast)


class WeightedMA(Detector):
    """Linearly weighted MA: recent points weigh more.

    The forecast is ``sum(w_i * v[t-win+i]) / sum(w_i)`` with weights
    ``w_i = i + 1`` (the most recent previous point gets weight ``win``).
    """

    kind = "weighted MA"

    def __init__(self, window: int):
        if window <= 0:
            raise DetectorError(f"window must be positive, got {window}")
        self.window = window
        self._weights = np.arange(1, window + 1, dtype=np.float64)
        self._weights /= self._weights.sum()

    def params(self) -> Dict[str, ParamValue]:
        return {"win": self.window}

    def warmup(self) -> int:
        return self.window

    def family(self) -> Optional[FamilyKey]:
        return ("window-bank", None)

    def severities(self, series: TimeSeries) -> np.ndarray:
        values = self._validate(series)
        n = len(values)
        out = np.full(n, np.nan)
        if n <= self.window:
            return out
        # Forecast for t is the weighted sum of the window ending at t-1.
        forecast = np.convolve(values, self._weights[::-1], mode="valid")
        out[self.window:] = np.abs(values[self.window:] - forecast[:-1])
        return out

    def stream(self) -> SeverityStream:
        weights = self._weights

        def forecast(window_values: np.ndarray) -> float:
            return float(np.dot(window_values, weights))

        return _WindowStream(self.window, forecast)


class MAOfDiff(Detector):
    """Moving average of one-slot absolute differences — the search
    engine's detector for continuous jitters (§5.2). Severity at t is
    the mean of ``|v[i] - v[i-1]|`` over the ``win`` differences ending
    at t (inclusive), so a jittery run keeps severity high."""

    kind = "MA of diff"

    def __init__(self, window: int):
        if window <= 0:
            raise DetectorError(f"window must be positive, got {window}")
        self.window = window

    def params(self) -> Dict[str, ParamValue]:
        return {"win": self.window}

    def warmup(self) -> int:
        return self.window

    def family(self) -> Optional[FamilyKey]:
        return ("window-bank", None)

    def severities(self, series: TimeSeries) -> np.ndarray:
        values = self._validate(series)
        n = len(values)
        out = np.full(n, np.nan)
        if n <= self.window:
            return out
        diffs = np.abs(np.diff(values))
        # Mean of the `window` diffs ending at index t (diff t-1 -> t).
        # Sliding windows (not cumulative sums) so a missing point only
        # invalidates the windows containing it.
        windows = np.lib.stride_tricks.sliding_window_view(diffs, self.window)
        out[self.window:] = windows.mean(axis=1)
        return out

    def stream(self) -> SeverityStream:
        return _MAOfDiffStream(self.window)


class EWMA(Detector):
    """Exponentially weighted moving average predictor [11].

    ``pred[t] = alpha * v[t-1] + (1 - alpha) * pred[t-1]`` seeded with
    the first observation; severity = |v[t] - pred[t]|. Larger ``alpha``
    leans on recent data (§4.3.3).
    """

    kind = "ewma"

    def __init__(self, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise DetectorError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha

    def params(self) -> Dict[str, ParamValue]:
        return {"alpha": self.alpha}

    def warmup(self) -> int:
        return 1

    def stream_memory(self) -> None:
        # The exponential recursion remembers the whole prefix; no
        # finite buffer reproduces it (the stream is O(1) regardless).
        return None

    def severities(self, series: TimeSeries) -> np.ndarray:
        values = self._validate(series)
        n = len(values)
        out = np.full(n, np.nan)
        if n < 2:
            return out

        # Missing points would poison the IIR recursion forever, so the
        # filter runs on a causally forward-filled copy; the severities
        # at missing points themselves stay NaN.
        filled = values
        missing = ~np.isfinite(values)
        if missing.any():
            filled = values.copy()
            idx = np.where(missing, 0, np.arange(n))
            np.maximum.accumulate(idx, out=idx)
            filled = filled[idx]
            leading = np.isnan(filled)
            if leading.all():
                return out
            if leading.any():
                filled[leading] = filled[~leading][0]
        # The EWMA of v[0..t], then shift by one so the prediction for t
        # uses only points up to t-1. The recursion keeps the state form
        # of a first-order IIR filter (carry = (1 - alpha) * y) seeded with
        # (1 - alpha) * v[0]: the rounding the pinned batch output has
        # (tests/test_ewma_bit_identity.py). Seeding y with v[0], as the
        # stream does, differs by an ulp on some series.
        alpha = self.alpha
        decay = 1.0 - alpha
        carry = decay * float(filled[0])
        smoothed = []
        for value in filled[:-1].tolist():
            y = alpha * value + carry
            carry = decay * y
            smoothed.append(y)
        out[1:] = np.abs(values[1:] - np.asarray(smoothed))
        if missing.any():
            # No severity exists before (and at) the first observation.
            first_finite = int(np.flatnonzero(~missing)[0])
            out[: first_finite + 1] = np.nan
        return out

    def stream(self) -> SeverityStream:
        return _EWMAStream(self.alpha)


# ----------------------------------------------------------------------
# Fused family evaluation
# ----------------------------------------------------------------------
@register_family_builder("window-bank")
class WindowBankEvaluator(FamilyEvaluator):
    """Fused pass over the trailing-window prediction detectors (plus
    the parameterless static threshold, which rides along for free).

    The clean-data prefix-sum array is computed once and shared by
    every simple-MA window size; the one-slot absolute differences are
    computed once and shared by every MA-of-diff window. Each column is
    bit-identical to the solo detector: the same :func:`rolling_mean`
    branch runs with the same cumulative sums, and the MA-of-diff
    sliding windows see the same ``diffs`` array.
    """

    kind = "window-bank"

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        values = Detector._validate(series)
        n = len(values)
        out = np.full((n, len(self.configs)), np.nan)
        clean = bool(np.isfinite(values).all())
        shared_cumsum = prefix_sums(values) if clean else None
        diffs: Optional[np.ndarray] = None
        for j, config in enumerate(self.configs):
            detector = config.detector
            if isinstance(detector, SimpleMA):
                out[:, j] = np.abs(
                    values
                    - rolling_mean(values, detector.window, cumsum=shared_cumsum)
                )
            elif isinstance(detector, MAOfDiff):
                if n > detector.window:
                    if diffs is None:
                        diffs = np.abs(np.diff(values))
                    windows = np.lib.stride_tricks.sliding_window_view(
                        diffs, detector.window
                    )
                    out[detector.window:, j] = windows.mean(axis=1)
            elif isinstance(detector, SimpleThreshold):
                out[:, j] = values
            else:
                out[:, j] = detector.severities(series)
        return out


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
def _mean_forecast(window_values: np.ndarray) -> float:
    return float(window_values.mean())


class _WindowStream(SeverityStream):
    """Stream for forecast-from-trailing-window detectors."""

    def __init__(self, window: int, forecast):
        self._window = window
        self._history: deque = deque(maxlen=window)
        self._forecast = forecast

    def update(self, value: float) -> float:
        value = float(value)
        if len(self._history) < self._window:
            self._history.append(value)
            return float("nan")
        severity = abs(value - self._forecast(np.asarray(self._history)))
        self._history.append(value)
        return severity


class _MAOfDiffStream(SeverityStream):
    def __init__(self, window: int):
        self._window = window
        self._diffs: deque = deque(maxlen=window)
        self._last: float | None = None

    def update(self, value: float) -> float:
        value = float(value)
        if self._last is not None:
            self._diffs.append(abs(value - self._last))
        self._last = value
        if len(self._diffs) < self._window:
            return float("nan")
        return float(np.mean(self._diffs))


class _EWMAStream(SeverityStream):
    def __init__(self, alpha: float):
        self._alpha = alpha
        self._prediction: float | None = None
        self._last_filled: float | None = None

    def update(self, value: float) -> float:
        value = float(value)
        if self._prediction is None:
            if np.isnan(value):
                # Leading missing points: wait for the first observation
                # (batch backfills them, which changes nothing because
                # the first severity is NaN anyway).
                return float("nan")
            self._prediction = value
            self._last_filled = value
            return float("nan")
        # Missing points are forward-filled into the recursion, matching
        # the batch mode; their own severity is NaN.
        filled = self._last_filled if np.isnan(value) else value
        severity = abs(value - self._prediction)
        self._prediction = (
            self._alpha * filled + (1.0 - self._alpha) * self._prediction
        )
        self._last_filled = filled
        return severity
