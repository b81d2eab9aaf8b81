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

from typing import Dict, Optional, Sequence

import numpy as np

from ..timeseries import TimeSeries
from .base import (
    Detector,
    DetectorConfig,
    DetectorError,
    FamilyDetector,
    FamilyEvaluator,
    FamilyKey,
    FamilyStream,
    ParamValue,
    SeverityStream,
    register_family_builder,
    rolling_mean,
)
from .threshold import SimpleThreshold

#: Table 3 window grid (points).
MA_WINDOWS = (10, 20, 30, 40, 50)
#: Table 3 EWMA weight grid.
EWMA_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9)


class SimpleMA(FamilyDetector):
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

    def family(self) -> FamilyKey:
        return ("window-bank", None)


class WeightedMA(FamilyDetector):
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

    def family(self) -> FamilyKey:
        return ("window-bank", None)


class MAOfDiff(FamilyDetector):
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

    def family(self) -> FamilyKey:
        return ("window-bank", None)


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
        # (tests/test_ewma_bit_identity.py). The stream seeds its
        # prediction with this first output, so the two agree bit for bit.
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
#: The detectors a window bank evaluates.
_WINDOW_MEMBERS = (SimpleThreshold, SimpleMA, WeightedMA, MAOfDiff)


@register_family_builder("window-bank")
class WindowBankEvaluator(FamilyEvaluator):
    """Fused pass over the trailing-window prediction detectors (plus
    the parameterless static threshold, which rides along for free).

    Every config reduces each trailing window on its own, as its stream
    does: simple MA takes the window's mean (:func:`rolling_mean`),
    weighted MA its ``np.convolve`` with the weights, and MA of diff the
    mean of the window's one-slot absolute differences, computed once
    for every MA-of-diff window. A missing point invalidates only the
    windows containing it.
    """

    kind = "window-bank"

    def __init__(self, configs: Sequence[DetectorConfig]):
        super().__init__(configs)
        for config in self.configs:
            if not isinstance(config.detector, _WINDOW_MEMBERS):
                raise DetectorError(
                    f"the window bank cannot evaluate {config.name}"
                )
        #: Largest trailing window of the family (0: threshold only).
        self.span = max(
            getattr(config.detector, "window", 0) for config in self.configs
        )
        self.memory = self.span + 1

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        values = Detector._validate(series)
        n = len(values)
        out = np.full((n, len(self.configs)), np.nan)
        diffs: Optional[np.ndarray] = None
        for j, config in enumerate(self.configs):
            detector = config.detector
            if isinstance(detector, SimpleThreshold):
                out[:, j] = values
            elif isinstance(detector, SimpleMA):
                out[:, j] = np.abs(values - rolling_mean(values, detector.window))
            elif n <= detector.window:
                continue
            elif isinstance(detector, WeightedMA):
                forecast = np.convolve(
                    values, detector._weights[::-1], mode="valid"
                )
                out[detector.window:, j] = np.abs(
                    values[detector.window:] - forecast[:-1]
                )
            else:
                if diffs is None:
                    diffs = np.abs(np.diff(values))
                windows = np.lib.stride_tricks.sliding_window_view(
                    diffs, detector.window
                )
                out[detector.window:, j] = windows.mean(axis=1)
        return out

    def make_stream(self) -> FamilyStream:
        return _WindowBankStream(self)


class _WindowBankStream(FamilyStream):
    """Online counterpart of :class:`WindowBankEvaluator`, keeping no
    state: each config reduces its own part of the bank's last
    ``span + 1`` raw values (the previous ``win`` values, or the ``win``
    newest one-slot differences) with the batch formula; a window
    reaching into the tail's NaN padding is NaN, as in batch."""

    def __init__(self, evaluator: WindowBankEvaluator):
        self._evaluator = evaluator

    def update(self, value: float) -> np.ndarray:
        recent = self.values.tail(self._evaluator.memory)
        previous = recent[:-1]
        diffs: Optional[np.ndarray] = None
        configs = self._evaluator.configs
        out = np.full(len(configs), np.nan)
        # np.add.reduce(tail) / window is tail.mean() minus its overhead.
        for j, config in enumerate(configs):
            detector = config.detector
            window = getattr(detector, "window", 0)
            if isinstance(detector, SimpleThreshold):
                out[j] = value
            elif isinstance(detector, SimpleMA):
                out[j] = abs(value - np.add.reduce(previous[-window:]) / window)
            elif isinstance(detector, WeightedMA):
                forecast = np.convolve(
                    previous[-window:], detector._weights[::-1], mode="valid"
                )
                out[j] = abs(value - forecast[0])
            else:
                if diffs is None:
                    diffs = np.abs(np.diff(recent))
                out[j] = np.add.reduce(diffs[-window:]) / window
        return out


# ----------------------------------------------------------------------
# Streams
# ----------------------------------------------------------------------
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
            # The batch filter's first output, alpha*v + (1-alpha)*v,
            # which can differ from v by an ulp.
            self._prediction = self._alpha * value + (1.0 - self._alpha) * value
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
