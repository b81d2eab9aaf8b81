"""Two-sided CUSUM change detector.

The cumulative-sum control chart is the classic sequential
change-detection scheme used across the anomaly-detection literature
the paper builds on (e.g. the sketch-based change detection of
Krishnamurthy et al. [11] runs CUSUM-style forecruns over sketch
buckets). The two-sided form tracks

.. math::

    S^+_t = \\max(0, S^+_{t-1} + z_t - k) \\qquad
    S^-_t = \\max(0, S^-_{t-1} - z_t - k)

where ``z`` is the standardised innovation of the series against a
trailing-window baseline and ``k`` is the slack (drift) parameter. The
severity is ``max(S+, S-)`` — small isolated wiggles decay, sustained
shifts accumulate.

Not part of the Table 3 bank; registered via ``extended_detectors``.
"""

from __future__ import annotations

from collections import deque
from typing import Dict

import numpy as np

from ..timeseries import TimeSeries
from .base import (
    Detector,
    DetectorError,
    ParamValue,
    SeverityStream,
    scale_floor,
    warmup_magnitude,
)

#: Sampled grids used by ``extended_detectors``.
CUSUM_WINDOWS = (20, 50)
CUSUM_SLACKS = (0.25, 0.5, 1.0)


class CUSUM(Detector):
    """Two-sided standardised CUSUM over a trailing baseline window."""

    kind = "cusum"

    def __init__(self, window: int, slack: float):
        if window <= 1:
            raise DetectorError(f"window must be > 1, got {window}")
        if slack < 0:
            raise DetectorError(f"slack must be >= 0, got {slack}")
        self.window = window
        self.slack = slack

    def params(self) -> Dict[str, ParamValue]:
        return {"win": self.window, "k": self.slack}

    def warmup(self) -> int:
        return self.window

    def severities(self, series: TimeSeries) -> np.ndarray:
        values = self._validate(series)
        n = len(values)
        out = np.full(n, np.nan)
        if n <= self.window:
            return out
        # Trailing-window statistics via explicit windows (exactly what
        # the stream computes, so the two modes agree bit-for-bit).
        windows = np.lib.stride_tricks.sliding_window_view(values, self.window)
        mean = np.full(n, np.nan)
        std = np.full(n, np.nan)
        with np.errstate(invalid="ignore"):
            mean[self.window:] = windows[:-1].mean(axis=1)
            std[self.window:] = windows[:-1].std(axis=1)
        # The std floor must be causal: it uses only warm-up data.
        floor = scale_floor(warmup_magnitude(values[: self.window]))
        with np.errstate(invalid="ignore"):
            z = (values - mean) / np.maximum(std, floor)
        positive = 0.0
        negative = 0.0
        for t in range(self.window, n):
            zt = z[t]
            if np.isnan(zt):
                out[t] = np.nan
                continue
            positive = max(0.0, positive + zt - self.slack)
            negative = max(0.0, negative - zt - self.slack)
            out[t] = max(positive, negative)
        return out

    def stream(self) -> SeverityStream:
        return _CUSUMStream(self)


class _CUSUMStream(SeverityStream):
    def __init__(self, detector: CUSUM):
        self._detector = detector
        self._window: deque = deque(maxlen=detector.window)
        self._positive = 0.0
        self._negative = 0.0
        self._prefix_abs_sum = 0.0
        self._prefix_n = 0
        self._floor: float | None = None

    def update(self, value: float) -> float:
        value = float(value)
        detector = self._detector
        if len(self._window) < detector.window:
            if np.isfinite(value):
                self._prefix_abs_sum += abs(value)
                self._prefix_n += 1
            self._window.append(value)
            return float("nan")
        if self._floor is None:
            self._floor = scale_floor(
                self._prefix_abs_sum / self._prefix_n if self._prefix_n else 0.0
            )
        window = np.asarray(self._window)
        severity = float("nan")
        # A missing point in the window or at t leaves the state as is,
        # like the batch NaN z-score.
        if not np.isnan(value) and np.isfinite(window).all():
            mean = float(window.mean())
            std = float(window.std())
            z = (value - mean) / max(std, self._floor)
            self._positive = max(0.0, self._positive + z - detector.slack)
            self._negative = max(0.0, self._negative - z - detector.slack)
            severity = max(self._positive, self._negative)
        self._window.append(value)
        return severity
