"""Seasonal Hybrid ESD (S-H-ESD) severity detector.

Twitter's AnomalyDetection package (Vallis, Hochenbaum & Kejariwal,
2014 — contemporary with the paper) combines a robust seasonal
decomposition with Rosner's generalized ESD test. In the unified
severity model (§4.3.1) we keep the *hybrid* part — residuals against a
same-phase **median** baseline, scaled by the **MAD** of the residuals
in a trailing window — and let the sThld play the role of the ESD
critical value:

1. baseline: median of the same weekly phase over ``window`` weeks
   (as TSD MAD);
2. residual: ``v - baseline``;
3. severity: ``|residual| / (1.4826 * MAD(recent residuals))`` where
   the MAD is taken over the trailing ``window`` weeks of residuals —
   the "hybrid" robust studentisation that makes ESD insensitive to
   other anomalies inside the window.

Registered through ``extended_detectors`` alongside Brutlag and CUSUM.
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
    nan_row_stat,
)
from .historical import MAD_TO_SIGMA

#: Sampled window grid (weeks) used by ``extended_detectors``.
SHESD_WINDOWS_WEEKS = (2, 3)


class SHESD(Detector):
    """Robust seasonal studentised residual (S-H-ESD severity)."""

    kind = "s-h-esd"

    def __init__(self, window_weeks: int, points_per_week: int):
        if window_weeks <= 0:
            raise DetectorError(
                f"window_weeks must be positive, got {window_weeks}"
            )
        if points_per_week <= 0:
            raise DetectorError(
                f"points_per_week must be positive, got {points_per_week}"
            )
        self.window_weeks = window_weeks
        self.points_per_week = points_per_week

    def params(self) -> Dict[str, ParamValue]:
        return {"win": f"{self.window_weeks}w"}

    def warmup(self) -> int:
        # One window of weeks for the baseline + one for the residual MAD.
        return 2 * self.window_weeks * self.points_per_week

    def stream_memory(self) -> None:
        # The MAD floor is fixed from the original warm-up prefix; a
        # truncated buffer would recompute it from a different prefix.
        return None

    def _residuals(self, values: np.ndarray) -> np.ndarray:
        """Residual from the same-phase median baseline (NaN during the
        baseline warm-up)."""
        period = self.points_per_week
        w = self.window_weeks
        n = len(values)
        residuals = np.full(n, np.nan)
        if n <= w * period:
            return residuals
        indices = np.arange(w * period, n)
        offsets = (np.arange(1, w + 1) * period)[np.newaxis, :]
        history = values[indices[:, np.newaxis] - offsets]
        with np.errstate(invalid="ignore"):
            baseline = nan_row_stat(np.nanmedian, history)
        residuals[w * period:] = values[w * period:] - baseline
        return residuals

    def severities(self, series: TimeSeries) -> np.ndarray:
        values = self._validate(series)
        n = len(values)
        out = np.full(n, np.nan)
        start = self.warmup()
        if n <= start:
            return out
        residuals = self._residuals(values)
        mad_window = self.window_weeks * self.points_per_week
        # Trailing MAD of residuals (previous window, current excluded).
        windows = np.lib.stride_tricks.sliding_window_view(
            residuals, mad_window
        )
        with np.errstate(invalid="ignore"):
            medians = nan_row_stat(np.nanmedian, windows)
            mads = nan_row_stat(
                np.nanmedian, np.abs(windows - medians[:, np.newaxis])
            )
        # mads[j] covers residuals[j : j + mad_window]; for point t we
        # need residuals[t - mad_window : t] -> index t - mad_window.
        scale = np.full(n, np.nan)
        scale[mad_window:] = MAD_TO_SIGMA * mads[:-1]
        floor = self._floor(residuals, start)
        with np.errstate(invalid="ignore"):
            out[start:] = np.abs(residuals[start:]) / np.maximum(
                scale[start:], floor
            )
        return out

    @staticmethod
    def _floor(residuals: np.ndarray, start: int) -> float:
        prefix = residuals[:start]
        finite = prefix[np.isfinite(prefix)]
        if len(finite) == 0:
            return 1e-12
        magnitude = float(np.abs(finite).mean())
        return 1e-6 * magnitude if magnitude > 0 else 1e-12

    def stream(self) -> SeverityStream:
        return _SHESDStream(self)


class _SHESDStream(SeverityStream):
    """Ring buffer for the phase baseline + residual deque for the MAD."""

    def __init__(self, detector: SHESD):
        self._detector = detector
        period = detector.points_per_week
        w = detector.window_weeks
        self._ring = np.full(w * period, np.nan)
        self._residuals: deque = deque(maxlen=w * period)
        self._count = 0
        self._floor_sum = 0.0
        self._floor_n = 0
        self._floor: float | None = None

    def update(self, value: float) -> float:
        value = float(value)
        detector = self._detector
        period = detector.points_per_week
        w = detector.window_weeks
        size = len(self._ring)
        position = self._count % size
        start = detector.warmup()

        residual = float("nan")
        if self._count >= size:
            offsets = (
                position - np.arange(1, w + 1) * period
            ) % size
            history = self._ring[offsets]
            finite = history[np.isfinite(history)]
            if len(finite):
                residual = value - float(np.median(finite))

        severity = float("nan")
        if self._count >= start:
            if self._floor is None:
                self._floor = (
                    1e-6 * self._floor_sum / self._floor_n
                    if self._floor_n and self._floor_sum > 0.0
                    else 1e-12
                )
            window = np.asarray(self._residuals)
            finite = window[np.isfinite(window)]
            if len(finite):
                median = float(np.median(finite))
                mad = float(np.median(np.abs(finite - median)))
                scale = MAD_TO_SIGMA * mad
                with np.errstate(invalid="ignore"):
                    severity = abs(residual) / max(scale, self._floor)
        elif np.isfinite(residual):
            self._floor_sum += abs(residual)
            self._floor_n += 1

        self._ring[position] = value
        self._residuals.append(residual)
        self._count += 1
        return severity
