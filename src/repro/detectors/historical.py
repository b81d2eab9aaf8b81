"""Historical average / historical MAD detectors [5].

"Historical average assumes the data follow Gaussian distribution, and
uses how many times of standard deviation the point is away from the
mean as the severity" (§4.3.1). The Gaussian is fitted per *time of
day*: for point *t* the sample is the values at the same time-of-day on
each of the previous ``win * 7`` days (Table 3: ``win = 1..5`` weeks).

The MAD variant replaces (mean, std) with (median, 1.4826 * MAD), the
standard robust scale estimate, improving robustness to dirty data
(§5.2, §6).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..timeseries import TimeSeries
from .base import (
    Detector,
    DetectorConfig,
    DetectorError,
    FamilyEvaluator,
    FamilyKey,
    ParamValue,
    SeverityStream,
    register_family_builder,
    scale_floor,
)

#: Table 3 window grid, in weeks.
HISTORICAL_WINDOWS_WEEKS = (1, 2, 3, 4, 5)

#: Consistency constant making MAD estimate the Gaussian sigma.
MAD_TO_SIGMA = 1.4826


class _HistoricalBase(Detector):
    """Same-time-of-day history matrix shared by both variants."""

    def __init__(self, window_weeks: int, points_per_day: int):
        if window_weeks <= 0:
            raise DetectorError(
                f"window_weeks must be positive, got {window_weeks}"
            )
        if points_per_day <= 0:
            raise DetectorError(
                f"points_per_day must be positive, got {points_per_day}"
            )
        self.window_weeks = window_weeks
        self.points_per_day = points_per_day
        self.window_days = 7 * window_weeks

    def params(self) -> Dict[str, ParamValue]:
        return {"win": f"{self.window_weeks}w"}

    def warmup(self) -> int:
        return self.window_days * self.points_per_day

    def family(self) -> Optional[FamilyKey]:
        # Average and MAD configs of one grid share the history gather
        # and scale floor (one per window size).
        return ("historical", self.points_per_day)

    def severities(self, series: TimeSeries) -> np.ndarray:
        values = self._validate(series)
        n = len(values)
        out = np.full(n, np.nan)
        start = self.warmup()
        if n <= start:
            return out
        history = self._history(values)
        floor = self._scale_floor(values)
        out[start:] = self._score_columns(values[start:], history, floor)
        return out

    def _score_columns(
        self, tail: np.ndarray, history: np.ndarray, floor: float
    ) -> np.ndarray:
        """Severity of each post-warm-up point given its same-time-of-day
        ``history`` rows and the fixed scale ``floor``."""
        raise NotImplementedError

    def stream_memory(self) -> None:
        # The scale floor is fixed from the *original* warm-up prefix
        # (see _scale_floor); a truncated buffer would recompute it from
        # a different prefix. The ring-buffer stream carries it instead.
        return None

    def _history(self, values: np.ndarray) -> np.ndarray:
        """history[i, k] = value at the same time-of-day, k+1 days before
        point ``warmup + i``."""
        n = len(values)
        start = self.warmup()
        indices = np.arange(start, n)
        offsets = (np.arange(1, self.window_days + 1) * self.points_per_day)
        return values[indices[:, np.newaxis] - offsets[np.newaxis, :]]

    def _scale_floor(self, values: np.ndarray) -> float:
        """Floor for the scale estimate so constant histories do not
        yield infinite severities. Computed from the warm-up prefix only
        so severities stay causal (appending future data must never
        change past severities)."""
        prefix = values[: self.warmup()]
        magnitude = np.nanmean(np.abs(prefix)) if len(prefix) else np.nan
        return scale_floor(magnitude)


class _HistoricalStream(SeverityStream):
    """Ring-buffer stream over the same-time-of-day history.

    The scale floor matches the batch mode (:func:`scale_floor` of the
    warm-up prefix's mean magnitude, fixed once the warm-up completes).
    """

    def __init__(self, detector: "_HistoricalBase"):
        self._detector = detector
        size = detector.warmup()
        self._ring = np.full(size, np.nan)
        self._count = 0
        self._prefix_abs_sum = 0.0
        self._prefix_n = 0
        self._floor: float | None = None

    def update(self, value: float) -> float:
        value = float(value)
        detector = self._detector
        size = len(self._ring)
        position = self._count % size
        if self._count < size:
            # Warm-up: accumulate the floor statistic over finite
            # prefix values (matching the batch nanmean semantics).
            if np.isfinite(value):
                self._prefix_abs_sum += abs(value)
                self._prefix_n += 1
            severity = float("nan")
        else:
            if self._floor is None:
                self._floor = scale_floor(
                    self._prefix_abs_sum / self._prefix_n
                    if self._prefix_n else 0.0
                )
            offsets = (
                position
                - np.arange(1, detector.window_days + 1) * detector.points_per_day
            ) % size
            history = self._ring[offsets]
            severity = detector._score_one(value, history, self._floor)
        self._ring[position] = value
        self._count += 1
        return severity


class HistoricalAverage(_HistoricalBase):
    """Severity = |v - mean| / std over the same-time-of-day history."""

    kind = "historical average"

    def stream(self) -> SeverityStream:
        return _HistoricalStream(self)

    def _score_one(
        self, value: float, history: np.ndarray, floor: float
    ) -> float:
        finite = history[np.isfinite(history)]
        if len(finite) == 0:
            return float("nan")
        mean = float(finite.mean())
        std = float(finite.std())
        return abs(value - mean) / max(std, floor)

    def _score_columns(
        self, tail: np.ndarray, history: np.ndarray, floor: float
    ) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            mean = np.nanmean(history, axis=1)
            std = np.nanstd(history, axis=1)
        return np.abs(tail - mean) / np.maximum(std, floor)


class HistoricalMad(_HistoricalBase):
    """Severity = |v - median| / (1.4826 * MAD) over the history."""

    kind = "historical MAD"

    def stream(self) -> SeverityStream:
        return _HistoricalStream(self)

    def _score_one(
        self, value: float, history: np.ndarray, floor: float
    ) -> float:
        finite = history[np.isfinite(history)]
        if len(finite) == 0:
            return float("nan")
        median = float(np.median(finite))
        mad = float(np.median(np.abs(finite - median)))
        return abs(value - median) / max(MAD_TO_SIGMA * mad, floor)

    def _score_columns(
        self, tail: np.ndarray, history: np.ndarray, floor: float
    ) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            median = np.nanmedian(history, axis=1)
            mad = np.nanmedian(
                np.abs(history - median[:, np.newaxis]), axis=1
            )
        scale = np.maximum(MAD_TO_SIGMA * mad, floor)
        return np.abs(tail - median) / scale


@register_family_builder("historical")
class HistoricalBankEvaluator(FamilyEvaluator):
    """Fused pass over historical average + historical MAD: one
    same-time-of-day history gather and one scale floor per window size
    feed both variants' statistics."""

    kind = "historical"

    def __init__(self, configs):
        super().__init__(configs)
        grids = {config.detector.points_per_day for config in self.configs}
        if len(grids) != 1:
            raise DetectorError(
                f"historical family spans several day grids: {sorted(grids)}"
            )
        self.points_per_day = grids.pop()

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        values = Detector._validate(series)
        n = len(values)
        out = np.full((n, len(self.configs)), np.nan)
        by_window: Dict[int, List[Tuple[int, DetectorConfig]]] = {}
        for j, config in enumerate(self.configs):
            by_window.setdefault(config.detector.window_weeks, []).append(
                (j, config)
            )
        for _, items in sorted(by_window.items()):
            lead = items[0][1].detector
            start = lead.warmup()
            if n <= start:
                continue
            history = lead._history(values)
            floor = lead._scale_floor(values)
            tail = values[start:]
            for j, config in items:
                out[start:, j] = config.detector._score_columns(
                    tail, history, floor
                )
        return out
