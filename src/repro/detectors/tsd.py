"""Time series decomposition (TSD) detectors [1] and their MAD variant.

TSD "usually uses a window of weeks to capture long-term violations"
(§4.3.3): the seasonal baseline for point *t* is estimated from the
values at the *same time-of-week phase* in the previous ``win`` weeks,
and the severity is the absolute residual from that baseline.

Two variants, as in Table 3 (``win = 1..5`` weeks each):

* **TSD** — baseline is the *mean* of the same-phase history.
* **TSD MAD** — baseline is the *median*; §5.2 explains the MAD/median
  patch "can improve the robustness to missing data and outliers", i.e.
  a past anomaly or missing point in the window does not drag the
  baseline (dirty-data handling, §6).

Missing (NaN) points in the history are ignored by both variants via
nan-aware statistics.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

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
    nan_row_stat,
    register_family_builder,
)

#: Table 3 window grid, in weeks.
TSD_WINDOWS_WEEKS = (1, 2, 3, 4, 5)


def _history_matrix(
    values: np.ndarray, window_periods: int, period_points: int
) -> np.ndarray:
    """``history[t, k]`` = value at the same phase, k+1 periods before
    point ``window * period + t``. Shared by TSD and TSD MAD configs of
    one window size — the gather depends only on the geometry, not the
    baseline statistic."""
    n = len(values)
    indices = np.arange(window_periods * period_points, n)
    offsets = (np.arange(1, window_periods + 1) * period_points)[np.newaxis, :]
    return values[indices[:, np.newaxis] - offsets]


class _SeasonalResidual(Detector):
    """Shared machinery: residual from a same-phase seasonal baseline."""

    def __init__(self, window_periods: int, period_points: int):
        if window_periods <= 0:
            raise DetectorError(
                f"window_periods must be positive, got {window_periods}"
            )
        if period_points <= 0:
            raise DetectorError(
                f"period_points must be positive, got {period_points}"
            )
        self.window_periods = window_periods
        self.period_points = period_points

    def warmup(self) -> int:
        return self.window_periods * self.period_points

    def family(self) -> Optional[FamilyKey]:
        # TSD and TSD MAD configs of one period share the same-phase
        # history gathers (one per window size).
        return ("seasonal-residual", self.period_points)

    def _baseline(self, history: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def severities(self, series: TimeSeries) -> np.ndarray:
        values = self._validate(series)
        n = len(values)
        period = self.period_points
        w = self.window_periods
        out = np.full(n, np.nan)
        if n <= w * period:
            return out
        history = _history_matrix(values, w, period)
        with np.errstate(invalid="ignore"):
            baseline = self._baseline(history)
        out[w * period:] = np.abs(values[w * period:] - baseline)
        return out

    def stream(self) -> SeverityStream:
        return _SeasonalStream(
            self.window_periods, self.period_points, self._baseline
        )


class _SeasonalStream(SeverityStream):
    """O(1)-memory-indexed stream: a ring buffer of the last
    ``window * period`` values gives the same-phase history directly
    (the slot about to be overwritten *is* the value one full window
    ago)."""

    def __init__(
        self,
        window_periods: int,
        period_points: int,
        baseline: Callable[[np.ndarray], np.ndarray],
    ):
        self._window = window_periods
        self._period = period_points
        self._baseline = baseline
        size = window_periods * period_points
        self._ring = np.full(size, np.nan)
        self._count = 0

    def update(self, value: float) -> float:
        value = float(value)
        size = len(self._ring)
        position = self._count % size
        severity = float("nan")
        if self._count >= size:
            offsets = (
                position - np.arange(1, self._window + 1) * self._period
            ) % size
            history = self._ring[offsets]
            with np.errstate(invalid="ignore"):
                baseline = self._baseline(history[np.newaxis, :])[0]
            severity = abs(value - baseline)
        self._ring[position] = value
        self._count += 1
        return severity


class TSD(_SeasonalResidual):
    """Severity = |v[t] - mean(same phase, previous ``win`` weeks)|."""

    kind = "tsd"

    def __init__(self, window_weeks: int, points_per_week: int):
        if points_per_week <= 0:
            raise DetectorError(
                f"points_per_week must be positive, got {points_per_week}"
            )
        super().__init__(window_weeks, points_per_week)
        self.window_weeks = window_weeks

    def params(self) -> Dict[str, ParamValue]:
        return {"win": f"{self.window_weeks}w"}

    def _baseline(self, history: np.ndarray) -> np.ndarray:
        return nan_row_stat(np.nanmean, history)


class TSDMad(_SeasonalResidual):
    """Severity = |v[t] - median(same phase, previous ``win`` weeks)|.

    The median baseline shrugs off a past anomaly (or missing point)
    that would contaminate TSD's mean baseline.
    """

    kind = "tsd MAD"

    def __init__(self, window_weeks: int, points_per_week: int):
        if points_per_week <= 0:
            raise DetectorError(
                f"points_per_week must be positive, got {points_per_week}"
            )
        super().__init__(window_weeks, points_per_week)
        self.window_weeks = window_weeks

    def params(self) -> Dict[str, ParamValue]:
        return {"win": f"{self.window_weeks}w"}

    def _baseline(self, history: np.ndarray) -> np.ndarray:
        return nan_row_stat(np.nanmedian, history)


@register_family_builder("seasonal-residual")
class SeasonalResidualEvaluator(FamilyEvaluator):
    """Fused pass over TSD + TSD MAD: one same-phase history gather per
    window size feeds both the mean and median baselines. Columns are
    bit-identical to the solo detectors — the gather, error-state guard
    and residual arithmetic are the same code path."""

    kind = "seasonal-residual"

    def __init__(self, configs):
        super().__init__(configs)
        periods = {config.detector.period_points for config in self.configs}
        if len(periods) != 1:
            raise DetectorError(
                f"seasonal-residual family spans several periods: {sorted(periods)}"
            )
        self.period_points = periods.pop()

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        values = Detector._validate(series)
        n = len(values)
        out = np.full((n, len(self.configs)), np.nan)
        period = self.period_points
        by_window: Dict[int, List[Tuple[int, DetectorConfig]]] = {}
        for j, config in enumerate(self.configs):
            by_window.setdefault(config.detector.window_periods, []).append(
                (j, config)
            )
        for w, items in sorted(by_window.items()):
            start = w * period
            if n <= start:
                continue
            history = _history_matrix(values, w, period)
            tail = values[start:]
            with np.errstate(invalid="ignore"):
                for j, config in items:
                    baseline = config.detector._baseline(history)
                    out[start:, j] = np.abs(tail - baseline)
        return out
