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

from typing import Dict, Optional

import numpy as np

from .base import (
    DetectorError,
    FamilyKey,
    ParamValue,
    SamePhaseDetector,
    SamePhaseEvaluator,
    register_family_builder,
    row_nanmean,
    row_nanmedian,
    row_nanstd,
    scale_floor,
)

#: Table 3 window grid, in weeks.
HISTORICAL_WINDOWS_WEEKS = (1, 2, 3, 4, 5)

#: Consistency constant making MAD estimate the Gaussian sigma.
MAD_TO_SIGMA = 1.4826


class _HistoricalBase(SamePhaseDetector):
    """Same-time-of-day history shared by both variants."""

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

    @property
    def lag(self) -> int:
        return self.points_per_day

    @property
    def n_lags(self) -> int:
        return self.window_days

    def params(self) -> Dict[str, ParamValue]:
        return {"win": f"{self.window_weeks}w"}

    def family(self) -> Optional[FamilyKey]:
        # Average and MAD configs of one grid share the history gather
        # and scale floor (one per window size).
        return ("historical", self.points_per_day)

    def _prefix_state(self, prefix: np.ndarray) -> float:
        return self._scale_floor(prefix)

    @staticmethod
    def _scale_floor(prefix: np.ndarray) -> float:
        """Floor for the scale estimate so constant histories do not
        yield infinite severities. Computed from the warm-up prefix only
        so severities stay causal (appending future data must never
        change past severities)."""
        return scale_floor(row_nanmean(np.abs(prefix)))


class HistoricalAverage(_HistoricalBase):
    """Severity = |v - mean| / std over the same-time-of-day history."""

    kind = "historical average"

    def _score_columns(
        self, tail: np.ndarray, history: np.ndarray, floor: float
    ) -> np.ndarray:
        mean = row_nanmean(history)
        std = row_nanstd(history)
        return np.abs(tail - mean) / np.maximum(std, floor)


class HistoricalMad(_HistoricalBase):
    """Severity = |v - median| / (1.4826 * MAD) over the history."""

    kind = "historical MAD"

    def _score_columns(
        self, tail: np.ndarray, history: np.ndarray, floor: float
    ) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            median = row_nanmedian(history)
            mad = row_nanmedian(np.abs(history - median[:, np.newaxis]))
        scale = np.maximum(MAD_TO_SIGMA * mad, floor)
        return np.abs(tail - median) / scale


@register_family_builder("historical")
class HistoricalBankEvaluator(SamePhaseEvaluator):
    """Fused pass over historical average + historical MAD of one day
    grid: one same-time-of-day history gather and one scale floor per
    window size feed both variants' statistics, in batch and in the
    stream."""

    kind = "historical"
