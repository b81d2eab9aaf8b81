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
)

#: Table 3 window grid, in weeks.
TSD_WINDOWS_WEEKS = (1, 2, 3, 4, 5)


class _SeasonalResidual(SamePhaseDetector):
    """Shared machinery: residual from the same time-of-week phase in
    the previous ``window_weeks`` weeks."""

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

    @property
    def lag(self) -> int:
        return self.points_per_week

    @property
    def n_lags(self) -> int:
        return self.window_weeks

    def params(self) -> Dict[str, ParamValue]:
        return {"win": f"{self.window_weeks}w"}

    def family(self) -> Optional[FamilyKey]:
        # TSD and TSD MAD configs of one period share the same-phase
        # history gathers (one per window size).
        return ("seasonal-residual", self.points_per_week)

    def _baseline(self, history: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _score_columns(
        self, tail: np.ndarray, history: np.ndarray, state: None
    ) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.abs(tail - self._baseline(history))


class TSD(_SeasonalResidual):
    """Severity = |v[t] - mean(same phase, previous ``win`` weeks)|."""

    kind = "tsd"

    def _baseline(self, history: np.ndarray) -> np.ndarray:
        return row_nanmean(history)


class TSDMad(_SeasonalResidual):
    """Severity = |v[t] - median(same phase, previous ``win`` weeks)|.

    The median baseline shrugs off a past anomaly (or missing point)
    that would contaminate TSD's mean baseline.
    """

    kind = "tsd MAD"

    def _baseline(self, history: np.ndarray) -> np.ndarray:
        return row_nanmedian(history)


@register_family_builder("seasonal-residual")
class SeasonalResidualEvaluator(SamePhaseEvaluator):
    """Fused pass over TSD + TSD MAD of one period: one same-phase
    history gather per window size feeds both the mean and median
    baselines, in batch and in the stream."""

    kind = "seasonal-residual"
