"""The "Diff" detector used by the studied search engine (§5.2).

Diff "simply measures anomaly severities using the differences between
the current point and the point of last slot, the point of last day,
and the point of last week" — three configurations (Table 3), one per
lag.
"""

from __future__ import annotations

from typing import Dict, Sequence

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
    register_family_builder,
)

#: The three Table 3 lags, expressed as (name, days) pairs; last-slot is
#: a one-point lag regardless of interval.
LAG_NAMES = ("last-slot", "last-day", "last-week")


class Diff(FamilyDetector):
    """Severity = |v[t] - v[t - lag]|.

    Parameters
    ----------
    lag_name:
        One of ``"last-slot"``, ``"last-day"``, ``"last-week"``.
    lag_points:
        The lag expressed in grid points (1 for last-slot; the registry
        computes day/week lags from the KPI interval).
    """

    kind = "diff"

    def __init__(self, lag_name: str, lag_points: int):
        if lag_name not in LAG_NAMES:
            raise DetectorError(
                f"lag_name must be one of {LAG_NAMES}, got {lag_name!r}"
            )
        if lag_points <= 0:
            raise DetectorError(f"lag_points must be positive, got {lag_points}")
        self.lag_name = lag_name
        self.lag_points = lag_points

    def params(self) -> Dict[str, ParamValue]:
        return {"lag": self.lag_name}

    def warmup(self) -> int:
        return self.lag_points

    def family(self) -> FamilyKey:
        # Every lag reads the same trailing values.
        return ("diff", None)


@register_family_builder("diff")
class DiffBankEvaluator(FamilyEvaluator):
    """Every lag's differences from one validated series; the stream
    reads each lag's value from the bank's tail of raw values."""

    kind = "diff"

    def __init__(self, configs: Sequence[DetectorConfig]):
        super().__init__(configs)
        self.lags = [config.detector.lag_points for config in self.configs]
        self.memory = max(self.lags) + 1
        #: Each lag's place in a tail of raw values ending at the point.
        self.backs = -1 - np.array(self.lags)

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        values = Detector._validate(series)
        out = np.full((len(values), len(self.configs)), np.nan)
        for j, lag in enumerate(self.lags):
            if len(values) > lag:
                out[lag:, j] = np.abs(values[lag:] - values[:-lag])
        return out

    def make_stream(self) -> FamilyStream:
        return _DiffBankStream(self)


class _DiffBankStream(FamilyStream):
    """|point - the value each lag back| from the bank's NaN-padded
    tail, NaN until the lag is reached, as in batch. The stream keeps
    no state of its own."""

    def __init__(self, evaluator: DiffBankEvaluator):
        self._evaluator = evaluator

    def update(self, value: float) -> np.ndarray:
        evaluator = self._evaluator
        return np.abs(value - self.values.tail(evaluator.memory)[evaluator.backs])
