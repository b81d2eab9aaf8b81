"""Holt-Winters (triple exponential smoothing) detector [6].

"Holt-Winters uses the residual error (i.e., the absolute difference
between the actual value and the forecast value of each data point) to
measure the severity" (§4.3.1). We use the additive seasonal form with a
daily season:

.. math::

    \\hat v_t &= \\ell_{t-1} + b_{t-1} + s_{t-m} \\\\
    \\ell_t &= \\alpha (v_t - s_{t-m}) + (1-\\alpha)(\\ell_{t-1} + b_{t-1}) \\\\
    b_t &= \\beta (\\ell_t - \\ell_{t-1}) + (1-\\beta) b_{t-1} \\\\
    s_t &= \\gamma (v_t - \\ell_t) + (1-\\gamma) s_{t-m}

Table 3 samples ``alpha, beta, gamma in {0.2, 0.4, 0.6, 0.8}``, giving
4^3 = 64 configurations. The first season (one day) initialises the
state and is the warm-up window. Missing points keep the state frozen
and get NaN severity.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

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

#: Table 3 smoothing-parameter grid.
HW_GRID = (0.2, 0.4, 0.6, 0.8)


class HoltWinters(FamilyDetector):
    """Additive Holt-Winters forecaster; severity = |residual|.

    Batch and stream both run the family's one recurrence
    (:class:`_HoltWintersBankStream`).
    """

    kind = "holt-winters"

    def __init__(self, alpha: float, beta: float, gamma: float, season_points: int):
        for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if not 0.0 < value < 1.0:
                raise DetectorError(f"{name} must be in (0, 1), got {value}")
        if season_points <= 1:
            raise DetectorError(
                f"season_points must be > 1, got {season_points}"
            )
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.season_points = season_points

    def params(self) -> Dict[str, ParamValue]:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma}

    def warmup(self) -> int:
        return self.season_points

    def family(self) -> FamilyKey:
        # All configs of one season share the state sweep: one fused
        # time loop emits every (alpha, beta, gamma) combination.
        return ("holt-winters", self.season_points)


def batch_severities(
    values: np.ndarray,
    alphas: np.ndarray,
    betas: np.ndarray,
    gammas: np.ndarray,
    season: int,
) -> np.ndarray:
    """Run many Holt-Winters configurations in one time loop.

    The 64 Table 3 configurations share everything but (alpha, beta,
    gamma), so the state update vectorises across configurations: one
    pass over the series advances :class:`_HoltWintersBankStream` — the
    same recurrence the service streams point by point — writing each
    point's severities straight into its output row.

    Returns an (n_points, n_configs) severity matrix.
    """
    values = np.asarray(values, dtype=np.float64)
    out = np.full((len(values), np.size(alphas)), np.nan)
    stream = _HoltWintersBankStream(alphas, betas, gammas, season)
    for value, row in zip(values.tolist(), out):
        stream.advance(value, row)
    return out


# ----------------------------------------------------------------------
# Fused family evaluation
# ----------------------------------------------------------------------
@register_family_builder("holt-winters")
class HoltWintersBankEvaluator(FamilyEvaluator):
    """All (alpha, beta, gamma) configurations of one season in a
    single :func:`batch_severities` state sweep."""

    kind = "holt-winters"

    def __init__(self, configs: Sequence[DetectorConfig]):
        super().__init__(configs)
        seasons = {config.detector.season_points for config in self.configs}
        if len(seasons) != 1:
            raise DetectorError(
                f"holt-winters family spans several seasons: {sorted(seasons)}"
            )
        self.season = seasons.pop()
        self.alphas = np.array(
            [config.detector.alpha for config in self.configs], dtype=np.float64
        )
        self.betas = np.array(
            [config.detector.beta for config in self.configs], dtype=np.float64
        )
        self.gammas = np.array(
            [config.detector.gamma for config in self.configs], dtype=np.float64
        )

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        values = Detector._validate(series)
        return batch_severities(
            values, self.alphas, self.betas, self.gammas, self.season
        )

    def make_stream(self) -> FamilyStream:
        return _HoltWintersBankStream(
            self.alphas, self.betas, self.gammas, self.season
        )


class _HoltWintersBankStream(FamilyStream):
    """The Holt-Winters recurrence: one vectorised state update per
    point covers every configuration of the family. The first season
    initialises the state (level = mean of its observed values,
    seasonals = their deviations from it); a missing point keeps the
    state frozen and gets NaN severity.
    """

    _snapshot_skip = ("_alphas", "_betas", "_gammas", "_season")

    def __init__(
        self,
        alphas: np.ndarray,
        betas: np.ndarray,
        gammas: np.ndarray,
        season: int,
    ):
        self._alphas = np.asarray(alphas, dtype=np.float64)
        self._betas = np.asarray(betas, dtype=np.float64)
        self._gammas = np.asarray(gammas, dtype=np.float64)
        if not self._alphas.shape == self._betas.shape == self._gammas.shape:
            raise DetectorError("parameter arrays must share one shape")
        self._season = int(season)
        k = len(self._alphas)
        #: The first season's values, until they initialise the state.
        self._init_buffer: List[float] = []
        self._level = np.zeros(k)
        self._trend = np.zeros(k)
        self._seasonals = np.zeros((k, 0))
        self._t = 0

    def _initialise(self) -> None:
        init = np.asarray(self._init_buffer, dtype=np.float64)
        finite = init[np.isfinite(init)]
        mean = finite.mean() if len(finite) else 0.0
        k = len(self._alphas)
        self._level = np.full(k, mean)
        self._trend = np.zeros(k)
        self._seasonals = np.tile(
            np.where(np.isfinite(init), init - mean, 0.0), (k, 1)
        )
        self._init_buffer = []

    def advance(self, value: float, out: np.ndarray) -> None:
        """Consume the next point, writing its severity per config into
        ``out``; ``out`` is left as it is (NaN) during the warm-up
        season and for a missing point."""
        season = self._season
        if self._t < season:
            self._init_buffer.append(value)
            self._t += 1
            if self._t == season:
                self._initialise()
            return
        phase = self._t % season
        seasonal = self._seasonals[:, phase]
        self._t += 1
        if math.isnan(value):
            return
        forecast = self._level + self._trend + seasonal
        np.abs(value - forecast, out=out)
        level = self._alphas * (value - seasonal) + (
            1.0 - self._alphas
        ) * (self._level + self._trend)
        self._trend = (
            self._betas * (level - self._level)
            + (1.0 - self._betas) * self._trend
        )
        self._seasonals[:, phase] = (
            self._gammas * (value - level) + (1.0 - self._gammas) * seasonal
        )
        self._level = level

    def update(self, value: float) -> np.ndarray:
        out = np.full(len(self._alphas), np.nan)
        self.advance(float(value), out)
        return out

    def buffered_points(self) -> int:
        return len(self._init_buffer) + int(self._seasonals.size)
