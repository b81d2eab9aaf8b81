"""Brutlag's aberrant-behaviour detector [13] (LISA 2000).

Brutlag extends Holt-Winters with a *confidence band*: alongside the
forecast, an exponentially weighted estimate of the seasonal absolute
deviation ``d`` is maintained,

.. math::

    d_t = \\gamma |v_t - \\hat v_t| + (1 - \\gamma) d_{t-m}

and a point is aberrant when it leaves ``[forecast - delta * d,
forecast + delta * d]``. In the unified severity model (§4.3.1) the
severity is the *band-relative deviation* ``|v - forecast| / d`` — the
sThld then plays the role of Brutlag's scaling factor delta (classically
2-3).

This detector is not part of the Table 3 bank; it is registered through
:func:`repro.detectors.registry.extended_detectors` as a demonstration
of §5.2's claim that "emerging detectors ... can be easily plugged into
Opprentice".
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from ..timeseries import TimeSeries
from .base import Detector, DetectorError, ParamValue, SeverityStream
from .holt_winters import _HoltWintersBankStream

#: Sampled parameter grid used by ``extended_detectors``.
BRUTLAG_GRID = (0.3, 0.5, 0.7)


class Brutlag(Detector):
    """Holt-Winters forecasting with confidence-band severities."""

    kind = "brutlag"

    def __init__(
        self,
        alpha: float,
        beta: float,
        gamma: float,
        season_points: int,
    ):
        for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if not 0.0 < value < 1.0:
                raise DetectorError(f"{name} must be in (0, 1), got {value}")
        if season_points <= 1:
            raise DetectorError(f"season_points must be > 1, got {season_points}")
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self.season_points = season_points

    def params(self) -> Dict[str, ParamValue]:
        return {"alpha": self.alpha, "beta": self.beta, "gamma": self.gamma}

    def warmup(self) -> int:
        # One season to initialise the state + one to seed deviations.
        return 2 * self.season_points

    def severities(self, series: TimeSeries) -> np.ndarray:
        values = self._validate(series)
        stream = self.stream()
        return np.fromiter(
            (stream.update(v) for v in values), dtype=np.float64, count=len(values)
        )

    def stream(self) -> SeverityStream:
        return _BrutlagStream(
            self.alpha, self.beta, self.gamma, self.season_points
        )


class _BrutlagStream(SeverityStream):
    """Online Holt-Winters + seasonal deviation band.

    A one-config :class:`_HoltWintersBankStream` runs the recurrence
    and writes each point's ``|v - forecast|``; this stream keeps only
    the deviation band that residual feeds.
    """

    def __init__(self, alpha: float, beta: float, gamma: float, season: int):
        self._gamma = gamma
        self._season = season
        self._forecaster = _HoltWintersBankStream(
            np.array([alpha]), np.array([beta]), np.array([gamma]), season
        )
        #: Observed points of the first season (the level's support).
        self._observed = 0
        self._deviations: List[float] = []

    def _seed_band(self) -> None:
        # Seed the deviation band with the mean absolute seasonal
        # residual of the first season (a neutral, scale-matched start);
        # the missing points' seasonal slots are 0 and add nothing.
        residuals = np.abs(self._forecaster._seasonals[0])
        spread = (
            float(residuals.sum()) / self._observed if self._observed else 1.0
        )
        self._deviations = [max(spread, 1e-12)] * self._season

    def update(self, value: float) -> float:
        value = float(value)
        season = self._season
        t = self._forecaster._t
        residual = np.full(1, np.nan)
        self._forecaster.advance(value, residual)
        if t < season:
            self._observed += math.isfinite(value)
            if t + 1 == season:
                self._seed_band()
            return float("nan")
        if math.isnan(value):
            return float("nan")
        phase = t % season
        deviation = self._deviations[phase]
        error = float(residual[0])
        severity = error / max(deviation, 1e-12)
        self._deviations[phase] = (
            self._gamma * error + (1.0 - self._gamma) * deviation
        )
        return float("nan") if t < 2 * season else severity
