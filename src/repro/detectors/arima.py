"""ARIMA detector [10] with parameters estimated from data.

§4.3.3: "the parameters of some complex detectors, e.g., ARIMA, can be
less intuitive. Worse, their parameter spaces can be too large even for
sampling. To deal with such detectors, we estimate their 'best'
parameters from the data, and generate only one set of parameters".

The estimation pipeline here follows the classic Box-Jenkins /
Hannan-Rissanen recipe, from scratch:

1. **Differencing order d in {0, 1}** — difference once if it reduces
   the variance (the usual variance-minimisation heuristic).
2. **Long-AR pre-fit** — an AR(m) model fitted by least squares on the
   estimation prefix provides innovation estimates.
3. **Hannan-Rissanen regression** — for each (p, q) in a small grid,
   regress the differenced series on p of its own lags and q lagged
   innovations; pick the order by AIC.
4. **One-step forecasting** — the fitted ARMA produces causal one-step
   predictions; severity = |actual - forecast|.

Parameters are estimated on the first ``fit_points`` of the series (the
warm-up window), so detection severities are fully causal. Table 3
counts ARIMA as a single configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..timeseries import TimeSeries
from .base import Detector, DetectorError, ParamValue, SeverityStream


@dataclass(frozen=True)
class ARIMAOrder:
    """An estimated (p, d, q) order with its fitted coefficients."""

    p: int
    d: int
    q: int
    const: float
    ar: Tuple[float, ...]
    ma: Tuple[float, ...]
    aic: float


def _interpolate_nan(values: np.ndarray) -> np.ndarray:
    """Linear interpolation over missing points. Only used on the
    historical estimation prefix, where looking at neighbours on both
    sides is fine."""
    values = values.astype(np.float64, copy=True)
    mask = np.isnan(values)
    if mask.all():
        raise DetectorError("cannot fit ARIMA on an all-missing series")
    if mask.any():
        indices = np.arange(len(values))
        values[mask] = np.interp(indices[mask], indices[~mask], values[~mask])
    return values


def _forward_fill(values: np.ndarray) -> np.ndarray:
    """Causal missing-point filling for the detection pass: a NaN takes
    the last observed value (leading NaNs take the first observation).
    Unlike interpolation this never looks at future points, so detection
    severities stay causal."""
    values = values.astype(np.float64, copy=True)
    mask = np.isnan(values)
    if mask.all():
        raise DetectorError("cannot run ARIMA on an all-missing series")
    if mask.any():
        idx = np.where(mask, 0, np.arange(len(values)))
        np.maximum.accumulate(idx, out=idx)
        values = values[idx]
        # Leading NaNs (before the first observation) backfill.
        still = np.isnan(values)
        if still.any():
            values[still] = values[~still][0]
    return values


def _lag_matrix(series: np.ndarray, lags: int, offset: int) -> np.ndarray:
    """Columns [x[t-1], ..., x[t-lags]] for t >= offset."""
    n = len(series)
    return np.column_stack(
        [series[offset - k: n - k] for k in range(1, lags + 1)]
    ) if lags > 0 else np.empty((n - offset, 0))


def _fit_long_ar(series: np.ndarray, order: int) -> np.ndarray:
    """Least-squares AR(order) innovations of ``series``."""
    n = len(series)
    if n <= order + 1:
        raise DetectorError(f"series too short ({n}) for AR({order}) pre-fit")
    design = np.column_stack(
        [np.ones(n - order), _lag_matrix(series, order, order)]
    )
    target = series[order:]
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    innovations = np.zeros(n)
    innovations[order:] = target - design @ coef
    return innovations


def _hannan_rissanen(
    series: np.ndarray, innovations: np.ndarray, p: int, q: int
) -> Optional[Tuple[float, np.ndarray, np.ndarray, float]]:
    """Fit ARMA(p, q) by regression on lags of the series and of the
    pre-fit innovations. Returns (const, ar, ma, aic) or None if the
    regression is degenerate."""
    offset = max(p, q, 1)
    n = len(series)
    if n - offset < p + q + 5:
        return None
    design = np.column_stack(
        [
            np.ones(n - offset),
            _lag_matrix(series, p, offset),
            _lag_matrix(innovations, q, offset),
        ]
    )
    target = series[offset:]
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    residuals = target - design @ coef
    sigma2 = float(np.mean(residuals**2))
    if sigma2 <= 0 or not np.isfinite(sigma2):
        return None
    n_obs = len(target)
    aic = n_obs * np.log(sigma2) + 2.0 * (p + q + 1)
    return float(coef[0]), coef[1: 1 + p], coef[1 + p:], float(aic)


class ARIMA(Detector):
    """Auto-fitted ARIMA one-step forecaster; severity = |residual|.

    Parameters
    ----------
    fit_points:
        Length of the estimation prefix (and warm-up window).
    max_p, max_q:
        Order-search grid bounds.
    """

    kind = "arima"

    def __init__(self, fit_points: int, max_p: int = 3, max_q: int = 3):
        if fit_points < 50:
            raise DetectorError(
                f"fit_points must be >= 50 for stable estimation, got {fit_points}"
            )
        if max_p < 0 or max_q < 0 or max_p + max_q == 0:
            raise DetectorError("order grid must include at least one lag")
        self.fit_points = fit_points
        self.max_p = max_p
        self.max_q = max_q

    def params(self) -> Dict[str, ParamValue]:
        return {"order": "auto"}

    def warmup(self) -> int:
        return self.fit_points

    # ------------------------------------------------------------------
    def estimate_order(self, values: np.ndarray) -> ARIMAOrder:
        """Box-Jenkins order and coefficient estimation on a prefix."""
        prefix = _interpolate_nan(np.asarray(values, dtype=np.float64))
        d = 0
        working = prefix
        diffed = np.diff(prefix)
        if len(diffed) > 2 and np.var(diffed) < np.var(prefix):
            d, working = 1, diffed
        long_order = min(20, max(4, len(working) // 10))
        innovations = _fit_long_ar(working, long_order)
        best: Optional[ARIMAOrder] = None
        for p in range(self.max_p + 1):
            for q in range(self.max_q + 1):
                if p == 0 and q == 0:
                    continue
                fit = _hannan_rissanen(working, innovations, p, q)
                if fit is None:
                    continue
                const, ar, ma, aic = fit
                if best is None or aic < best.aic:
                    best = ARIMAOrder(
                        p=p, d=d, q=q, const=const,
                        ar=tuple(ar), ma=tuple(ma), aic=aic,
                    )
        if best is None:
            raise DetectorError("ARIMA order estimation failed on this series")
        return best

    def severities(self, series: TimeSeries) -> np.ndarray:
        values = self._validate(series)
        n = len(values)
        out = np.full(n, np.nan)
        if n <= self.fit_points:
            return out
        order = self.estimate_order(values[: self.fit_points])
        filled = _forward_fill(values)
        working = np.diff(filled) if order.d == 1 else filled
        missing = np.isnan(values)

        # Causal one-step predictions with recursively computed
        # innovations over the working (possibly differenced) series.
        m = len(working)
        innovations = np.zeros(m)
        offset = max(order.p, order.q, 1)
        predictions = np.full(m, np.nan)
        ar, ma = order.ar, order.ma
        for t in range(offset, m):
            forecast = order.const
            for i, phi in enumerate(ar):
                forecast += phi * working[t - 1 - i]
            for j, theta in enumerate(ma):
                forecast += theta * innovations[t - 1 - j]
            predictions[t] = forecast
            innovations[t] = working[t] - forecast

        # |working - prediction| equals |value - value forecast| in the
        # original space for both d = 0 and d = 1.
        residual = np.abs(working - predictions)
        severities = np.full(n, np.nan)
        severities[n - m:] = residual
        severities[missing] = np.nan
        out[self.fit_points:] = severities[self.fit_points:]
        return out

    def stream(self) -> SeverityStream:
        return _ARIMAStream(self)


class _ARIMAStream(SeverityStream):
    """Online ARIMA: buffer the estimation prefix, fit once, then run
    the one-step forecast recursion incrementally (O(p + q) per point).
    Point-for-point identical to the batch mode, including the causal
    forward-fill of missing points.
    """

    #: The fitted order is a dataclass the generic encoder cannot
    #: serialize; snapshot()/restore() below handle it explicitly.
    _snapshot_skip = ("_order",)

    def __init__(self, detector: ARIMA):
        self._detector = detector
        self._buffer: list = []
        self._order: Optional[ARIMAOrder] = None
        self._offset = 0
        #: Trailing working-series values and innovations (newest last).
        self._working: list = []
        self._innovations: list = []
        self._last_filled: float = float("nan")
        self._working_index = -1

    def snapshot(self) -> dict:
        state = super().snapshot()
        order = self._order
        state["_order"] = None if order is None else {
            "p": order.p,
            "d": order.d,
            "q": order.q,
            "const": order.const,
            "ar": list(order.ar),
            "ma": list(order.ma),
            "aic": order.aic,
        }
        return state

    def restore(self, state) -> "_ARIMAStream":
        state = dict(state)
        order = state.pop("_order", None)
        super().restore(state)
        self._order = None if order is None else ARIMAOrder(
            p=int(order["p"]),
            d=int(order["d"]),
            q=int(order["q"]),
            const=float(order["const"]),
            ar=tuple(float(c) for c in order["ar"]),
            ma=tuple(float(c) for c in order["ma"]),
            aic=float(order["aic"]),
        )
        return self

    # ------------------------------------------------------------------
    def _fit_and_replay(self) -> None:
        detector = self._detector
        values = np.asarray(self._buffer, dtype=np.float64)
        self._order = detector.estimate_order(values)
        order = self._order
        self._offset = max(order.p, order.q, 1)
        self._memory = max(order.p, order.q) + 1

        filled = _forward_fill(values)
        working = np.diff(filled) if order.d == 1 else filled
        innovations = np.zeros(len(working))
        for t in range(self._offset, len(working)):
            forecast = order.const
            for i, phi in enumerate(order.ar):
                forecast += phi * working[t - 1 - i]
            for j, theta in enumerate(order.ma):
                forecast += theta * innovations[t - 1 - j]
            innovations[t] = working[t] - forecast
        keep = self._memory
        self._working = list(working[-keep:])
        self._innovations = list(innovations[-keep:])
        self._last_filled = float(filled[-1])
        self._working_index = len(working) - 1

    def _step(self, working_value: float) -> float:
        """Advance the recursion by one working-series point; returns
        the absolute residual (NaN before the recursion offset)."""
        order = self._order
        assert order is not None
        self._working_index += 1
        if self._working_index < self._offset:
            self._working.append(working_value)
            self._innovations.append(0.0)
        else:
            forecast = order.const
            for i, phi in enumerate(order.ar):
                forecast += phi * self._working[-1 - i]
            for j, theta in enumerate(order.ma):
                forecast += theta * self._innovations[-1 - j]
            self._working.append(working_value)
            self._innovations.append(working_value - forecast)
            severity = abs(working_value - forecast)
            self._trim()
            return severity
        self._trim()
        return float("nan")

    def _trim(self) -> None:
        keep = self._memory
        if len(self._working) > keep:
            del self._working[:-keep]
            del self._innovations[:-keep]

    # ------------------------------------------------------------------
    def update(self, value: float) -> float:
        value = float(value)
        detector = self._detector
        if len(self._buffer) < detector.fit_points:
            self._buffer.append(value)
            if len(self._buffer) == detector.fit_points:
                self._fit_and_replay()
            return float("nan")

        assert self._order is not None
        missing = np.isnan(value)
        filled = self._last_filled if missing else value
        if self._order.d == 1:
            working_value = filled - self._last_filled
        else:
            working_value = filled
        severity = self._step(working_value)
        self._last_filled = filled
        return float("nan") if missing else severity
