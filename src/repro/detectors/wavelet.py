"""Wavelet detector [12] (Barford et al., IMW 2002).

Barford et al. decompose traffic into low/mid/high frequency bands with
wavelets and flag deviations in band energy. We implement the causal
Haar flavour of that idea:

* The *detail signal* at scale ``s`` is the difference between the mean
  of the last ``s`` points and the mean of the ``s`` points before them
  — an (unnormalised) Haar wavelet coefficient.
* The chosen ``freq`` selects the scale: ``high`` reacts to point-level
  shocks (s = 2), ``mid`` to tens-of-minutes structure (s = 8), ``low``
  to hour-scale drifts (s = 32).
* The severity is the |detail| normalised by the rolling standard
  deviation of the detail signal over a ``win``-day window, so a band
  that is normally quiet alarms on small absolute deviations.

Table 3 samples ``win = 3, 5, 7`` days and the three bands — 9
configurations.
"""

from __future__ import annotations

from collections import deque
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
    rolling_std,
    scale_floor,
)

#: Table 3 grids.
WAVELET_WINDOWS_DAYS = (3, 5, 7)
WAVELET_BANDS = ("high", "mid", "low")

#: Haar scale (points) per band.
BAND_SCALES = {"high": 2, "mid": 8, "low": 32}


class WaveletDetector(Detector):
    """Severity = |Haar detail| / rolling std of the detail signal."""

    kind = "wavelet"

    def __init__(self, window_days: int, band: str, points_per_day: int):
        if window_days <= 0:
            raise DetectorError(f"window_days must be positive, got {window_days}")
        if band not in BAND_SCALES:
            raise DetectorError(
                f"band must be one of {tuple(BAND_SCALES)}, got {band!r}"
            )
        if points_per_day <= 0:
            raise DetectorError(
                f"points_per_day must be positive, got {points_per_day}"
            )
        self.window_days = window_days
        self.band = band
        self.points_per_day = points_per_day
        self.scale = BAND_SCALES[band]

    def params(self) -> Dict[str, ParamValue]:
        return {"win": f"{self.window_days}d", "freq": self.band}

    def warmup(self) -> int:
        return 2 * self.scale + self.window_days * self.points_per_day

    def stream_memory(self) -> None:
        # The detail-scale floor is fixed from the original warm-up
        # prefix; a truncated buffer would recompute it differently.
        return None

    def _details(self, values: np.ndarray) -> np.ndarray:
        """Causal Haar detail: mean(last s) - mean(previous s).

        Sliding-window means (not cumulative sums) so a missing point
        only invalidates the details whose windows contain it, instead
        of poisoning everything after it.
        """
        s = self.scale
        n = len(values)
        details = np.full(n, np.nan)
        if n < 2 * s:
            return details
        means = np.lib.stride_tricks.sliding_window_view(values, s).mean(axis=1)
        details[2 * s - 1:] = means[s:] - means[: n - 2 * s + 1]
        return details

    def family(self) -> Optional[FamilyKey]:
        # All windows of one grid share the per-band detail signals.
        return ("wavelet", self.points_per_day)

    def severities(self, series: TimeSeries) -> np.ndarray:
        values = self._validate(series)
        details = self._details(values)
        return self._column(values, details, np.nan_to_num(details, nan=0.0))

    def _column(
        self,
        values: np.ndarray,
        details: np.ndarray,
        nan_details: np.ndarray,
    ) -> np.ndarray:
        """Severity column given this band's (shared) detail signal and
        its NaN-zeroed copy (the rolling-std input)."""
        n = len(values)
        out = np.full(n, np.nan)
        start = self.warmup()
        if n <= start:
            return out
        norm_window = self.window_days * self.points_per_day
        scale = rolling_std(nan_details, norm_window)
        # Floor from the warm-up prefix only, so severities stay causal.
        prefix = details[: start]
        prefix_finite = prefix[np.isfinite(prefix)]
        floor = scale_floor(
            float(np.abs(prefix_finite).mean()) if len(prefix_finite) else 0.0
        )
        with np.errstate(invalid="ignore"):
            out[start:] = np.abs(details[start:]) / np.maximum(scale[start:], floor)
        return out

    def stream(self) -> SeverityStream:
        return _WaveletStream(self)


@register_family_builder("wavelet")
class WaveletBankEvaluator(FamilyEvaluator):
    """Fused pass over the wavelet grid: the Haar detail signal (and
    its NaN-zeroed copy) is computed once per band and shared by every
    normalisation window of that band."""

    kind = "wavelet"

    def __init__(self, configs):
        super().__init__(configs)
        grids = {config.detector.points_per_day for config in self.configs}
        if len(grids) != 1:
            raise DetectorError(
                f"wavelet family spans several day grids: {sorted(grids)}"
            )

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        values = Detector._validate(series)
        out = np.full((len(values), len(self.configs)), np.nan)
        by_band: Dict[str, List[Tuple[int, DetectorConfig]]] = {}
        for j, config in enumerate(self.configs):
            by_band.setdefault(config.detector.band, []).append((j, config))
        for _, items in sorted(by_band.items()):
            details = items[0][1].detector._details(values)
            nan_details = np.nan_to_num(details, nan=0.0)
            for j, config in items:
                out[:, j] = config.detector._column(
                    values, details, nan_details
                )
        return out


class _WaveletStream(SeverityStream):
    """Online Haar details with a rolling normalisation window,
    point-for-point equal to the batch mode."""

    def __init__(self, detector: WaveletDetector):
        self._detector = detector
        self._values: deque = deque(maxlen=2 * detector.scale)
        norm_window = detector.window_days * detector.points_per_day
        self._details: deque = deque(maxlen=norm_window)
        self._count = 0
        self._floor_sum = 0.0
        self._floor_n = 0
        self._floor: float | None = None

    def _detail(self) -> float:
        if len(self._values) < self._values.maxlen:
            return float("nan")
        window = np.asarray(self._values)
        s = self._detector.scale
        return float(window[s:].mean() - window[:s].mean())

    def update(self, value: float) -> float:
        detector = self._detector
        start = detector.warmup()
        self._values.append(float(value))
        detail = self._detail()

        severity = float("nan")
        if self._count >= start:
            if self._floor is None:
                self._floor = scale_floor(
                    self._floor_sum / self._floor_n if self._floor_n else 0.0
                )
            scale = float(np.std(np.asarray(self._details)))
            with np.errstate(invalid="ignore"):
                severity = abs(detail) / max(scale, self._floor)
        elif np.isfinite(detail):
            # Warm-up: accumulate the floor statistic (batch:
            # nanmean(|details[:warmup]|)).
            self._floor_sum += abs(detail)
            self._floor_n += 1

        # The normalisation window stores nan_to_num(detail), matching
        # the batch rolling_std input, and excludes the current detail.
        self._details.append(0.0 if np.isnan(detail) else detail)
        self._count += 1
        return severity
