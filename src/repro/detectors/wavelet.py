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
from typing import Dict, List, Optional, Sequence, Tuple

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
    rolling_std,
    scale_floor,
    warmup_magnitude,
)

#: Table 3 grids.
WAVELET_WINDOWS_DAYS = (3, 5, 7)
WAVELET_BANDS = ("high", "mid", "low")

#: Haar scale (points) per band.
BAND_SCALES = {"high": 2, "mid": 8, "low": 32}


class WaveletDetector(FamilyDetector):
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
        return 2 * self.scale + self.norm_window

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

    @property
    def norm_window(self) -> int:
        """Points of the detail signal the scale is taken over."""
        return self.window_days * self.points_per_day

    def family(self) -> FamilyKey:
        # All windows of one grid share the per-band detail signals.
        return ("wavelet", self.points_per_day)

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
        scale = rolling_std(nan_details, self.norm_window)
        # Floor from the warm-up prefix only, so severities stay causal.
        floor = scale_floor(warmup_magnitude(details[:start]))
        with np.errstate(invalid="ignore"):
            out[start:] = np.abs(details[start:]) / np.maximum(scale[start:], floor)
        return out


@register_family_builder("wavelet")
class WaveletBankEvaluator(FamilyEvaluator):
    """Fused pass over the wavelet grid: the Haar detail signal (and
    its NaN-zeroed copy) is computed once per band and shared by every
    normalisation window of that band."""

    kind = "wavelet"

    def __init__(self, configs: Sequence[DetectorConfig]):
        super().__init__(configs)
        grids = {config.detector.points_per_day for config in self.configs}
        if len(grids) != 1:
            raise DetectorError(
                f"wavelet family spans several day grids: {sorted(grids)}"
            )
        by_band: Dict[str, List[int]] = {}
        for j, config in enumerate(self.configs):
            by_band.setdefault(config.detector.band, []).append(j)
        #: ``(Haar scale, family columns)`` per band, by band name.
        self.bands: List[Tuple[int, List[int]]] = [
            (BAND_SCALES[band], columns)
            for band, columns in sorted(by_band.items())
        ]

    def evaluate(self, series: TimeSeries) -> np.ndarray:
        values = Detector._validate(series)
        out = np.full((len(values), len(self.configs)), np.nan)
        for _, columns in self.bands:
            details = self.configs[columns[0]].detector._details(values)
            nan_details = np.where(np.isnan(details), 0.0, details)
            for j in columns:
                out[:, j] = self.configs[j].detector._column(
                    values, details, nan_details
                )
        return out

    def make_stream(self) -> FamilyStream:
        return _WaveletBankStream(self)


class _WaveletBankStream(FamilyStream):
    """Online Haar details with rolling normalisation windows, equal to
    the batch mode bit for bit.

    One ring of raw values gives each band's detail once per point; each
    band keeps one ring of its NaN-zeroed details (the rolling-std
    input), as long as its longest window, and each config takes the std
    of its own tail. A config's scale floor is frozen when its warm-up
    ends, from its band's running sum of observed warm-up |detail|.
    """

    def __init__(self, evaluator: WaveletBankEvaluator):
        self._evaluator = evaluator
        configs = evaluator.configs
        largest = max(scale for scale, _ in evaluator.bands)
        self._values: deque = deque(maxlen=2 * largest)
        self._details: List[deque] = [
            deque(maxlen=max(configs[j].detector.norm_window for j in columns))
            for _, columns in evaluator.bands
        ]
        self._count = 0
        #: Running ``[sum, count]`` of observed warm-up |detail| per band.
        self._floor_stats = [[0.0, 0] for _ in evaluator.bands]
        #: Scale floor per config, set once its warm-up ends.
        self._floors: List[Optional[float]] = [None] * len(configs)

    def update(self, value: float) -> np.ndarray:
        configs = self._evaluator.configs
        self._values.append(float(value))
        recent = np.asarray(self._values)
        out = np.full(len(configs), np.nan)
        bands = zip(self._evaluator.bands, self._details, self._floor_stats)
        for (s, columns), ring, stats in bands:
            window = recent[-2 * s:]
            detail = float("nan")
            if len(window) == 2 * s:
                # Each half's mean(), minus the method's overhead.
                detail = float(
                    np.add.reduce(window[s:]) / s - np.add.reduce(window[:s]) / s
                )
            history = np.asarray(ring)  # excludes the current detail
            warming = False
            for j in columns:
                detector = configs[j].detector
                if self._count < detector.warmup():
                    warming = True
                    continue
                if self._floors[j] is None:
                    total, n = stats
                    self._floors[j] = scale_floor(total / n if n else 0.0)
                scale = float(np.std(history[-detector.norm_window:]))
                with np.errstate(invalid="ignore"):
                    out[j] = abs(detail) / max(scale, self._floors[j])
            if warming and np.isfinite(detail):
                stats[0] += abs(detail)
                stats[1] += 1
            ring.append(0.0 if np.isnan(detail) else detail)
        self._count += 1
        return out
