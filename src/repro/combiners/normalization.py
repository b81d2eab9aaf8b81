"""The normalization schema combiner [21] (Shanbhag & Wolf).

Each configuration's severity is rescaled to [0, 1] using the range
observed on the training matrix, then all configurations are averaged
with equal weight. Inaccurate configurations dilute the signal — the
weakness §5.3.1 demonstrates ("they can be significantly impacted by
inaccurate configurations").
"""

from __future__ import annotations

import numpy as np

from .base import StaticCombiner, column_quantile


class NormalizationSchema(StaticCombiner):
    """Equal-weight average of range-normalised severities.

    Normalisation bounds come from robust training quantiles (default
    1st/99th percentile) so a single extreme training severity does not
    flatten a configuration's contribution; test scores are clipped to
    [0, 1].
    """

    name = "normalization scheme"

    def __init__(self, lower_quantile: float = 0.01, upper_quantile: float = 0.99):
        super().__init__()
        if not 0.0 <= lower_quantile < upper_quantile <= 1.0:
            raise ValueError(
                f"bad quantiles ({lower_quantile}, {upper_quantile})"
            )
        self.lower_quantile = lower_quantile
        self.upper_quantile = upper_quantile
        self.low_: np.ndarray | None = None
        self.high_: np.ndarray | None = None

    def fit(self, features: np.ndarray) -> "NormalizationSchema":
        features = self._check_fit(features)
        # Configurations that were all-NaN in training contribute 0.
        self.low_ = column_quantile(features, self.lower_quantile, 0.0)
        self.high_ = column_quantile(features, self.upper_quantile, 0.0)
        return self

    def score(self, features: np.ndarray) -> np.ndarray:
        features = self._check_score(features)
        span = np.maximum(self.high_ - self.low_, 1e-12)
        normalized = (features - self.low_) / span
        normalized = np.clip(normalized, 0.0, 1.0)
        # NaN severities (warm-up, missing data) are neutral (0).
        normalized = np.where(np.isfinite(normalized), normalized, 0.0)
        return normalized.mean(axis=1)
