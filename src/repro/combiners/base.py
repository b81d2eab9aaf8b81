"""Static detector-combination baselines (§5.3.1).

Opprentice is compared against two prior approaches that combine
diverse detectors *statically* — "they treat them equally no matter
their accuracy": the normalization schema [21] and majority vote [8].
Both consume the same severity feature matrix as the random forest and
emit one anomaly score per point, so the PR-curve machinery applies
unchanged. Both calibrate per-configuration statistics on a training
matrix only (no peeking at the test set).
"""

from __future__ import annotations

import abc

import numpy as np


def column_quantile(features: np.ndarray, q: float, fill: float) -> np.ndarray:
    """Per-configuration training quantile ``q`` of the finite
    severities, ``fill`` where a column has none (or the quantile is
    not finite).

    All-NaN columns are left out of ``np.nanquantile``, which would warn
    on them; each column is reduced on its own, so every value equals
    the plain call's bit for bit.
    """
    cleaned = np.where(np.isfinite(features), features, np.nan)
    observed = ~np.isnan(cleaned).all(axis=0)
    quantiles = np.full(cleaned.shape[1], np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        quantiles[observed] = np.nanquantile(cleaned[:, observed], q, axis=0)
    return np.where(np.isfinite(quantiles), quantiles, fill)


class StaticCombiner(abc.ABC):
    """A fit/score combiner over severity feature matrices."""

    name: str = "combiner"

    def __init__(self) -> None:
        self.n_features_: int | None = None

    @abc.abstractmethod
    def fit(self, features: np.ndarray) -> "StaticCombiner":
        """Calibrate per-configuration statistics on training severities
        (labels are deliberately unused — these combiners are the
        unsupervised baselines)."""

    @abc.abstractmethod
    def score(self, features: np.ndarray) -> np.ndarray:
        """Combined anomaly score per row; higher = more anomalous."""

    # ------------------------------------------------------------------
    def _check_fit(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got {features.shape}")
        self.n_features_ = features.shape[1]
        return features

    def _check_score(self, features: np.ndarray) -> np.ndarray:
        if self.n_features_ is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != self.n_features_:
            raise ValueError(
                f"expected (n, {self.n_features_}) features, got {features.shape}"
            )
        return features
