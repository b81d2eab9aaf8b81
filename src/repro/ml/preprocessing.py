"""Feature-matrix preprocessing: imputation and standardisation.

Detector severities are NaN during warm-up windows and at missing data
points (§4.3.2, §6). The classifiers require finite inputs, so the
feature pipeline imputes NaNs with per-column medians learned from the
training matrix. Standardisation is used by the linear models, and by
the cross-KPI transfer path (§6) where severities from different scales
must be comparable.
"""

from __future__ import annotations

import numpy as np


class Imputer:
    """Replace NaN/inf with per-column training medians.

    Columns that are entirely NaN in training (e.g. a detector whose
    warm-up exceeds the training window) fall back to 0.0.
    """

    def __init__(self) -> None:
        self.fill_values_: np.ndarray | None = None

    def fit(self, features: np.ndarray) -> "Imputer":
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got {features.shape}")
        finite = np.isfinite(features)
        # Columns with no finite value (a detector whose warm-up exceeds
        # the training window) fall back to 0 without a median, so
        # nanmedian never sees an all-NaN slice.
        observed = finite.any(axis=0)
        fill = np.zeros(features.shape[1])
        if observed.any():
            fill[observed] = np.nanmedian(
                np.where(finite, features, np.nan)[:, observed], axis=0
            )
        self.fill_values_ = np.where(np.isfinite(fill), fill, 0.0)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.fill_values_ is None:
            raise RuntimeError("Imputer is not fitted")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != len(self.fill_values_):
            raise ValueError(
                f"expected (n, {len(self.fill_values_)}) features, "
                f"got {features.shape}"
            )
        out = features.copy()
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.broadcast_to(self.fill_values_, out.shape)[bad]
        return out

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)


class StandardScaler:
    """Zero-mean unit-variance scaling with a variance floor."""

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, features: np.ndarray) -> "StandardScaler":
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got {features.shape}")
        self.mean_ = features.mean(axis=0)
        std = features.std(axis=0)
        self.scale_ = np.where(std > 0, std, 1.0)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler is not fitted")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[1] != len(self.mean_):
            raise ValueError(
                f"expected (n, {len(self.mean_)}) features, got {features.shape}"
            )
        return (features - self.mean_) / self.scale_

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        return self.fit(features).transform(features)
