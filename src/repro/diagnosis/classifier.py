"""A multiclass anomaly-type classifier over the binary forest.

``repro.ml`` classifiers are deliberately binary (the paper's detection
task is anomalous-or-not), so the diagnoser decomposes the type
question one-vs-rest: one :class:`~repro.ml.RandomForest` per anomaly
kind, votes compared across kinds. Ties break on the alphabetically
first kind, so predictions are deterministic.

Like every model in the repo the fitted diagnoser serialises to plain
JSON (:meth:`AnomalyDiagnoser.to_dict`). Service checkpoints name it by
:meth:`AnomalyDiagnoser.sha256`; a fleet checkpoint writes a
non-default diagnoser once, next to its KPIs.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..ml import NotFittedError, RandomForest
from .features import window_shape_features

#: Dict-layout version for :meth:`AnomalyDiagnoser.to_dict`.
DIAGNOSER_FORMAT_VERSION = 1


class AnomalyDiagnoser:
    """One-vs-rest anomaly-kind classifier on window shape features."""

    def __init__(
        self,
        *,
        n_estimators: int = 48,
        max_depth: Optional[int] = None,
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.seed = seed
        self.kinds_: Optional[List[str]] = None
        self._forests: Dict[str, RandomForest] = {}
        self._sha256: Optional[str] = None

    # ------------------------------------------------------------------
    def fit(
        self, features: np.ndarray, kinds: Sequence[str]
    ) -> "AnomalyDiagnoser":
        """Fit on per-window feature rows and their ground-truth kinds."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or len(features) != len(kinds):
            raise ValueError(
                f"features {features.shape} do not match {len(kinds)} kinds"
            )
        observed = sorted(set(kinds))
        if len(observed) < 2:
            raise ValueError(
                f"need at least two anomaly kinds to fit, got {observed}"
            )
        labels = np.asarray(kinds)
        self._sha256 = None
        self._forests = {}
        for offset, kind in enumerate(observed):
            forest = RandomForest(
                n_estimators=self.n_estimators,
                max_depth=self.max_depth,
                seed=self.seed + offset,
            )
            forest.fit(features, (labels == kind).astype(np.int8))
            self._forests[kind] = forest
        self.kinds_ = observed
        return self

    def _require_fitted(self) -> List[str]:
        if self.kinds_ is None:
            raise NotFittedError("diagnoser is not fitted")
        return self.kinds_

    # ------------------------------------------------------------------
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Per-kind vote fractions, columns ordered as ``kinds_``.

        Rows are normalised to sum to 1 where any forest votes at all,
        so the output reads as a (deterministic) kind distribution.
        """
        kinds = self._require_fitted()
        features = np.asarray(features, dtype=np.float64)
        votes = np.column_stack(
            [self._forests[kind].predict_proba(features) for kind in kinds]
        )
        totals = votes.sum(axis=1, keepdims=True)
        return np.divide(
            votes, totals, out=np.asarray(votes, dtype=np.float64),
            where=totals > 0,
        )

    def predict(self, features: np.ndarray) -> List[str]:
        kinds = self._require_fitted()
        probs = self.predict_proba(features)
        return [kinds[int(i)] for i in np.argmax(probs, axis=1)]

    def diagnose(
        self,
        window: Sequence[float],
        context: Sequence[float],
        *,
        period: Optional[int] = None,
    ) -> str:
        """Classify one alert window given its preceding context."""
        row = window_shape_features(window, context, period=period)
        return self.predict(row.reshape(1, -1))[0]

    # ------------------------------------------------------------------
    # JSON persistence (same portable-artifact discipline as the rest
    # of the repo: tree arrays, no pickle).
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        kinds = self._require_fitted()
        return {
            "format_version": DIAGNOSER_FORMAT_VERSION,
            "n_estimators": self.n_estimators,
            "max_depth": self.max_depth,
            "seed": self.seed,
            "kinds": list(kinds),
            "forests": {
                kind: self._forests[kind].to_dict() for kind in kinds
            },
        }

    def sha256(self) -> str:
        """The hex sha256 of ``json.dumps(self.to_dict())``, computed
        once per fit.

        A service checkpoint stores this digest instead of the
        diagnoser, and restore resolves it back to a fitted diagnoser.
        """
        if self._sha256 is None:
            text = json.dumps(self.to_dict())
            self._sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return self._sha256

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AnomalyDiagnoser":
        version = payload.get("format_version")
        if version != DIAGNOSER_FORMAT_VERSION:
            raise ValueError(
                f"unsupported diagnoser format {version!r} "
                f"(expected {DIAGNOSER_FORMAT_VERSION})"
            )
        diagnoser = cls(
            n_estimators=int(payload["n_estimators"]),
            max_depth=payload.get("max_depth"),
            seed=int(payload.get("seed", 0)),
        )
        diagnoser.kinds_ = [str(kind) for kind in payload["kinds"]]
        diagnoser._forests = {
            kind: RandomForest.from_dict(payload["forests"][kind])
            for kind in diagnoser.kinds_
        }
        return diagnoser
