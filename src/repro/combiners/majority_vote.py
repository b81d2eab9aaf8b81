"""The majority-vote combiner [8] (Fontugne et al., MAWILab).

Every configuration casts a binary vote using its own severity
threshold — here the per-configuration training quantile (a detector
flags its own top ``1 - vote_quantile`` fraction of points). The
combined score is the fraction of configurations voting anomaly;
sweeping that fraction yields the PR curve. Like the normalization
schema, all configurations are "treated with the same priority (e.g.,
equally weighted vote)" (§5.3.1), so inaccurate configurations drag the
combination down.
"""

from __future__ import annotations

import numpy as np

from .base import StaticCombiner, column_quantile


class MajorityVote(StaticCombiner):
    """Fraction of configurations whose severity exceeds their own
    training-quantile sThld."""

    name = "majority-vote"

    def __init__(self, vote_quantile: float = 0.99):
        super().__init__()
        if not 0.5 <= vote_quantile < 1.0:
            raise ValueError(
                f"vote_quantile must be in [0.5, 1), got {vote_quantile}"
            )
        self.vote_quantile = vote_quantile
        self.thresholds_: np.ndarray | None = None

    def fit(self, features: np.ndarray) -> "MajorityVote":
        features = self._check_fit(features)
        # All-NaN training columns can never vote.
        self.thresholds_ = column_quantile(features, self.vote_quantile, np.inf)
        return self

    def score(self, features: np.ndarray) -> np.ndarray:
        features = self._check_score(features)
        with np.errstate(invalid="ignore"):
            votes = features > self.thresholds_
        return votes.mean(axis=1)
