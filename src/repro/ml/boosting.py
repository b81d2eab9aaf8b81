"""Gradient-boosted trees — a post-paper comparison learner.

The paper chose random forests partly for having "only two parameters
and [being] not very sensitive to them" (§4.4.1). Follow-up AIOps work
often reaches for gradient boosting instead; this implementation lets
the repository quantify that trade-off on the same features (see
``benchmarks/bench_ext_boosting.py``): boosting with logistic loss over
shallow histogram regression trees.

Algorithm (standard LogitBoost-style gradient boosting):

1. initialise with the log-odds of the base rate;
2. each round fits a depth-limited regression tree to the negative
   gradient of the logistic loss (``y - p``);
3. leaf values use the Newton step
   ``sum(residuals) / sum(p (1 - p))`` and are shrunk by the learning
   rate.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .base import Classifier
from .linear import _sigmoid
from .tree import Binner, grow, walk

#: A regression tree's node arrays and each one's value at a leaf.
_NODE_FIELDS = {
    "feature": -1, "threshold": 0.0, "left": -1, "right": -1, "value": 0.0,
}


class _RegressionTree:
    """Histogram least-squares tree with Newton leaf values, held as
    :class:`~repro.ml.DecisionTree`-style node arrays plus ``value_``."""

    def __init__(self, max_depth: int, min_samples_leaf: int, max_bins: int):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_bins = max_bins

    def fit(
        self,
        binned: np.ndarray,
        residuals: np.ndarray,
        hessians: np.ndarray,
        binner: Binner,
    ) -> "_RegressionTree":
        def split_node(indices, depth, slot):
            hessian_sum = hessians[indices].sum()
            self.value_[slot] = (
                residuals[indices].sum() / hessian_sum if hessian_sum > 0 else 0.0
            )
            if depth >= self.max_depth or len(indices) < 2 * self.min_samples_leaf:
                return None
            return self._find_split(binned, residuals, indices)

        grow(self, binned, binner, _NODE_FIELDS, split_node)
        return self

    def _find_split(self, binned, residuals, indices):
        """Maximise the squared-error reduction proxy
        ``sum_l^2 / n_l + sum_r^2 / n_r`` over all features and bins."""
        node_residuals = residuals[indices]
        total_sum = node_residuals.sum()
        total_n = len(indices)
        n_features = binned.shape[1]
        base = total_sum * total_sum / total_n
        # Feature-major keys: each (feature, bin) sum adds the node's
        # residuals in row order, as a per-feature bincount does.
        offsets = np.arange(n_features)[:, None] * self.max_bins
        keys = (binned[indices].T + offsets).ravel()
        counts = np.bincount(keys, minlength=n_features * self.max_bins)
        sums = np.bincount(keys, np.tile(node_residuals, n_features), len(counts))
        left_n = np.cumsum(counts.reshape(n_features, -1), axis=1)[:, :-1]
        left_sum = np.cumsum(sums.reshape(n_features, -1), axis=1)[:, :-1]
        right_n = total_n - left_n
        right_sum = total_sum - left_sum
        valid = (
            (left_n >= self.min_samples_leaf)
            & (right_n >= self.min_samples_leaf)
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = np.where(
                valid,
                left_sum**2 / left_n + right_sum**2 / right_n - base,
                -np.inf,
            )
        bins = np.argmax(gains, axis=1)
        # A later feature must beat the best so far by more than 1e-12.
        best_gain, best = 0.0, None
        for feature, top in enumerate(gains[np.arange(n_features), bins]):
            if top > best_gain + 1e-12:
                best_gain, best = float(top), (feature, int(bins[feature]))
        return best

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.value_[walk(features, self, [0])[:, 0]]


class GradientBoosting(Classifier):
    """Gradient-boosted shallow trees with logistic loss.

    Parameters follow the common defaults: 100 rounds of depth-3 trees
    with learning rate 0.1. ``subsample`` < 1 gives stochastic gradient
    boosting.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
        subsample: float = 1.0,
        seed: int = 0,
        max_bins: int = 128,
    ):
        super().__init__()
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self.max_bins = max_bins
        self.trees_: List[_RegressionTree] = []
        self.base_score_: float = 0.0

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "GradientBoosting":
        features, labels = self._check_fit_inputs(features, labels)
        targets = labels.astype(np.float64)
        rate = float(np.clip(targets.mean(), 1e-6, 1 - 1e-6))
        self.base_score_ = float(np.log(rate / (1.0 - rate)))

        binner = Binner(self.max_bins).fit(features)
        binned = binner.transform(features)
        rng = np.random.default_rng(self.seed)
        raw = np.full(len(targets), self.base_score_)
        self.trees_ = []
        n = len(targets)
        for _ in range(self.n_estimators):
            probabilities = _sigmoid(raw)
            residuals = targets - probabilities
            hessians = probabilities * (1.0 - probabilities)
            if self.subsample < 1.0:
                sample = rng.random(n) < self.subsample
                if not sample.any():
                    continue
            else:
                sample = slice(None)
            tree = _RegressionTree(
                self.max_depth, self.min_samples_leaf, self.max_bins
            )
            tree.fit(binned[sample], residuals[sample], hessians[sample], binner)
            self.trees_.append(tree)
            raw += self.learning_rate * tree.predict(features)
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        features = self._check_predict_inputs(features)
        raw = np.full(features.shape[0], self.base_score_)
        for tree in self.trees_:
            raw += self.learning_rate * tree.predict(features)
        return raw

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(features))
