"""Random forest (Breiman [28]) — the classifier Opprentice trains.

§4.4.2: "a random forest adds some elements or randomness. First, each
tree is trained on subsets sampled from the original training set.
Second, instead of evaluating all the features at each level, the trees
only consider a random subset of the features each time... All the
trees are fully grown in this way without pruning. The random forest
then combines those trees by majority vote... if 40 trees out of 100
classify the point into an anomaly, its anomaly probability is 40%."

Both randomness sources are implemented exactly: bootstrap resampling
per tree and sqrt-feature subsampling per split. ``predict_proba``
returns the fraction of trees voting anomaly, which the cThld machinery
(default 0.5, §4.4.2) thresholds.
"""

from __future__ import annotations

import json
from typing import List, Optional

import numpy as np

from .base import Classifier
from .tree import Binner, DecisionTree


class RandomForest(Classifier):
    """Bootstrap-aggregated fully grown CART trees.

    Parameters
    ----------
    n_estimators:
        Number of trees (the paper's running example uses 100).
    max_features:
        Features per split; ``"sqrt"`` (default) is the standard forest
        choice and what keeps trees robust to irrelevant features.
    max_depth:
        Optional cap; None (default) grows fully, as in the paper.
    seed:
        Master seed; tree *i* uses an independent child seed, so fits
        are reproducible.
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_features: object = "sqrt",
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        seed: int = 0,
    ):
        super().__init__()
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_features = max_features
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.seed = seed
        self.trees_: List[DecisionTree] = []
        self._json: Optional[str] = None

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "RandomForest":
        features, labels = self._check_fit_inputs(features, labels)
        self._json = None
        n = features.shape[0]
        binner = Binner().fit(features)
        binned = binner.transform(features)
        rng = np.random.default_rng(self.seed)
        self.trees_ = []
        self._oob_votes = np.zeros(n)
        self._oob_counts = np.zeros(n)
        self._train_labels = labels.copy()
        for i in range(self.n_estimators):
            bootstrap = rng.integers(0, n, size=n)
            tree = DecisionTree(
                max_features=self.max_features,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            tree.fit_binned(binned[bootstrap], labels[bootstrap], binner)
            self.trees_.append(tree)
            # Out-of-bag bookkeeping: this tree votes on the training
            # rows its bootstrap missed (Breiman's built-in validation).
            out_of_bag = np.ones(n, dtype=bool)
            out_of_bag[bootstrap] = False
            if out_of_bag.any():
                votes = tree.vote(features[out_of_bag])
                self._oob_votes[out_of_bag] += votes
                self._oob_counts[out_of_bag] += 1
        return self

    def oob_scores(self) -> np.ndarray:
        """Out-of-bag anomaly probability per training row (NaN for rows
        every tree happened to include in its bootstrap)."""
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        with np.errstate(invalid="ignore"):
            return np.where(
                self._oob_counts > 0,
                self._oob_votes / np.maximum(self._oob_counts, 1),
                np.nan,
            )

    def oob_accuracy(self, threshold: float = 0.5) -> float:
        """OOB classification accuracy — a generalisation estimate with
        no held-out data (useful before the first labelled test week
        exists)."""
        scores = self.oob_scores()
        valid = np.isfinite(scores)
        if not valid.any():
            raise RuntimeError("no out-of-bag rows (too few trees)")
        predictions = (scores[valid] >= threshold).astype(np.int8)
        return float((predictions == self._train_labels[valid]).mean())

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        features = self._check_predict_inputs(features)
        if not self.trees_:
            raise RuntimeError("forest has no trees")
        votes = np.zeros(features.shape[0], dtype=np.float64)
        for tree in self.trees_:
            votes += tree.vote(features)
        return votes / len(self.trees_)

    def feature_importances(self) -> np.ndarray:
        """Mean gini importance across trees."""
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        return np.mean([t.feature_importances() for t in self.trees_], axis=0)

    def prediction_contributions(self, features: np.ndarray) -> np.ndarray:
        """Per-feature contributions to each forest prediction.

        The mean of the member trees' Saabas path contributions
        (:meth:`DecisionTree.decision_path_contributions`). Rows sum to
        the mean leaf probability across trees — for fully grown trees
        (pure leaves, the paper's configuration) that equals
        ``predict_proba`` exactly, so the decomposition explains the
        reported anomaly probability. Shape: (n_samples, n_features + 1)
        with a trailing bias column.
        """
        features = self._check_predict_inputs(features)
        if not self.trees_:
            raise RuntimeError("forest has no trees")
        total = self.trees_[0].decision_path_contributions(features)
        for tree in self.trees_[1:]:
            total += tree.decision_path_contributions(features)
        return total / len(self.trees_)

    # ------------------------------------------------------------------
    # Serialisation (portable, pickle-free)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Portable representation of the fitted ensemble."""
        if not self.trees_:
            raise RuntimeError("forest is not fitted")
        return {
            "n_estimators": self.n_estimators,
            "n_features": self.n_features_,
            "trees": [tree.to_dict() for tree in self.trees_],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict())``, encoded once per fit.

        A deployed service saves the same fitted forest at every
        checkpoint, so the text is kept until :meth:`fit` replaces the
        trees.
        """
        if self._json is None:
            self._json = json.dumps(self.to_dict())
        return self._json

    @classmethod
    def from_dict(cls, payload: dict) -> "RandomForest":
        """Rebuild a prediction-ready forest from :meth:`to_dict`."""
        forest = cls(n_estimators=int(payload["n_estimators"]))
        forest.n_features_ = int(payload["n_features"])
        forest.trees_ = [
            DecisionTree.from_dict(tree) for tree in payload["trees"]
        ]
        if len(forest.trees_) != forest.n_estimators:
            raise ValueError(
                f"payload has {len(forest.trees_)} trees for "
                f"n_estimators={forest.n_estimators}"
            )
        return forest
