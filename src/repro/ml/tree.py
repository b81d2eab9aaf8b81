"""CART decision trees with histogram-based split search (§4.4.2).

The paper's preliminaries: a decision tree is "greedily built top-down.
At each level, it determines the best feature and its split point to
separate the data into distinct classes as much as possible... A
goodness function, e.g., information gain and gini index, is used".
Trees here are grown fully (until every leaf is pure or unsplittable),
without pruning, exactly as the random forest requires.

For speed the split search is histogram-based: each feature is
discretised into up to 256 quantile bins once per training set, and a
node evaluates all candidate splits of a feature with one
``np.bincount``. Split thresholds are mapped back to real feature
values so prediction runs on raw (unbinned) features.

A fitted tree is the node arrays :meth:`DecisionTree.to_dict` writes
(root 0, children after their parent, ``feature < 0`` at a leaf), and
:func:`walk` is the one function that routes rows through them.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from .base import Classifier

#: Maximum number of histogram bins per feature.
MAX_BINS = 256

#: A :class:`DecisionTree`'s node arrays and each one's value at a leaf.
_NODE_FIELDS = {
    "feature": -1, "threshold": 0.0, "left": -1, "right": -1,
    "probability": 0.0, "gain": 0.0,
}

#: (row, root) pairs :func:`walk` routes at once (655 rows of a 50-tree
#: forest, 32,768 of one tree): enough to amortise numpy's per-call cost,
#: few enough for the scratch arrays to stay in cache.
_WALK_PAIRS = 1 << 15


class Binner:
    """Quantile discretiser shared by all trees of a forest."""

    def __init__(self, max_bins: int = MAX_BINS):
        if not 2 <= max_bins <= 256:
            raise ValueError(f"max_bins must be in [2, 256], got {max_bins}")
        self.max_bins = max_bins
        self.edges_: Optional[List[np.ndarray]] = None

    def fit(self, features: np.ndarray) -> "Binner":
        """Compute per-feature bin edges from training quantiles."""
        edges = []
        quantiles = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
        for column in features.T:
            cuts = np.unique(np.quantile(column, quantiles))
            edges.append(cuts)
        self.edges_ = edges
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Bin codes as uint8; code b means value <= edges[b] (last bin
        is everything above the top edge)."""
        if self.edges_ is None:
            raise RuntimeError("Binner is not fitted")
        binned = np.empty(features.shape, dtype=np.uint8)
        for j, cuts in enumerate(self.edges_):
            binned[:, j] = np.searchsorted(cuts, features[:, j], side="left")
        return binned

    def threshold_value(self, feature: int, bin_code: int) -> float:
        """The real-valued split threshold for "bin <= bin_code"."""
        if self.edges_ is None:
            raise RuntimeError("Binner is not fitted")
        return float(self.edges_[feature][bin_code])


def _gini_best_split(
    counts0: np.ndarray, counts1: np.ndarray, min_samples_leaf: int = 1
) -> tuple[float, int]:
    """Best split of one feature's class histograms by gini impurity.

    ``counts0[b]``/``counts1[b]`` are class counts in bin ``b``. A split
    at bin ``b`` sends bins ``<= b`` left, and is valid only if both
    children keep ``min_samples_leaf`` samples. Returns
    (impurity_decrease, split_bin); split_bin = -1 if no valid split
    exists.
    """
    total0, total1 = counts0.sum(), counts1.sum()
    n = total0 + total1
    left0 = np.cumsum(counts0)[:-1].astype(np.float64)
    left1 = np.cumsum(counts1)[:-1].astype(np.float64)
    n_left = left0 + left1
    n_right = n - n_left
    valid = (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
    if not valid.any():
        return 0.0, -1
    with np.errstate(divide="ignore", invalid="ignore"):
        gini_left = 1.0 - (left0 / n_left) ** 2 - (left1 / n_left) ** 2
        right0, right1 = total0 - left0, total1 - left1
        gini_right = 1.0 - (right0 / n_right) ** 2 - (right1 / n_right) ** 2
        weighted = (n_left * gini_left + n_right * gini_right) / n
    parent = 1.0 - (total0 / n) ** 2 - (total1 / n) ** 2
    decrease = np.where(valid, parent - weighted, -np.inf)
    best = int(np.argmax(decrease))
    if decrease[best] <= 1e-12:
        return 0.0, -1
    return float(decrease[best]), best


def grow(
    tree, binned: np.ndarray, binner: Binner, fields: dict, split_node
) -> None:
    """Fill ``tree``'s node arrays (``fields``) top-down over ``binned``;
    ``split_node(indices, depth, slot)`` records node ``slot``'s statistics
    and returns its ``(feature, bin)`` split, or None for a leaf."""
    # A binary tree over n samples has at most 2n - 1 nodes.
    size = 2 * binned.shape[0] - 1
    for field, fill in fields.items():
        setattr(tree, field + "_", np.full(size, fill))
    n_nodes = 1
    # Explicit stack (sample indices, depth, node slot) avoids
    # recursion limits on deep fully-grown trees.
    stack = [(np.arange(binned.shape[0]), 0, 0)]
    while stack:
        indices, depth, slot = stack.pop()
        split = split_node(indices, depth, slot)
        if split is None:
            continue
        feature, split_bin = split
        tree.feature_[slot] = feature
        tree.threshold_[slot] = binner.threshold_value(feature, split_bin)
        tree.left_[slot], tree.right_[slot] = n_nodes, n_nodes + 1
        go_left = binned[indices, feature] <= split_bin
        stack.append((indices[go_left], depth + 1, n_nodes))
        stack.append((indices[~go_left], depth + 1, n_nodes + 1))
        n_nodes += 2
    for field in fields:
        setattr(tree, field + "_", getattr(tree, field + "_")[:n_nodes].copy())


def walk(
    features: np.ndarray, nodes, roots, on_step: Optional[Callable] = None
) -> np.ndarray:
    """The (n_rows, n_roots) leaves reached from each root in ``nodes``.

    ``nodes`` has ``feature_``, ``threshold_``, ``left_`` and ``right_``
    arrays holding one tree or several. Pairs not yet at a leaf step
    together; ``on_step(rows, at, children)`` sees each step's rows, the
    nodes they left and the children they reached.
    """
    roots = np.asarray(roots, dtype=np.intp)
    (n_rows, n_features), n_roots = features.shape, len(roots)
    values = features.reshape(-1)
    leaves = np.empty((n_rows, n_roots), dtype=np.intp)
    flat = leaves.reshape(-1)
    chunk = max(1, _WALK_PAIRS // n_roots)
    for start in range(0, n_rows, chunk):
        stop = min(start + chunk, n_rows)
        pairs = np.arange(start * n_roots, stop * n_roots)
        at = roots[pairs % n_roots]
        row_starts = pairs // n_roots * n_features
        while len(pairs):
            split = nodes.feature_[at]
            leaf = split < 0
            if leaf.any():
                flat[pairs[leaf]] = at[leaf]
                inner = np.flatnonzero(~leaf)
                pairs, row_starts, at, split = (
                    pairs[inner], row_starts[inner], at[inner], split[inner]
                )
            go_left = values[row_starts + split] <= nodes.threshold_[at]
            children = np.where(go_left, nodes.left_[at], nodes.right_[at])
            if on_step is not None:
                on_step(row_starts // n_features, at, children)
            at = children
    return leaves


def path_contributions(features: np.ndarray, nodes, roots) -> np.ndarray:
    """Saabas contributions summed over the trees at ``roots``: each
    path step adds its change of node probability to the split feature,
    and the trailing bias column holds the root probabilities."""
    probability = nodes.probability_
    contributions = np.zeros((features.shape[0], nodes.n_features_ + 1))
    contributions[:, -1] = probability[roots].sum()

    def add(rows, at, children):
        delta = probability[children] - probability[at]
        np.add.at(contributions, (rows, nodes.feature_[at]), delta)

    walk(features, nodes, roots, add)
    return contributions


class DecisionTree(Classifier):
    """A single fully grown CART tree.

    Parameters
    ----------
    max_features:
        Features examined per split: None = all (plain decision tree),
        ``"sqrt"`` = random sqrt subset (inside a random forest).
    max_depth:
        Optional depth cap; None grows to purity (the paper's default).
    min_samples_leaf / min_samples_split:
        Standard CART stopping controls; the defaults (1 / 2) grow the
        tree fully.

    Fitting sets the node arrays ``feature_``, ``threshold_``, ``left_``,
    ``right_``, ``probability_`` (anomaly fraction) and ``gain_``.
    """

    def __init__(
        self,
        max_features: Optional[object] = None,
        max_depth: Optional[int] = None,
        min_samples_leaf: int = 1,
        min_samples_split: int = 2,
        seed: int = 0,
        max_bins: int = MAX_BINS,
    ):
        super().__init__()
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        self.max_features = max_features
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.min_samples_split = min_samples_split
        self.seed = seed
        self.max_bins = max_bins

    # ------------------------------------------------------------------
    def _n_split_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        k = int(self.max_features)
        if not 1 <= k <= n_features:
            raise ValueError(
                f"max_features {k} out of range [1, {n_features}]"
            )
        return k

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "DecisionTree":
        features, labels = self._check_fit_inputs(features, labels)
        binner = Binner(self.max_bins).fit(features)
        binned = binner.transform(features)
        self.fit_binned(binned, labels, binner)
        return self

    def fit_binned(
        self, binned: np.ndarray, labels: np.ndarray, binner: Binner
    ) -> "DecisionTree":
        """Fit on pre-binned features (a forest bins once, fits many)."""
        self.n_features_ = binned.shape[1]
        rng = np.random.default_rng(self.seed)
        n_split_features = self._n_split_features(binned.shape[1])

        def split_node(indices, depth, slot):
            n_anomalies = int(labels[indices].sum())
            self.probability_[slot] = n_anomalies / len(indices)
            if (
                n_anomalies == 0
                or n_anomalies == len(indices)
                or len(indices) < self.min_samples_split
                or (self.max_depth is not None and depth >= self.max_depth)
            ):
                return None
            split = self._find_split(
                binned, labels, indices, rng, n_split_features
            )
            if split is None:
                return None
            feature, split_bin, decrease = split
            self.gain_[slot] = decrease * len(indices)
            return feature, split_bin

        grow(self, binned, binner, _NODE_FIELDS, split_node)
        return self

    def _find_split(
        self,
        binned: np.ndarray,
        labels: np.ndarray,
        indices: np.ndarray,
        rng: np.random.Generator,
        n_split_features: int,
    ) -> Optional[tuple[int, int, float]]:
        """Best (feature, bin, impurity decrease) over a random feature
        subset, honouring min_samples_leaf."""
        n_features = binned.shape[1]
        if n_split_features < n_features:
            candidates = rng.choice(n_features, n_split_features, replace=False)
        else:
            candidates = np.arange(n_features)
        node_labels = labels[indices]
        best_decrease, best_feature, best_bin = 0.0, -1, -1
        for feature in candidates:
            codes = binned[indices, feature].astype(np.int64)
            counts = np.bincount(
                codes * 2 + node_labels, minlength=2 * self.max_bins
            ).reshape(-1, 2)
            decrease, split_bin = _gini_best_split(
                counts[:, 0], counts[:, 1], self.min_samples_leaf
            )
            if split_bin >= 0 and decrease > best_decrease:
                best_decrease, best_feature, best_bin = decrease, feature, split_bin
        if best_feature < 0:
            return None
        return int(best_feature), int(best_bin), float(best_decrease)

    # ------------------------------------------------------------------
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        features = self._check_predict_inputs(features)
        return self.probability_[walk(features, self, [0])[:, 0]]

    def vote(self, features: np.ndarray) -> np.ndarray:
        """Hard per-tree classification (majority class of the leaf) —
        what each forest member contributes to the vote (§4.4.2)."""
        return (self.predict_proba(features) > 0.5).astype(np.int8)

    def _require_fitted(self) -> None:
        if self.n_features_ is None:
            raise RuntimeError("tree is not fitted")

    @property
    def depth(self) -> int:
        """Maximum depth of the fitted tree (root = 0)."""
        self._require_fitted()
        depths = np.zeros(len(self.feature_), dtype=np.intp)
        for slot in np.flatnonzero(self.feature_ >= 0):
            depths[[self.left_[slot], self.right_[slot]]] = depths[slot] + 1
        return int(depths.max())

    @property
    def n_leaves(self) -> int:
        self._require_fitted()
        return int((self.feature_ < 0).sum())

    def decision_path_contributions(self, features: np.ndarray) -> np.ndarray:
        """Per-feature contributions to each prediction (Saabas method).

        Walking a sample's root-to-leaf path, every split changes the
        running node probability; that change is attributed to the split
        feature. The returned (n_samples, n_features + 1) matrix has one
        column per feature plus a trailing *bias* column (the root
        probability), and each row sums exactly to the tree's predicted
        probability for that sample — the invariant the tests enforce.
        """
        features = self._check_predict_inputs(features)
        return path_contributions(features, self, [0])

    # ------------------------------------------------------------------
    # Serialisation (portable dict-of-arrays; no pickle)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Portable representation of the fitted tree: its node arrays."""
        self._require_fitted()
        return {
            "n_features": self.n_features_,
            **{
                field: getattr(self, field + "_").tolist()
                for field in _NODE_FIELDS
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DecisionTree":
        """Rebuild a prediction-ready tree from :meth:`to_dict` output.
        Children must follow their parent, so every walk ends."""
        tree = cls()
        tree.n_features_ = int(payload["n_features"])
        for field, fill in _NODE_FIELDS.items():
            values = np.asarray(payload[field], dtype=type(fill))
            setattr(tree, field + "_", values)
        lengths = {len(payload[field]) for field in _NODE_FIELDS}
        if len(lengths) != 1 or 0 in lengths:
            raise ValueError("inconsistent node array lengths")
        parents = np.flatnonzero(tree.feature_ >= 0)
        for children in (tree.left_[parents], tree.right_[parents]):
            if ((children <= parents) | (children >= len(tree.feature_))).any():
                raise ValueError("child index out of range or before its parent")
        return tree

    def feature_importances(self) -> np.ndarray:
        """Gini importance: total (impurity decrease * node size) per
        feature, normalised to sum to 1."""
        self._require_fitted()
        split = self.feature_ >= 0
        importances = np.bincount(
            self.feature_[split], weights=self.gain_[split],
            minlength=self.n_features_,
        )
        total = importances.sum()
        return importances / total if total else importances
