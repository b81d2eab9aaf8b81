"""Decision tree tests: split search, purity, prediction."""

import numpy as np
import pytest

from repro.ml import Binner, DecisionTree
from repro.ml.base import NotFittedError
from repro.ml.tree import _gini_best_split


class TestBinner:
    def test_transform_monotone(self, rng):
        features = rng.normal(size=(500, 3))
        binner = Binner().fit(features)
        binned = binner.transform(features)
        col = features[:, 0]
        codes = binned[:, 0]
        order = np.argsort(col)
        assert (np.diff(codes[order].astype(int)) >= 0).all()

    def test_max_bins_respected(self, rng):
        features = rng.normal(size=(10_000, 1))
        binner = Binner(max_bins=16).fit(features)
        codes = binner.transform(features)
        assert codes.max() <= 16

    def test_constant_feature_single_bin(self):
        features = np.ones((100, 1))
        binner = Binner().fit(features)
        assert (binner.transform(features) == binner.transform(features)[0]).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            Binner(max_bins=1)
        with pytest.raises(RuntimeError):
            Binner().transform(np.ones((2, 2)))


class TestGiniSplit:
    def test_perfect_split(self):
        # Bin 0: 10 negatives; bin 1: 10 positives.
        counts0 = np.array([10, 0])
        counts1 = np.array([0, 10])
        decrease, split_bin = _gini_best_split(counts0, counts1)
        assert split_bin == 0
        assert decrease == pytest.approx(0.5)  # parent gini 0.5 -> 0

    def test_pure_node_no_split(self):
        decrease, split_bin = _gini_best_split(
            np.array([5, 5]), np.array([0, 0])
        )
        assert split_bin == -1

    def test_uninformative_split_rejected(self):
        # Identical class ratio in both bins: no impurity decrease.
        decrease, split_bin = _gini_best_split(
            np.array([5, 5]), np.array([5, 5])
        )
        assert split_bin == -1


class TestDecisionTree:
    def test_fits_separable_data_perfectly(self, rng):
        X = rng.normal(size=(400, 5))
        y = (X[:, 2] > 0.3).astype(int)
        tree = DecisionTree().fit(X, y)
        assert (tree.predict(X) == y).all()

    def test_fully_grown_leaves_are_pure(self, rng):
        X = rng.normal(size=(300, 4))
        y = (X[:, 0] + 0.2 * rng.normal(size=300) > 0).astype(int)
        tree = DecisionTree().fit(X, y)
        probabilities = set(tree.probability_[tree.feature_ < 0].tolist())
        assert probabilities <= {0.0, 1.0}

    def test_max_depth_limits_depth(self, rng):
        X = rng.normal(size=(500, 4))
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        tree = DecisionTree(max_depth=3).fit(X, y)
        assert tree.depth <= 3

    def test_min_samples_leaf(self, rng):
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] > 0).astype(int)
        tree = DecisionTree(min_samples_leaf=20).fit(X, y)
        # Count samples routed to each leaf.
        proba = tree.predict_proba(X)
        assert tree.n_leaves <= 10

    def test_probability_semantics(self, rng):
        X = rng.normal(size=(100, 2))
        y = rng.integers(0, 2, 100)
        tree = DecisionTree(max_depth=1).fit(X, y)
        proba = tree.predict_proba(X)
        assert ((proba >= 0) & (proba <= 1)).all()

    def test_most_informative_feature_at_root(self, rng):
        X = rng.normal(size=(500, 6))
        y = (X[:, 4] > 0).astype(int)
        tree = DecisionTree().fit(X, y)
        assert tree.feature_[0] == 4

    def test_reproducible_with_seed(self, rng):
        X = rng.normal(size=(200, 8))
        y = (X[:, 0] > 0).astype(int)
        a = DecisionTree(max_features="sqrt", seed=3).fit(X, y)
        b = DecisionTree(max_features="sqrt", seed=3).fit(X, y)
        np.testing.assert_array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_feature_importances_sum_to_one(self, rng):
        X = rng.normal(size=(300, 5))
        y = (X[:, 1] + X[:, 2] > 0).astype(int)
        tree = DecisionTree().fit(X, y)
        importances = tree.feature_importances()
        assert importances.sum() == pytest.approx(1.0)
        assert importances[1] + importances[2] > 0.5

    def test_input_validation(self, rng):
        X = rng.normal(size=(50, 3))
        y = (X[:, 0] > 0).astype(int)
        with pytest.raises(ValueError, match="NaN"):
            bad = X.copy()
            bad[0, 0] = np.nan
            DecisionTree().fit(bad, y)
        with pytest.raises(ValueError, match="0/1"):
            DecisionTree().fit(X, y + 5)
        with pytest.raises(ValueError, match="labels shape"):
            DecisionTree().fit(X, y[:-1])
        with pytest.raises(NotFittedError):
            DecisionTree().predict_proba(X)
        tree = DecisionTree().fit(X, y)
        with pytest.raises(ValueError, match="expected"):
            tree.predict_proba(X[:, :2])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DecisionTree(min_samples_leaf=0)
        with pytest.raises(ValueError):
            DecisionTree(min_samples_split=1)

    def test_all_one_class_is_single_leaf(self, rng):
        X = rng.normal(size=(50, 3))
        tree = DecisionTree().fit(X, np.zeros(50, dtype=int))
        assert tree.n_leaves == 1
        assert (tree.predict_proba(X) == 0.0).all()
