"""Decision tree tests: split search, purity, prediction."""

import numpy as np
import pytest

from repro.ml import Binner, DecisionTree, GradientBoosting
from repro.ml.base import NotFittedError
from repro.ml.boosting import _RegressionTree
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


# ----------------------------------------------------------------------
# Split search: one 2-D pass per node == the per-feature reference
# ----------------------------------------------------------------------
def _reference_gini(counts0, counts1, min_samples_leaf):
    """One feature's best (decrease, bin), scored on its own."""
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


def _reference_tree_split(self, binned, labels, indices, rng, n_split_features):
    """The per-(node, feature) search: one bincount and one scoring per
    candidate, the first strictly better feature kept."""
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
        decrease, split_bin = _reference_gini(
            counts[:, 0], counts[:, 1], self.min_samples_leaf
        )
        if split_bin >= 0 and decrease > best_decrease:
            best_decrease, best_feature, best_bin = decrease, feature, split_bin
    if best_feature < 0:
        return None
    return int(best_feature), int(best_bin), float(best_decrease)


def _reference_boosting_split(self, binned, residuals, indices):
    """The per-feature regression search: a later feature must beat the
    best so far by more than 1e-12."""
    node_residuals = residuals[indices]
    total_sum = node_residuals.sum()
    total_n = len(indices)
    best_gain, best = 0.0, None
    base = total_sum * total_sum / total_n
    for feature in range(binned.shape[1]):
        codes = binned[indices, feature].astype(np.int64)
        counts = np.bincount(codes, minlength=self.max_bins)
        sums = np.bincount(codes, weights=node_residuals, minlength=self.max_bins)
        left_n = np.cumsum(counts)[:-1]
        left_sum = np.cumsum(sums)[:-1]
        right_n = total_n - left_n
        right_sum = total_sum - left_sum
        valid = (
            (left_n >= self.min_samples_leaf) & (right_n >= self.min_samples_leaf)
        )
        if not valid.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = np.where(
                valid,
                left_sum**2 / left_n + right_sum**2 / right_n - base,
                -np.inf,
            )
        bin_index = int(np.argmax(gains))
        if gains[bin_index] > best_gain + 1e-12:
            best_gain = float(gains[bin_index])
            best = (feature, bin_index)
    return best


def _recording(model, search):
    """Route ``model``'s split search through ``search`` (bound to it),
    logging each node's row count and result in ``model.splits``."""
    model.splits = []

    def find_split(*args):
        split = search(model, *args)
        model.splits.append((len(args[2]), split))
        return split

    model._find_split = find_split
    return model


def _hostile_features(rng, n, n_features=12):
    """Tied columns (identical histograms), a constant (single-bin)
    column, coarse columns full of empty bins, and a 2-level recoding of
    column 0 that splits its rows as one of its cuts does, by different
    sums."""
    X = rng.normal(size=(n, n_features))
    X[:, 1] = X[:, 0]
    X[:, 2] = 3.0
    X[:, 3] = np.round(X[:, 3])
    X[:, 4] = rng.integers(0, 3, n)
    X[:, 6] = X[:, 0]
    X[:, 7] = X[:, 0] > np.median(X[:, 0])
    X[:, 9] = X[:, 5]
    return X


def _assert_same_nodes(fused, reference, fields):
    assert fused.splits == reference.splits
    for field in fields:
        got, want = getattr(fused, field + "_"), getattr(reference, field + "_")
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), field


_TREE_FIELDS = ("feature", "threshold", "left", "right", "probability", "gain")
_BOOSTING_FIELDS = ("feature", "threshold", "left", "right", "value")


class TestSplitSearchMatchesReference:
    """Every node's (feature, bin, decrease) and every node array equal
    the per-feature reference's bit for bit: the draw order, the
    candidates in drawn order, the first best over candidates then bins,
    the 1e-12 floor and min_samples_leaf all survive the fused search."""

    @pytest.mark.parametrize("max_features", [None, "sqrt", 5])
    @pytest.mark.parametrize("min_samples_leaf", [1, 5])
    @pytest.mark.parametrize("max_depth", [None, 3])
    def test_tree_on_bootstraps(self, max_features, min_samples_leaf, max_depth):
        rng = np.random.default_rng(29)
        small_nodes = 0
        for case in range(4):
            n = int(rng.integers(40, 240))
            X = _hostile_features(rng, n)
            y = (X[:, 0] + 0.8 * X[:, 5] * X[:, 8] + 0.5 * rng.normal(size=n)
                 > 0.3).astype(np.int8)
            binner = Binner(max_bins=[256, 16][case % 2]).fit(X)
            binned = binner.transform(X)
            # A bootstrap repeats rows, as a forest member's does.
            rows = rng.integers(0, n, size=n)
            params = dict(
                max_features=max_features, max_depth=max_depth,
                min_samples_leaf=min_samples_leaf, seed=case,
                max_bins=binner.max_bins,
            )
            trees = [
                _recording(DecisionTree(**params), search).fit_binned(
                    binned[rows], y[rows], binner
                )
                for search in (DecisionTree._find_split, _reference_tree_split)
            ]
            _assert_same_nodes(*trees, _TREE_FIELDS)
            small_nodes += sum(rows <= 3 for rows, _ in trees[0].splits)
        if max_depth is None and min_samples_leaf == 1:
            assert small_nodes > 0

    def test_scorer_keeps_the_scalar_parent_impurity(self):
        """Node totals whose squared class fraction rounds differently
        as a scalar and in an array: the stacked scorer still returns
        the reference's first best decrease to the bit."""
        rng = np.random.default_rng(11)
        totals = []
        while len(totals) < 40:
            n = int(rng.integers(4, 3000))
            n1 = int(rng.integers(1, n))
            fractions = np.int64(n - n1) / np.int64(n), np.int64(n1) / np.int64(n)
            drifts = any(f**2 != np.square(np.array([f]))[0] for f in fractions)
            # Where squaring never drifts, any totals will do.
            if drifts or rng.random() < 0.01:
                totals.append((n - n1, n1))
        for total0, total1 in totals:
            counts0 = rng.multinomial(total0, np.full(16, 1 / 16), size=3)
            counts1 = rng.multinomial(total1, np.full(16, 1 / 16), size=3)
            best = (0.0, -1)
            for row in range(3):
                decrease, split_bin = _reference_gini(counts0[row], counts1[row], 1)
                if split_bin >= 0 and decrease > best[0]:
                    best = (decrease, row * 15 + split_bin)
            assert _gini_best_split(counts0, counts1) == best

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("max_features", [None, "sqrt"])
    def test_tree_on_two_and_three_rows(self, n, max_features):
        rng = np.random.default_rng(n)
        for seed in range(5):
            X = _hostile_features(rng, n)
            y = np.zeros(n, dtype=np.int8)
            y[seed % n] = 1
            binner = Binner().fit(X)
            binned = binner.transform(X)
            trees = [
                _recording(DecisionTree(max_features=max_features, seed=seed),
                           search).fit_binned(binned, y, binner)
                for search in (DecisionTree._find_split, _reference_tree_split)
            ]
            _assert_same_nodes(*trees, _TREE_FIELDS)
            assert trees[0].splits[0][0] == n

    def test_single_class_bootstrap_is_a_leaf(self):
        rng = np.random.default_rng(5)
        X = _hostile_features(rng, 50)
        binner = Binner().fit(X)
        for label in (0, 1):
            y = np.full(50, label, dtype=np.int8)
            trees = [
                _recording(DecisionTree(max_features="sqrt"), search)
                .fit_binned(binner.transform(X), y, binner)
                for search in (DecisionTree._find_split, _reference_tree_split)
            ]
            _assert_same_nodes(*trees, _TREE_FIELDS)
            assert trees[0].splits == [] and trees[0].n_leaves == 1

    @pytest.mark.parametrize("min_samples_leaf", [1, 5])
    def test_regression_tree(self, min_samples_leaf):
        rng = np.random.default_rng(31)
        for case in range(6):
            n = int(rng.integers(30, 400))
            X = _hostile_features(rng, n)
            binner = Binner(max_bins=[128, 16][case % 2]).fit(X)
            binned = binner.transform(X)
            residuals = (X[:, 0] > np.median(X[:, 0])) - rng.uniform(size=n)
            hessians = rng.uniform(0.05, 0.25, size=n)
            trees = [
                _recording(
                    _RegressionTree(3, min_samples_leaf, binner.max_bins), search
                ).fit(binned, residuals, hessians, binner)
                for search in (
                    _RegressionTree._find_split, _reference_boosting_split
                )
            ]
            _assert_same_nodes(*trees, _BOOSTING_FIELDS)

    @pytest.mark.parametrize("subsample", [1.0, 0.7])
    def test_gradient_boosting(self, monkeypatch, subsample):
        rng = np.random.default_rng(37)
        X = _hostile_features(rng, 500)
        y = (X[:, 0] + 0.5 * X[:, 5] + 0.5 * rng.normal(size=500) > 0.2)
        fused = GradientBoosting(n_estimators=15, subsample=subsample, seed=2)
        fused.fit(X, y)
        monkeypatch.setattr(
            _RegressionTree, "_find_split", _reference_boosting_split
        )
        reference = GradientBoosting(n_estimators=15, subsample=subsample, seed=2)
        reference.fit(X, y)
        for got, want in zip(fused.trees_, reference.trees_):
            for field in _BOOSTING_FIELDS:
                assert getattr(got, field + "_").tobytes() == (
                    getattr(want, field + "_").tobytes()
                )
        assert fused.predict_proba(X).tobytes() == (
            reference.predict_proba(X).tobytes()
        )
