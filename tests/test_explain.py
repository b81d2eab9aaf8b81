"""Detection-explanation tests (path attribution)."""

import numpy as np
import pytest

from repro.core import Opprentice, explain_features, explain_point
from repro.ml import DecisionTree, RandomForest

from test_opprentice import fast_forest, small_bank


class TestTreeContributions:
    def test_rows_sum_to_prediction(self, rng):
        X = rng.normal(size=(400, 5))
        y = (X[:, 1] + 0.3 * X[:, 3] > 0.4).astype(int)
        tree = DecisionTree(seed=0).fit(X, y)
        contributions = tree.decision_path_contributions(X)
        np.testing.assert_allclose(
            contributions.sum(axis=1), tree.predict_proba(X), atol=1e-12
        )

    def test_bias_is_root_probability(self, rng):
        X = rng.normal(size=(200, 3))
        y = (rng.random(200) < 0.25).astype(int)
        tree = DecisionTree(seed=0).fit(X, y)
        contributions = tree.decision_path_contributions(X)
        assert np.allclose(contributions[:, -1], y.mean())

    def test_unused_features_get_zero(self, rng):
        X = rng.normal(size=(300, 4))
        y = (X[:, 2] > 0).astype(int)  # only feature 2 matters
        tree = DecisionTree(seed=0).fit(X, y)
        contributions = tree.decision_path_contributions(X)
        # Features never split on contribute exactly 0.
        used = set(tree.feature_[tree.feature_ >= 0].tolist())
        for j in range(4):
            if j not in used:
                assert (contributions[:, j] == 0).all()

    def test_informative_feature_dominates(self, rng):
        X = rng.normal(size=(500, 4))
        y = (X[:, 0] > 0.2).astype(int)
        tree = DecisionTree(seed=0).fit(X, y)
        contributions = tree.decision_path_contributions(X)
        magnitude = np.abs(contributions[:, :4]).mean(axis=0)
        assert magnitude[0] == magnitude.max()


class TestForestContributions:
    def test_rows_sum_to_vote_probability(self, rng):
        """Fully grown trees have pure leaves, so the mean-leaf
        decomposition equals the vote probability exactly."""
        X = rng.normal(size=(300, 4))
        y = (X[:, 0] - X[:, 2] > 0.3).astype(int)
        forest = RandomForest(n_estimators=12, seed=1).fit(X, y)
        contributions = forest.prediction_contributions(X)
        np.testing.assert_allclose(
            contributions.sum(axis=1), forest.predict_proba(X), atol=1e-12
        )

    def test_shape(self, rng):
        X = rng.normal(size=(50, 6))
        y = (X[:, 0] > 0).astype(int)
        forest = RandomForest(n_estimators=3, seed=0).fit(X, y)
        assert forest.prediction_contributions(X).shape == (50, 7)


class TestExplainAPI:
    @pytest.fixture(scope="class")
    def fitted(self, labeled_kpi):
        series = labeled_kpi.series
        opp = Opprentice(
            configs=small_bank(series.points_per_week),
            classifier_factory=fast_forest,
        ).fit(series)
        return opp, series

    def test_explanation_is_complete_decomposition(self, fitted):
        opp, series = fitted
        anomaly_index = int(np.flatnonzero(series.labels == 1)[5])
        explanation = explain_point(opp, series, anomaly_index)
        reconstructed = explanation.bias + sum(
            c.contribution for c in explanation.contributions
        )
        assert reconstructed == pytest.approx(explanation.probability)

    def test_top_k_sorted_descending(self, fitted):
        opp, series = fitted
        explanation = explain_point(opp, series, len(series) - 1)
        top = explanation.top(3)
        assert len(top) == 3
        assert top[0].contribution >= top[1].contribution >= top[2].contribution

    def test_render_mentions_probability_and_names(self, fitted):
        opp, series = fitted
        anomaly_index = int(np.flatnonzero(series.labels == 1)[5])
        text = explain_point(opp, series, anomaly_index).render(k=2)
        assert "anomaly probability" in text
        assert any(name in text for name in opp.extractor.names)

    def test_requires_fitted(self, labeled_kpi):
        with pytest.raises(ValueError, match="fitted"):
            explain_features(Opprentice(), np.zeros(5))

    def test_index_validated(self, fitted):
        opp, series = fitted
        with pytest.raises(IndexError):
            explain_point(opp, series, len(series) + 10)

    def test_anomalous_point_explained_by_firing_detectors(self, fitted):
        """The top contributor at a true anomaly must be a detector with
        an elevated severity at that point."""
        opp, series = fitted
        matrix = opp.extractor.extract(series)
        anomaly_index = int(np.flatnonzero(series.labels == 1)[10])
        explanation = explain_features(
            opp, matrix.values[anomaly_index]
        )[0]
        if explanation.probability < 0.5:
            pytest.skip("forest missed this anomaly; nothing to explain")
        top = explanation.top(1)[0]
        column = matrix.column(top.name)
        finite = column[np.isfinite(column)]
        percentile = (finite < top.severity).mean()
        assert percentile > 0.8
