"""Static combination baseline tests (§5.3.1)."""

import warnings

import numpy as np
import pytest

from repro.combiners import MajorityVote, NormalizationSchema
from repro.evaluation import aucpr


def synthetic_feature_matrix(rng, n=600, good=3, bad=20, anomaly_rate=0.1):
    """A matrix where `good` configurations track the labels and `bad`
    configurations are pure noise."""
    labels = (rng.random(n) < anomaly_rate).astype(int)
    columns = []
    for _ in range(good):
        columns.append(labels * rng.uniform(5, 10) + rng.normal(0, 0.5, n))
    for _ in range(bad):
        columns.append(np.abs(rng.normal(0, 1.0, n)))
    return np.column_stack(columns), labels


class TestNormalizationSchema:
    def test_scores_in_unit_interval(self, rng):
        X, _ = synthetic_feature_matrix(rng)
        combiner = NormalizationSchema().fit(X[:300])
        scores = combiner.score(X[300:])
        assert ((scores >= 0) & (scores <= 1)).all()

    def test_detects_with_mostly_good_features(self, rng):
        X, y = synthetic_feature_matrix(rng, good=10, bad=2)
        combiner = NormalizationSchema().fit(X[:300])
        assert aucpr(combiner.score(X[300:]), y[300:]) > 0.8

    def test_diluted_by_inaccurate_configurations(self, rng):
        """The §5.3.1 failure mode: equal weighting lets bad
        configurations drown the good ones."""
        X_good, y = synthetic_feature_matrix(rng, good=3, bad=0)
        X_bad = np.column_stack(
            [X_good, np.abs(rng.normal(0, 1.0, (len(y), 60)))]
        )
        clean = NormalizationSchema().fit(X_good[:300])
        noisy = NormalizationSchema().fit(X_bad[:300])
        auc_clean = aucpr(clean.score(X_good[300:]), y[300:])
        auc_noisy = aucpr(noisy.score(X_bad[300:]), y[300:])
        assert auc_noisy < auc_clean

    def test_nan_features_are_neutral(self, rng):
        X, _ = synthetic_feature_matrix(rng)
        combiner = NormalizationSchema().fit(X[:300])
        dirty = X[300:].copy()
        dirty[:, 0] = np.nan
        scores = combiner.score(dirty)
        assert np.isfinite(scores).all()

        # An all-NaN training column gets a [0, 0] range, silently.
        train = X[:300].copy()
        train[:, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sparse = NormalizationSchema().fit(train)
        assert sparse.low_[0] == 0.0 and sparse.high_[0] == 0.0
        np.testing.assert_array_equal(sparse.low_[1:], combiner.low_[1:])
        np.testing.assert_array_equal(sparse.high_[1:], combiner.high_[1:])

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            NormalizationSchema(lower_quantile=0.9, upper_quantile=0.1)

    def test_unfitted_raises(self, rng):
        with pytest.raises(RuntimeError):
            NormalizationSchema().score(rng.normal(size=(5, 3)))


class TestMajorityVote:
    def test_score_is_vote_fraction(self, rng):
        X, _ = synthetic_feature_matrix(rng, good=2, bad=2)
        combiner = MajorityVote().fit(X[:300])
        scores = combiner.score(X[300:])
        assert ((scores >= 0) & (scores <= 1)).all()
        # Fractions over 4 configurations are multiples of 0.25.
        np.testing.assert_allclose(scores * 4, np.round(scores * 4))

    def test_detects_with_good_features(self, rng):
        # The vote quantile must sit below the anomaly rate's severity
        # range (10% anomalies here), so use the 85th percentile.
        X, y = synthetic_feature_matrix(rng, good=10, bad=2)
        combiner = MajorityVote(vote_quantile=0.85).fit(X[:300])
        assert aucpr(combiner.score(X[300:]), y[300:]) > 0.7

    def test_all_nan_training_column_never_votes(self, rng):
        X, _ = synthetic_feature_matrix(rng, good=2, bad=1)
        X_train = X[:300].copy()
        X_train[:, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            combiner = MajorityVote().fit(X_train)
        assert combiner.thresholds_[0] == np.inf
        np.testing.assert_array_equal(
            combiner.thresholds_[1:], np.quantile(X_train[:, 1:], 0.99, axis=0)
        )
        scores = combiner.score(X[300:])
        assert scores.max() <= 2 / 3 + 1e-9

    def test_vote_quantile_validation(self):
        with pytest.raises(ValueError):
            MajorityVote(vote_quantile=0.3)

    def test_shape_validation(self, rng):
        combiner = MajorityVote().fit(rng.normal(size=(50, 4)))
        with pytest.raises(ValueError):
            combiner.score(rng.normal(size=(5, 3)))
