"""Bit-identity goldens for the tree learners, plus walker edge cases.

The digests pin seeded fits: the split search, the RNG draw order, the
serialised node arrays and every predicted probability. A change to the
tree layout or to the walker that alters one byte of a fitted model or
one bit of a probability fails here.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.diagnosis.training import default_diagnoser, training_corpus
from repro.ml import DecisionTree, GradientBoosting, RandomForest


def _sha(payload) -> str:
    if isinstance(payload, str):
        payload = payload.encode()
    return hashlib.sha256(payload).hexdigest()


@pytest.fixture(scope="module")
def data():
    """Noisy interacting labels, a tied coarse feature, and queries that
    include every training row (values sitting exactly on thresholds)."""
    rng = np.random.default_rng(2015)
    X = rng.normal(size=(600, 8))
    X[:, 5] = np.round(X[:, 5])
    noise = 0.4 * rng.normal(size=600)
    y = (X[:, 0] + 0.5 * X[:, 3] * X[:, 1] + noise > 0.6).astype(np.int8)
    queries = np.vstack([X, rng.normal(size=(300, 8))])
    return X, y, queries


#: name -> (model factory, sha256 of the JSON, sha256 of predict_proba).
GOLDEN = {
    "forest-default": (
        lambda: RandomForest(n_estimators=20, seed=7),
        "127a59dcd74a5bcc9b8f57bd80fb3fbf6476ced475ea94e825b294caf5b5a2d1",
        "28204108619dd200faee2efae9a8856d54bde50950ce97afa6a05a056f89359a",
    ),
    "forest-max-depth-3": (
        lambda: RandomForest(n_estimators=20, max_depth=3, seed=7),
        "4b4226aee7499c0b2583493d529787d7a2734060dfeb346c6ac8d403bd8aef49",
        "95cc06465457942327033f8d5c29288091dd523f716d9871e6c8abcfe61c4409",
    ),
    "forest-min-samples-leaf-5": (
        lambda: RandomForest(n_estimators=20, min_samples_leaf=5, seed=7),
        "8762451c51896f1bbe9b471ddd6218e0d49a221c5ef24eff9e450347037a17f5",
        "ced2877652b246549ff9ed8c5816b60978c725c5d7fadbb22013920e30934731",
    ),
    "tree": (
        lambda: DecisionTree(seed=3),
        "fbd7273c6d75468c1e1d1e1e22849adb4f6457d15adb21b6a1379c013e1ce959",
        "92eef35edb4dd5aab1219549ce27a20aa027bcca516e1e91cc67e9c6f4c8de16",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_fit_serialisation_and_probabilities(name, data):
    X, y, queries = data
    factory, json_digest, proba_digest = GOLDEN[name]
    model = factory().fit(X, y)
    text = (
        model.to_json() if hasattr(model, "to_json")
        else json.dumps(model.to_dict())
    )
    assert _sha(text) == json_digest
    assert _sha(model.predict_proba(queries).tobytes()) == proba_digest


def test_gradient_boosting(data):
    """Boosting has no serialised form; its probabilities pin the fit."""
    X, y, queries = data
    model = GradientBoosting(n_estimators=30, subsample=0.8, seed=1).fit(X, y)
    assert _sha(model.predict_proba(queries).tobytes()) == (
        "0eb2fbde557be07c4347fce55fd360eb9e298d5ca079ef3fd502e5472ddf0f2a"
    )


def test_default_diagnoser():
    diagnoser = default_diagnoser()
    assert _sha(diagnoser.to_json()) == (
        "bf736549afe90490758ea80b120e0b14a0ee568221a9fffc2e8533e3de352349"
    )
    features, _ = training_corpus(seed=1, weeks=1.0, repeats=2)
    assert _sha(diagnoser.predict_proba(features).tobytes()) == (
        "33614ba5117ae7cc9dd6d15e8b1365197047a29a64bb33d00bed7754e480b5b4"
    )


class TestWalkerEdges:
    def test_root_leaf_tree(self, data):
        X, _, queries = data
        tree = DecisionTree().fit(X, np.zeros(len(X), dtype=np.int8))
        assert (tree.n_leaves, tree.depth) == (1, 0)
        assert (tree.predict_proba(queries) == 0.0).all()
        assert (tree.decision_path_contributions(queries) == 0.0).all()
        forest = RandomForest(n_estimators=3, seed=0).fit(
            X, np.ones(len(X), dtype=np.int8)
        )
        assert (forest.predict_proba(queries) == 1.0).all()
        np.testing.assert_array_equal(
            forest.prediction_contributions(queries)[:, -1], 1.0
        )

    def test_zero_and_one_row_inputs(self, data):
        X, y, queries = data
        models = [
            DecisionTree(seed=3).fit(X, y),
            RandomForest(n_estimators=10, seed=7).fit(X, y),
            GradientBoosting(n_estimators=10, seed=1).fit(X, y),
        ]
        for model in models:
            batch = model.predict_proba(queries)
            assert model.predict_proba(np.empty((0, 8))).shape == (0,)
            for row in (0, 599, 899):
                one = model.predict_proba(queries[row:row + 1])
                assert one.tobytes() == batch[row:row + 1].tobytes()
        assert models[1].prediction_contributions(
            np.empty((0, 8))
        ).shape == (0, 9)

    def test_forest_mixing_single_leaf_and_deep_trees(self, data):
        X, y, queries = data
        n = len(X)
        trees = [
            DecisionTree().fit(X, np.ones(n, dtype=np.int8)),
            DecisionTree(seed=1, max_features="sqrt").fit(X, y),
            DecisionTree().fit(X, np.zeros(n, dtype=np.int8)),
            DecisionTree(seed=2, max_depth=2).fit(X, y),
        ]
        payload = {
            "n_estimators": len(trees),
            "n_features": 8,
            "trees": [tree.to_dict() for tree in trees],
        }
        forest = RandomForest.from_dict(payload)
        expected = np.mean([tree.vote(queries) for tree in trees], axis=0)
        np.testing.assert_array_equal(forest.predict_proba(queries), expected)
        leaf_mean = np.mean(
            [tree.predict_proba(queries) for tree in trees], axis=0
        )
        np.testing.assert_allclose(
            forest.prediction_contributions(queries).sum(axis=1),
            leaf_mean, atol=1e-12,
        )
        assert forest.to_dict() == payload

    def test_from_dict_rejects_corrupt_nodes(self, data):
        X, y, _ = data
        good = DecisionTree(seed=3).fit(X, y).to_dict()
        inner = [i for i, f in enumerate(good["feature"]) if f >= 0]
        size = len(good["feature"])

        def corrupt(field, index, value):
            payload = {key: list(v) if isinstance(v, list) else v
                       for key, v in good.items()}
            payload[field][index] = value
            return payload

        mismatched = dict(good, gain=good["gain"][:-1])
        cases = [
            mismatched,
            corrupt("left", 0, size),            # out of range
            corrupt("right", inner[-1], -1),     # out of range
            corrupt("left", 0, 0),               # points at itself
            corrupt("right", inner[1], inner[1] - 1),  # points backwards
        ]
        for payload in cases:
            with pytest.raises(ValueError):
                DecisionTree.from_dict(payload)
        DecisionTree.from_dict(good)
