import numpy as np
import pytest

from edgevitals.classify.forest import ForestModel, predict_forest, train_random_forest
from edgevitals.classify.schema import (
    NUMERIC,
    Attribute,
    ClassLabel,
    FeatureVector,
    LabeledDataset,
)
from edgevitals.classify.serialize import model_to_json
from edgevitals.classify.tree import DecisionTreeModel, predict_tree, train_decision_tree

S = ClassLabel.STABLE
L = ClassLabel.LIGHT_WORSENING
W = ClassLabel.WORSENING


def num_schema(k):
    return tuple(Attribute("x%d" % i, NUMERIC) for i in range(k))


def separable_dataset(n=150, seed=31):
    # labels depend on x0 alone, with gaps between the class bands so any
    # reasonable split threshold lands inside a gap
    rng = np.random.default_rng(seed)
    schema = num_schema(3)
    rows, labels = [], []
    while len(rows) < n:
        x = rng.uniform(0.0, 1.0, size=3)
        if x[0] < 0.3:
            lab = S
        elif 0.4 < x[0] < 0.6:
            lab = L
        elif x[0] > 0.7:
            lab = W
        else:
            continue
        rows.append(FeatureVector(schema, tuple(float(v) for v in x)))
        labels.append(lab)
    return LabeledDataset(schema, tuple(rows), tuple(labels))


def noisy_dataset(n=120, seed=77):
    rng = np.random.default_rng(seed)
    schema = num_schema(4)
    rows = tuple(FeatureVector(schema, tuple(float(v) for v in rng.uniform(0, 1, 4)))
                 for _ in range(n))
    labels = tuple((S, L, W)[int(i)] for i in rng.integers(0, 3, n))
    return LabeledDataset(schema, rows, labels)


class TestDeterminism:
    def test_degenerate_forest_equals_single_tree(self):
        data = separable_dataset()
        tree = train_decision_tree(data)
        forest = train_random_forest(data, n_trees=1,
                                     attrs_per_split=len(data.schema),
                                     seed=0, bootstrap=False)
        assert forest.trees[0].root == tree.root
        rng = np.random.default_rng(9)
        for _ in range(100):
            q = FeatureVector(data.schema, tuple(float(v) for v in rng.uniform(0, 1, 3)))
            assert predict_forest(forest, q)[0] is predict_tree(tree, q)[0]

    def test_same_seed_serializes_byte_identically(self):
        data = noisy_dataset()
        a = train_random_forest(data, n_trees=5, attrs_per_split=2, seed=42)
        b = train_random_forest(data, n_trees=5, attrs_per_split=2, seed=42)
        assert a == b
        assert model_to_json(a) == model_to_json(b)

    def test_different_seed_differs(self):
        data = noisy_dataset()
        a = train_random_forest(data, n_trees=5, attrs_per_split=2, seed=42)
        b = train_random_forest(data, n_trees=5, attrs_per_split=2, seed=43)
        assert model_to_json(a) != model_to_json(b)

    def test_bootstrap_flag_changes_trees(self):
        data = noisy_dataset()
        a = train_random_forest(data, n_trees=3, attrs_per_split=4, seed=1, bootstrap=True)
        b = train_random_forest(data, n_trees=3, attrs_per_split=4, seed=1, bootstrap=False)
        assert model_to_json(a) != model_to_json(b)


class TestPrediction:
    def test_fits_separable_data(self):
        data = separable_dataset()
        forest = train_random_forest(data, n_trees=25, attrs_per_split=2, seed=7)
        correct = sum(predict_forest(forest, fv)[0] is lab
                      for fv, lab in zip(data.features, data.labels))
        assert correct == len(data)

    def test_vote_tie_breaks_to_lowest_ordinal(self):
        schema = num_schema(1)
        leaf_s = {"kind": "leaf", "n": 1, "distribution": [1.0, 0.0, 0.0]}
        leaf_w = {"kind": "leaf", "n": 1, "distribution": [0.0, 0.0, 1.0]}
        forest = ForestModel(schema,
                             (DecisionTreeModel(schema, leaf_s),
                              DecisionTreeModel(schema, leaf_w)),
                             seed=0, attrs_per_split=1, bootstrap=False)
        label, dist = predict_forest(forest, FeatureVector(schema, (0.0,)))
        assert label is S
        assert dist == (0.5, 0.0, 0.5)

    def test_distribution_is_vote_share(self):
        data = separable_dataset(n=60)
        forest = train_random_forest(data, n_trees=4, attrs_per_split=1, seed=3)
        _, dist = predict_forest(forest, data.features[0])
        assert abs(sum(dist) - 1.0) < 1e-12
        assert all(p * 4 == round(p * 4) for p in dist)


class TestValidation:
    def test_attrs_per_split_bounds(self):
        data = separable_dataset(n=30)
        with pytest.raises(ValueError):
            train_random_forest(data, n_trees=2, attrs_per_split=0, seed=0)
        with pytest.raises(ValueError):
            train_random_forest(data, n_trees=2, attrs_per_split=4, seed=0)

    def test_n_trees_positive(self):
        data = separable_dataset(n=30)
        with pytest.raises(ValueError):
            train_random_forest(data, n_trees=0, attrs_per_split=1, seed=0)

    def test_empty_dataset(self):
        data = LabeledDataset(num_schema(2), (), ())
        with pytest.raises(ValueError):
            train_random_forest(data, n_trees=2, attrs_per_split=1, seed=0)

    def test_predict_schema_mismatch(self):
        data = separable_dataset(n=30)
        forest = train_random_forest(data, n_trees=2, attrs_per_split=1, seed=0)
        with pytest.raises(ValueError):
            predict_forest(forest, FeatureVector(num_schema(1), (0.5,)))
