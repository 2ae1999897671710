import math

import numpy as np
import pytest

from edgevitals.classify.schema import (
    CATEGORICAL,
    NUMERIC,
    Attribute,
    ClassLabel,
    FeatureVector,
    LabeledDataset,
)
from edgevitals.classify.serialize import model_from_json, model_to_json
from edgevitals.classify.tree import _entropy, _split_quality, predict_tree, train_decision_tree

S = ClassLabel.STABLE
L = ClassLabel.LIGHT_WORSENING
W = ClassLabel.WORSENING


def num_schema(k):
    return tuple(Attribute("x%d" % i, NUMERIC) for i in range(k))


def dataset(schema, rows, labels):
    feats = tuple(FeatureVector(schema, tuple(r)) for r in rows)
    return LabeledDataset(schema, feats, tuple(labels))


class TestEntropyOracle:
    # hand-worked two-class values
    def test_balanced_is_one_bit(self):
        assert _entropy([4, 4]) == 1.0

    def test_three_one_split(self):
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert abs(_entropy([3, 1]) - expected) < 1e-12
        assert abs(_entropy([3, 1]) - 0.8112781244591328) < 1e-12

    def test_pure_is_zero(self):
        assert _entropy([5, 0, 0]) == 0.0
        assert _entropy([0, 0]) == 0.0

    def test_gain_and_ratio_for_binary_attribute(self):
        # parent 4 vs 4, children (3,1) and (1,3): gain = 1 - H(3,1),
        # split_info = 1 bit, so ratio equals gain
        groups = [[S, S, S, L], [S, L, L, L]]
        gain, ratio = _split_quality(1.0, 8, groups)
        expected_gain = 1.0 - 0.8112781244591328
        assert abs(gain - expected_gain) < 1e-9
        assert abs(ratio - expected_gain) < 1e-9

    def test_zero_gain_reports_zero_ratio(self):
        groups = [[S, L], [S, L]]
        gain, ratio = _split_quality(1.0, 4, groups)
        assert abs(gain) < 1e-12
        assert ratio == 0.0


class TestTraining:
    def test_pure_data_gives_single_leaf(self):
        data = dataset(num_schema(1), [(1.0,), (2.0,)], [S, S])
        model = train_decision_tree(data)
        assert model.root["kind"] == "leaf"
        assert model.root["distribution"] == [1.0, 0.0, 0.0]
        label, dist = predict_tree(model, FeatureVector(model.schema, (5.0,)))
        assert label is S and dist == (1.0, 0.0, 0.0)

    def test_numeric_split_at_midpoint(self):
        data = dataset(num_schema(1),
                       [(1.0,), (2.0,), (3.0,), (7.0,), (8.0,), (9.0,)],
                       [S, S, S, W, W, W])
        model = train_decision_tree(data)
        assert model.root["kind"] == "split"
        assert model.root["attribute"] == 0
        assert model.root["threshold"] == 5.0
        assert predict_tree(model, FeatureVector(model.schema, (2.0,)))[0] is S
        assert predict_tree(model, FeatureVector(model.schema, (8.0,)))[0] is W
        # boundary goes left
        assert predict_tree(model, FeatureVector(model.schema, (5.0,)))[0] is S

    @pytest.mark.parametrize("lo, hi", [(1e308, 1.5e308), (-1.5e308, -1e308)])
    def test_split_between_values_whose_sum_overflows(self, lo, hi):
        data = dataset(num_schema(1), [(lo,), (hi,)], [S, W])
        model = train_decision_tree(data)
        assert model.root["kind"] == "split"
        assert lo < model.root["threshold"] < hi
        loaded = model_from_json(model_to_json(model))
        assert loaded == model
        for m in (model, loaded):
            assert predict_tree(m, FeatureVector(m.schema, (lo,)))[0] is S
            assert predict_tree(m, FeatureVector(m.schema, (hi,)))[0] is W

    def test_tie_breaks_to_lowest_attribute_index(self):
        # second attribute duplicates the first, so both splits score the same
        rows = [(v, v) for v in (1.0, 2.0, 3.0, 7.0, 8.0, 9.0)]
        data = dataset(num_schema(2), rows, [S, S, S, W, W, W])
        model = train_decision_tree(data)
        assert model.root["attribute"] == 0

    def test_missing_query_follows_majority_child(self):
        data = dataset(num_schema(1),
                       [(1.0,), (2.0,), (3.0,), (4.0,), (7.0,), (8.0,)],
                       [S, S, S, S, W, W])
        model = train_decision_tree(data)
        assert model.root["majority_child"] == 0
        label, _ = predict_tree(model, FeatureVector(model.schema, (None,)))
        assert label is S

    def test_missing_training_rows_join_majority_side(self):
        data = dataset(num_schema(1),
                       [(1.0,), (2.0,), (3.0,), (None,), (7.0,), (8.0,), (9.0,)],
                       [S, S, S, S, W, W, W])
        model = train_decision_tree(data)
        assert model.root["threshold"] == 5.0
        left = model.root["children"][0]
        assert left["kind"] == "leaf" and left["n"] == 4

    def test_categorical_multiway_split(self):
        schema = (Attribute("color", CATEGORICAL),)
        data = dataset(schema, [("a",), ("a",), ("a",), ("b",), ("b",)],
                       [S, S, S, W, W])
        model = train_decision_tree(data)
        assert model.root["kind"] == "split_cat"
        assert set(model.root["children"]) == {"a", "b"}
        assert model.root["majority_category"] == "a"
        assert predict_tree(model, FeatureVector(schema, ("a",)))[0] is S
        assert predict_tree(model, FeatureVector(schema, ("b",)))[0] is W
        # unseen category routes through the majority child
        assert predict_tree(model, FeatureVector(schema, ("z",)))[0] is S

    def test_consistent_data_fits_perfectly(self):
        rng = np.random.default_rng(31)
        schema = num_schema(3)
        rows, labels = [], []
        for _ in range(150):
            x = rng.uniform(0.0, 1.0, size=3)
            if x[0] > 0.7:
                lab = W
            elif x[1] > 0.5:
                lab = L
            else:
                lab = S
            rows.append(tuple(float(v) for v in x))
            labels.append(lab)
        data = dataset(schema, rows, labels)
        model = train_decision_tree(data)
        for fv, lab in zip(data.features, data.labels):
            assert predict_tree(model, fv)[0] is lab

    def test_min_leaf_blocks_small_splits(self):
        data = dataset(num_schema(1),
                       [(1.0,), (2.0,), (3.0,), (7.0,), (8.0,), (9.0,)],
                       [S, S, S, W, W, W])
        model = train_decision_tree(data, min_leaf=4)
        assert model.root["kind"] == "leaf"
        # 3 vs 3 tie resolves to the lowest class ordinal
        label, dist = predict_tree(model, FeatureVector(model.schema, (8.0,)))
        assert label is S
        assert dist == (0.5, 0.0, 0.5)

    def test_max_depth_zero_is_a_stump(self):
        data = dataset(num_schema(1), [(1.0,), (9.0,)], [S, W])
        model = train_decision_tree(data, max_depth=0)
        assert model.root["kind"] == "leaf"

    def test_max_depth_one_has_leaf_children(self):
        rng = np.random.default_rng(5)
        rows = [(float(v),) for v in rng.uniform(0, 1, 40)]
        labels = [S if r[0] < 0.33 else (L if r[0] < 0.66 else W) for r in rows]
        model = train_decision_tree(dataset(num_schema(1), rows, labels), max_depth=1)
        if model.root["kind"] == "split":
            for child in model.root["children"]:
                assert child["kind"] == "leaf"


class TestValidation:
    def test_empty_dataset(self):
        data = LabeledDataset(num_schema(1), (), ())
        with pytest.raises(ValueError):
            train_decision_tree(data)

    def test_bad_hyperparameters(self):
        data = dataset(num_schema(1), [(1.0,)], [S])
        with pytest.raises(ValueError):
            train_decision_tree(data, min_leaf=0)
        with pytest.raises(ValueError):
            train_decision_tree(data, max_depth=-1)

    def test_predict_schema_mismatch(self):
        data = dataset(num_schema(1), [(1.0,), (9.0,)], [S, W])
        model = train_decision_tree(data)
        other = FeatureVector(num_schema(2), (1.0, 2.0))
        with pytest.raises(ValueError):
            predict_tree(model, other)
