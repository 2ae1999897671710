import math

import numpy as np
import pytest

from edgevitals.classify.bayes import train_naive_bayes
from edgevitals.classify.forest import train_random_forest
from edgevitals.classify.metrics import evaluate_classifier, predict_any
from edgevitals.classify.schema import (
    NUMERIC,
    Attribute,
    ClassLabel,
    FeatureVector,
    LabeledDataset,
)
from edgevitals.classify.tree import train_decision_tree
from edgevitals.classify.weighted import WeightedIndexModel, weighted_index
from edgevitals.errors import NoDataError

S = ClassLabel.STABLE
L = ClassLabel.LIGHT_WORSENING
W = ClassLabel.WORSENING

SCHEMA = (Attribute("x", NUMERIC),)


def ds(rows, labels):
    feats = tuple(FeatureVector(SCHEMA, (r,)) for r in rows)
    return LabeledDataset(SCHEMA, feats, tuple(labels))


def hard_tree():
    # pure leaves, so predictions are hard 0/1 ordinals
    return train_decision_tree(ds([0.0, 1.0], [S, L]))


class TestEvaluateClassifier:
    def test_fixture_metrics(self):
        # predictions (0, 1, 1) against targets (0, 1, 2):
        # MAE = 1/3, RMSE = sqrt(1/3), RAE = 100 * 1 / 2 = 50%
        model = hard_tree()
        test = ds([0.0, 1.0, 1.0], [S, L, W])
        m = evaluate_classifier(model, test)
        assert abs(m["mae"] - 1.0 / 3.0) <= 1e-12
        assert abs(m["rmse"] - math.sqrt(1.0 / 3.0)) <= 1e-12
        assert abs(m["rae_pct"] - 50.0) <= 1e-12
        assert m["correct_count"] == 2
        assert m["instance_count"] == 3

    def test_perfect_predictions(self):
        model = hard_tree()
        m = evaluate_classifier(model, ds([0.0, 1.0], [S, L]))
        assert m["mae"] == 0.0
        assert m["rmse"] == 0.0
        assert m["rae_pct"] == 0.0
        assert m["correct_count"] == 2

    def test_rae_undefined_for_constant_targets(self):
        model = hard_tree()
        m = evaluate_classifier(model, ds([0.0, 1.0], [S, S]))
        assert math.isnan(m["rae_pct"])
        assert abs(m["mae"] - 0.5) <= 1e-12
        assert m["correct_count"] == 1
        assert m["instance_count"] == 2

    def test_soft_distributions_enter_the_error(self):
        # an impure leaf predicts the distribution-weighted ordinal mean
        model = train_decision_tree(ds([1.0, 1.0], [S, L]), max_depth=0)
        m = evaluate_classifier(model, ds([1.0], [S]))
        assert abs(m["mae"] - 0.5) <= 1e-12

    def test_empty_test_set_rejected(self):
        model = hard_tree()
        with pytest.raises(ValueError):
            evaluate_classifier(model, LabeledDataset(SCHEMA, (), ()))

    def test_predict_any_dispatch(self):
        data = ds([0.0, 0.1, 0.9, 1.0], [S, S, L, L])
        q = FeatureVector(SCHEMA, (0.05,))
        for model in (train_decision_tree(data),
                      train_random_forest(data, n_trees=3, attrs_per_split=1, seed=1),
                      train_naive_bayes(data)):
            label, dist = predict_any(model, q)
            assert label is S
            assert abs(sum(dist) - 1.0) < 1e-12
        with pytest.raises(ValueError):
            predict_any(object(), q)


class TestWeightedIndex:
    def test_fixture_index(self):
        model = WeightedIndexModel({"a": 0.5, "b": 0.3, "c": 0.2}, threshold=0.5)
        index, triggered = weighted_index(model, {"a": 1.0, "b": 0.0, "c": 0.5})
        assert abs(index - 0.60) <= 1e-12
        assert triggered is True

    def test_threshold_is_strict(self):
        model = WeightedIndexModel({"a": 0.5, "b": 0.3, "c": 0.2}, threshold=0.6)
        index, triggered = weighted_index(model, {"a": 1.0, "b": 0.0, "c": 0.5})
        assert abs(index - 0.60) <= 1e-12
        assert triggered is False

    def test_extremes(self):
        model = WeightedIndexModel({"a": 0.5, "b": 0.5}, threshold=0.5)
        assert weighted_index(model, {"a": 0.0, "b": 0.0}) == (0.0, False)
        assert weighted_index(model, {"a": 1.0, "b": 1.0}) == (1.0, True)

    def test_missing_scores_renormalize(self):
        model = WeightedIndexModel({"a": 0.5, "b": 0.3, "c": 0.2}, threshold=0.5)
        index, _ = weighted_index(model, {"a": 1.0, "b": None, "c": None})
        assert abs(index - 1.0) <= 1e-12
        index, _ = weighted_index(model, {"a": 1.0, "b": 0.0, "c": None})
        assert abs(index - 0.5 / 0.8) <= 1e-12

    def test_all_missing_is_no_data(self):
        model = WeightedIndexModel({"a": 0.5, "b": 0.5}, threshold=0.5)
        with pytest.raises(NoDataError):
            weighted_index(model, {"a": None, "b": None})

    def test_score_validation(self):
        model = WeightedIndexModel({"a": 0.5, "b": 0.5}, threshold=0.5)
        with pytest.raises(ValueError):
            weighted_index(model, {"a": 1.2, "b": 0.0})
        with pytest.raises(ValueError):
            weighted_index(model, {"a": -0.1, "b": 0.0})
        with pytest.raises(ValueError):
            weighted_index(model, {"a": 1.0})  # b absent entirely

    def test_model_validation(self):
        with pytest.raises(ValueError):
            WeightedIndexModel({}, threshold=0.5)
        with pytest.raises(ValueError):
            WeightedIndexModel({"a": 0.7, "b": 0.7}, threshold=0.5)
        with pytest.raises(ValueError):
            WeightedIndexModel({"a": 1.5, "b": -0.5}, threshold=0.5)
        with pytest.raises(ValueError):
            WeightedIndexModel({"a": 1.0}, threshold=0.0)
        with pytest.raises(ValueError):
            WeightedIndexModel({"a": 1.0}, threshold=1.0)

    def test_raising_any_score_never_lowers_the_index(self):
        rng = np.random.default_rng(21)
        names = ["q%02d" % i for i in range(8)]
        for _ in range(200):
            raw = rng.uniform(0.1, 1.0, len(names))
            weights = {n: float(w) for n, w in zip(names, raw / raw.sum())}
            model = WeightedIndexModel(weights, threshold=0.5)
            scores = {n: float(rng.uniform(0, 1)) for n in names}
            base, _ = weighted_index(model, scores)
            pick = names[int(rng.integers(0, len(names)))]
            bumped = dict(scores)
            bumped[pick] = float(min(1.0, scores[pick] + rng.uniform(0, 0.5)))
            up, _ = weighted_index(model, bumped)
            assert up >= base - 1e-12
