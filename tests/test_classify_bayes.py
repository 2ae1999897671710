import math

import numpy as np
import pytest

from edgevitals.classify.bayes import VARIANCE_FLOOR, predict_bayes, train_naive_bayes
from edgevitals.classify.schema import (
    CATEGORICAL,
    NUMERIC,
    Attribute,
    ClassLabel,
    FeatureVector,
    LabeledDataset,
)

S = ClassLabel.STABLE
L = ClassLabel.LIGHT_WORSENING
W = ClassLabel.WORSENING


def dataset(schema, rows, labels):
    feats = tuple(FeatureVector(schema, tuple(r)) for r in rows)
    return LabeledDataset(schema, feats, tuple(labels))


SYM = (Attribute("sym", CATEGORICAL),)


class TestCategoricalPosteriors:
    def test_small_table_posterior(self):
        # one class saw x three times, the other saw y once; vocabulary {x, y}
        # P(x|S) = (3+1)/(3+2), P(x|L) = (0+1)/(1+2), priors 3/4 and 1/4:
        # posterior(S|x) = 0.6 / (0.6 + 1/12) = 36/41 = 0.878...
        data = dataset(SYM, [("x",), ("x",), ("x",), ("y",)], [S, S, S, L])
        model = train_naive_bayes(data)
        label, post = predict_bayes(model, FeatureVector(SYM, ("x",)))
        assert label is S
        assert abs(post[0] - 0.878) <= 1e-3
        assert abs(post[0] - 36.0 / 41.0) <= 1e-12

    def test_small_table_with_crossover_value(self):
        # S = (x, x, y), L = (y): P(x|S) = 3/5, posterior(S|x) = 27/32
        data = dataset(SYM, [("x",), ("x",), ("y",), ("y",)], [S, S, S, L])
        model = train_naive_bayes(data)
        _, post = predict_bayes(model, FeatureVector(SYM, ("x",)))
        assert abs(post[0] - 0.84375) <= 1e-12

    def test_identical_conditionals_return_priors(self):
        rows = [("x",), ("y",), ("x",), ("y",), ("x",), ("y",)]
        labels = [S, S, S, S, W, W]
        model = train_naive_bayes(dataset(SYM, rows, labels))
        _, post = predict_bayes(model, FeatureVector(SYM, ("x",)))
        assert abs(post[0] - 4.0 / 6.0) < 1e-12
        assert post[1] == 0.0
        assert abs(post[2] - 2.0 / 6.0) < 1e-12

    def test_absent_class_has_zero_posterior(self):
        data = dataset(SYM, [("x",), ("y",)], [S, W])
        model = train_naive_bayes(data)
        _, post = predict_bayes(model, FeatureVector(SYM, ("x",)))
        assert post[1] == 0.0
        assert abs(sum(post) - 1.0) < 1e-12


class TestNumericPosteriors:
    def test_gaussian_likelihoods_match_closed_form(self):
        schema = (Attribute("v", NUMERIC),)
        data = dataset(schema, [(1.0,), (2.0,), (3.0,), (10.0,), (12.0,)],
                       [S, S, S, W, W])
        model = train_naive_bayes(data)
        x = 2.5

        def gauss(v, mean, var):
            return math.exp(-((v - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)

        # population statistics: S has mean 2 var 2/3, W has mean 11 var 1
        ls = 0.6 * gauss(x, 2.0, 2.0 / 3.0)
        lw = 0.4 * gauss(x, 11.0, 1.0)
        expected = ls / (ls + lw)
        _, post = predict_bayes(model, FeatureVector(schema, (x,)))
        assert abs(post[0] - expected) < 1e-12

    def test_variance_floor_keeps_constants_usable(self):
        schema = (Attribute("v", NUMERIC),)
        data = dataset(schema, [(5.0,), (5.0,), (5.0,), (8.0,), (9.0,)],
                       [S, S, S, W, W])
        model = train_naive_bayes(data)
        assert model.numeric_params[(S, 0)] == (5.0, VARIANCE_FLOOR)
        label, post = predict_bayes(model, FeatureVector(schema, (5.0,)))
        assert label is S
        assert all(math.isfinite(p) for p in post)
        label, post = predict_bayes(model, FeatureVector(schema, (8.5,)))
        assert label is W
        assert abs(sum(post) - 1.0) < 1e-12

    def test_pooled_fallback_when_class_never_saw_attribute(self):
        schema = (Attribute("v", NUMERIC), Attribute("c", CATEGORICAL))
        rows = [(1.0, "a"), (2.0, "a"), (None, "b"), (None, "b")]
        labels = [S, S, W, W]
        model = train_naive_bayes(dataset(schema, rows, labels))
        # W never observed v, so it borrows the pooled fit of [1, 2]
        assert model.numeric_params[(W, 0)] == model.numeric_params[(S, 0)]
        label, post = predict_bayes(model, FeatureVector(schema, (1.5, "b")))
        assert label is W
        assert abs(sum(post) - 1.0) < 1e-12


class TestRobustness:
    def test_posterior_normalized_over_random_battery(self):
        rng = np.random.default_rng(13)
        schema = (Attribute("v0", NUMERIC), Attribute("v1", NUMERIC),
                  Attribute("c0", CATEGORICAL))
        rows, labels = [], []
        for _ in range(60):
            row = [float(rng.normal()), float(rng.normal()),
                   "abc"[int(rng.integers(0, 3))]]
            if rng.random() < 0.15:
                row[int(rng.integers(0, 3))] = None
            rows.append(tuple(row))
            labels.append((S, L, W)[int(rng.integers(0, 3))])
        model = train_naive_bayes(dataset(schema, rows, labels))
        for _ in range(200):
            q = FeatureVector(schema, (float(rng.normal()), float(rng.normal()),
                                       "abcz"[int(rng.integers(0, 4))]))
            _, post = predict_bayes(model, q)
            assert abs(sum(post) - 1.0) < 1e-12
            assert all(p >= 0.0 for p in post)

    def test_log_domain_survives_many_attributes(self):
        # 300 near-deterministic attributes would underflow a direct product
        k = 300
        schema = tuple(Attribute("a%03d" % i, CATEGORICAL) for i in range(k))
        rows = [("x",) * k, ("y",) * k]
        model = train_naive_bayes(dataset(schema, rows, [S, W]))
        label, post = predict_bayes(model, FeatureVector(schema, ("x",) * k))
        assert label is S
        assert abs(sum(post) - 1.0) < 1e-12
        assert post[0] > 0.999

    def test_all_missing_query_returns_priors(self):
        schema = (Attribute("v", NUMERIC), Attribute("c", CATEGORICAL))
        rows = [(1.0, "a"), (2.0, "b"), (3.0, "a")]
        model = train_naive_bayes(dataset(schema, rows, [S, S, W]))
        _, post = predict_bayes(model, FeatureVector(schema, (None, None)))
        assert abs(post[0] - 2.0 / 3.0) < 1e-12
        assert abs(post[2] - 1.0 / 3.0) < 1e-12

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            train_naive_bayes(LabeledDataset(SYM, (), ()))

    def test_predict_schema_mismatch(self):
        model = train_naive_bayes(dataset(SYM, [("x",), ("y",)], [S, W]))
        other = (Attribute("other", CATEGORICAL),)
        with pytest.raises(ValueError):
            predict_bayes(model, FeatureVector(other, ("x",)))
