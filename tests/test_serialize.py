import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgevitals.classify.bayes import NaiveBayesModel, train_naive_bayes
from edgevitals.classify.forest import ForestModel, train_random_forest
from edgevitals.classify.metrics import predict_any
from edgevitals.classify.schema import (
    CATEGORICAL,
    NUMERIC,
    Attribute,
    ClassLabel,
    FeatureVector,
    LabeledDataset,
    patient_schema,
)
from edgevitals.classify.serialize import model_from_json, model_to_json, schema_hash
from edgevitals.classify.tree import DecisionTreeModel, train_decision_tree
from edgevitals.errors import SchemaMismatchError

S = ClassLabel.STABLE
L = ClassLabel.LIGHT_WORSENING
W = ClassLabel.WORSENING

SCHEMA = (Attribute("v", NUMERIC), Attribute("c", CATEGORICAL))


def training_data():
    rng = np.random.default_rng(8)
    rows, labels = [], []
    for _ in range(60):
        v = float(rng.uniform(0, 1))
        c = "pq"[int(rng.integers(0, 2))]
        rows.append(FeatureVector(SCHEMA, (v, c)))
        labels.append(W if v > 0.66 else (L if v > 0.33 else S))
    return LabeledDataset(SCHEMA, tuple(rows), tuple(labels))


def trained_models():
    data = training_data()
    return [
        train_decision_tree(data),
        train_random_forest(data, n_trees=4, attrs_per_split=1, seed=5),
        train_naive_bayes(data),
    ]


class TestRoundTrip:
    def test_all_model_types_round_trip_byte_identically(self):
        for model in trained_models():
            text = model_to_json(model)
            again = model_to_json(model_from_json(text))
            assert again == text

    def test_types_preserved(self):
        types = [type(model_from_json(model_to_json(m))) for m in trained_models()]
        assert types == [DecisionTreeModel, ForestModel, NaiveBayesModel]

    def test_predictions_survive_round_trip(self):
        data = training_data()
        rng = np.random.default_rng(3)
        for model in trained_models():
            loaded = model_from_json(model_to_json(model))
            for _ in range(50):
                q = FeatureVector(SCHEMA, (float(rng.uniform(0, 1)),
                                           "pqz"[int(rng.integers(0, 3))]))
                assert predict_any(loaded, q) == predict_any(model, q)

    def test_document_is_canonical_json(self):
        text = model_to_json(trained_models()[0])
        assert "\n" not in text
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert doc["format"] == "edgevitals-model"
        assert doc["version"] == 1

    def test_schema_hash_is_order_sensitive(self):
        a = (Attribute("x", NUMERIC), Attribute("y", NUMERIC))
        b = (Attribute("y", NUMERIC), Attribute("x", NUMERIC))
        assert schema_hash(a) != schema_hash(b)
        assert schema_hash(a) == schema_hash(tuple(a))


PATIENT = patient_schema()


def patient_datasets(numbers):
    codes = st.one_of(st.none(), st.sampled_from(["0", "1", "2"]), st.text(min_size=1, max_size=3))
    vectors = st.tuples(*(numbers if a.kind == NUMERIC else codes for a in PATIENT)).map(
        lambda values: FeatureVector(PATIENT, values))
    datasets = st.lists(st.tuples(vectors, st.sampled_from(ClassLabel)), min_size=1, max_size=8)
    return vectors, datasets.map(lambda rows: LabeledDataset(
        PATIENT, tuple(v for v, _ in rows), tuple(c for _, c in rows)))


# any finite value, and magnitudes up to 1e150, whose naive bayes means and variances stay finite
VECTORS, DATASETS = patient_datasets(st.one_of(
    st.none(), st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.5, 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False)))
_, BOUNDED_DATASETS = patient_datasets(st.one_of(
    st.none(), st.sampled_from([0.0, -0.0, 5e-324, 1.0, 2.5]), st.floats(-1e150, 1e150)))
TRAINING = (st.lists(VECTORS, min_size=1, max_size=4), st.integers(1, 3),
            st.integers(1, len(PATIENT)), st.integers(0, 2 ** 32 - 1), st.booleans())


def drawn_models(data, n_trees, attrs_per_split, seed, bootstrap):
    return (train_decision_tree(data),
            train_random_forest(data, n_trees=n_trees, attrs_per_split=attrs_per_split,
                                seed=seed, bootstrap=bootstrap),
            train_naive_bayes(data))


def assert_round_trips(model, queries):
    text = model_to_json(model)
    loaded = model_from_json(text)
    assert model_to_json(loaded) == text
    for q in queries:
        assert predict_any(loaded, q) == predict_any(model, q)


class TestDrawnRoundTrip:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(BOUNDED_DATASETS, *TRAINING)
    def test_trained_models_round_trip_and_predict_alike(self, data, queries, n_trees,
                                                         attrs_per_split, seed, bootstrap):
        # queries range over every finite value, so a loaded model also meets overflowing scores
        for model in drawn_models(data, n_trees, attrs_per_split, seed, bootstrap):
            assert_round_trips(model, queries + list(data.features))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(DATASETS, *TRAINING)
    def test_any_finite_training_gives_finite_posteriors(self, data, queries, n_trees,
                                                         attrs_per_split, seed, bootstrap):
        for model in drawn_models(data, n_trees, attrs_per_split, seed, bootstrap):
            for q in queries + list(data.features):
                assert all(math.isfinite(p) for p in predict_any(model, q)[1])
            try:
                model_to_json(model)
            except ValueError as err:
                # a naive bayes mean or variance over huge values overflows
                assert isinstance(model, NaiveBayesModel)
                assert "not finite" in str(err)
            else:
                assert_round_trips(model, queries + list(data.features))


class TestGuards:
    def doc(self):
        return json.loads(model_to_json(trained_models()[0]))

    def test_wrong_format_rejected(self):
        doc = self.doc()
        doc["format"] = "something-else"
        with pytest.raises(SchemaMismatchError):
            model_from_json(json.dumps(doc))

    def test_wrong_version_rejected(self):
        doc = self.doc()
        doc["version"] = 2
        with pytest.raises(SchemaMismatchError):
            model_from_json(json.dumps(doc))

    def test_tampered_schema_rejected(self):
        doc = self.doc()
        doc["schema"][0][0] = "renamed"
        with pytest.raises(SchemaMismatchError):
            model_from_json(json.dumps(doc))

    def test_tampered_hash_rejected(self):
        doc = self.doc()
        doc["schema_hash"] = "0" * 64
        with pytest.raises(SchemaMismatchError):
            model_from_json(json.dumps(doc))

    def test_unknown_model_type_rejected(self):
        doc = self.doc()
        doc["model_type"] = "svm"
        with pytest.raises(SchemaMismatchError):
            model_from_json(json.dumps(doc))

    def test_invalid_json_rejected(self):
        with pytest.raises(SchemaMismatchError):
            model_from_json("{not json")

    def test_non_document_rejected(self):
        with pytest.raises(SchemaMismatchError):
            model_from_json("[1,2,3]")


LEAF = {"kind": "leaf", "n": 1, "distribution": [1.0, 0.0, 0.0]}
SPLIT = {"kind": "split", "attribute": 0, "threshold": 0.5, "majority_child": 0,
         "children": [LEAF, LEAF]}
SPLIT_CAT = {"kind": "split_cat", "attribute": 1, "majority_category": "p",
             "children": {"p": LEAF, "q": LEAF}}


def tree_text(root):
    # json.dumps, since model_to_json refuses the non-finite numbers some roots hold
    doc = json.loads(model_to_json(DecisionTreeModel(SCHEMA, LEAF)))
    doc["payload"]["root"] = root
    return json.dumps(doc)


class TestPayloadChecks:
    """model_from_json refuses a payload that predict_any could not use,
    with a ValueError, instead of failing later at predict time."""

    @pytest.mark.parametrize("root", [
        {"kind": "leaf", "n": 1, "distribution": [1.0]},  # a class short: IndexError at predict
        {"kind": "leaf", "n": 1},
        {"kind": "leaf", "n": 1, "distribution": [1.0, -0.5, 0.5]},
        {"kind": "leaf", "n": 1, "distribution": [1.0, 0.0, 1e400]},
        {"kind": "leaf", "n": 1, "distribution": [1.0, 0.0, True]},
        {"kind": "leaf", "n": 1, "distribution": [1.0, 0.0, 10**400]},
        {"kind": "leaf", "n": 1, "distribution": [1.0, 0.0, "0"]},
        {"kind": "stump"},
        [LEAF],
        dict(SPLIT, attribute=1),   # a categorical attribute under a numeric split
        dict(SPLIT, attribute=2),   # outside the schema
        dict(SPLIT, attribute=True),
        dict(SPLIT, threshold=float("nan")),
        dict(SPLIT, threshold="0.5"),
        dict(SPLIT, majority_child=2),
        dict(SPLIT, majority_child=False),
        dict(SPLIT, children=[LEAF]),
        {k: v for k, v in SPLIT.items() if k != "children"},
        dict(SPLIT, children=[LEAF, {"kind": "leaf", "n": 1, "distribution": [1.0]}]),
        dict(SPLIT_CAT, attribute=0),
        dict(SPLIT_CAT, majority_category="z"),
        dict(SPLIT_CAT, children=[LEAF, LEAF]),
        dict(SPLIT, children=[dict(SPLIT_CAT, majority_category="z"), LEAF]),
    ])
    def test_bad_tree_rejected(self, root):
        with pytest.raises(ValueError, match="^model payload: "):
            model_from_json(tree_text(root))

    def test_good_hand_built_tree_accepted(self):
        root = dict(SPLIT, children=[SPLIT_CAT, LEAF])
        assert model_from_json(tree_text(root)).root == root

    @pytest.mark.parametrize("change", [
        {"trees": []},
        {"trees": [{"root": {"kind": "leaf", "n": 1, "distribution": [1.0]}}]},
        {"attrs_per_split": 0},
        {"attrs_per_split": 3},
        {"seed": 1.5},
        {"bootstrap": 1},
    ])
    def test_bad_forest_rejected(self, change):
        doc = json.loads(model_to_json(trained_models()[1]))
        doc["payload"].update(change)
        with pytest.raises(ValueError, match="^model payload: "):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("part, index, key, value", [
        ("priors", 0, 1, 0.0),
        ("priors", 0, 1, -0.1),
        ("priors", 0, 1, float("inf")),
        ("priors", 0, 0, "UNKNOWN"),
        ("priors", 0, 0, ["STABLE"]),
        ("numeric", 0, "var", 0.0),
        ("numeric", 0, "var", -1.0),
        ("numeric", 0, "var", float("nan")),
        ("numeric", 0, "mean", float("inf")),
        ("categorical", 0, "total", -1),
        ("categorical", 0, "vocab", 0),
        ("categorical", 0, "counts", {"p": "3"}),
    ])
    def test_bad_bayes_rejected(self, part, index, key, value):
        doc = json.loads(model_to_json(trained_models()[2]))
        doc["payload"][part][index][key] = value
        with pytest.raises(ValueError, match="^model payload: "):
            model_from_json(json.dumps(doc))

    def test_bayes_without_priors_rejected(self):
        doc = json.loads(model_to_json(trained_models()[2]))
        doc["payload"]["priors"] = []
        with pytest.raises(ValueError, match="^model payload: "):
            model_from_json(json.dumps(doc))
