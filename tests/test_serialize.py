import json

import numpy as np
import pytest

from edgevitals.classify import (
    CATEGORICAL,
    NUMERIC,
    Attribute,
    ClassLabel,
    DecisionTreeModel,
    FeatureVector,
    ForestModel,
    LabeledDataset,
    NaiveBayesModel,
    model_from_json,
    model_to_json,
    predict_any,
    schema_hash,
    train_decision_tree,
    train_naive_bayes,
    train_random_forest,
)
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
