"""Versioned JSON serialization for trained models.

Documents are {"format": "edgevitals-model", "version": 1, "model_type":
..., "schema_hash": ..., "schema": ..., "payload": ...} dumped with sorted
keys, so equal models serialize byte-identically and devices can verify the
attribute schema before loading.
"""

import hashlib
import json

from ..errors import SchemaMismatchError
from .bayes import NaiveBayesModel
from .forest import ForestModel
from .schema import Attribute, ClassLabel
from .tree import DecisionTreeModel

__all__ = ["model_to_json", "model_from_json", "schema_hash"]

FORMAT = "edgevitals-model"
VERSION = 1


def _schema_doc(schema):
    return [[a.name, a.kind] for a in schema]


def schema_hash(schema):
    doc = json.dumps(_schema_doc(schema), separators=(",", ":"))
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def _tree_payload(model):
    return {"root": model.root}


def _bayes_payload(model):
    return {
        "priors": [[lab.name, p] for lab, p in
                   sorted(model.priors.items(), key=lambda kv: kv[0].ordinal)],
        "numeric": [
            {"class": lab.name, "attribute": ai, "mean": mv[0], "var": mv[1]}
            for (lab, ai), mv in sorted(model.numeric_params.items(),
                                        key=lambda kv: (kv[0][0].ordinal, kv[0][1]))
        ],
        "categorical": [
            {"class": lab.name, "attribute": ai,
             "counts": dict(sorted(tab["counts"].items())),
             "total": tab["total"], "vocab": tab["vocab"]}
            for (lab, ai), tab in sorted(model.categorical_tables.items(),
                                         key=lambda kv: (kv[0][0].ordinal, kv[0][1]))
        ],
    }


def model_to_json(model):
    if isinstance(model, DecisionTreeModel):
        model_type, schema, payload = "decision_tree", model.schema, _tree_payload(model)
    elif isinstance(model, ForestModel):
        model_type, schema = "random_forest", model.schema
        payload = {
            "seed": model.seed,
            "attrs_per_split": model.attrs_per_split,
            "bootstrap": model.bootstrap,
            "trees": [_tree_payload(t) for t in model.trees],
        }
    elif isinstance(model, NaiveBayesModel):
        model_type, schema, payload = "naive_bayes", model.schema, _bayes_payload(model)
    else:
        raise ValueError("unsupported model type %r" % type(model).__name__)
    doc = {
        "format": FORMAT,
        "version": VERSION,
        "model_type": model_type,
        "schema": _schema_doc(schema),
        "schema_hash": schema_hash(schema),
        "payload": payload,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def model_from_json(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaMismatchError("model document is not valid JSON: %s" % exc) from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise SchemaMismatchError("not a model document")
    if doc.get("version") != VERSION:
        raise SchemaMismatchError("unsupported model version %r" % doc.get("version"))
    schema = tuple(Attribute(name, kind) for name, kind in doc["schema"])
    if doc.get("schema_hash") != schema_hash(schema):
        raise SchemaMismatchError("schema hash does not match the embedded schema")
    payload = doc["payload"]
    model_type = doc.get("model_type")
    if model_type == "decision_tree":
        return DecisionTreeModel(schema, payload["root"])
    if model_type == "random_forest":
        trees = [DecisionTreeModel(schema, t["root"]) for t in payload["trees"]]
        return ForestModel(schema, trees, payload["seed"],
                           payload["attrs_per_split"], payload["bootstrap"])
    if model_type == "naive_bayes":
        priors = {ClassLabel[name]: p for name, p in payload["priors"]}
        numeric = {(ClassLabel[d["class"]], d["attribute"]): (d["mean"], d["var"])
                   for d in payload["numeric"]}
        categorical = {
            (ClassLabel[d["class"]], d["attribute"]): {
                "counts": dict(d["counts"]), "total": d["total"], "vocab": d["vocab"],
            }
            for d in payload["categorical"]
        }
        return NaiveBayesModel(schema, priors, numeric, categorical)
    raise SchemaMismatchError("unknown model type %r" % model_type)
