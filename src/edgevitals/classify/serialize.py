"""Versioned JSON serialization for trained models.

Documents are {"format": "edgevitals-model", "version": 1, "model_type":
..., "schema_hash": ..., "schema": ..., "payload": ...} dumped with sorted
keys, so equal models serialize byte-identically and devices can verify the
attribute schema before loading.
"""

import hashlib
import json
import math

from ..errors import SchemaMismatchError
from .bayes import NaiveBayesModel
from .forest import ForestModel
from .schema import CATEGORICAL, NUMERIC, Attribute, ClassLabel
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
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError:
        # a document holding Infinity or NaN would fail model_from_json
        raise ValueError("model holds a number that is not finite, such as a naive bayes "
                         "mean or variance that overflows") from None


def _finite(v):
    """v is a JSON number (a bool is not) that a float holds finitely."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an int too large for a float
        return False


def _require(ok, message):
    if not ok:
        raise ValueError("model payload: " + message)


def _check_tree(root, schema):
    """Raises ValueError unless predict_tree can walk root over schema."""
    stack = [root]
    while stack:
        node = stack.pop()
        kind = node.get("kind") if isinstance(node, dict) else None
        if kind == "leaf":
            dist = node.get("distribution")
            _require(isinstance(dist, list) and len(dist) == len(ClassLabel)
                     and all(_finite(p) and p >= 0 for p in dist),
                     "a leaf needs a distribution of %d finite numbers >= 0, got %s"
                     % (len(ClassLabel), json.dumps(dist)))
            continue
        _require(kind in ("split", "split_cat"),
                 "node kind %s is not leaf, split or split_cat" % json.dumps(kind))
        ai, children = node.get("attribute"), node.get("children")
        want = NUMERIC if kind == "split" else CATEGORICAL
        _require(type(ai) is int and 0 <= ai < len(schema) and schema[ai].kind == want,
                 "a %s names attribute %s, which is not a %s attribute of the schema"
                 % (kind, json.dumps(ai), want))
        if kind == "split":
            majority = node.get("majority_child")
            _require(_finite(node.get("threshold")) and isinstance(children, list)
                     and len(children) == 2 and type(majority) is int and majority in (0, 1),
                     "a split needs a finite threshold, two children and majority_child "
                     "0 or 1")
            stack.extend(children)
        else:
            majority = node.get("majority_category")
            _require(isinstance(children, dict) and type(majority) is str
                     and majority in children,
                     "a split_cat needs children that include its majority_category")
            stack.extend(children.values())


def _check_bayes(payload):
    """Raises ValueError unless predict_bayes can score with payload."""
    names = ClassLabel.__members__
    _require(isinstance(payload["priors"], list) and payload["priors"] and all(
        isinstance(p, list) and len(p) == 2 and type(p[0]) is str and p[0] in names
        and _finite(p[1]) and p[1] > 0 for p in payload["priors"]),
        "naive bayes priors need class names with finite values > 0")
    _require(all(_finite(d["mean"]) and _finite(d["var"]) and d["var"] > 0
                 for d in payload["numeric"]),
             "naive bayes means must be finite and variances finite and > 0")
    _require(all(isinstance(d["counts"], dict)
                 and all(_finite(n) and n >= 0 for n in d["counts"].values())
                 and _finite(d["total"]) and d["total"] >= 0
                 and _finite(d["vocab"]) and d["vocab"] > 0 for d in payload["categorical"]),
             "naive bayes counts and totals must be finite and >= 0, vocab sizes > 0")


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
        _check_tree(payload["root"], schema)
        return DecisionTreeModel(schema, payload["root"])
    if model_type == "random_forest":
        _require(isinstance(payload["trees"], list) and payload["trees"],
                 "a forest needs at least one tree")
        _require(type(payload["seed"]) is int and type(payload["bootstrap"]) is bool
                 and type(payload["attrs_per_split"]) is int
                 and 1 <= payload["attrs_per_split"] <= len(schema),
                 "a forest needs an int seed, a bool bootstrap and attrs_per_split "
                 "in [1, %d]" % len(schema))
        for t in payload["trees"]:
            _check_tree(t["root"], schema)
        trees = [DecisionTreeModel(schema, t["root"]) for t in payload["trees"]]
        return ForestModel(schema, trees, payload["seed"],
                           payload["attrs_per_split"], payload["bootstrap"])
    if model_type == "naive_bayes":
        _check_bayes(payload)
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
