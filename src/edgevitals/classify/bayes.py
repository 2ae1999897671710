"""Naive Bayes over mixed numeric/categorical attributes.

Numeric attributes get a per-class Gaussian (variance floored at 1e-9);
categorical attributes get Laplace-smoothed frequencies with the vocabulary
taken as the distinct values observed anywhere in the training data.
Posteriors are computed in the log domain and normalized. Missing query
attributes are skipped in the product. A squared deviation too large for a
float counts as infinite; a class whose log score is then not finite gets
posterior 0, and when no class has a finite score the posterior is the
normalized priors. Classes absent from training get 0 either way.
"""

import math
from dataclasses import dataclass

from .schema import NUMERIC, ClassLabel, FeatureVector, likeliest_class

__all__ = ["NaiveBayesModel", "train_naive_bayes", "predict_bayes", "VARIANCE_FLOOR"]

VARIANCE_FLOOR = 1e-9


@dataclass
class NaiveBayesModel:
    schema: tuple
    priors: dict              # label -> prior
    numeric_params: dict      # (label, attr_idx) -> (mean, var)
    categorical_tables: dict
    # (label, attr_idx) -> {"counts": {value: n}, "total": n, "vocab": V}


def _square(d):
    try:
        return d ** 2
    except OverflowError:
        return math.inf


def _gaussian_fit(values):
    n = len(values)
    mean = sum(values) / n
    var = sum(_square(v - mean) for v in values) / n
    return mean, max(var, VARIANCE_FLOOR)


def train_naive_bayes(data):
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    n = len(data)
    present_labels = sorted({lab for lab in data.labels}, key=lambda c: c.ordinal)
    priors = {lab: sum(1 for x in data.labels if x is lab) / n for lab in present_labels}
    numeric_params = {}
    categorical_tables = {}
    for ai, attr in enumerate(data.schema):
        column = [(fv.values[ai], lab) for fv, lab in zip(data.features, data.labels)
                  if fv.values[ai] is not None]
        if attr.kind == NUMERIC:
            pooled = [v for v, _ in column]
            pooled_fit = _gaussian_fit(pooled) if pooled else None
            for lab in present_labels:
                vals = [v for v, l in column if l is lab]
                if vals:
                    numeric_params[(lab, ai)] = _gaussian_fit(vals)
                elif pooled_fit is not None:
                    # class never saw this attribute; fall back to pooled stats
                    numeric_params[(lab, ai)] = pooled_fit
        else:
            vocab = sorted({v for v, _ in column})
            if not vocab:
                continue
            for lab in present_labels:
                counts = {}
                for v, l in column:
                    if l is lab:
                        counts[v] = counts.get(v, 0) + 1
                categorical_tables[(lab, ai)] = {
                    "counts": counts,
                    "total": sum(counts.values()),
                    "vocab": len(vocab),
                }
    return NaiveBayesModel(data.schema, priors, numeric_params, categorical_tables)


def _log_gaussian(x, mean, var):
    return -0.5 * math.log(2.0 * math.pi * var) - _square(x - mean) / (2.0 * var)


def predict_bayes(model, x):
    """Returns (argmax class, posterior tuple aligned with class ordinals),
    which is finite for any finite query."""
    if not isinstance(x, FeatureVector) or x.schema != model.schema:
        raise ValueError("feature vector does not match the model schema")
    labels = sorted(model.priors, key=lambda c: c.ordinal)
    log_scores = {}
    for lab in labels:
        score = math.log(model.priors[lab])
        for ai, attr in enumerate(model.schema):
            v = x.values[ai]
            if v is None:
                continue
            if attr.kind == NUMERIC:
                params = model.numeric_params.get((lab, ai))
                if params is None:
                    continue
                score += _log_gaussian(v, params[0], params[1])
            else:
                table = model.categorical_tables.get((lab, ai))
                if table is None:
                    continue
                count = table["counts"].get(v, 0)
                score += math.log((count + 1) / (table["total"] + table["vocab"]))
        log_scores[lab] = score
    finite = {lab: s for lab, s in log_scores.items() if math.isfinite(s)}
    if finite:
        peak = max(finite.values())
        expd = {lab: math.exp(s - peak) for lab, s in finite.items()}
    else:
        expd = model.priors
    total = sum(expd.values())
    posterior = tuple(expd.get(c, 0.0) / total for c in ClassLabel)
    return likeliest_class(posterior), posterior
