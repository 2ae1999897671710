"""Regression-style evaluation of the severity classifiers.

Class labels map to their ordinal codes (STABLE=0, LIGHT_WORSENING=1,
WORSENING=2); the predicted value is the distribution-weighted mean of
those codes. RAE is undefined when every test target is identical and is
reported as NaN with the other metrics intact.
"""

import math

from .bayes import NaiveBayesModel, predict_bayes
from .forest import ForestModel, predict_forest
from .schema import ClassLabel
from .tree import DecisionTreeModel, predict_tree

__all__ = ["evaluate_classifier", "predict_any"]


def predict_any(model, x):
    if isinstance(model, DecisionTreeModel):
        return predict_tree(model, x)
    if isinstance(model, ForestModel):
        return predict_forest(model, x)
    if isinstance(model, NaiveBayesModel):
        return predict_bayes(model, x)
    raise ValueError("unsupported model type %r" % type(model).__name__)


def evaluate_classifier(model, test):
    if len(test) == 0:
        raise ValueError("test set must be non-empty")
    targets = [lab.ordinal for lab in test.labels]
    abs_errs = []
    sq_errs = []
    correct = 0
    for fv, y in zip(test.features, targets):
        label, dist = predict_any(model, fv)
        pred = sum(p * c.ordinal for p, c in zip(dist, ClassLabel))
        err = pred - y
        abs_errs.append(abs(err))
        sq_errs.append(err * err)
        if label.ordinal == y:
            correct += 1
    n = len(targets)
    mae = sum(abs_errs) / n
    rmse = math.sqrt(sum(sq_errs) / n)
    mean_target = sum(targets) / n
    denom = sum(abs(y - mean_target) for y in targets)
    rae_pct = float("nan") if denom == 0 else 100.0 * sum(abs_errs) / denom
    return {
        "mae": mae,
        "rmse": rmse,
        "rae_pct": rae_pct,
        "correct_count": correct,
        "instance_count": n,
    }
