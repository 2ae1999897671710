"""Decision tree with gain-ratio splits.

Trees are nested plain dicts so models serialize to JSON unchanged:
  leaf  {"kind": "leaf", "n": int, "distribution": [p per class ordinal]}
  split {"kind": "split", "attribute": index, "threshold": float,
         "children": [left, right], "majority_child": 0 or 1}
  split_cat {"kind": "split_cat", "attribute": index,
             "children": {category: node}, "majority_category": str}

Numeric splits send value <= threshold left. Rows or queries missing the
split attribute follow the majority-population child.
"""

import math
from dataclasses import dataclass

from .schema import NUMERIC, ClassLabel, FeatureVector, likeliest_class

__all__ = ["DecisionTreeModel", "train_decision_tree", "predict_tree"]

_EPS = 1e-12


@dataclass
class DecisionTreeModel:
    schema: tuple
    root: dict


def _entropy(counts):
    n = sum(counts)
    if n == 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c:
            p = c / n
            h -= p * math.log2(p)
    return h


def _counts(labels):
    out = [0] * len(ClassLabel)
    for lab in labels:
        out[lab.ordinal] += 1
    return out


def _leaf(labels):
    counts = _counts(labels)
    n = len(labels)
    return {"kind": "leaf", "n": n, "distribution": [c / n for c in counts]}


def _split_quality(parent_entropy, n_total, groups):
    """groups: list of label lists. Returns (gain, gain_ratio)."""
    child_h = 0.0
    split_info = 0.0
    for g in groups:
        w = len(g) / n_total
        if w == 0:
            continue
        child_h += w * _entropy(_counts(g))
        split_info -= w * math.log2(w)
    gain = parent_entropy - child_h
    if gain <= _EPS or split_info <= _EPS:
        return gain, 0.0
    return gain, gain / split_info


def _best_split(schema, rows, labels, min_leaf, allowed):
    """rows: list of value tuples. Returns best split descriptor or None.

    Attributes scanned in index order, numeric thresholds ascending, and a
    candidate replaces the best only on a strictly larger gain ratio, so
    ties resolve to the lowest attribute index then lowest threshold.
    """
    parent_entropy = _entropy(_counts(labels))
    if parent_entropy <= _EPS:
        return None
    n_total = len(rows)
    best = None
    best_ratio = 0.0
    for ai in allowed:
        attr = schema[ai]
        present = [(r[ai], lab) for r, lab in zip(rows, labels) if r[ai] is not None]
        missing = [lab for r, lab in zip(rows, labels) if r[ai] is None]
        if len(present) < 2:
            continue
        if attr.kind == NUMERIC:
            values = sorted({v for v, _ in present})
            for lo, hi in zip(values, values[1:]):
                t = (lo + hi) / 2.0
                if not math.isfinite(t):  # lo + hi passed the largest float
                    t = lo / 2.0 + hi / 2.0
                left = [lab for v, lab in present if v <= t]
                right = [lab for v, lab in present if v > t]
                maj = 0 if len(left) >= len(right) else 1
                (left, right)[maj].extend(missing)
                if len(left) < min_leaf or len(right) < min_leaf:
                    continue
                _, ratio = _split_quality(parent_entropy, n_total, [left, right])
                if ratio > best_ratio + _EPS:
                    best_ratio = ratio
                    best = ("num", ai, t, maj)
        else:
            by_cat = {}
            for v, lab in present:
                by_cat.setdefault(v, []).append(lab)
            if len(by_cat) < 2:
                continue
            cats = sorted(by_cat)
            maj_cat = max(cats, key=lambda c: (len(by_cat[c]), ))
            # max() keeps the first of equal counts; cats is sorted so the
            # lexicographically lowest category wins ties
            groups = {c: list(by_cat[c]) for c in cats}
            groups[maj_cat] = groups[maj_cat] + missing
            if any(len(g) < min_leaf for g in groups.values()):
                continue
            _, ratio = _split_quality(parent_entropy, n_total, list(groups.values()))
            if ratio > best_ratio + _EPS:
                best_ratio = ratio
                best = ("cat", ai, maj_cat, None)
    return best


def _grow(schema, rows, labels, depth, max_depth, min_leaf, allowed, sampler):
    if max_depth is not None and depth >= max_depth:
        return _leaf(labels)
    use = allowed if sampler is None else sampler(allowed)
    split = _best_split(schema, rows, labels, min_leaf, use)
    if split is None:
        return _leaf(labels)
    form, ai, arg, maj = split
    if form == "num":
        t = arg
        left_rows, left_labels, right_rows, right_labels = [], [], [], []
        for r, lab in zip(rows, labels):
            v = r[ai]
            go_left = (v <= t) if v is not None else (maj == 0)
            if go_left:
                left_rows.append(r)
                left_labels.append(lab)
            else:
                right_rows.append(r)
                right_labels.append(lab)
        return {
            "kind": "split",
            "attribute": ai,
            "threshold": t,
            "majority_child": maj,
            "children": [
                _grow(schema, left_rows, left_labels, depth + 1, max_depth, min_leaf, allowed, sampler),
                _grow(schema, right_rows, right_labels, depth + 1, max_depth, min_leaf, allowed, sampler),
            ],
        }
    maj_cat = arg
    buckets = {}
    for r, lab in zip(rows, labels):
        v = r[ai] if r[ai] is not None else maj_cat
        buckets.setdefault(v, ([], []))
        buckets[v][0].append(r)
        buckets[v][1].append(lab)
    return {
        "kind": "split_cat",
        "attribute": ai,
        "majority_category": maj_cat,
        "children": {
            cat: _grow(schema, rs, labs, depth + 1, max_depth, min_leaf, allowed, sampler)
            for cat, (rs, labs) in sorted(buckets.items())
        },
    }


def train_decision_tree(data, max_depth=None, min_leaf=1, _sampler=None):
    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    rows = [fv.values for fv in data.features]
    root = _grow(data.schema, rows, list(data.labels), 0, max_depth, min_leaf,
                 tuple(range(len(data.schema))), _sampler)
    return DecisionTreeModel(data.schema, root)


def predict_tree(model, x):
    if not isinstance(x, FeatureVector) or x.schema != model.schema:
        raise ValueError("feature vector does not match the model schema")
    node = model.root
    while node["kind"] != "leaf":
        v = x.values[node["attribute"]]
        if node["kind"] == "split":
            if v is None:
                node = node["children"][node["majority_child"]]
            else:
                node = node["children"][0 if v <= node["threshold"] else 1]
        else:
            if v is None or v not in node["children"]:
                node = node["children"][node["majority_category"]]
            else:
                node = node["children"][v]
    dist = tuple(node["distribution"])
    return likeliest_class(dist), dist
