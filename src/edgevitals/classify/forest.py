"""Random forest over the gain-ratio trees.

Determinism contract: tree t draws from np.random.default_rng([seed, t]),
so parallel and serial training build identical models and equal seeds
serialize byte-identically.
"""

from .schema import ClassLabel, FeatureVector, LabeledDataset
from .tree import DecisionTreeModel, predict_tree, train_decision_tree

__all__ = ["ForestModel", "train_random_forest", "predict_forest"]

_CLASSES = tuple(ClassLabel)


class ForestModel:
    def __init__(self, schema, trees, seed, attrs_per_split, bootstrap):
        self.schema = tuple(schema)
        self.trees = tuple(trees)
        self.seed = seed
        self.attrs_per_split = attrs_per_split
        self.bootstrap = bootstrap

    def __eq__(self, other):
        return (isinstance(other, ForestModel)
                and self.schema == other.schema
                and self.seed == other.seed
                and self.attrs_per_split == other.attrs_per_split
                and self.bootstrap == other.bootstrap
                and len(self.trees) == len(other.trees)
                and all(a.root == b.root for a, b in zip(self.trees, other.trees)))


def train_random_forest(data, n_trees, attrs_per_split, seed,
                        bootstrap=True, max_depth=None, min_leaf=1):
    # the only numpy user in classify; predicting and loading models stay numpy-free
    import numpy as np

    if len(data) == 0:
        raise ValueError("cannot train on an empty dataset")
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    n_attrs = len(data.schema)
    if not (1 <= attrs_per_split <= n_attrs):
        raise ValueError("attrs_per_split must be in [1, %d]" % n_attrs)
    n = len(data)
    trees = []
    for t in range(n_trees):
        rng = np.random.default_rng([seed, t])
        if bootstrap:
            idx = rng.integers(0, n, size=n)
            feats = tuple(data.features[i] for i in idx)
            labels = tuple(data.labels[i] for i in idx)
            sample = LabeledDataset(data.schema, feats, labels)
        else:
            sample = data

        def sampler(allowed, rng=rng):
            if attrs_per_split >= len(allowed):
                return allowed
            chosen = rng.choice(len(allowed), size=attrs_per_split, replace=False)
            return tuple(sorted(allowed[i] for i in chosen))

        trees.append(train_decision_tree(sample, max_depth=max_depth,
                                         min_leaf=min_leaf, _sampler=sampler))
    return ForestModel(data.schema, trees, seed, attrs_per_split, bootstrap)


def predict_forest(model, x):
    if not isinstance(x, FeatureVector) or x.schema != model.schema:
        raise ValueError("feature vector does not match the model schema")
    votes = [0] * len(_CLASSES)
    for tree in model.trees:
        label, _ = predict_tree(tree, x)
        votes[label.ordinal] += 1
    best = max(range(len(votes)), key=lambda i: (votes[i], -i))
    dist = tuple(v / len(model.trees) for v in votes)
    return _CLASSES[best], dist
