"""Clinician-weighted indices (stress, lifestyle).

index = sum(w_i * s_i) / sum of weights of present attributes; scores live
in [0, 1] and None marks an explicitly missing score.
"""

import math
from dataclasses import dataclass

from ..errors import NoDataError

__all__ = ["WeightedIndexModel", "weighted_index"]


@dataclass(frozen=True)
class WeightedIndexModel:
    weights: dict
    threshold: float

    def __post_init__(self):
        if not self.weights:
            raise ValueError("weights must be non-empty")
        for name, w in self.weights.items():
            if not (isinstance(w, (int, float)) and not isinstance(w, bool)
                    and math.isfinite(w) and w >= 0):
                raise ValueError("weight %r must be a finite number >= 0" % name)
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1 (got %r)" % total)
        if not (isinstance(self.threshold, (int, float)) and 0.0 < self.threshold < 1.0):
            raise ValueError("threshold must lie in (0, 1)")
        object.__setattr__(self, "weights", dict(self.weights))


def weighted_index(model, attributes):
    """Returns (index, triggered). attributes: name -> score in [0, 1],
    None for an explicitly missing score. Every weighted attribute must
    appear as a key."""
    missing_keys = set(model.weights) - set(attributes)
    if missing_keys:
        raise ValueError("scores missing for attributes: %s" % sorted(missing_keys))
    num = 0.0
    den = 0.0
    for name, w in model.weights.items():
        s = attributes[name]
        if s is None:
            continue
        s = float(s)
        if not (0.0 <= s <= 1.0):
            raise ValueError("score for %r must lie in [0, 1]" % name)
        num += w * s
        den += w
    if den == 0.0:
        raise NoDataError("all weighted attributes are missing")
    index = num / den
    return index, index > model.threshold
