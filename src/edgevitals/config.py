"""Pipeline configuration: versioned JSON with defaults for every knob.

Example document (all keys optional except config_version):

    {
      "config_version": 1,
      "disease": "COPD",
      "preprocess": {"baseline_method": "linear", "highpass_cutoff_hz": 0.5,
                     "highpass_order": 2, "wavelet_levels": 4,
                     "threshold_mode": "soft"},
      "qrs": {"detector": "pan_tompkins", "qrs_min_ms": 50.0,
              "qrs_max_ms": 150.0, "spike_fraction": 0.2,
              "artifact_threshold": 0.15, "cross_check_pct": 10.0},
      "respiration": {"calibration": 1.0, "window_s": 60.0},
      "stress_index": {"weights": {"questionnaire_01": 0.0769, ...},
                       "threshold": 0.6},
      "lifestyle_index": {"weights": {...}, "threshold": 0.6},
      "schedule": {"send_time": "20:00"}
    }
"""

import copy
import json
import math
from dataclasses import dataclass

from .classify.schema import patient_schema
from .classify.weighted import WeightedIndexModel
from .messaging import DailySchedule

__all__ = ["PipelineConfig", "default_config", "load_config", "config_from_dict"]

CONFIG_VERSION = 1


def _equal_weights(names):
    w = 1.0 / len(names)
    weights = {n: w for n in names}
    # nudge the first weight so the sum is exactly 1.0
    weights[names[0]] += 1.0 - sum(weights.values())
    return weights


def _attr_names(prefixes):
    return [a.name for a in patient_schema()
            if any(a.name.startswith(p) for p in prefixes)]


_DEFAULTS = {
    "config_version": CONFIG_VERSION,
    "disease": None,
    "preprocess": {
        "baseline_method": "linear",
        "highpass_cutoff_hz": 0.5,
        "highpass_order": 2,
        "wavelet_levels": 4,
        "threshold_mode": "soft",
    },
    "qrs": {
        "detector": "pan_tompkins",
        "qrs_min_ms": 50.0,
        "qrs_max_ms": 150.0,
        "spike_fraction": 0.2,
        "artifact_threshold": 0.15,
        "cross_check_pct": 10.0,
    },
    "respiration": {
        "calibration": 1.0,
        "window_s": 60.0,
    },
    "stress_index": {
        "weights": _equal_weights(_attr_names(["questionnaire_"])),
        "threshold": 0.6,
    },
    "lifestyle_index": {
        "weights": _equal_weights(_attr_names(["food_", "activity_"])),
        "threshold": 0.6,
    },
    "schedule": {"send_time": "20:00"},
}


@dataclass(frozen=True)
class PipelineConfig:
    raw: dict

    def __getitem__(self, key):
        return self.raw[key]

    @property
    def disease(self):
        return self.raw["disease"]

    @property
    def schedule(self):
        return DailySchedule(self.raw["schedule"]["send_time"])

    def stress_model(self):
        s = self.raw["stress_index"]
        return WeightedIndexModel(dict(s["weights"]), s["threshold"])

    def lifestyle_model(self):
        s = self.raw["lifestyle_index"]
        return WeightedIndexModel(dict(s["weights"]), s["threshold"])


# the types a setting accepts, by the type of its default: a float setting
# takes any number, an int setting only an int, and none takes a bool
_ACCEPTED = {
    float: ((float, int), "a number"),
    int: ((int,), "an integer"),
    str: ((str,), "a string"),
    dict: ((dict,), "an object"),
}


def _merge(base, override, path):
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in base:
            raise ValueError("unknown config key %r" % (path + key))
        default = base[key]
        if default is not None:  # disease is checked against its values
            types, what = _ACCEPTED[type(default)]
            if type(value) not in types:
                raise ValueError("config key %r must be %s, got %r" % (path + key, what, value))
        if key in ("stress_index", "lifestyle_index"):
            _check_index_section(value, path + key + ".")
            out[key] = copy.deepcopy(value)
        elif isinstance(default, dict):
            out[key] = _merge(default, value, path + key + ".")
        else:
            out[key] = copy.deepcopy(value)
    return out


def _check_index_section(section, path):
    """An index section replaces its default whole, so it must hold
    exactly `weights` (an object of names to numbers) and `threshold`."""
    for key in section:
        if key not in ("weights", "threshold"):
            raise ValueError("unknown config key %r" % (path + key))
    for key in ("weights", "threshold"):
        if key not in section:
            raise ValueError("config key %r is missing" % (path + key))
    numbers, number = _ACCEPTED[float]
    weights = section["weights"]
    if type(weights) is not dict:
        raise ValueError("config key %r must be an object, got %r" % (path + "weights", weights))
    for name, w in weights.items():
        if type(name) is not str or type(w) not in numbers:
            raise ValueError("config key %r must map names to numbers, got %r: %r"
                             % (path + "weights", name, w))
    if type(section["threshold"]) not in numbers:
        raise ValueError("config key %r must be %s, got %r"
                         % (path + "threshold", number, section["threshold"]))


def _check_ranges(merged):
    """Settings of the right type that no run could use. The high-pass
    cutoff's upper bound, Nyquist, depends on the recording's rate, so
    baseline removal checks that one."""
    for section, key in (("preprocess", "wavelet_levels"), ("preprocess", "highpass_order")):
        if merged[section][key] < 1:
            raise ValueError("config key '%s.%s' must be >= 1, got %r"
                             % (section, key, merged[section][key]))
    for section, key in (("preprocess", "highpass_cutoff_hz"), ("respiration", "calibration"),
                         ("respiration", "window_s")):
        value = merged[section][key]
        if not (0 < value < math.inf):  # NaN fails too
            raise ValueError("config key '%s.%s' must be a finite number > 0, got %r"
                             % (section, key, value))
    qrs = merged["qrs"]
    if not (qrs["qrs_min_ms"] <= qrs["qrs_max_ms"]):
        raise ValueError("config key 'qrs.qrs_min_ms' must not exceed qrs.qrs_max_ms, got %r > %r"
                         % (qrs["qrs_min_ms"], qrs["qrs_max_ms"]))


def config_from_dict(doc):
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    version = doc.get("config_version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ValueError("unsupported config_version %r" % version)
    merged = _merge(_DEFAULTS, doc, "")
    cfg = PipelineConfig(merged)
    if cfg.disease not in (None, "COPD", "CKD"):
        raise ValueError("disease must be COPD, CKD or null")
    cfg.schedule.offset_ms()  # validates send_time
    cfg.stress_model()
    cfg.lifestyle_model()
    if merged["preprocess"]["baseline_method"] not in ("linear", "poly"):
        raise ValueError("baseline_method must be linear or poly")
    if merged["preprocess"]["threshold_mode"] not in ("soft", "hard"):
        raise ValueError("threshold_mode must be soft or hard")
    if merged["qrs"]["detector"] not in ("pan_tompkins", "wavelet"):
        raise ValueError("detector must be pan_tompkins or wavelet")
    _check_ranges(merged)
    return cfg


def default_config():
    return config_from_dict({})


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("config %s is not valid JSON: %s" % (path, exc)) from None
    return config_from_dict(doc)
