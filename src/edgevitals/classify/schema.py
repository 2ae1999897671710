"""Feature-vector schema and labeled-dataset containers.

The patient snapshot carries 41 attributes in six groups: recording-derived
features (11), food intake diary (12), drug intake (1), activity (2),
questionnaire answers (13) and external device readings (2). Missing values
are explicit (None), never silently zero.
"""

import csv
import enum
import io
import math
from dataclasses import dataclass

__all__ = [
    "RECORDING_FEATURES",
    "Attribute",
    "ClassLabel",
    "FeatureVector",
    "LabeledDataset",
    "patient_schema",
    "dataset_to_csv",
    "dataset_from_csv",
]

NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class Attribute:
    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError("attribute kind must be numeric or categorical")


class ClassLabel(enum.Enum):
    STABLE = 0
    LIGHT_WORSENING = 1
    WORSENING = 2

    @property
    def ordinal(self):
        return self.value


# the features the pipeline derives from one patient's recordings, in
# schema and features.csv column order
RECORDING_FEATURES = (
    "sdnn_ms", "sdann_ms", "sdnnidx_ms", "pnn50_pct", "rmssd_ms",
    "lf_power", "hf_power", "respiration_rate_bpm", "tidal_volume_l",
    "vital_capacity_l", "mean_heart_rate_bpm",
)
_FOOD = [
    "food_cereals", "food_vegetables", "food_fruit", "food_dairy",
    "food_meat", "food_fish", "food_legumes", "food_sweets",
    "food_salt", "food_fluids", "food_alcohol", "food_caffeine",
]
_DRUG = ["drug_adherence"]
_ACTIVITY = ["activity_minutes", "activity_intensity"]
_QUESTIONNAIRE = ["questionnaire_%02d" % i for i in range(1, 14)]
_EXTERNAL = ["body_weight_kg", "glucose_mg_dl"]


def patient_schema():
    """The default 41-attribute schema; 11+12+1+2+13+2."""
    attrs = []
    attrs += [Attribute(n, NUMERIC) for n in RECORDING_FEATURES]
    attrs += [Attribute(n, NUMERIC) for n in _FOOD]
    attrs += [Attribute(n, CATEGORICAL) for n in _DRUG]
    attrs += [Attribute(n, NUMERIC) for n in _ACTIVITY]
    attrs += [Attribute(n, CATEGORICAL) for n in _QUESTIONNAIRE]
    attrs += [Attribute(n, NUMERIC) for n in _EXTERNAL]
    assert len(attrs) == 41
    return tuple(attrs)


def _validate_schema(schema):
    schema = tuple(schema)
    if not schema:
        raise ValueError("schema needs at least one attribute")
    names = [a.name for a in schema]
    if len(set(names)) != len(names):
        raise ValueError("schema attribute names must be unique")
    return schema


@dataclass(frozen=True)
class FeatureVector:
    schema: tuple
    values: tuple  # aligned with schema; None marks a missing value

    def __post_init__(self):
        schema = _validate_schema(self.schema)
        object.__setattr__(self, "schema", schema)
        values = tuple(self.values)
        if len(values) != len(schema):
            raise ValueError("expected %d values, got %d" % (len(schema), len(values)))
        checked = []
        for attr, v in zip(schema, values):
            if v is None:
                checked.append(None)
            elif attr.kind == NUMERIC:
                v = float(v)
                if not math.isfinite(v):
                    raise ValueError("attribute %r must be finite" % attr.name)
                checked.append(v)
            else:
                if not isinstance(v, str) or not v:
                    raise ValueError("attribute %r takes a non-empty code" % attr.name)
                checked.append(v)
        object.__setattr__(self, "values", tuple(checked))

    @classmethod
    def from_mapping(cls, schema, mapping):
        schema = _validate_schema(schema)
        names = {a.name for a in schema}
        unknown = set(mapping) - names
        if unknown:
            raise ValueError("unknown attributes: %s" % sorted(unknown))
        return cls(schema, tuple(mapping.get(a.name) for a in schema))

    def get(self, name):
        for attr, v in zip(self.schema, self.values):
            if attr.name == name:
                return v
        raise KeyError(name)


@dataclass(frozen=True)
class LabeledDataset:
    schema: tuple
    features: tuple
    labels: tuple

    def __post_init__(self):
        schema = _validate_schema(self.schema)
        object.__setattr__(self, "schema", schema)
        feats = tuple(self.features)
        labels = tuple(self.labels)
        if len(feats) != len(labels):
            raise ValueError("features and labels differ in length")
        for fv in feats:
            if fv.schema != schema:
                raise ValueError("all rows must share the dataset schema")
        for lab in labels:
            if not isinstance(lab, ClassLabel):
                raise ValueError("labels must be ClassLabel values")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    def __len__(self):
        return len(self.features)


def _format_cell(attr, value):
    if value is None:
        return ""
    if attr.kind == NUMERIC:
        return repr(float(value))
    return value


def dataset_to_csv(dataset):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([a.name for a in dataset.schema] + ["class"])
    for fv, lab in zip(dataset.features, dataset.labels):
        writer.writerow([_format_cell(a, v) for a, v in zip(dataset.schema, fv.values)]
                        + [lab.name])
    return buf.getvalue()


def dataset_from_csv(text, schema):
    schema = _validate_schema(schema)
    reader = csv.reader(io.StringIO(text))
    rows = list(reader)
    if not rows:
        raise ValueError("empty CSV")
    expected = [a.name for a in schema] + ["class"]
    if rows[0] != expected:
        for i, want in enumerate(expected):
            got = rows[0][i] if i < len(rows[0]) else "<missing>"
            if got != want:
                raise ValueError(
                    "CSV header mismatch at column %d: expected %r, got %r"
                    % (i + 1, want, got))
        raise ValueError("CSV header has %d extra columns" % (len(rows[0]) - len(expected)))
    feats = []
    labels = []
    for row in rows[1:]:
        if not row:
            continue
        if len(row) != len(expected):
            raise ValueError("row has %d cells, expected %d" % (len(row), len(expected)))
        values = []
        for attr, cell in zip(schema, row):
            if cell == "":
                values.append(None)
            elif attr.kind == NUMERIC:
                values.append(float(cell))
            else:
                values.append(cell)
        feats.append(FeatureVector(schema, tuple(values)))
        labels.append(ClassLabel[row[-1]])
    return LabeledDataset(schema, tuple(feats), tuple(labels))
