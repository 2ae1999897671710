"""XML if-then clinical rules evaluated over the measurement history.

Rule document shape (versioned by the root's schema attribute):

    <rules schema="1">
      <rule id="hr-high" scope="BOTH" severity="ALARM" message="...">
        <threshold kind="HEART_RATE" op="gt" value="120"/>
      </rule>
    </rules>

Conditions may nest <and>/<or>/<not> around the three predicate forms
threshold, percent_change (percent, window_hours) and sustained
(duration_minutes).
"""

import enum
import json
import math
import operator
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .errors import RuleParseError, RuleSemanticError

__all__ = [
    "MeasurementKind",
    "AcquisitionMode",
    "MeasurementRecord",
    "history_key",
    "history_view",
    "ascii_number",
    "Severity",
    "DiseaseScope",
    "Rule",
    "Alert",
    "record_doc",
    "parse_rules",
    "evaluate",
    "evaluate_with_report",
    "evaluation_report",
    "report_to_json_line",
]


class MeasurementKind(enum.Enum):
    HEART_RATE = "HEART_RATE"            # bpm
    BODY_WEIGHT = "BODY_WEIGHT"          # kg
    BODY_TEMPERATURE = "BODY_TEMPERATURE"  # deg C
    BLOOD_PRESSURE_SYS = "BLOOD_PRESSURE_SYS"  # mmHg
    BLOOD_PRESSURE_DIA = "BLOOD_PRESSURE_DIA"  # mmHg
    GLUCOSE = "GLUCOSE"                  # mg/dL
    SPO2 = "SPO2"                        # percent
    RESPIRATION_RATE = "RESPIRATION_RATE"  # breaths/min
    QUESTIONNAIRE_ITEM = "QUESTIONNAIRE_ITEM"  # coded
    FEATURE = "FEATURE"                  # named computed feature


class AcquisitionMode(enum.Enum):
    SILENT = "SILENT"
    NOSILENT = "NOSILENT"


class Severity(enum.Enum):
    ALARM = "ALARM"
    LIGHT_ALERT = "LIGHT_ALERT"


class DiseaseScope(enum.Enum):
    COPD = "COPD"
    CKD = "CKD"
    BOTH = "BOTH"


# characters outside the XML 1.0 Char production; a name holding one would
# make the outbound message unparseable
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# float() and int() read "_" and non-ASCII digits, which np.loadtxt refuses
_NOT_ASCII_NUMBER = re.compile(r"_|(?![0-9])\d")


def ascii_number(raw, convert=float):
    """convert(raw) for a number of a rule document or a measurements CSV;
    one holding "_" or a non-ASCII digit is a ValueError too."""
    value = convert(raw)
    if _NOT_ASCII_NUMBER.search(raw):
        raise ValueError("%r is not an ASCII number" % raw)
    return value


@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    """One stored measurement, with the field types the store log holds,
    checked here and nowhere else: a str patient id (the store checks that
    it names a file), enum members, an int timestamp, a finite int or float
    value (kept as a float; a bool is neither) and a name XML 1.0 can
    carry. Anything else is a ValueError."""
    patient_id: str
    kind: MeasurementKind
    value: float
    timestamp_ms: int
    mode: AcquisitionMode = AcquisitionMode.NOSILENT
    name: str = ""

    def __post_init__(self):
        if type(self.patient_id) is not str:
            raise ValueError("patient id must be a str, got %r" % (self.patient_id,))
        if type(self.kind) is not MeasurementKind or type(self.mode) is not AcquisitionMode:
            raise ValueError("kind %r or mode %r is not a member" % (self.kind, self.mode))
        if type(self.timestamp_ms) is not int:
            raise ValueError("timestamp must be an int, got %r" % (self.timestamp_ms,))
        value = self.value
        if type(value) is not float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError("measurement value must be a number, got %r" % (value,))
            try:
                value = float(value)
            except OverflowError:
                raise ValueError("measurement value is too large for a float") from None
            object.__setattr__(self, "value", value)
        if not math.isfinite(value):
            raise ValueError("measurement value must be finite")
        name = self.name
        if type(name) is not str:
            raise ValueError("name must be a str, got %r" % (name,))
        if name and _NOT_XML_CHAR.search(name):
            raise ValueError("name %r holds a character XML 1.0 cannot carry" % name)

    def key(self):
        # _value_ is the member's value as a plain attribute; .value is a
        # Python-level property and hashing a member for a lookup calls
        # Enum.__hash__, each too slow to pay once per record
        return (self.patient_id, self.kind._value_, self.timestamp_ms, self.value, self.name)


def history_key(rec):
    """The one order of a patient's history: time, then kind, name and
    value, so records that tie on time and kind sort the same whatever
    order they were given in."""
    return (rec.timestamp_ms, rec.kind._value_, rec.name, rec.value)


_OPS = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
}


@dataclass(frozen=True)
class Threshold:
    kind: MeasurementKind
    op: str
    value: float


@dataclass(frozen=True)
class PercentChange:
    kind: MeasurementKind
    op: str
    percent: float
    window_hours: float


@dataclass(frozen=True)
class Sustained:
    kind: MeasurementKind
    op: str
    value: float
    duration_minutes: float


# each predicate element's node and number attributes, in field order
_PREDICATES = {
    "threshold": (Threshold, ("value",)),
    "percent_change": (PercentChange, ("percent", "window_hours")),
    "sustained": (Sustained, ("value", "duration_minutes")),
}
_POSITIVE = {"window_hours", "duration_minutes"}

# <and>, <or> and <not>: each verdict from the children's verdicts
_LOGIC = {"and": all, "or": any, "not": lambda verdicts: not verdicts[0]}


@dataclass(frozen=True)
class Logic:
    op: str  # a key of _LOGIC
    children: tuple


@dataclass(frozen=True)
class Rule:
    id: str
    scope: DiseaseScope
    severity: Severity
    condition: object
    kinds: tuple  # the measurement kinds the condition reads, ordered by value


@dataclass(frozen=True)
class Alert:
    rule_id: str
    severity: Severity
    fired_at_ms: int
    evidence: tuple = field(repr=False)


def _attr(elem, name):
    if name not in elem.attrib:
        raise RuleSemanticError("<%s> missing attribute %r" % (elem.tag, name))
    return elem.attrib[name]


def _check_attrs(elem, allowed):
    for a in elem.attrib:
        if a not in allowed:
            raise RuleSemanticError("<%s> has unknown attribute %r" % (elem.tag, a))


def _member(enum_cls, raw, what):
    try:
        return enum_cls(raw)
    except ValueError:
        raise RuleSemanticError("unknown %s %r" % (what, raw)) from None


def _parse_op(elem):
    raw = _attr(elem, "op")
    if raw not in _OPS:
        raise RuleSemanticError("unknown op %r (expected one of %s)" % (raw, sorted(_OPS)))
    return raw


def _parse_float(elem, name, positive=False):
    raw = _attr(elem, name)
    try:
        v = ascii_number(raw)
    except ValueError:
        raise RuleSemanticError("<%s> attribute %r is not a number: %r" % (elem.tag, name, raw)) from None
    if not math.isfinite(v):
        raise RuleSemanticError("<%s> attribute %r must be finite, got %r" % (elem.tag, name, raw))
    if positive and not (v > 0):
        raise RuleSemanticError("<%s> attribute %r must be > 0" % (elem.tag, name))
    return v


def _parse_condition(elem, kinds):
    """The condition elem holds; adds each measurement kind it reads to kinds."""
    tag = elem.tag
    if tag == "not" and len(elem) != 1:
        raise RuleSemanticError("<not> needs exactly 1 child")
    if tag in ("and", "or") and len(elem) < 2:
        raise RuleSemanticError("<%s> needs at least 2 children" % tag)
    if tag in _LOGIC:
        _check_attrs(elem, ())
        return Logic(tag, tuple(_parse_condition(c, kinds) for c in elem))
    if tag not in _PREDICATES:
        raise RuleSemanticError("unknown condition element <%s>" % tag)
    if len(elem):
        raise RuleSemanticError("<%s> takes no child elements" % tag)
    node, numbers = _PREDICATES[tag]
    _check_attrs(elem, {"kind", "op", *numbers})
    cond = node(_member(MeasurementKind, _attr(elem, "kind"), "measurement kind"),
                _parse_op(elem),
                *(_parse_float(elem, n, positive=n in _POSITIVE) for n in numbers))
    kinds.add(cond.kind)
    return cond


# the ids of the index alerts a patient run adds next to the rule alerts
_INDEX_ALERT_IDS = ("stress-index", "lifestyle-index")


def parse_rules(xml_text):
    """The document's rules, as a tuple in document order."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        line, col = exc.position
        raise RuleParseError(exc.msg if hasattr(exc, "msg") else str(exc), line, col) from None
    if root.tag != "rules":
        raise RuleSemanticError("root element must be <rules>, got <%s>" % root.tag)
    _check_attrs(root, {"schema"})
    if root.attrib.get("schema", "1") != "1":
        raise RuleSemanticError("unsupported rules schema %r" % root.attrib["schema"])
    rules = []
    seen_ids = set()
    for child in root:
        if child.tag != "rule":
            raise RuleSemanticError("unexpected element <%s> under <rules>" % child.tag)
        _check_attrs(child, {"id", "scope", "severity", "message"})
        rule_id = _attr(child, "id")
        if not rule_id:
            raise RuleSemanticError("rule id must not be empty")
        if rule_id in seen_ids:
            raise RuleSemanticError("duplicate rule id %r" % rule_id)
        if rule_id in _INDEX_ALERT_IDS:
            raise RuleSemanticError("rule id %r is reserved for the config's index alert"
                                    % rule_id)
        seen_ids.add(rule_id)
        scope = _member(DiseaseScope, child.attrib.get("scope", "BOTH"), "scope")
        severity = _member(Severity, _attr(child, "severity"), "severity")
        conditions = list(child)
        if len(conditions) != 1:
            raise RuleSemanticError("rule %r must hold exactly one condition" % rule_id)
        kinds = set()
        condition = _parse_condition(conditions[0], kinds)
        rules.append(Rule(
            id=rule_id,
            scope=scope,
            severity=severity,
            condition=condition,
            kinds=tuple(sorted(kinds, key=lambda k: k.value)),
        ))
    return tuple(rules)


def _trace(condition, by_kind, now_ms):
    """The one evaluation pass behind alerts and reports: the verdict and
    the records it was computed from, in the order they were consulted."""
    if isinstance(condition, Logic):
        traces = [_trace(c, by_kind, now_ms) for c in condition.children]
        verdict = _LOGIC[condition.op]([v for v, _ in traces])
        return verdict, tuple(r for _, consulted in traces for r in consulted)
    records = by_kind[condition.kind]
    latest = records[-1]
    if isinstance(condition, Threshold):
        return _OPS[condition.op](latest.value, condition.value), (latest,)
    if isinstance(condition, PercentChange):
        horizon = now_ms - condition.window_hours * 3600000.0
        in_window = [r for r in records if r.timestamp_ms >= horizon]
        if not in_window:
            return False, (latest,)
        ref = in_window[0]
        if ref.value == 0:
            return False, (ref, latest)
        change = (latest.value - ref.value) / ref.value * 100.0
        return _OPS[condition.op](change, condition.percent), (ref, latest)
    if isinstance(condition, Sustained):
        horizon = now_ms - condition.duration_minutes * 60000.0
        in_window = tuple(r for r in records if r.timestamp_ms >= horizon)
        verdict = len(in_window) >= 2 and all(
            _OPS[condition.op](r.value, condition.value) for r in in_window)
        return verdict, in_window
    raise TypeError("unknown condition node %r" % condition)


def history_view(history, patient_id, now_ms):
    """The one pass that filters, sorts and groups a patient's history:
    returns (by_kind, by_name), the patient's records up to now_ms in
    `history_key` order grouped by kind, and the latest named record of
    each name."""
    visible = (r for r in history if r.patient_id == patient_id and r.timestamp_ms <= now_ms)
    by_kind = {}
    by_name = {}
    for rec in sorted(visible, key=history_key):
        by_kind.setdefault(rec.kind, []).append(rec)
        if rec.name:
            by_name[rec.name] = rec
    return by_kind, by_name


def _alert_order(alert):
    return (0 if alert.severity is Severity.ALARM else 1, alert.rule_id)


def evaluate_with_report(ruleset, by_kind, patient_id, now_ms, disease=None,
                         extra_alerts=()):
    """Evaluates each rule once over by_kind, the first half of a
    `history_view`, and returns (alerts, report). Rules that reference a
    measurement kind with no history are skipped, not errors.
    extra_alerts, raised outside the rule set, join the rule alerts before
    the one sort and render into the report the same way."""
    alerts = []
    skipped = []
    for rule in ruleset:
        if disease is not None and rule.scope not in (DiseaseScope.BOTH, disease):
            continue
        missing = [k.value for k in rule.kinds if k not in by_kind]
        if missing:
            skipped.append({"rule": rule.id, "missing_kinds": missing})
            continue
        verdict, consulted = _trace(rule.condition, by_kind, now_ms)
        if not verdict:
            continue
        first = {}
        for rec in consulted:
            first.setdefault(rec.key(), rec)
        evidence = tuple(first.values())
        if not evidence:
            # negated conditions can fire without touching a record;
            # cite the latest record of each referenced kind instead
            evidence = tuple(by_kind[k][-1] for k in rule.kinds)
        alerts.append(Alert(rule.id, rule.severity, int(now_ms), evidence))
    alerts.extend(extra_alerts)
    alerts.sort(key=_alert_order)
    report = {
        "patient": patient_id,
        "ts": int(now_ms),
        "alerts": [_alert_dict(a) for a in alerts],
        "skipped_rules": skipped,
    }
    return alerts, report


def evaluate(ruleset, history, patient_id, now_ms, disease=None):
    """Alerts for every rule whose condition holds at now_ms."""
    by_kind = history_view(history, patient_id, now_ms)[0]
    return evaluate_with_report(ruleset, by_kind, patient_id, now_ms, disease)[0]


def evaluation_report(ruleset, history, patient_id, now_ms, disease=None):
    by_kind = history_view(history, patient_id, now_ms)[0]
    return evaluate_with_report(ruleset, by_kind, patient_id, now_ms, disease)[1]


def record_doc(rec):
    """A record as a JSON object without its patient: kind, value, ts,
    mode, and name when it has one. The store's log lines and the report's
    evidence both write it."""
    doc = {
        "kind": rec.kind._value_,
        "value": rec.value,
        "ts": rec.timestamp_ms,
        "mode": rec.mode._value_,
    }
    if rec.name:
        doc["name"] = rec.name
    return doc


def _alert_dict(alert):
    return {
        "rule": alert.rule_id,
        "severity": alert.severity.value,
        "fired_at": alert.fired_at_ms,
        "evidence": [record_doc(r) for r in alert.evidence],
    }


def report_to_json_line(report):
    # a NaN or infinity would not be JSON; the ValueError fails the patient instead
    return json.dumps(report, separators=(",", ":"), sort_keys=False, allow_nan=False)
