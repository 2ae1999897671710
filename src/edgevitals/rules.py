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
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .errors import IntegrityError, RuleParseError, RuleSemanticError

__all__ = [
    "MeasurementKind",
    "AcquisitionMode",
    "MeasurementRecord",
    "Severity",
    "DiseaseScope",
    "Rule",
    "RuleSet",
    "Alert",
    "parse_rules",
    "evaluate",
    "evaluate_with_report",
    "evaluation_report",
    "report_to_json_line",
    "explain",
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


@dataclass(frozen=True, slots=True)
class MeasurementRecord:
    patient_id: str
    kind: MeasurementKind
    value: float
    timestamp_ms: int
    mode: AcquisitionMode = AcquisitionMode.NOSILENT
    name: str = ""

    def __post_init__(self):
        v = float(self.value)
        if not math.isfinite(v):
            raise ValueError("measurement value must be finite")
        object.__setattr__(self, "value", v)

    def key(self):
        # _value_ is the member's value as a plain attribute; .value is a
        # Python-level property and hashing a member for a lookup calls
        # Enum.__hash__, each too slow to pay once per record
        return (self.patient_id, self.kind._value_, self.timestamp_ms, self.value, self.name)


_OPS = {
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
    "eq": operator.eq,
}
_OP_SYMBOL = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "="}


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


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


@dataclass(frozen=True)
class Not:
    child: object


@dataclass(frozen=True)
class Rule:
    id: str
    scope: DiseaseScope
    severity: Severity
    message: str
    condition: object


@dataclass(frozen=True)
class RuleSet:
    rules: tuple
    schema: str = "1"

    def __len__(self):
        return len(self.rules)


@dataclass(frozen=True)
class Alert:
    rule_id: str
    patient_id: str
    severity: Severity
    fired_at_ms: int
    evidence: tuple = field(repr=False)


def _attr(elem, name, required=True, default=None):
    if name in elem.attrib:
        return elem.attrib[name]
    if required:
        raise RuleSemanticError("<%s> missing attribute %r" % (elem.tag, name))
    return default


def _check_attrs(elem, allowed):
    for a in elem.attrib:
        if a not in allowed:
            raise RuleSemanticError("<%s> has unknown attribute %r" % (elem.tag, a))


def _parse_kind(elem):
    raw = _attr(elem, "kind")
    try:
        return MeasurementKind(raw)
    except ValueError:
        raise RuleSemanticError("unknown measurement kind %r" % raw) from None


def _parse_op(elem):
    raw = _attr(elem, "op")
    if raw not in _OPS:
        raise RuleSemanticError("unknown op %r (expected one of %s)" % (raw, sorted(_OPS)))
    return raw


def _parse_float(elem, name, positive=False):
    raw = _attr(elem, name)
    try:
        v = float(raw)
    except ValueError:
        raise RuleSemanticError("<%s> attribute %r is not a number: %r" % (elem.tag, name, raw)) from None
    if not math.isfinite(v):
        raise RuleSemanticError("<%s> attribute %r must be finite, got %r" % (elem.tag, name, raw))
    if positive and not (v > 0):
        raise RuleSemanticError("<%s> attribute %r must be > 0" % (elem.tag, name))
    return v


def _parse_condition(elem):
    tag = elem.tag
    if tag == "threshold":
        _check_attrs(elem, {"kind", "op", "value"})
        return Threshold(_parse_kind(elem), _parse_op(elem), _parse_float(elem, "value"))
    if tag == "percent_change":
        _check_attrs(elem, {"kind", "op", "percent", "window_hours"})
        return PercentChange(
            _parse_kind(elem), _parse_op(elem),
            _parse_float(elem, "percent"),
            _parse_float(elem, "window_hours", positive=True),
        )
    if tag == "sustained":
        _check_attrs(elem, {"kind", "op", "value", "duration_minutes"})
        return Sustained(
            _parse_kind(elem), _parse_op(elem),
            _parse_float(elem, "value"),
            _parse_float(elem, "duration_minutes", positive=True),
        )
    if tag in ("and", "or"):
        children = [_parse_condition(c) for c in elem]
        if len(children) < 2:
            raise RuleSemanticError("<%s> needs at least 2 children" % tag)
        return And(tuple(children)) if tag == "and" else Or(tuple(children))
    if tag == "not":
        children = list(elem)
        if len(children) != 1:
            raise RuleSemanticError("<not> needs exactly 1 child")
        return Not(_parse_condition(children[0]))
    raise RuleSemanticError("unknown condition element <%s>" % tag)


def parse_rules(xml_text):
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        line, col = exc.position
        raise RuleParseError(exc.msg if hasattr(exc, "msg") else str(exc), line, col) from None
    if root.tag != "rules":
        raise RuleSemanticError("root element must be <rules>, got <%s>" % root.tag)
    _check_attrs(root, {"schema"})
    schema = root.attrib.get("schema", "1")
    if schema != "1":
        raise RuleSemanticError("unsupported rules schema %r" % schema)
    rules = []
    seen_ids = set()
    for child in root:
        if child.tag != "rule":
            raise RuleSemanticError("unexpected element <%s> under <rules>" % child.tag)
        _check_attrs(child, {"id", "scope", "severity", "message"})
        rule_id = _attr(child, "id")
        if rule_id in seen_ids:
            raise RuleSemanticError("duplicate rule id %r" % rule_id)
        seen_ids.add(rule_id)
        try:
            scope = DiseaseScope(child.attrib.get("scope", "BOTH"))
        except ValueError:
            raise RuleSemanticError("unknown scope %r" % child.attrib["scope"]) from None
        try:
            severity = Severity(_attr(child, "severity"))
        except ValueError:
            raise RuleSemanticError("unknown severity %r" % child.attrib["severity"]) from None
        conditions = list(child)
        if len(conditions) != 1:
            raise RuleSemanticError("rule %r must hold exactly one condition" % rule_id)
        rules.append(Rule(
            id=rule_id,
            scope=scope,
            severity=severity,
            message=child.attrib.get("message", ""),
            condition=_parse_condition(conditions[0]),
        ))
    return RuleSet(rules=tuple(rules), schema=schema)


def _referenced_kinds(condition):
    if isinstance(condition, (Threshold, PercentChange, Sustained)):
        return {condition.kind}
    if isinstance(condition, (And, Or)):
        kinds = set()
        for c in condition.children:
            kinds |= _referenced_kinds(c)
        return kinds
    if isinstance(condition, Not):
        return _referenced_kinds(condition.child)
    raise TypeError("unknown condition node %r" % condition)


@dataclass(frozen=True)
class _Trace:
    """A condition node after evaluation. value is what the verdict was
    computed from: the latest value (threshold), the percent change with
    the reference as consulted[0] (percent_change; None when there is no
    usable reference) or the number of observations in the window
    (sustained); None for and/or/not."""
    condition: object
    verdict: bool
    value: object
    consulted: tuple
    children: tuple = ()


def _trace(condition, by_kind, now_ms):
    """The one evaluation pass behind alerts, reports and explain."""
    if isinstance(condition, (And, Or, Not)):
        kids = (condition.child,) if isinstance(condition, Not) else condition.children
        children = tuple(_trace(c, by_kind, now_ms) for c in kids)
        verdicts = [t.verdict for t in children]
        if isinstance(condition, And):
            verdict = all(verdicts)
        elif isinstance(condition, Or):
            verdict = any(verdicts)
        else:
            verdict = not verdicts[0]
        consulted = tuple(r for t in children for r in t.consulted)
        return _Trace(condition, verdict, None, consulted, children)
    records = by_kind[condition.kind]
    latest = records[-1]
    if isinstance(condition, Threshold):
        return _Trace(condition, _OPS[condition.op](latest.value, condition.value),
                      latest.value, (latest,))
    if isinstance(condition, PercentChange):
        horizon = now_ms - condition.window_hours * 3600000.0
        in_window = [r for r in records if r.timestamp_ms >= horizon]
        if not in_window:
            return _Trace(condition, False, None, (latest,))
        ref = in_window[0]
        if ref.value == 0:
            return _Trace(condition, False, None, (ref, latest))
        change = (latest.value - ref.value) / ref.value * 100.0
        return _Trace(condition, _OPS[condition.op](change, condition.percent),
                      change, (ref, latest))
    if isinstance(condition, Sustained):
        horizon = now_ms - condition.duration_minutes * 60000.0
        in_window = tuple(r for r in records if r.timestamp_ms >= horizon)
        verdict = len(in_window) >= 2 and all(
            _OPS[condition.op](r.value, condition.value) for r in in_window)
        return _Trace(condition, verdict, len(in_window), in_window)
    raise TypeError("unknown condition node %r" % condition)


def _visible_by_kind(history, patient_id, now_ms):
    """The patient's records up to now_ms, time-ordered, grouped by kind."""
    visible = sorted(
        (r for r in history if r.patient_id == patient_id and r.timestamp_ms <= now_ms),
        key=lambda r: (r.timestamp_ms, r.kind._value_),
    )
    by_kind = {}
    for rec in visible:
        by_kind.setdefault(rec.kind, []).append(rec)
    return by_kind


def _alert_order(alert):
    return (0 if alert.severity is Severity.ALARM else 1, alert.rule_id)


def evaluate_with_report(ruleset, history, patient_id, now_ms, disease=None,
                         extra_alerts=()):
    """Evaluates each rule once and returns (alerts, report). Rules that
    reference a measurement kind with no history are skipped, not errors.
    extra_alerts, raised outside the rule set, join the rule alerts before
    the one sort and render into the report the same way."""
    by_kind = _visible_by_kind(history, patient_id, now_ms)
    alerts = []
    skipped = []
    for rule in ruleset.rules:
        if disease is not None and rule.scope not in (DiseaseScope.BOTH, disease):
            continue
        kinds = _referenced_kinds(rule.condition)
        missing = sorted(k.value for k in kinds if k not in by_kind)
        if missing:
            skipped.append({"rule": rule.id, "missing_kinds": missing})
            continue
        trace = _trace(rule.condition, by_kind, now_ms)
        if not trace.verdict:
            continue
        first = {}
        for rec in trace.consulted:
            first.setdefault(rec.key(), rec)
        evidence = tuple(first.values())
        if not evidence:
            # negated conditions can fire without touching a record;
            # cite the latest record of each referenced kind instead
            evidence = tuple(by_kind[k][-1] for k in sorted(kinds, key=lambda k: k.value))
        alerts.append(Alert(rule.id, patient_id, rule.severity, int(now_ms), evidence))
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
    return evaluate_with_report(ruleset, history, patient_id, now_ms, disease)[0]


def evaluation_report(ruleset, history, patient_id, now_ms, disease=None):
    return evaluate_with_report(ruleset, history, patient_id, now_ms, disease)[1]


def _alert_dict(alert):
    return {
        "rule": alert.rule_id,
        "severity": alert.severity.value,
        "fired_at": alert.fired_at_ms,
        "evidence": [
            {
                "kind": r.kind.value,
                "value": r.value,
                "ts": r.timestamp_ms,
                "mode": r.mode.value,
            }
            for r in alert.evidence
        ],
    }


def report_to_json_line(report):
    return json.dumps(report, separators=(",", ":"), sort_keys=False)


def _render(trace, lines, depth):
    pad = "  " * depth
    cond = trace.condition
    if isinstance(cond, Threshold):
        lines.append("%sthreshold: %s %s %g, observed %g at %d" % (
            pad, cond.kind.value, _OP_SYMBOL[cond.op],
            cond.value, trace.value, trace.consulted[0].timestamp_ms))
    elif isinstance(cond, PercentChange):
        if trace.value is None:
            lines.append("%spercent_change: %s, no usable reference in window" % (
                pad, cond.kind.value))
        else:
            ref, latest = trace.consulted
            lines.append("%spercent_change: %s %s %g%% over %gh, computed %+.2f%% (%g -> %g)" % (
                pad, cond.kind.value, _OP_SYMBOL[cond.op], cond.percent,
                cond.window_hours, trace.value, ref.value, latest.value))
    elif isinstance(cond, Sustained):
        lines.append("%ssustained: %s %s %g for %g min, %d observations" % (
            pad, cond.kind.value, _OP_SYMBOL[cond.op], cond.value,
            cond.duration_minutes, trace.value))
    else:
        lines.append("%s%s:" % (pad, "all of" if isinstance(cond, And)
                                else "any of" if isinstance(cond, Or) else "not"))
        for child in trace.children:
            _render(child, lines, depth + 1)


def explain(alert, ruleset, history):
    """Human-readable trace: the rule condition with the values its
    verdict was computed from, and the evidence records."""
    rule = next((r for r in ruleset.rules if r.id == alert.rule_id), None)
    if rule is None:
        raise IntegrityError("alert cites unknown rule %r" % alert.rule_id)
    history_keys = {r.key() for r in history}
    for rec in alert.evidence:
        if rec.key() not in history_keys:
            raise IntegrityError("alert evidence not present in history: %r" % (rec.key(),))
    by_kind = _visible_by_kind(history, alert.patient_id, alert.fired_at_ms)
    lines = [
        "rule %s (%s): %s" % (rule.id, rule.severity.value, rule.message or "<no message>"),
        "fired at %d for patient %s" % (alert.fired_at_ms, alert.patient_id),
        "condition:",
    ]
    _render(_trace(rule.condition, by_kind, alert.fired_at_ms), lines, 1)
    lines.append("evidence:")
    for rec in alert.evidence:
        lines.append("  %s = %g at %d (%s)" % (
            rec.kind.value, rec.value, rec.timestamp_ms, rec.mode.value))
    return "\n".join(lines)
