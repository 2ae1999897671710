import operator
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgevitals.errors import IntegrityError, RuleParseError, RuleSemanticError
from edgevitals.rules import (
    AcquisitionMode,
    Alert,
    DiseaseScope,
    MeasurementKind,
    MeasurementRecord,
    Severity,
    evaluate,
    evaluation_report,
    explain,
    history_key,
    history_view,
    parse_rules,
    report_to_json_line,
)

GOLDEN = """\
<rules schema="1">
  <rule id="hr-high" scope="BOTH" severity="ALARM" message="heart rate above 120 bpm">
    <threshold kind="HEART_RATE" op="gt" value="120"/>
  </rule>
  <rule id="weight-gain" scope="CKD" severity="ALARM" message="weight up more than 2 percent in a day">
    <percent_change kind="BODY_WEIGHT" op="gt" percent="2" window_hours="24"/>
  </rule>
  <rule id="fever" scope="BOTH" severity="ALARM" message="temperature above 38 C">
    <threshold kind="BODY_TEMPERATURE" op="gt" value="38"/>
  </rule>
</rules>
"""

HOUR = 3600000


def rec(kind, value, ts, patient="p1"):
    return MeasurementRecord(patient, kind, value, ts)


class TestParse:
    def test_golden_rules(self):
        rs = parse_rules(GOLDEN)
        assert len(rs) == 3
        assert [r.id for r in rs.rules] == ["hr-high", "weight-gain", "fever"]
        assert rs.rules[0].severity is Severity.ALARM
        assert rs.rules[1].scope is DiseaseScope.CKD
        assert rs.rules[1].condition.window_hours == 24.0

    def test_empty_document(self):
        assert len(parse_rules("<rules/>")) == 0

    def test_schema_defaults_to_1(self):
        assert parse_rules("<rules></rules>").schema == "1"

    def test_unsupported_schema(self):
        with pytest.raises(RuleSemanticError):
            parse_rules('<rules schema="2"/>')

    def test_malformed_xml_reports_position(self):
        bad = "<rules>\n  <rule id='x' severity='ALARM'>\n</rules>"
        with pytest.raises(RuleParseError) as exc:
            parse_rules(bad)
        assert exc.value.line == 3
        assert "line 3" in str(exc.value)

    def test_duplicate_id(self):
        xml = """<rules>
          <rule id="a" severity="ALARM"><threshold kind="SPO2" op="lt" value="90"/></rule>
          <rule id="a" severity="ALARM"><threshold kind="SPO2" op="lt" value="85"/></rule>
        </rules>"""
        with pytest.raises(RuleSemanticError, match="duplicate"):
            parse_rules(xml)

    def test_unknown_kind(self):
        xml = '<rules><rule id="a" severity="ALARM"><threshold kind="SHOE_SIZE" op="gt" value="1"/></rule></rules>'
        with pytest.raises(RuleSemanticError, match="SHOE_SIZE"):
            parse_rules(xml)

    def test_unknown_op(self):
        xml = '<rules><rule id="a" severity="ALARM"><threshold kind="SPO2" op="between" value="1"/></rule></rules>'
        with pytest.raises(RuleSemanticError, match="op"):
            parse_rules(xml)

    def test_kinds_found_at_parse_ordered_by_value(self):
        xml = """<rules><rule id="a" severity="ALARM"><or>
            <not><threshold kind="SPO2" op="lt" value="90"/></not>
            <and><threshold kind="HEART_RATE" op="gt" value="100"/>
                 <sustained kind="SPO2" op="lt" value="92" duration_minutes="5"/></and>
        </or></rule></rules>"""
        (rule,) = parse_rules(xml).rules
        assert rule.kinds == (MeasurementKind.HEART_RATE, MeasurementKind.SPO2)
        assert [c.op for c in rule.condition.children] == ["not", "and"]
        assert parse_rules(GOLDEN).rules[1].kinds == (MeasurementKind.BODY_WEIGHT,)

    def test_unknown_element(self):
        xml = '<rules><rule id="a" severity="ALARM"><trend kind="SPO2" op="gt" value="1"/></rule></rules>'
        with pytest.raises(RuleSemanticError):
            parse_rules(xml)

    def test_and_needs_two_children(self):
        xml = """<rules><rule id="a" severity="ALARM"><and>
            <threshold kind="SPO2" op="lt" value="90"/>
        </and></rule></rules>"""
        with pytest.raises(RuleSemanticError):
            parse_rules(xml)

    def test_not_needs_one_child(self):
        xml = """<rules><rule id="a" severity="ALARM"><not>
            <threshold kind="SPO2" op="lt" value="90"/>
            <threshold kind="SPO2" op="gt" value="99"/>
        </not></rule></rules>"""
        with pytest.raises(RuleSemanticError):
            parse_rules(xml)

    def test_missing_required_attribute(self):
        xml = '<rules><rule id="a" severity="ALARM"><threshold kind="SPO2" value="90"/></rule></rules>'
        with pytest.raises(RuleSemanticError):
            parse_rules(xml)

    def test_nonpositive_window(self):
        xml = '<rules><rule id="a" severity="ALARM"><percent_change kind="BODY_WEIGHT" op="gt" percent="2" window_hours="0"/></rule></rules>'
        with pytest.raises(RuleSemanticError):
            parse_rules(xml)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("element, attribute", [
        ('<threshold kind="HEART_RATE" op="lt" value="{}"/>', "value"),
        ('<percent_change kind="BODY_WEIGHT" op="gt" percent="{}" window_hours="24"/>',
         "percent"),
        ('<percent_change kind="BODY_WEIGHT" op="gt" percent="2" window_hours="{}"/>',
         "window_hours"),
        ('<sustained kind="SPO2" op="lt" value="90" duration_minutes="{}"/>',
         "duration_minutes"),
    ], ids=["value", "percent", "window_hours", "duration_minutes"])
    def test_non_finite_number_rejected(self, element, attribute, raw):
        xml = '<rules><rule id="a" severity="ALARM">%s</rule></rules>' % element.format(raw)
        tag = element.split()[0][1:]
        with pytest.raises(RuleSemanticError,
                           match="<%s> attribute '%s' must be finite" % (tag, attribute)):
            parse_rules(xml)


class TestEvaluate:
    def setup_method(self):
        self.rules = parse_rules(GOLDEN)

    def test_hr_alarm_fires(self):
        history = [rec(MeasurementKind.HEART_RATE, 125.0, 1000)]
        alerts = evaluate(self.rules, history, "p1", 2000)
        assert [a.rule_id for a in alerts] == ["hr-high"]
        assert alerts[0].severity is Severity.ALARM
        assert alerts[0].fired_at_ms == 2000
        assert alerts[0].evidence[0].value == 125.0

    def test_hr_silent_below_threshold(self):
        history = [rec(MeasurementKind.HEART_RATE, 118.0, 1000)]
        assert evaluate(self.rules, history, "p1", 2000) == []

    def test_weight_percent_change_fires(self):
        history = [
            rec(MeasurementKind.BODY_WEIGHT, 70.0, 0),
            rec(MeasurementKind.BODY_WEIGHT, 71.5, 20 * HOUR),
        ]
        alerts = evaluate(self.rules, history, "p1", 20 * HOUR)
        assert [a.rule_id for a in alerts] == ["weight-gain"]

    def test_weight_small_change_silent(self):
        history = [
            rec(MeasurementKind.BODY_WEIGHT, 70.0, 0),
            rec(MeasurementKind.BODY_WEIGHT, 70.5, 20 * HOUR),
        ]
        assert evaluate(self.rules, history, "p1", 20 * HOUR) == []

    def test_percent_change_reference_is_earliest_in_window(self):
        history = [
            rec(MeasurementKind.BODY_WEIGHT, 80.0, 0),          # outside window
            rec(MeasurementKind.BODY_WEIGHT, 70.0, 30 * HOUR),  # reference
            rec(MeasurementKind.BODY_WEIGHT, 71.5, 50 * HOUR),
        ]
        alerts = evaluate(self.rules, history, "p1", 50 * HOUR)
        assert [a.rule_id for a in alerts] == ["weight-gain"]
        assert alerts[0].evidence[0].value == 70.0

    def test_latest_observation_wins_threshold(self):
        history = [
            rec(MeasurementKind.HEART_RATE, 150.0, 1000),
            rec(MeasurementKind.HEART_RATE, 80.0, 5000),
        ]
        assert evaluate(self.rules, history, "p1", 6000) == []

    def test_missing_kind_skipped_not_error(self):
        report = evaluation_report(self.rules, [], "p1", 1000)
        assert report["alerts"] == []
        skipped = {s["rule"] for s in report["skipped_rules"]}
        assert skipped == {"hr-high", "weight-gain", "fever"}

    def test_alerts_sorted_alarm_first_then_id(self):
        xml = """<rules>
          <rule id="b-light" severity="LIGHT_ALERT"><threshold kind="SPO2" op="lt" value="95"/></rule>
          <rule id="z-alarm" severity="ALARM"><threshold kind="SPO2" op="lt" value="92"/></rule>
          <rule id="a-alarm" severity="ALARM"><threshold kind="SPO2" op="lt" value="93"/></rule>
        </rules>"""
        rules = parse_rules(xml)
        history = [rec(MeasurementKind.SPO2, 90.0, 1000)]
        alerts = evaluate(rules, history, "p1", 2000)
        assert [a.rule_id for a in alerts] == ["a-alarm", "z-alarm", "b-light"]

    def test_scope_filtering(self):
        history = [
            rec(MeasurementKind.BODY_WEIGHT, 70.0, 0),
            rec(MeasurementKind.BODY_WEIGHT, 71.5, 20 * HOUR),
        ]
        copd = evaluate(self.rules, history, "p1", 20 * HOUR, DiseaseScope.COPD)
        ckd = evaluate(self.rules, history, "p1", 20 * HOUR, DiseaseScope.CKD)
        assert copd == []
        assert [a.rule_id for a in ckd] == ["weight-gain"]

    def test_other_patients_invisible(self):
        history = [rec(MeasurementKind.HEART_RATE, 140.0, 1000, patient="p2")]
        assert evaluate(self.rules, history, "p1", 2000) == []

    def test_future_records_invisible(self):
        history = [rec(MeasurementKind.HEART_RATE, 140.0, 9000)]
        assert evaluate(self.rules, history, "p1", 2000) == []

    def test_sustained_needs_two_observations(self):
        xml = """<rules><rule id="low-spo2" severity="ALARM">
            <sustained kind="SPO2" op="lt" value="92" duration_minutes="30"/>
        </rule></rules>"""
        rules = parse_rules(xml)
        one = [rec(MeasurementKind.SPO2, 88.0, 1000)]
        assert evaluate(rules, one, "p1", 60000) == []
        two = one + [rec(MeasurementKind.SPO2, 89.0, 120000)]
        alerts = evaluate(rules, two, "p1", 180000)
        assert [a.rule_id for a in alerts] == ["low-spo2"]
        assert len(alerts[0].evidence) == 2

    def test_sustained_all_must_satisfy(self):
        xml = """<rules><rule id="low-spo2" severity="ALARM">
            <sustained kind="SPO2" op="lt" value="92" duration_minutes="30"/>
        </rule></rules>"""
        rules = parse_rules(xml)
        history = [
            rec(MeasurementKind.SPO2, 88.0, 1000),
            rec(MeasurementKind.SPO2, 95.0, 120000),
        ]
        assert evaluate(rules, history, "p1", 180000) == []

    def test_verdict_does_not_depend_on_the_order_of_tied_records(self):
        rules = parse_rules(GOLDEN)
        tied = [rec(MeasurementKind.HEART_RATE, 110.0, 1000),
                rec(MeasurementKind.HEART_RATE, 130.0, 1000)]
        forward = evaluate(rules, tied, "p1", 2000)
        assert [a.rule_id for a in forward] == ["hr-high"]
        assert evaluate(rules, tied[::-1], "p1", 2000) == forward

    def test_compound_conditions(self):
        xml = """<rules><rule id="combo" severity="ALARM">
          <and>
            <threshold kind="HEART_RATE" op="gt" value="100"/>
            <not><threshold kind="SPO2" op="ge" value="95"/></not>
          </and>
        </rule></rules>"""
        rules = parse_rules(xml)
        history = [
            rec(MeasurementKind.HEART_RATE, 110.0, 1000),
            rec(MeasurementKind.SPO2, 93.0, 1500),
        ]
        alerts = evaluate(rules, history, "p1", 2000)
        assert [a.rule_id for a in alerts] == ["combo"]
        healthy = [
            rec(MeasurementKind.HEART_RATE, 110.0, 1000),
            rec(MeasurementKind.SPO2, 98.0, 1500),
        ]
        assert evaluate(rules, healthy, "p1", 2000) == []


class TestReport:
    def test_byte_identical_across_runs(self):
        rules = parse_rules(GOLDEN)
        history = [
            rec(MeasurementKind.HEART_RATE, 125.0, 1000),
            rec(MeasurementKind.BODY_TEMPERATURE, 37.0, 1100),
        ]
        a = report_to_json_line(evaluation_report(rules, history, "p1", 2000))
        b = report_to_json_line(evaluation_report(rules, history, "p1", 2000))
        assert a == b
        assert a.startswith('{"patient":"p1","ts":2000,"alerts":')

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_is_refused(self, bad):
        with pytest.raises(ValueError):
            report_to_json_line({"patient": "p1", "prediction_distribution": [bad, 0.0, 0.0]})

    def test_report_lists_skipped_kinds(self):
        rules = parse_rules(GOLDEN)
        history = [rec(MeasurementKind.HEART_RATE, 100.0, 1000)]
        report = evaluation_report(rules, history, "p1", 2000)
        by_rule = {s["rule"]: s["missing_kinds"] for s in report["skipped_rules"]}
        assert by_rule == {
            "weight-gain": ["BODY_WEIGHT"],
            "fever": ["BODY_TEMPERATURE"],
        }


class TestExplain:
    def test_percent_change_trace(self):
        rules = parse_rules(GOLDEN)
        history = [
            rec(MeasurementKind.BODY_WEIGHT, 70.0, 0),
            rec(MeasurementKind.BODY_WEIGHT, 71.5, 20 * HOUR),
        ]
        alerts = evaluate(rules, history, "p1", 20 * HOUR)
        text = explain(alerts[0], rules, history)
        assert "+2.14%" in text
        assert "weight-gain" in text
        assert "70" in text and "71.5" in text

    def test_threshold_trace_shows_observation(self):
        rules = parse_rules(GOLDEN)
        history = [rec(MeasurementKind.HEART_RATE, 125.0, 1000)]
        alerts = evaluate(rules, history, "p1", 2000)
        text = explain(alerts[0], rules, history)
        assert "125" in text
        assert "HEART_RATE" in text

    def test_unknown_rule_is_integrity_error(self):
        rules = parse_rules(GOLDEN)
        history = [rec(MeasurementKind.HEART_RATE, 125.0, 1000)]
        alert = Alert("ghost", "p1", Severity.ALARM, 2000,
                      (history[0],))
        with pytest.raises(IntegrityError):
            explain(alert, rules, history)

    def test_dangling_evidence_is_integrity_error(self):
        rules = parse_rules(GOLDEN)
        history = [rec(MeasurementKind.HEART_RATE, 125.0, 1000)]
        stranger = rec(MeasurementKind.HEART_RATE, 126.0, 1500)
        alert = Alert("hr-high", "p1", Severity.ALARM, 2000, (stranger,))
        with pytest.raises(IntegrityError):
            explain(alert, rules, history)


README_RULES = """\
<rules schema="1">
  <rule id="hr-high" scope="BOTH" severity="ALARM" message="heart rate above 120 bpm">
    <threshold kind="HEART_RATE" op="gt" value="120"/>
  </rule>
  <rule id="weight-gain" scope="CKD" severity="ALARM">
    <percent_change kind="BODY_WEIGHT" op="gt" percent="2" window_hours="24"/>
  </rule>
  <rule id="low-spo2-sustained" severity="LIGHT_ALERT">
    <sustained kind="SPO2" op="lt" value="92" duration_minutes="360"/>
  </rule>
  <rule id="compound" severity="ALARM">
    <and>
      <threshold kind="HEART_RATE" op="gt" value="110"/>
      <not><threshold kind="BODY_TEMPERATURE" op="gt" value="38"/></not>
    </and>
  </rule>
  <rule id="quiet" severity="LIGHT_ALERT" message="no glucose trend">
    <not><or>
      <percent_change kind="GLUCOSE" op="gt" percent="10" window_hours="2"/>
      <sustained kind="GLUCOSE" op="gt" value="180" duration_minutes="30"/>
    </or></not>
  </rule>
</rules>
"""

README_HISTORY = [
    rec(MeasurementKind.HEART_RATE, 118.0, 1 * HOUR),
    rec(MeasurementKind.HEART_RATE, 125.5, 29 * HOUR),
    rec(MeasurementKind.BODY_WEIGHT, 80.0, 0),
    rec(MeasurementKind.BODY_WEIGHT, 70.0, 10 * HOUR),
    rec(MeasurementKind.BODY_WEIGHT, 71.5, 20 * HOUR),
    rec(MeasurementKind.SPO2, 95.0, 22 * HOUR),
    rec(MeasurementKind.SPO2, 91.0, 25 * HOUR),
    rec(MeasurementKind.SPO2, 90.0, 27 * HOUR),
    rec(MeasurementKind.SPO2, 89.5, 29 * HOUR),
    rec(MeasurementKind.BODY_TEMPERATURE, 37.2, 28 * HOUR),
    rec(MeasurementKind.GLUCOSE, 0.0, 29 * HOUR),
    rec(MeasurementKind.GLUCOSE, 190.0, 30 * HOUR),
]

# Exact explain() text for each README rule on README_HISTORY at 30 h;
# "quiet" adds the any-of and no-usable-reference forms.
PINNED_EXPLAIN = {
    "hr-high": """\
rule hr-high (ALARM): heart rate above 120 bpm
fired at 108000000 for patient p1
condition:
  threshold: HEART_RATE > 120, observed 125.5 at 104400000
evidence:
  HEART_RATE = 125.5 at 104400000 (NOSILENT)""",
    "weight-gain": """\
rule weight-gain (ALARM): <no message>
fired at 108000000 for patient p1
condition:
  percent_change: BODY_WEIGHT > 2% over 24h, computed +2.14% (70 -> 71.5)
evidence:
  BODY_WEIGHT = 70 at 36000000 (NOSILENT)
  BODY_WEIGHT = 71.5 at 72000000 (NOSILENT)""",
    "low-spo2-sustained": """\
rule low-spo2-sustained (LIGHT_ALERT): <no message>
fired at 108000000 for patient p1
condition:
  sustained: SPO2 < 92 for 360 min, 3 observations
evidence:
  SPO2 = 91 at 90000000 (NOSILENT)
  SPO2 = 90 at 97200000 (NOSILENT)
  SPO2 = 89.5 at 104400000 (NOSILENT)""",
    "compound": """\
rule compound (ALARM): <no message>
fired at 108000000 for patient p1
condition:
  all of:
    threshold: HEART_RATE > 110, observed 125.5 at 104400000
    not:
      threshold: BODY_TEMPERATURE > 38, observed 37.2 at 100800000
evidence:
  HEART_RATE = 125.5 at 104400000 (NOSILENT)
  BODY_TEMPERATURE = 37.2 at 100800000 (NOSILENT)""",
    "quiet": """\
rule quiet (LIGHT_ALERT): no glucose trend
fired at 108000000 for patient p1
condition:
  not:
    any of:
      percent_change: GLUCOSE, no usable reference in window
      sustained: GLUCOSE > 180 for 30 min, 1 observations
evidence:
  GLUCOSE = 0 at 104400000 (NOSILENT)
  GLUCOSE = 190 at 108000000 (NOSILENT)""",
}


class TestExplainPinned:
    def test_readme_rules_explain_text(self):
        rules = parse_rules(README_RULES)
        alerts = evaluate(rules, README_HISTORY, "p1", 30 * HOUR)
        assert sorted(a.rule_id for a in alerts) == sorted(PINNED_EXPLAIN)
        for alert in alerts:
            assert explain(alert, rules, README_HISTORY) == PINNED_EXPLAIN[alert.rule_id]


OP_FUNCS = {"lt": operator.lt, "le": operator.le, "gt": operator.gt,
            "ge": operator.ge, "eq": operator.eq}
PROP_KINDS = (MeasurementKind.HEART_RATE, MeasurementKind.BODY_WEIGHT)
MINUTE = 60000

# Integer values and thresholds keep every number explain prints with %g
# exact, so a printed value can be compared as the verdict compared it.
_kind = st.sampled_from(PROP_KINDS).map(lambda k: k.value)
_op = st.sampled_from(sorted(OP_FUNCS))
_num = st.integers(0, 200).map(str)
_leaf = st.one_of(
    st.builds(lambda k, op, v: ("threshold", {"kind": k, "op": op, "value": v}),
              _kind, _op, _num),
    st.builds(lambda k, op, p, w: ("percent_change", {
        "kind": k, "op": op, "percent": p, "window_hours": w}),
        _kind, _op, st.integers(-100, 100).map(str), st.integers(1, 8).map(str)),
    st.builds(lambda k, op, v, d: ("sustained", {
        "kind": k, "op": op, "value": v, "duration_minutes": d}),
        _kind, _op, _num, st.integers(1, 480).map(str)),
)
_tree = st.recursive(_leaf, lambda sub: st.one_of(
    st.builds(lambda cs: ("and", cs), st.lists(sub, min_size=2, max_size=3)),
    st.builds(lambda cs: ("or", cs), st.lists(sub, min_size=2, max_size=3)),
    st.builds(lambda c: ("not", [c]), sub),
), max_leaves=6)
_record = st.builds(
    lambda patient, kind, value, minute: rec(kind, float(value), minute * MINUTE, patient),
    st.sampled_from(["p1", "p1", "p1", "p2"]), st.sampled_from(PROP_KINDS),
    st.integers(0, 200), st.integers(0, 480))
# usually one record of each kind at t=0, so that most draws fire a rule
_base = st.lists(st.integers(0, 200), min_size=2, max_size=2).map(
    lambda vs: [rec(k, float(v), 0) for k, v in zip(PROP_KINDS, vs)])
_history = st.builds(lambda base, keep, rest: (base if keep else []) + rest,
                     _base, st.sampled_from([True, True, True, False]),
                     st.lists(_record, max_size=16))


def tree_xml(node):
    tag, body = node
    if tag in ("and", "or", "not"):
        return "<%s>%s</%s>" % (tag, "".join(tree_xml(c) for c in body), tag)
    return "<%s %s/>" % (tag, " ".join('%s="%s"' % kv for kv in sorted(body.items())))


def tree_leaves(node):
    tag, body = node
    if tag in ("and", "or", "not"):
        return [leaf for c in body for leaf in tree_leaves(c)]
    return [node]


def rules_xml(*conditions):
    return "<rules>%s</rules>" % "".join(
        '<rule id="%s" severity="ALARM">%s</rule>' % (rid, cond) for rid, cond in conditions)


def leaf_verdict(leaf, history, now_ms):
    rules = parse_rules(rules_xml(("leaf", tree_xml(leaf))))
    return bool(evaluate(rules, history, "p1", now_ms))


class TestExplainProperty:
    @settings(max_examples=300, deadline=None)
    @given(tree=_tree, history=_history, now_minute=st.integers(0, 480))
    def test_explain_values_reproduce_leaf_verdicts(self, tree, history, now_minute):
        now_ms = now_minute * MINUTE
        cond = tree_xml(tree)
        rules = parse_rules(rules_xml(("r", cond), ("not-r", "<not>%s</not>" % cond)))
        alerts = evaluate(rules, history, "p1", now_ms)
        report = evaluation_report(rules, history, "p1", now_ms)
        assert [a["rule"] for a in report["alerts"]] == [a.rule_id for a in alerts]
        if report["skipped_rules"]:
            assert alerts == []
            return
        # exactly one of a condition and its negation holds
        (alert,) = alerts
        lines = explain(alert, rules, history).split("\n")
        body = lines[lines.index("condition:") + 1:lines.index("evidence:")]
        leaf_lines = [l.strip() for l in body
                      if l.strip().split(":")[0] in ("threshold", "percent_change", "sustained")]
        visible = sorted((r for r in history if r.patient_id == "p1" and r.timestamp_ms <= now_ms),
                         key=lambda r: (r.timestamp_ms, r.kind.value))
        assert len(leaf_lines) == len(tree_leaves(tree))
        for (tag, attrs), line in zip(tree_leaves(tree), leaf_lines):
            assert line.startswith(tag + ": " + attrs["kind"])
            verdict = leaf_verdict((tag, attrs), history, now_ms)
            test = OP_FUNCS[attrs["op"]]
            if tag == "threshold":
                observed = float(re.search(r"observed (\S+) at", line).group(1))
                assert test(observed, float(attrs["value"])) == verdict
            elif tag == "percent_change":
                if line.endswith("no usable reference in window"):
                    assert not verdict
                    continue
                m = re.search(r"computed (\S+)% \((\S+) -> (\S+)\)$", line)
                ref, latest = float(m.group(2)), float(m.group(3))
                change = (latest - ref) / ref * 100.0
                assert m.group(1) == "%+.2f" % change
                assert test(change, float(attrs["percent"])) == verdict
            else:
                n = int(re.search(r"(\d+) observations$", line).group(1))
                of_kind = [r for r in visible if r.kind.value == attrs["kind"]]
                horizon = now_ms - float(attrs["duration_minutes"]) * MINUTE
                window = of_kind[len(of_kind) - n:]
                assert all(r.timestamp_ms >= horizon for r in window)
                assert n == len(of_kind) or of_kind[-n - 1].timestamp_ms < horizon
                value = float(attrs["value"])
                assert verdict == (n >= 2 and all(test(r.value, value) for r in window))


# records of two patients that tie often on time, kind, name and value;
# unique by key, as a store holds them
_view_records = st.lists(st.builds(
    MeasurementRecord, st.sampled_from(["p1", "p1", "p2"]), st.sampled_from(MeasurementKind),
    st.integers(0, 3).map(float), st.integers(0, 5), st.sampled_from(AcquisitionMode),
    st.sampled_from(["", "", "a", "b"])), max_size=30, unique_by=lambda r: r.key())


class TestHistoryView:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data(), _view_records, st.integers(-1, 6))
    def test_matches_a_brute_force_filter_and_sort(self, data, history, now_ms):
        shuffled = data.draw(st.permutations(history))
        visible = [r for r in history if r.patient_id == "p1" and r.timestamp_ms <= now_ms]
        ordered = sorted(visible, key=history_key)
        want_by_kind = {}
        for r in ordered:
            want_by_kind[r.kind] = [o for o in ordered if o.kind is r.kind]
        want_by_name = {r.name: max((o for o in visible if o.name == r.name), key=history_key)
                        for r in visible if r.name}
        for given_history in (history, shuffled):
            by_kind, by_name = history_view(given_history, "p1", now_ms)
            assert list(by_kind.items()) == list(want_by_kind.items())
            assert by_name == want_by_name


class TestRecordValidation:
    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            MeasurementRecord("p1", MeasurementKind.SPO2, float("nan"), 0)

    @pytest.mark.parametrize("field, bad", [
        ("timestamp_ms", 1000.5), ("timestamp_ms", 1000.0), ("timestamp_ms", True),
        ("timestamp_ms", "1000"), ("value", True), ("value", "61"), ("value", None),
        ("value", float("inf")), ("value", 10**400), ("value", -10**400),
        ("kind", "SPO2"), ("mode", "SILENT"), ("name", 5), ("name", "a\x00"),
        ("name", "\ud800"), ("name", "a\ufffeb"),
    ])
    def test_field_of_another_type_is_a_value_error(self, field, bad):
        fields = {"patient_id": "p1", "kind": MeasurementKind.SPO2, "value": 97.0,
                  "timestamp_ms": 0, "mode": AcquisitionMode.NOSILENT, "name": ""}
        fields[field] = bad
        with pytest.raises(ValueError):
            MeasurementRecord(**fields)

    def test_int_value_kept_as_float(self):
        r = rec(MeasurementKind.SPO2, 97, 0)
        assert type(r.value) is float and r.value == 97.0

    def test_mode_default(self):
        r = rec(MeasurementKind.SPO2, 97.0, 0)
        assert r.mode is AcquisitionMode.NOSILENT
