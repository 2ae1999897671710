"""Transmission policy and canonical outbound XML.

Wire format (schema "1"): a single-line UTF-8 document, fixed element and
attribute order, no insignificant whitespace, so identical inputs yield
byte-identical messages:

    <?xml version="1.0" encoding="UTF-8"?>
    <chronious-msg schema="1" patient=".." urgency=".." created="ISO8601">
      <alerts><alert rule=".." severity=".." fired-at="..">
        <evidence kind=".." value=".." ts=".." mode=".."/></alert></alerts>
      <features><feature name=".." value=".."/></features>
      <measurements><measurement kind=".." value=".." ts=".." mode=".."/></measurements>
    </chronious-msg>
"""

import datetime
import enum
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from xml.sax.saxutils import escape, quoteattr

from .errors import IntegrityError, SchemaMismatchError
from .rules import AcquisitionMode, Alert, MeasurementKind, MeasurementRecord, Severity

__all__ = [
    "Urgency",
    "TransmissionDecision",
    "DailySchedule",
    "OutboundMessage",
    "decide_transmission",
    "build_message_xml",
    "parse_message_xml",
]

_DAY_MS = 86400000


class Urgency(enum.Enum):
    IMMEDIATE = "IMMEDIATE"
    SCHEDULED = "SCHEDULED"


class TransmissionDecision(enum.Enum):
    IMMEDIATE = "IMMEDIATE"
    SCHEDULED = "SCHEDULED"
    HOLD = "HOLD"


@dataclass(frozen=True)
class DailySchedule:
    """One scheduled send per day at send_time (UTC, "HH:MM")."""
    send_time: str = "20:00"

    def offset_ms(self):
        try:
            hh, mm = self.send_time.split(":")
            hh, mm = int(hh), int(mm)
        except ValueError:
            raise ValueError("send_time must be HH:MM, got %r" % self.send_time) from None
        if not (0 <= hh < 24 and 0 <= mm < 60):
            raise ValueError("send_time out of range: %r" % self.send_time)
        return (hh * 60 + mm) * 60000


@dataclass(frozen=True)
class OutboundMessage:
    patient_id: str
    created_at_ms: int
    urgency: Urgency
    alerts: tuple
    features: tuple      # (name, value) pairs; the latest feature snapshot
    measurements: tuple  # records not yet covered by an earlier message


def decide_transmission(alerts, schedule, now_ms, last_scheduled_send_ms=None):
    """IMMEDIATE on any ALARM; SCHEDULED when a daily slot has passed since
    the last scheduled send; HOLD otherwise. Light alerts ride the next
    scheduled send."""
    if any(a.severity is Severity.ALARM for a in alerts):
        return TransmissionDecision.IMMEDIATE
    offset = schedule.offset_ms()
    latest_slot = ((now_ms - offset) // _DAY_MS) * _DAY_MS + offset
    if latest_slot > now_ms:
        latest_slot -= _DAY_MS
    last = -float("inf") if last_scheduled_send_ms is None else last_scheduled_send_ms
    if latest_slot > last:
        return TransmissionDecision.SCHEDULED
    return TransmissionDecision.HOLD


def _iso8601(ms):
    dt = datetime.datetime.fromtimestamp(ms / 1000.0, tz=datetime.timezone.utc)
    return "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ" % (
        dt.year, dt.month, dt.day, dt.hour, dt.minute, dt.second, ms % 1000)


def _parse_iso8601(text):
    dt = datetime.datetime.strptime(text, "%Y-%m-%dT%H:%M:%S.%fZ")
    dt = dt.replace(tzinfo=datetime.timezone.utc)
    return round(dt.timestamp() * 1000)


def _fmt_value(v):
    return repr(float(v))


# kind and mode quoted once per member, keyed by value (see
# MeasurementRecord.key for why not by member)
_QUOTED = {e.value: quoteattr(e.value) for e in (*MeasurementKind, *AcquisitionMode)}


def _record_xml(tag, rec):
    # a record's value is a finite float, whose repr holds no character
    # quoteattr would escape; name is free text and goes through quoteattr
    name = " name=" + quoteattr(rec.name) if rec.name else ""
    return '<%s kind=%s value="%r" ts="%d" mode=%s%s/>' % (
        tag, _QUOTED[rec.kind._value_], rec.value, rec.timestamp_ms,
        _QUOTED[rec.mode._value_], name)


def build_message_xml(message):
    has_alarm = any(a.severity is Severity.ALARM for a in message.alerts)
    if (message.urgency is Urgency.IMMEDIATE) != has_alarm:
        raise IntegrityError("urgency %s does not match alarm presence" %
                             message.urgency.value)
    out = ['<?xml version="1.0" encoding="UTF-8"?>\n']
    out.append("<chronious-msg schema=\"1\" patient=%s urgency=%s created=%s>" % (
        quoteattr(message.patient_id), quoteattr(message.urgency.value),
        quoteattr(_iso8601(message.created_at_ms))))
    if message.alerts:
        out.append("<alerts>")
        for alert in message.alerts:
            out.append("<alert rule=%s severity=%s fired-at=\"%d\">" % (
                quoteattr(alert.rule_id), quoteattr(alert.severity.value),
                alert.fired_at_ms))
            for rec in alert.evidence:
                out.append(_record_xml("evidence", rec))
            out.append("</alert>")
        out.append("</alerts>")
    else:
        out.append("<alerts/>")
    if message.features:
        out.append("<features>")
        for name, value in message.features:
            if isinstance(value, str):
                out.append("<feature name=%s code=%s/>" % (quoteattr(name), quoteattr(value)))
            else:
                out.append("<feature name=%s value=%s/>" % (
                    quoteattr(name), quoteattr(_fmt_value(value))))
        out.append("</features>")
    else:
        out.append("<features/>")
    if message.measurements:
        out.append("<measurements>")
        for rec in message.measurements:
            out.append(_record_xml("measurement", rec))
        out.append("</measurements>")
    else:
        out.append("<measurements/>")
    out.append("</chronious-msg>")
    return "".join(out)


def _record_from_elem(elem, patient_id):
    return MeasurementRecord(
        patient_id=patient_id,
        kind=MeasurementKind(elem.attrib["kind"]),
        value=float(elem.attrib["value"]),
        timestamp_ms=int(elem.attrib["ts"]),
        mode=AcquisitionMode(elem.attrib["mode"]),
        name=elem.attrib.get("name", ""),
    )


def parse_message_xml(text):
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise SchemaMismatchError("not well-formed XML: %s" % exc) from None
    if root.tag != "chronious-msg" or root.attrib.get("schema") != "1":
        raise SchemaMismatchError("unknown message schema")
    patient = root.attrib["patient"]
    urgency = Urgency(root.attrib["urgency"])
    created = _parse_iso8601(root.attrib["created"])
    alerts = []
    features = []
    measurements = []
    for section in root:
        if section.tag == "alerts":
            for a in section:
                evidence = tuple(_record_from_elem(e, patient) for e in a)
                alerts.append(Alert(
                    rule_id=a.attrib["rule"],
                    patient_id=patient,
                    severity=Severity(a.attrib["severity"]),
                    fired_at_ms=int(a.attrib["fired-at"]),
                    evidence=evidence,
                ))
        elif section.tag == "features":
            for f in section:
                if "code" in f.attrib:
                    features.append((f.attrib["name"], f.attrib["code"]))
                else:
                    features.append((f.attrib["name"], float(f.attrib["value"])))
        elif section.tag == "measurements":
            for m in section:
                measurements.append(_record_from_elem(m, patient))
        else:
            raise SchemaMismatchError("unknown section <%s>" % section.tag)
    return OutboundMessage(
        patient_id=patient,
        created_at_ms=created,
        urgency=urgency,
        alerts=tuple(alerts),
        features=tuple(features),
        measurements=tuple(measurements),
    )
