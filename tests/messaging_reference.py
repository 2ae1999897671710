"""The outbound record element writer, the store's log line writer and
parser, and its ingest dedupe as they were before they stopped paying
per-record Enum, quoteattr and json.dumps calls and a key per stored record.
Kept verbatim as the test oracle: the shipped `_record_xml` and
`_record_to_line` must write the same bytes, the shipped store must load
the same records from a log, or reject it at the same line with the same
error, and its ingest must keep and refuse what `ingest_with_key_set`
does. `load_log` takes the record builder as a parameter, so a test can
require the field types the store now checks on top of it.
"""

import json
import re
from xml.sax.saxutils import quoteattr

from edgevitals.errors import IntegrityError
from edgevitals.rules import AcquisitionMode, MeasurementKind, MeasurementRecord


def _fmt_value(v):
    return repr(float(v))


def record_xml(tag, rec):
    parts = ["<%s kind=%s value=%s ts=\"%d\" mode=%s" % (
        tag, quoteattr(rec.kind.value), quoteattr(_fmt_value(rec.value)),
        rec.timestamp_ms, quoteattr(rec.mode.value))]
    if rec.name:
        parts.append(" name=%s" % quoteattr(rec.name))
    parts.append("/>")
    return "".join(parts)


def _record_from_doc(doc):
    return MeasurementRecord(
        patient_id=doc["patient"],
        kind=MeasurementKind(doc["kind"]),
        value=doc["value"],
        timestamp_ms=int(doc["ts"]),
        mode=AcquisitionMode(doc.get("mode", "NOSILENT")),
        name=doc.get("name", ""),
    )


def load_log(data, path, from_doc=_record_from_doc):
    """The records a patient log's bytes hold, as the store loaded them:
    a torn (unterminated, unparseable) final line is dropped, any other
    line that does not parse is an IntegrityError naming path and line."""
    records = []
    keys = set()
    try:
        lines = data.decode("utf-8").split("\n")
    except UnicodeDecodeError:
        lines = data.split(b"\n")  # json.loads below finds the bad line
    terminated = not lines[-1]
    if terminated:
        lines.pop()
    for i, line in enumerate(lines):
        try:
            rec = from_doc(json.loads(line))
        except (KeyError, TypeError, ValueError):
            if terminated or i < len(lines) - 1:
                raise IntegrityError(
                    "corrupt record at %s line %d" % (path, i + 1)) from None
            break
        records.append(rec)
        keys.add(rec.key())
    return records


def record_line(rec):
    doc = {
        "patient": rec.patient_id,
        "kind": rec.kind.value,
        "value": rec.value,
        "ts": rec.timestamp_ms,
        "mode": rec.mode.value,
    }
    if rec.name:
        doc["name"] = rec.name
    return json.dumps(doc, separators=(",", ":"), sort_keys=False)


def ingest_with_key_set(logs, records):
    """What ingest appends and refuses, given the stored logs (patient ->
    list of records) and a batch: every stored record's key is held in a
    set per patient, and a batch record whose key is in it is dropped.
    Returns (appended, rejections, the logs after the batch)."""
    logs = {p: list(log) for p, log in logs.items()}
    keys = {p: {rec.key() for rec in log} for p, log in logs.items()}
    appended, rejections = 0, []
    for raw in records:
        try:
            rec = raw if isinstance(raw, MeasurementRecord) else MeasurementRecord(
                raw["patient_id"], MeasurementKind(raw["kind"]), raw["value"],
                raw["timestamp_ms"], AcquisitionMode(raw.get("mode", "NOSILENT")),
                raw.get("name", ""))
        except (ValueError, KeyError, TypeError) as exc:
            rejections.append((raw, str(exc)))
            continue
        if not re.fullmatch(r"[A-Za-z0-9_-]+", rec.patient_id):
            rejections.append((raw, "patient id %r is not filesystem-safe" % rec.patient_id))
            continue
        seen = keys.setdefault(rec.patient_id, set())
        if rec.key() not in seen:
            seen.add(rec.key())
            logs.setdefault(rec.patient_id, []).append(rec)
            appended += 1
    return appended, rejections, logs
