"""The outbound record element writer and the store's log line parser as
they were before they stopped paying per-record Enum and quoteattr calls.
Kept verbatim as the test oracle: the shipped `_record_xml` must write the
same bytes, and the shipped store must load the same records from a log,
or reject it at the same line with the same error. `load_log` takes the
record builder as a parameter, so a test can require the field types the
store now checks on top of it.
"""

import json
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
