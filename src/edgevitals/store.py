"""Append-only, file-backed measurement store.

One newline-delimited JSON file per patient under the store root, plus a
tiny cursor sidecar tracking how many log records have been transmitted.
Crash tolerance comes from the format: a torn final line is dropped on
reload. Duplicate records (same patient, kind, timestamp, value, name) are
ignored on ingest, so re-running an ingest batch is a no-op.
"""

import json
import os
import re
from dataclasses import dataclass, field

from .errors import IntegrityError
from .rules import AcquisitionMode, MeasurementKind, MeasurementRecord

__all__ = ["MeasurementStore", "IngestResult"]

_PATIENT_RE = re.compile(r"^[A-Za-z0-9_-]+$")
# characters outside the XML 1.0 Char production; a name holding one would
# make the outbound message unparseable
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


@dataclass
class IngestResult:
    appended: int = 0
    rejections: list = field(default_factory=list)  # (record_repr, reason)


def _record_to_line(rec):
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


def _record_from_doc(doc):
    return MeasurementRecord(
        patient_id=doc["patient"],
        kind=MeasurementKind(doc["kind"]),
        value=doc["value"],
        timestamp_ms=int(doc["ts"]),
        mode=AcquisitionMode(doc.get("mode", "NOSILENT")),
        name=doc.get("name", ""),
    )


class MeasurementStore:
    def __init__(self, root_dir):
        self.root = root_dir
        os.makedirs(root_dir, exist_ok=True)
        self._log = {}   # patient -> list of records in append order
        self._keys = {}  # patient -> set of record keys
        for fname in sorted(os.listdir(root_dir)):
            if fname.endswith(".jsonl"):
                self._load_patient(fname[:-len(".jsonl")])

    def _path(self, patient_id):
        if not _PATIENT_RE.match(patient_id):
            raise ValueError("patient id %r is not filesystem-safe" % patient_id)
        return os.path.join(self.root, patient_id + ".jsonl")

    def _cursor_path(self, patient_id):
        return os.path.join(self.root, patient_id + ".cursor")

    def _load_patient(self, patient_id):
        path = self._path(patient_id)
        records = []
        keys = set()
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
        # a torn final line (crash mid-append) is silently dropped;
        # corruption earlier in the file is a real integrity problem
        if lines and lines[-1] == "":
            lines.pop()
        for i, line in enumerate(lines):
            try:
                rec = _record_from_doc(json.loads(line))
            except (json.JSONDecodeError, KeyError, ValueError):
                if i == len(lines) - 1:
                    break
                raise IntegrityError(
                    "corrupt record at %s line %d" % (path, i + 1)) from None
            records.append(rec)
            keys.add(rec.key())
        self._log[patient_id] = records
        self._keys[patient_id] = keys

    def patients(self):
        return sorted(self._log)

    def ingest(self, records):
        """Appends new records; duplicates are dropped, bad records are
        rejected with a reason and the batch continues."""
        result = IngestResult()
        for raw in records:
            try:
                rec = raw if isinstance(raw, MeasurementRecord) else MeasurementRecord(
                    patient_id=raw["patient_id"],
                    kind=raw["kind"] if isinstance(raw["kind"], MeasurementKind)
                    else MeasurementKind(raw["kind"]),
                    value=raw["value"],
                    timestamp_ms=int(raw["timestamp_ms"]),
                    mode=raw.get("mode", AcquisitionMode.NOSILENT)
                    if not isinstance(raw.get("mode"), str)
                    else AcquisitionMode(raw["mode"]),
                    name=raw.get("name", ""),
                )
                if _NOT_XML_CHAR.search(rec.name):
                    raise ValueError("name %r holds a character XML 1.0 cannot carry" % rec.name)
            except (ValueError, KeyError, TypeError) as exc:
                result.rejections.append((repr(raw), str(exc)))
                continue
            log = self._log.setdefault(rec.patient_id, [])
            keys = self._keys.setdefault(rec.patient_id, set())
            if rec.key() in keys:
                continue
            with open(self._path(rec.patient_id), "a", encoding="utf-8") as fh:
                fh.write(_record_to_line(rec) + "\n")
            log.append(rec)
            keys.add(rec.key())
            result.appended += 1
        return result

    def records(self, patient_id, kind=None, since_ms=None, until_ms=None):
        """Time-ordered view for rule evaluation."""
        out = self._log.get(patient_id, [])
        if kind is not None:
            out = [r for r in out if r.kind is kind]
        if since_ms is not None:
            out = [r for r in out if r.timestamp_ms >= since_ms]
        if until_ms is not None:
            out = [r for r in out if r.timestamp_ms <= until_ms]
        return sorted(out, key=lambda r: (r.timestamp_ms, r.kind.value, r.name, r.value))

    def log_records(self, patient_id):
        """Append-order view; the transmission cursor indexes this."""
        return list(self._log.get(patient_id, []))

    def cursor(self, patient_id):
        path = self._cursor_path(patient_id)
        if not os.path.exists(path):
            return 0
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return int(json.load(fh)["sent"])
            except (json.JSONDecodeError, KeyError, ValueError):
                raise IntegrityError("corrupt cursor file %s" % path) from None

    def untransmitted(self, patient_id):
        return self._log.get(patient_id, [])[self.cursor(patient_id):]

    def mark_transmitted(self, patient_id, count):
        cur = self.cursor(patient_id)
        total = len(self._log.get(patient_id, []))
        if count < 0 or cur + count > total:
            raise ValueError("cannot mark %d records from cursor %d of %d" % (count, cur, total))
        with open(self._cursor_path(patient_id), "w", encoding="utf-8") as fh:
            json.dump({"sent": cur + count}, fh)
