"""Append-only, file-backed measurement store.

One newline-delimited JSON file per patient under the store root, plus a
sidecar `<patient>.cursor` holding the patient's transmission state:
`{"sent": <records transmitted>, "last_scheduled_ms": <int or null>}`.
A patient's log and sidecar are read the first time that patient is asked
for, so a store shared by many patients costs each run only its own
patient's files. Crash tolerance comes from the format: a torn final line
is dropped on reload and cut off before the next append, and the sidecar
is replaced atomically. Duplicate records (same patient, kind, timestamp,
value, name) are ignored on ingest, so re-running an ingest batch is a
no-op.
"""

import json
import os
import re
from dataclasses import dataclass, field

from .errors import IntegrityError
from .rules import AcquisitionMode, MeasurementKind, MeasurementRecord

__all__ = ["MeasurementStore", "IngestResult", "write_atomic"]

_PATIENT_RE = re.compile(r"^[A-Za-z0-9_-]+$")
# characters outside the XML 1.0 Char production; a name holding one would
# make the outbound message unparseable
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


@dataclass
class IngestResult:
    appended: int = 0
    rejections: list = field(default_factory=list)  # (input item as given, reason)


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


_KIND_BY_VALUE = {k.value: k for k in MeasurementKind}
_MODE_BY_VALUE = {m.value: m for m in AcquisitionMode}
_decode = json.JSONDecoder().raw_decode


def _record_from_line(line, patient_id):
    """The record one line (str, or bytes in a log that does not decode as
    UTF-8) of patient_id's log holds. Parses as json.loads would, without
    its per-call wrapper. A line must hold the fields _record_to_line
    writes, with their types: an unknown kind or mode is a KeyError, and
    another patient, a non-int ts, a non-number or bool value or a non-str
    name is a ValueError."""
    if isinstance(line, bytes):
        line = line.decode(json.detect_encoding(line), "surrogatepass")
    line = line.strip(" \t\n\r")
    doc, end = _decode(line)
    if end != len(line):
        raise ValueError("extra data after the record")
    value, ts, name = doc["value"], doc["ts"], doc.get("name", "")
    if (doc["patient"] != patient_id or type(ts) is not int
            or type(value) not in (float, int) or type(name) is not str):
        raise ValueError("record field of the wrong type or patient")
    return MeasurementRecord(patient_id, _KIND_BY_VALUE[doc["kind"]], value, ts,
                             _MODE_BY_VALUE[doc.get("mode", "NOSILENT")], name)


def write_atomic(path, text):
    """Replaces path with text so that a crash leaves either the old file
    or the whole new one: write a temp file, fsync it, then os.replace.
    A failed write removes the temp file."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


class MeasurementStore:
    def __init__(self, root_dir):
        self.root = root_dir
        os.makedirs(root_dir, exist_ok=True)
        self._log = {}      # patient -> list of records in append order, once loaded
        self._keys = {}     # patient -> set of record keys
        self._repair = {}   # patient -> (byte offset, prefix) to fix a torn tail on append
        self._cursors = {}  # patient -> (sent, last_scheduled_ms), once loaded

    def _path(self, patient_id):
        if not _PATIENT_RE.match(patient_id):
            raise ValueError("patient id %r is not filesystem-safe" % patient_id)
        return os.path.join(self.root, patient_id + ".jsonl")

    def _cursor_path(self, patient_id):
        return os.path.join(self.root, patient_id + ".cursor")

    def _patient_log(self, patient_id):
        if patient_id not in self._log:
            self._load_patient(patient_id)
        return self._log[patient_id]

    def _load_patient(self, patient_id):
        path = self._path(patient_id)
        records = []
        keys = set()
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        try:
            lines = data.decode("utf-8").split("\n")
        except UnicodeDecodeError:
            lines = data.split(b"\n")  # the loop below finds the bad line
        terminated = not lines[-1]
        if terminated:
            lines.pop()
        # only an unterminated final line can be a torn append (crash
        # mid-write): it is dropped and cut off before the next append. Any
        # other line that does not parse is a real integrity problem
        for i, line in enumerate(lines):
            try:
                rec = _record_from_line(line, patient_id)
            except (KeyError, TypeError, ValueError, OverflowError):
                if terminated or i < len(lines) - 1:
                    raise IntegrityError(
                        "corrupt record at %s line %d" % (path, i + 1)) from None
                self._repair[patient_id] = (data.rfind(b"\n") + 1, "")
                break
            records.append(rec)
            keys.add(rec.key())
        else:
            if not terminated:
                self._repair[patient_id] = (len(data), "\n")
        self._log[patient_id] = records
        self._keys[patient_id] = keys

    def patients(self):
        on_disk = {f[:-len(".jsonl")] for f in os.listdir(self.root) if f.endswith(".jsonl")}
        return sorted(on_disk.union(p for p, log in self._log.items() if log))

    def ingest(self, records):
        """Appends new records; duplicates are dropped, bad records are
        rejected with a reason and the batch continues. Each patient's new
        records are written with one append."""
        result = IngestResult()
        fresh = {}  # patient -> {key: record} new in this batch, in batch order
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
                result.rejections.append((raw, str(exc)))
                continue
            if rec.patient_id not in fresh:
                self._patient_log(rec.patient_id)
                fresh[rec.patient_id] = {}
            key = rec.key()
            if key not in self._keys[rec.patient_id]:
                fresh[rec.patient_id].setdefault(key, rec)
        for patient_id, new in fresh.items():
            if new:
                self._append(patient_id, new.values())
                self._log[patient_id].extend(new.values())
                self._keys[patient_id].update(new)
                result.appended += len(new)
        return result

    def _append(self, patient_id, new):
        path = self._path(patient_id)
        offset, text = self._repair.pop(patient_id, (None, ""))
        text += "".join(_record_to_line(rec) + "\n" for rec in new)
        try:
            if offset is not None:
                os.truncate(path, offset)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(text)
        except BaseException:
            # the file may hold part of the batch; reload it on next use so
            # memory holds exactly what is on disk
            del self._log[patient_id], self._keys[patient_id]
            raise

    def records(self, patient_id, kind=None, since_ms=None, until_ms=None):
        """Time-ordered view for rule evaluation."""
        out = self._patient_log(patient_id)
        if kind is not None:
            out = [r for r in out if r.kind is kind]
        if since_ms is not None:
            out = [r for r in out if r.timestamp_ms >= since_ms]
        if until_ms is not None:
            out = [r for r in out if r.timestamp_ms <= until_ms]
        return sorted(out, key=lambda r: (r.timestamp_ms, r.kind._value_, r.name, r.value))

    def log_records(self, patient_id):
        """Append-order view; the transmission cursor indexes this."""
        return list(self._patient_log(patient_id))

    def _transmission(self, patient_id):
        if patient_id not in self._cursors:
            path = self._cursor_path(patient_id)
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
                # a cursor from before last_scheduled_ms existed reads null
                sent, last = doc["sent"], doc.get("last_scheduled_ms")
            except FileNotFoundError:
                sent, last = 0, None
            except (KeyError, TypeError, ValueError):
                sent = last = None
            # mark_transmitted writes ints, sent within the log; bool is an int subclass
            if (type(sent) is not int or not 0 <= sent <= len(self._patient_log(patient_id))
                    or type(last) not in (int, type(None))):
                raise IntegrityError("corrupt cursor file %s" % path)
            self._cursors[patient_id] = (sent, last)
        return self._cursors[patient_id]

    def cursor(self, patient_id):
        """Number of log records already transmitted."""
        return self._transmission(patient_id)[0]

    def last_scheduled_send(self, patient_id):
        """Time of the last SCHEDULED transmission in ms, or None."""
        return self._transmission(patient_id)[1]

    def untransmitted(self, patient_id):
        return self._patient_log(patient_id)[self.cursor(patient_id):]

    def mark_transmitted(self, patient_id, count, scheduled_at_ms=None):
        """Advances the cursor by count records and, for a scheduled send,
        records its time; both reach disk in one atomic replace."""
        cur, last = self._transmission(patient_id)
        total = len(self._patient_log(patient_id))
        if count < 0 or cur + count > total:
            raise ValueError("cannot mark %d records from cursor %d of %d" % (count, cur, total))
        if scheduled_at_ms is not None:
            last = int(scheduled_at_ms)
        write_atomic(self._cursor_path(patient_id),
                     json.dumps({"sent": cur + count, "last_scheduled_ms": last}))
        self._cursors[patient_id] = (cur + count, last)
