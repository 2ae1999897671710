"""Per-patient batch pipeline: signals -> features -> rules -> message.

Steps (each optional input skips its branch):
  1. Measurements CSV read (weight, temperature, questionnaire scores...);
     a row that does not parse fails the run before any signal work.
  2. ECG: the CSV is parsed in a forked child process while this one
     imports numpy and scipy; the child sends the samples back and exits.
     Then baseline removal, one wavelet denoise whose output feeds both
     Pan-Tompkins and the spike annotator, QRS with the configured
     detector plus a cross-check against the other one, RR series, HRV
     features, trailing-60 s mean heart rate, stored as a HEART_RATE
     measurement so rules can see it.
  3. Respiration: windowed dominant-frequency rate (stored as a
     RESPIRATION_RATE measurement) and breath-volume features.
     Steps 2 and 3 live in `signal_features`, imported only for a patient
     with a recording, so a measurement-only run loads no numpy.
  4. One store ingest of the CSV rows and the derived rates; rows the
     store rejects are listed in the report by line and reason.
  5. Rule evaluation at --now over the patient's history.
  6. Stress/lifestyle weighted indices from questionnaire/diary scores in
     [0, 1]; a triggered index contributes a LIGHT_ALERT.
  7. Optional classifier prediction from the assembled feature vector.
  8. Transmission decision and canonical outbound XML.

Artifacts land in <out_dir>/<patient>/: report.jsonl, features.csv,
beats.csv (when ECG ran), message.xml (when not held); the cursor moves last.
"""

import contextlib
import csv
import io
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field

from .classify.metrics import predict_any
from .classify.schema import CATEGORICAL, RECORDING_FEATURES, FeatureVector, patient_schema
from .classify.weighted import weighted_index
from .errors import IngestionError, NoDataError
from .messaging import (
    OutboundMessage,
    TransmissionDecision,
    Urgency,
    build_message_xml,
    decide_transmission,
)
from .rules import (
    AcquisitionMode,
    Alert,
    DiseaseScope,
    MeasurementKind,
    MeasurementRecord,
    Severity,
    evaluate_with_report,
    report_to_json_line,
)
from .store import write_atomic

__all__ = ["PipelineResult", "run_patient", "read_measurements_csv"]


@dataclass
class PipelineResult:
    patient_id: str
    alerts: list = field(default_factory=list)
    report: dict = field(default_factory=dict)
    features: dict = field(default_factory=dict)
    qrs_disagreement_pct: float = 0.0
    qrs_flagged: bool = False
    decision: TransmissionDecision = TransmissionDecision.HOLD
    message_xml: str = ""
    artifacts: list = field(default_factory=list)
    prediction: str = ""


def read_measurements_csv(path, patient_id):
    """Rows: kind,value,timestamp_ms[,mode[,name]], each as an ingest dict
    that also holds its CSV line number. A value or timestamp that does not
    parse raises IngestionError naming the file and line."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        required = {"kind", "value", "timestamp_ms"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError("measurements CSV needs columns kind,value,timestamp_ms")
        out = []
        for row in reader:
            try:
                value = float(row["value"])
                timestamp_ms = int(row["timestamp_ms"])
            except (TypeError, ValueError) as exc:
                raise IngestionError("%s:%d: %s" % (path, reader.line_num, exc)) from None
            out.append({
                "patient_id": patient_id,
                "kind": row["kind"],
                "value": value,
                "timestamp_ms": timestamp_ms,
                "mode": row.get("mode") or "NOSILENT",
                "name": row.get("name") or "",
                "line": reader.line_num,
            })
    return out


def _index_scores(model, named_values):
    """Latest named values mapped to scores; out-of-[0,1] values count as
    explicitly missing."""
    scores = {}
    for name in model.weights:
        v = named_values.get(name)
        scores[name] = v if v is not None and 0.0 <= v <= 1.0 else None
    return scores


def _index_alert(rule_id, model, named_records, patient_id, now_ms):
    named_values = {n: r.value for n, r in named_records.items()}
    scores = _index_scores(model, named_values)
    try:
        index, triggered = weighted_index(model, scores)
    except NoDataError:
        return None, None
    if not triggered:
        return index, None
    evidence = tuple(named_records[n] for n in sorted(model.weights)
                     if scores.get(n) is not None)
    return index, Alert(
        rule_id=rule_id,
        patient_id=patient_id,
        severity=Severity.LIGHT_ALERT,
        fired_at_ms=int(now_ms),
        evidence=evidence,
    )


def _feature_vector(features, named_records, history):
    schema = patient_schema()
    mapping = {}
    for name in RECORDING_FEATURES:
        if name in features:
            mapping[name] = features[name]
    latest = {}
    for rec in history:
        if rec.kind is MeasurementKind.BODY_WEIGHT:
            latest["body_weight_kg"] = rec.value
        elif rec.kind is MeasurementKind.GLUCOSE:
            latest["glucose_mg_dl"] = rec.value
    mapping.update(latest)
    for attr in schema:
        if attr.name in named_records and attr.name not in mapping:
            v = named_records[attr.name].value
            mapping[attr.name] = ("%g" % v) if attr.kind == CATEGORICAL else v
    return FeatureVector.from_mapping(schema, mapping)


def _derived_records(patient_id, features, ecg_end_ms, resp_end_ms):
    """The rates the recordings yield as SILENT store records, each
    stamped with the end time of the recording it came from (None when
    that recording was not given)."""
    out = []
    for end_ms, kind, name in ((ecg_end_ms, MeasurementKind.HEART_RATE, "mean_heart_rate_bpm"),
                               (resp_end_ms, MeasurementKind.RESPIRATION_RATE,
                                "respiration_rate_bpm")):
        if end_ms is not None and name in features:
            out.append(MeasurementRecord(patient_id, kind, features[name], end_ms,
                                         AcquisitionMode.SILENT))
    return out


def _read_ecg_in_child(fd, path, rate_hz):
    """The forked reader's whole life. It parses with read_signal_csv, sends
    (exception or None, samples, start time) down the pipe and leaves with
    os._exit, so no atexit handler or stdio buffer of the parent runs twice."""
    status = 1
    try:
        from .signal_core import SignalKind, read_signal_csv
        try:
            ecg = read_signal_csv(path, rate_hz, SignalKind.ECG)
            payload = (None, ecg.samples, ecg.start_time_ms)
        except Exception as exc:
            payload = (exc, None, None)
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(payload, fh, protocol=5)
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def _forked_ecg_reader(path, rate_hz):
    """Parses the ECG CSV in a forked child while the caller goes on, and
    yields a function that waits for the child and returns (samples, start
    time in ms), or raises what read_signal_csv raised there. Forked before
    this process imports numpy, whose BLAS starts threads, so under
    `edgevitals run` the first fork comes from a process with one thread.
    The child is reaped on every path, killed first if it still runs.

    It does not reuse the --jobs executor. A one-worker fork
    ProcessPoolExecutor reading the ECG was about 35 lines shorter, but over
    5 interleaved holter pairs (perfbench seed 301) it raised peak RSS from
    284.3 to 313.5 MB in every pair and median wall time from 2.65 to
    2.86 s. The likely cause, not isolated: concurrent.futures builds the
    whole pickle in memory at the default protocol, while this reader
    streams protocol 5 into the pipe."""
    sys.stdout.flush()
    sys.stderr.flush()
    fd_in, fd_out = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(fd_in)
        os.close(fd_out)
        raise
    if pid == 0:
        os.close(fd_in)
        _read_ecg_in_child(fd_out, path, rate_hz)
    os.close(fd_out)
    pipe = os.fdopen(fd_in, "rb")
    reaped = False

    def wait():
        nonlocal reaped
        try:
            payload = pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            payload = None
        pipe.close()
        status = os.waitpid(pid, 0)[1]
        reaped = True
        if payload is None:
            raise IngestionError("%s: ECG reader exited with status %d before sending the "
                                 "samples" % (path, os.waitstatus_to_exitcode(status)))
        exc, samples, start_time_ms = payload
        if exc is not None:
            raise exc
        return samples, start_time_ms

    try:
        yield wait
    finally:
        pipe.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_patient(patient_id, store, cfg, ruleset, now_ms, out_dir,
                ecg_csv=None, ecg_rate_hz=250.0,
                resp_csv=None, resp_rate_hz=25.0,
                measurements_csv=None, model=None):
    result = PipelineResult(patient_id=patient_id)
    features = {}
    beats_csv = None

    rows = read_measurements_csv(measurements_csv, patient_id) if measurements_csv else []

    ecg_end_ms = resp_end_ms = None
    with (_forked_ecg_reader(ecg_csv, ecg_rate_hz) if ecg_csv
          else contextlib.nullcontext()) as read_ecg:
        if ecg_csv or resp_csv:
            # the signal layers load numpy and scipy; measurement-only runs skip them
            from . import signal_features
        if ecg_csv:
            beats_csv, disagreement, ecg_end_ms = signal_features.ecg_features(
                read_ecg, ecg_rate_hz, cfg, features)
            result.qrs_disagreement_pct = disagreement
            result.qrs_flagged = disagreement > cfg["qrs"]["cross_check_pct"]
    if resp_csv:
        resp_end_ms = signal_features.resp_features(resp_csv, resp_rate_hz, cfg, features)

    # one append; the CSV rows come first in the log, then the derived rates
    rows += _derived_records(patient_id, features, ecg_end_ms, resp_end_ms)
    rejected = [{"line": row["line"], "reason": reason}
                for row, reason in store.ingest(rows).rejections]

    disease = None if cfg.disease is None else DiseaseScope(cfg.disease)
    history = store.records(patient_id, until_ms=now_ms)
    named_records = {rec.name: rec for rec in history if rec.name}
    stress_index, stress_alert = _index_alert(
        "stress-index", cfg.stress_model(), named_records, patient_id, now_ms)
    lifestyle_index, lifestyle_alert = _index_alert(
        "lifestyle-index", cfg.lifestyle_model(), named_records, patient_id, now_ms)
    alerts, report = evaluate_with_report(
        ruleset, history, patient_id, now_ms, disease,
        extra_alerts=[a for a in (stress_alert, lifestyle_alert) if a is not None])
    if rejected:
        report["rejected_rows"] = rejected
    if stress_index is not None:
        report["stress_index"] = round(stress_index, 6)
    if lifestyle_index is not None:
        report["lifestyle_index"] = round(lifestyle_index, 6)
    if beats_csv is not None:
        report["qrs_disagreement_pct"] = round(result.qrs_disagreement_pct, 3)
        report["qrs_flagged"] = result.qrs_flagged
    result.alerts = alerts
    result.report = report
    result.features = features

    if model is not None:
        fv = _feature_vector(features, named_records, history)
        label, dist = predict_any(model, fv)
        result.prediction = label.name
        report["prediction"] = label.name
        report["prediction_distribution"] = [round(p, 6) for p in dist]

    decision = decide_transmission(alerts, cfg.schedule, now_ms,
                                   store.last_scheduled_send(patient_id))
    result.decision = decision
    if decision is not TransmissionDecision.HOLD:
        pending = store.untransmitted(patient_id)
        feature_pairs = tuple(sorted(features.items()))
        if result.prediction:
            feature_pairs += (("predicted_severity", result.prediction),)
        message = OutboundMessage(
            patient_id=patient_id,
            created_at_ms=int(now_ms),
            urgency=Urgency(decision.value),
            alerts=tuple(alerts),
            features=feature_pairs,
            measurements=tuple(pending),
        )
        result.message_xml = build_message_xml(message)

    pdir = os.path.join(out_dir, patient_id)
    os.makedirs(pdir, exist_ok=True)
    texts = [("report.jsonl", report_to_json_line(report) + "\n"),
             ("features.csv", _features_csv(features))]
    if beats_csv is not None:
        texts.append(("beats.csv", beats_csv))
    for name, text in texts:
        path = os.path.join(pdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        result.artifacts.append(path)
    if result.message_xml:
        path = os.path.join(pdir, "message.xml")
        write_atomic(path, result.message_xml)
        result.artifacts.append(path)
    # the last write: records count as sent only once their message is on disk
    if decision is not TransmissionDecision.HOLD:
        scheduled = decision is TransmissionDecision.SCHEDULED
        store.mark_transmitted(patient_id, len(pending), now_ms if scheduled else None)
    return result


def _features_csv(features):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORDING_FEATURES)
    writer.writerow([repr(features[c]) if c in features else "" for c in RECORDING_FEATURES])
    return buf.getvalue()
