"""Per-patient batch pipeline: signals -> features -> rules -> message.

Steps (each optional input skips its branch):
  1. Measurements CSV read (weight, temperature, questionnaire scores...);
     a row that does not parse fails the run before any signal work.
  2. ECG: CSV read with its timestamp check, baseline removal, one
     wavelet denoise whose output feeds both Pan-Tompkins and the spike
     annotator, QRS with the configured detector plus a cross-check
     against the other one, RR series, HRV features, trailing-60 s mean
     heart rate, stored as a HEART_RATE measurement so rules can see it.
  3. Respiration: windowed dominant-frequency rate (stored as a
     RESPIRATION_RATE measurement) and breath-volume features.
     Steps 2 and 3 live in `signal_features`, which alone decides what a
     recording yields; it is imported only for a patient with a recording,
     so a measurement-only run loads no numpy.
  4. One store ingest of the CSV rows and the derived rates; rows the
     store rejects are listed in the report by line and reason.
  5. One view of the patient's history up to --now (`rules.history_view`):
     the records grouped by kind, which the rules evaluate once, and the
     latest record of each name, which the indices in step 6 score. The
     feature vector in step 7 reads both.
  6. Stress/lifestyle weighted indices from questionnaire/diary scores in
     [0, 1]; a triggered index contributes a LIGHT_ALERT.
  7. Optional classifier prediction from the assembled feature vector.
  8. Transmission decision and canonical outbound XML.

Artifacts land in <out_dir>/<patient>/, each replaced atomically:
report.jsonl, features.csv, beats.csv (when ECG ran) and message.xml (when
not held); a run without one removes the previous run's. The cursor moves last.
"""

import contextlib
import csv
import io
import os
from dataclasses import dataclass

from .classify.metrics import predict_any
from .classify.schema import CATEGORICAL, RECORDING_FEATURES, FeatureVector, patient_schema
from .classify.weighted import weighted_index
from .errors import IngestionError, NoDataError
from .messaging import OutboundMessage, Urgency, build_message_xml, decide_transmission
from .rules import (
    Alert,
    MeasurementKind,
    Severity,
    ascii_number,
    evaluate_with_report,
    history_view,
    report_to_json_line,
)
from .store import write_atomic

__all__ = ["PipelineResult", "run_patient", "read_measurements_csv"]


@dataclass
class PipelineResult:
    patient_id: str
    alerts: list
    report: dict
    features: dict
    decision: Urgency | None  # None: held
    message_xml: str | None
    artifacts: list


def read_measurements_csv(path, patient_id):
    """Rows: kind,value,timestamp_ms[,mode[,name]], each as an ingest dict
    that also holds its CSV line number. A file that is not UTF-8 or lacks
    a required column, and a value or timestamp that does not parse, raise
    IngestionError naming the file (and the line, where there is one)."""
    with open(path, "r", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        out = []
        try:
            required = {"kind", "value", "timestamp_ms"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise IngestionError("%s: measurements CSV needs columns kind,value,timestamp_ms"
                                     % path)
            for row in reader:
                try:
                    value = ascii_number(row["value"])
                    timestamp_ms = ascii_number(row["timestamp_ms"], int)
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
        except UnicodeDecodeError as exc:
            raise IngestionError("%s: %s" % (path, exc)) from None
    return out


def _index_alert(rule_id, model, by_name, now_ms):
    """(index, alert) from the latest named values; a value outside
    [0, 1] counts as missing."""
    scores = {}
    for name in model.weights:
        rec = by_name.get(name)
        scores[name] = rec.value if rec is not None and 0.0 <= rec.value <= 1.0 else None
    try:
        index, triggered = weighted_index(model, scores)
    except NoDataError:
        return None, None
    if not triggered:
        return index, None
    evidence = tuple(by_name[n] for n in sorted(model.weights)
                     if scores.get(n) is not None)
    return index, Alert(
        rule_id=rule_id,
        severity=Severity.LIGHT_ALERT,
        fired_at_ms=int(now_ms),
        evidence=evidence,
    )


def _feature_vector(features, by_kind, by_name):
    schema = patient_schema()
    mapping = {}
    for name in RECORDING_FEATURES:
        if name in features:
            mapping[name] = features[name]
    for name, kind in (("body_weight_kg", MeasurementKind.BODY_WEIGHT),
                       ("glucose_mg_dl", MeasurementKind.GLUCOSE)):
        if kind in by_kind:
            mapping[name] = by_kind[kind][-1].value
    for attr in schema:
        if attr.name in by_name and attr.name not in mapping:
            v = by_name[attr.name].value
            mapping[attr.name] = ("%g" % v) if attr.kind == CATEGORICAL else v
    return FeatureVector.from_mapping(schema, mapping)


def run_patient(patient_id, store, cfg, ruleset, now_ms, out_dir,
                ecg_csv=None, ecg_rate_hz=250.0,
                resp_csv=None, resp_rate_hz=25.0,
                measurements_csv=None, model=None):
    features = {}
    beats_csv = None

    rows = read_measurements_csv(measurements_csv, patient_id) if measurements_csv else []

    # the signal layers load numpy and scipy; measurement-only runs skip them
    if ecg_csv or resp_csv:
        from . import signal_features
    # one append; the CSV rows come first in the log, then the recordings' rates
    if ecg_csv:
        ecg, beats_csv, disagreement, records = signal_features.ecg_features(
            ecg_csv, ecg_rate_hz, cfg, patient_id)
        features.update(ecg)
        rows += records
    if resp_csv:
        resp, records = signal_features.resp_features(resp_csv, resp_rate_hz, cfg, patient_id)
        features.update(resp)
        rows += records
    rejected = [{"line": row["line"], "reason": reason}
                for row, reason in store.ingest(rows).rejections]

    by_kind, by_name = history_view(store.log_records(patient_id), patient_id, now_ms)
    stress_index, stress_alert = _index_alert("stress-index", cfg.stress_index, by_name, now_ms)
    lifestyle_index, lifestyle_alert = _index_alert(
        "lifestyle-index", cfg.lifestyle_index, by_name, now_ms)
    alerts, report = evaluate_with_report(
        ruleset, by_kind, patient_id, now_ms, cfg.disease,
        extra_alerts=[a for a in (stress_alert, lifestyle_alert) if a is not None])
    if rejected:
        report["rejected_rows"] = rejected
    if stress_index is not None:
        report["stress_index"] = round(stress_index, 6)
    if lifestyle_index is not None:
        report["lifestyle_index"] = round(lifestyle_index, 6)
    if beats_csv is not None:
        report["qrs_disagreement_pct"] = round(disagreement, 3)
        report["qrs_flagged"] = disagreement > cfg["qrs"]["cross_check_pct"]

    if model is not None:
        fv = _feature_vector(features, by_kind, by_name)
        label, dist = predict_any(model, fv)
        report["prediction"] = label.name
        report["prediction_distribution"] = [round(p, 6) for p in dist]

    decision = decide_transmission(alerts, cfg.send_offset_ms, now_ms,
                                   store.last_scheduled_send(patient_id))
    message_xml = None
    if decision is not None:
        pending = store.untransmitted(patient_id)
        feature_pairs = tuple(sorted(features.items()))
        if model is not None:
            feature_pairs += (("predicted_severity", report["prediction"]),)
        message_xml = build_message_xml(OutboundMessage(
            patient_id=patient_id, created_at_ms=int(now_ms), alerts=tuple(alerts),
            features=feature_pairs, measurements=tuple(pending)))

    pdir = os.path.join(out_dir, patient_id)
    os.makedirs(pdir, exist_ok=True)
    artifacts = []
    for name, text in (("report.jsonl", report_to_json_line(report) + "\n"),
                       ("features.csv", _features_csv(features)),
                       ("beats.csv", beats_csv), ("message.xml", message_xml)):
        path = os.path.join(pdir, name)
        if text is None:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        else:
            write_atomic(path, text)
            artifacts.append(path)
    # the last write: records count as sent only once their message is on disk
    if decision is not None:
        store.mark_transmitted(patient_id, len(pending),
                               now_ms if decision is Urgency.SCHEDULED else None)
    return PipelineResult(patient_id, alerts, report, features, decision, message_xml, artifacts)


def _features_csv(features):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORDING_FEATURES)
    writer.writerow([repr(features[c]) if c in features else "" for c in RECORDING_FEATURES])
    return buf.getvalue()
