"""Per-patient batch pipeline: signals -> features -> rules -> message.

Steps (each optional input skips its branch):
  1. Measurements CSV read (weight, temperature, questionnaire scores...);
     a row that does not parse fails the run before any signal work.
  2. ECG: baseline removal, one wavelet denoise whose output feeds both
     Pan-Tompkins and the spike annotator, QRS with the configured
     detector plus a cross-check against the other one, RR series, HRV
     features, trailing-60 s mean heart rate, stored as a HEART_RATE
     measurement so rules can see it.
  3. Respiration: windowed dominant-frequency rate (stored as a
     RESPIRATION_RATE measurement) and breath-volume features.
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

import csv
import io
import os
from dataclasses import dataclass, field

from . import hrv
from .classify.metrics import predict_any
from .classify.schema import CATEGORICAL, RECORDING_FEATURES, FeatureVector, patient_schema
from .classify.weighted import weighted_index
from .ecg_preprocess import (
    HighPassSpec,
    remove_baseline_linear,
    remove_baseline_poly,
    select_pq_knots,
    wavelet_denoise,
)
from .errors import IngestionError, NoDataError
from .messaging import (
    OutboundMessage,
    TransmissionDecision,
    Urgency,
    build_message_xml,
    decide_transmission,
)
from .qrs_detect import (
    BeatLabel,
    annotate_spikes,
    annotations_to_csv,
    mean_heart_rate,
    pan_tompkins,
    rr_from_peaks,
)
from .respiration import respiration_rate, volume_features
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
from .signal_core import SignalKind, read_signal_csv
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


def _end_ms(signal):
    return signal.start_time_ms + int(round(signal.duration_seconds * 1000.0))


def _ecg_features(path, rate_hz, cfg, features):
    """The ECG branch; returns (annotations, QRS disagreement %, end time).
    It alone holds the samples, and drops each stage's input once that
    stage's output exists: the raw samples go after baseline removal, the
    cleaned ones after the denoise, before Pan-Tompkins runs."""
    signal = read_signal_csv(path, rate_hz, SignalKind.ECG)
    end_ms = _end_ms(signal)
    pre = cfg["preprocess"]
    if pre["baseline_method"] == "linear":
        cleaned = remove_baseline_linear(signal, HighPassSpec(
            cutoff_hz=pre["highpass_cutoff_hz"], order=pre["highpass_order"]))
    else:
        rough = pan_tompkins(signal)
        knots = select_pq_knots(signal, rough)
        cleaned = remove_baseline_poly(signal, knots)
    del signal
    den = wavelet_denoise(cleaned, levels=pre["wavelet_levels"],
                          threshold_mode=pre["threshold_mode"])
    del cleaned
    qcfg = cfg["qrs"]
    pt_peaks = pan_tompkins(den)
    annotations = annotate_spikes(
        den, spike_fraction=qcfg["spike_fraction"], qrs_min_ms=qcfg["qrs_min_ms"],
        qrs_max_ms=qcfg["qrs_max_ms"], artifact_threshold=qcfg["artifact_threshold"])
    wv_peaks = [a.r_peak for a in annotations if a.label is BeatLabel.QRS]
    n_pt, n_wv = len(pt_peaks), len(wv_peaks)
    disagreement = 0.0
    if max(n_pt, n_wv) > 0:
        disagreement = abs(n_pt - n_wv) / max(n_pt, n_wv) * 100.0
    peaks = pt_peaks if qcfg["detector"] == "pan_tompkins" else wv_peaks
    rr = rr_from_peaks(peaks, den.rate_hz, den.start_time_ms)
    if len(rr) >= 2:
        # a feature the series lacks the data for is left blank
        features.update(hrv.time_features(rr))
        try:
            features["mean_heart_rate_bpm"] = mean_heart_rate(rr)
        except NoDataError:
            pass
        try:
            ff = hrv.band_powers(rr)
            features["lf_power"] = ff.lf_power
            features["hf_power"] = ff.hf_power
        except NoDataError:
            pass
    return annotations, disagreement, end_ms


def _resp_features(path, rate_hz, cfg, features):
    """The respiration branch; returns the recording's end time."""
    signal = read_signal_csv(path, rate_hz, SignalKind.RESPIRATION)
    rcfg = cfg["respiration"]
    try:
        rates = respiration_rate(signal, window_s=rcfg["window_s"], hop_s=rcfg["window_s"])
    except NoDataError:
        rates = []
    if len(rates):
        features["respiration_rate_bpm"] = float(sum(rates) / len(rates))
    try:
        vol = volume_features(signal, rcfg["calibration"])
        features["tidal_volume_l"] = vol.tidal_volume
        features["vital_capacity_l"] = vol.vital_capacity
    except NoDataError:
        pass
    return _end_ms(signal)


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


def run_patient(patient_id, store, cfg, ruleset, now_ms,
                ecg_csv=None, ecg_rate_hz=250.0,
                resp_csv=None, resp_rate_hz=25.0,
                measurements_csv=None, model=None, out_dir=None):
    result = PipelineResult(patient_id=patient_id)
    features = {}
    annotations = None

    rows = read_measurements_csv(measurements_csv, patient_id) if measurements_csv else []

    ecg_end_ms = resp_end_ms = None
    if ecg_csv:
        annotations, disagreement, ecg_end_ms = _ecg_features(ecg_csv, ecg_rate_hz, cfg, features)
        result.qrs_disagreement_pct = disagreement
        result.qrs_flagged = disagreement > cfg["qrs"]["cross_check_pct"]
    if resp_csv:
        resp_end_ms = _resp_features(resp_csv, resp_rate_hz, cfg, features)

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
    if annotations is not None:
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

    if out_dir is not None:
        pdir = os.path.join(out_dir, patient_id)
        os.makedirs(pdir, exist_ok=True)
        texts = [("report.jsonl", report_to_json_line(report) + "\n"),
                 ("features.csv", _features_csv(features))]
        if annotations is not None:
            texts.append(("beats.csv", annotations_to_csv(annotations)))
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
