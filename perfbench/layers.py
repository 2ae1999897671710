"""The layers the traced run measures, and how spans become metrics.

A layer is one module of the program; its span wraps that module's
public entry points. Every `<layer>_s` metric is the layer's self time:
the time inside its spans minus the time inside nested spans of other
layers, summed over the run. Counts are summed the same way.
"""

import statistics

from tracer import install, self_times

# (span name, module, attribute, counter). The counter sees
# (args, kwargs, result) and returns counts keyed by metric name.
HOOKS = [
    ("cli.main", "edgevitals.cli", "main", None),
    ("signal_core.read", "edgevitals.signal_core", "read_signal_csv",
     lambda a, k, r: {"signal_core.samples_read": len(r.samples)}),
    ("ecg_preprocess.baseline", "edgevitals.ecg_preprocess", "remove_baseline_linear", None),
    ("ecg_preprocess.baseline", "edgevitals.ecg_preprocess", "remove_baseline_poly", None),
    ("ecg_preprocess.baseline", "edgevitals.ecg_preprocess", "select_pq_knots", None),
    ("ecg_preprocess.denoise", "edgevitals.ecg_preprocess", "denoise_samples",
     lambda a, k, r: {"ecg_preprocess.denoise_calls": 1,
                      "ecg_preprocess.denoise_samples": len(a[0])}),
    ("qrs_detect.pan_tompkins", "edgevitals.qrs_detect", "pan_tompkins",
     lambda a, k, r: {"qrs_detect.beats": len(r)}),
    ("qrs_detect.wavelet_qrs", "edgevitals.qrs_detect", "wavelet_qrs", None),
    ("hrv.features", "edgevitals.hrv", "time_features", None),
    ("hrv.features", "edgevitals.hrv", "band_powers", None),
    ("hrv.features", "edgevitals.hrv", "sdnn", None),
    ("hrv.features", "edgevitals.hrv", "rmssd", None),
    ("hrv.features", "edgevitals.hrv", "pnn50", None),
    ("respiration.features", "edgevitals.respiration", "respiration_rate", None),
    ("respiration.features", "edgevitals.respiration", "volume_features", None),
    ("store.open", "edgevitals.store", "MeasurementStore.__init__",
     lambda a, k, r: {"store.opens": 1}),
    ("store.open", "edgevitals.store", "MeasurementStore._load_patient",
     lambda a, k, r: {"store.records_loaded": len(a[0]._log.get(a[1], ()))}),
    ("store.ingest", "edgevitals.store", "MeasurementStore.ingest",
     lambda a, k, r: {"store.records_appended": r.appended}),
    ("store.query", "edgevitals.store", "MeasurementStore.records", None),
    ("store.query", "edgevitals.store", "MeasurementStore.log_records", None),
    ("store.query", "edgevitals.store", "MeasurementStore.untransmitted", None),
    ("store.query", "edgevitals.store", "MeasurementStore.cursor", None),
    ("store.query", "edgevitals.store", "MeasurementStore.mark_transmitted", None),
    ("rules.parse", "edgevitals.rules", "parse_rules",
     lambda a, k, r: {"rules.parse_calls": 1}),
    ("rules.evaluate", "edgevitals.rules", "evaluate",
     lambda a, k, r: {"rules.evaluate_calls": 1, "rules.records_scanned": len(a[1])}),
    ("rules.evaluate", "edgevitals.rules", "evaluation_report",
     lambda a, k, r: {"rules.evaluate_calls": 1, "rules.records_scanned": len(a[1])}),
    ("config.load", "edgevitals.config", "load_config", None),
    ("config.load", "edgevitals.config", "default_config", None),
    ("classify.load", "edgevitals.classify.serialize", "model_from_json", None),
    ("classify.predict", "edgevitals.classify.metrics", "predict_any", None),
    ("messaging.build", "edgevitals.messaging", "build_message_xml",
     lambda a, k, r: {"messaging.measurements_out": len(a[0].measurements),
                      "messaging.bytes_out": len(r.encode("utf-8"))}),
    ("pipeline.read_measurements", "edgevitals.pipeline", "read_measurements_csv",
     lambda a, k, r: {"pipeline.rows_read": len(r)}),
    ("pipeline.run_patient", "edgevitals.pipeline", "run_patient", None),
]

# time metric per span name; the rest of the name is the layer
TIME_METRICS = {
    "cli.main": "cli.main_self_s",
    "qrs_detect.wavelet_qrs": "qrs_detect.wavelet_qrs_self_s",
    "pipeline.run_patient": "pipeline.run_patient_self_s",
}

COUNT_METRICS = [
    "signal_core.samples_read", "ecg_preprocess.denoise_calls",
    "ecg_preprocess.denoise_samples", "qrs_detect.beats", "store.opens",
    "store.records_loaded", "store.records_appended", "rules.parse_calls",
    "rules.evaluate_calls", "rules.records_scanned", "messaging.measurements_out",
    "messaging.bytes_out", "pipeline.rows_read",
]


def time_metric(span_name):
    return TIME_METRICS.get(span_name, span_name + "_s")


def install_all(tracer):
    """Wraps every hook. Returns the hooks whose target no longer exists,
    so that a refactor of the program loses a metric, not the run."""
    import importlib

    missing = []
    for name, module, attr, count in HOOKS:
        *path, leaf = attr.split(".")
        try:
            owner = importlib.import_module(module)
        except ImportError:
            owner = None
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(getattr(owner, leaf, None)):
            missing.append("%s.%s" % (module, attr))
            continue
        install(tracer, name, owner, leaf, count)
    return missing


def layer_metrics(spans):
    """Self time per layer, summed counts, and the run_patient spread."""
    out = {time_metric(name): 0.0 for name, _, _, _ in HOOKS}
    out.update({c: 0 for c in COUNT_METRICS})
    for span, own in zip(spans, self_times(spans)):
        out[time_metric(span[0])] += own
        for key, value in (span[4] or {}).items():
            out[key] += value
    patient = sorted(s[2] - s[1] for s in spans if s[0] == "pipeline.run_patient")
    out["pipeline.patients"] = len(patient)
    out["pipeline.patient_p50_s"] = statistics.median(patient) if patient else 0.0
    out["pipeline.patient_p90_s"] = (
        statistics.quantiles(patient, n=10, method="inclusive")[8] if len(patient) > 1
        else out["pipeline.patient_p50_s"])
    return out


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    return "B" if metric == "messaging.bytes_out" else "count"
