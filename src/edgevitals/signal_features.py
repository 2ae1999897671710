"""The ECG and respiration branches of a patient run.

Each branch reads its recording's CSV and returns what the recording
yields: its features, and its rate as a SILENT store record stamped with
the recording's end time (none when the recording gives no rate). This
module alone imports the signal layers, and with them numpy and scipy's
compiled filter and peak kernels (not scipy's signal package);
`pipeline.run_patient` imports it only for a patient whose manifest gives
a recording, so a measurement-only run never loads them.
"""

from . import hrv
from .ecg_preprocess import (
    denoise_samples,
    remove_baseline_linear,
    remove_baseline_poly,
    select_pq_knots,
)
from .errors import NoDataError
from .qrs_detect import (
    BeatLabel,
    annotate_spikes,
    annotations_to_csv,
    mean_heart_rate,
    pan_tompkins,
    rr_from_peaks,
)
from .respiration import respiration_rate, volume_features
from .rules import AcquisitionMode, MeasurementKind, MeasurementRecord
from .signal_core import read_signal_csv

__all__ = ["ecg_features", "resp_features"]


def _rate_record(patient_id, kind, rate, signal):
    """rate as a SILENT record of kind, stamped with the signal's end time."""
    end_ms = signal.start_time_ms + int(round(signal.duration_seconds * 1000.0))
    return MeasurementRecord(patient_id, kind, rate, end_ms, AcquisitionMode.SILENT)


def ecg_features(path, rate_hz, cfg, patient_id):
    """The ECG branch; returns (features, beats.csv text, QRS disagreement
    %, records). It reads the CSV at path, sampled at rate_hz, and alone
    holds the samples, dropping each stage's input once that stage's output
    exists: the raw samples after baseline removal, the cleaned ones after
    the denoise, before Pan-Tompkins runs. Every stage keeps the start time
    and sample count, so the denoised signal ends where the recording does."""
    signal = read_signal_csv(path, rate_hz)
    pre = cfg["preprocess"]
    if pre["baseline_method"] == "linear":
        cleaned = remove_baseline_linear(signal, pre["highpass_cutoff_hz"],
                                         pre["highpass_order"])
    else:
        rough = pan_tompkins(signal)
        knots = select_pq_knots(signal, rough)
        cleaned = remove_baseline_poly(signal, knots)
    del signal
    den = cleaned.replace_samples(denoise_samples(cleaned.samples, pre["wavelet_levels"],
                                                  pre["threshold_mode"]))
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
    features, records = {}, []
    if len(rr) >= 2:
        # a feature the series lacks the data for is left blank
        features.update(hrv.time_features(rr))
        features["mean_heart_rate_bpm"] = mean_heart_rate(rr)
        try:
            features.update(hrv.band_powers(rr))
        except NoDataError:
            pass
        records.append(_rate_record(patient_id, MeasurementKind.HEART_RATE,
                                    features["mean_heart_rate_bpm"], den))
    return features, annotations_to_csv(annotations), disagreement, records


def resp_features(path, rate_hz, cfg, patient_id):
    """The respiration branch; returns (features, records)."""
    signal = read_signal_csv(path, rate_hz)
    rcfg = cfg["respiration"]
    try:
        rates = respiration_rate(signal, window_s=rcfg["window_s"])
    except NoDataError:
        rates = []
    features, records = {}, []
    if len(rates):
        features["respiration_rate_bpm"] = float(sum(rates) / len(rates))
        records.append(_rate_record(patient_id, MeasurementKind.RESPIRATION_RATE,
                                    features["respiration_rate_bpm"], signal))
    try:
        features.update(volume_features(signal, rcfg["calibration"]))
    except NoDataError:
        pass
    return features, records
