"""The ECG and respiration branches of a patient run.

This module alone imports the signal layers, and with them numpy and
scipy; `pipeline.run_patient` imports it only for a patient whose manifest
gives a recording, so a measurement-only run never loads them.
"""

from . import hrv
from .ecg_preprocess import (
    remove_baseline_linear,
    remove_baseline_poly,
    select_pq_knots,
    wavelet_denoise,
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
from .signal_core import SampledSignal, SignalKind, read_signal_csv

__all__ = ["ecg_features", "resp_features"]


def _end_ms(signal):
    return signal.start_time_ms + int(round(signal.duration_seconds * 1000.0))


def ecg_features(read_samples, rate_hz, cfg, features):
    """The ECG branch; returns (beats.csv text, QRS disagreement %, end time).
    `read_samples()` waits for the forked reader that `run_patient` started
    and returns (samples, start time in ms). scipy.signal is imported before
    that wait, so the import runs while the reader parses. From then on this
    function alone holds the samples, and drops each stage's input once that
    stage's output exists: the received array once the signal is built, the
    raw samples after baseline removal, the cleaned ones after the denoise,
    before Pan-Tompkins runs."""
    import scipy.signal  # noqa: F401 -- loaded here, while the reader parses
    samples, start_time_ms = read_samples()
    signal = SampledSignal(samples, rate_hz, start_time_ms, SignalKind.ECG)
    del samples
    end_ms = _end_ms(signal)
    pre = cfg["preprocess"]
    if pre["baseline_method"] == "linear":
        cleaned = remove_baseline_linear(signal, pre["highpass_cutoff_hz"],
                                         pre["highpass_order"])
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
        features["mean_heart_rate_bpm"] = mean_heart_rate(rr)
        try:
            features.update(hrv.band_powers(rr))
        except NoDataError:
            pass
    return annotations_to_csv(annotations), disagreement, end_ms


def resp_features(path, rate_hz, cfg, features):
    """The respiration branch; returns the recording's end time."""
    signal = read_signal_csv(path, rate_hz, SignalKind.RESPIRATION)
    rcfg = cfg["respiration"]
    try:
        rates = respiration_rate(signal, window_s=rcfg["window_s"])
    except NoDataError:
        rates = []
    if len(rates):
        features["respiration_rate_bpm"] = float(sum(rates) / len(rates))
    try:
        features.update(volume_features(signal, rcfg["calibration"]))
    except NoDataError:
        pass
    return _end_ms(signal)
