"""Respiration-rate estimation and volume features.

Rate comes from the dominant spectral line of 60 s windows below 2 Hz;
tidal volume and vital capacity come from per-breath excursions of the
calibrated signal.
"""

import numpy as np

from .errors import NoDataError
from .signal_core import SignalKind, dft_magnitude, hamming_window, slice_window

__all__ = [
    "stft_dominant_frequency",
    "respiration_rate",
    "volume_features",
]

# highest breathing frequency searched for the dominant spectral line
F_MAX_HZ = 2.0


def _check_respiration(signal):
    if signal.kind is not SignalKind.RESPIRATION:
        raise ValueError("expected a respiration signal")


def stft_dominant_frequency(signal, window_s=60.0, hop_s=60.0):
    """Per window: Hamming window, DFT, argmax magnitude over (0, F_MAX_HZ].

    DC is excluded and ties resolve to the lower bin. Returns a list of
    (window_start_s, dominant_frequency_hz).
    """
    _check_respiration(signal)
    if signal.duration_seconds < window_s:
        raise NoDataError("signal shorter than one window")
    out = []
    start = 0.0
    while start + window_s <= signal.duration_seconds + 1e-9:
        try:
            win = slice_window(signal, start, window_s)
        except ValueError:
            break
        # demean before windowing, otherwise a DC offset leaks through the
        # window's sidelobes into the low bins and masks the true peak
        x = (win.samples - np.mean(win.samples)) * hamming_window(len(win.samples))
        spectrum = dft_magnitude(x, signal.rate_hz)
        k_max = int(np.floor(F_MAX_HZ / spectrum.bin_width_hz + 1e-9))
        k_max = min(k_max, len(spectrum.magnitudes) - 1)
        if k_max < 1:
            raise NoDataError("window too short for any in-band bin")
        band = spectrum.magnitudes[1: k_max + 1]
        k_dom = 1 + int(np.argmax(band))
        out.append((start, k_dom * spectrum.bin_width_hz))
        start += hop_s
    return out


def respiration_rate(signal, window_s=60.0, hop_s=60.0):
    """Breaths per minute per window: dominant frequency times 60."""
    doms = stft_dominant_frequency(signal, window_s, hop_s)
    return np.array([f * 60.0 for _, f in doms])


def volume_features(signal, calibration):
    """Breath-cycle volumes from the mean-removed signal.

    Cycles are cut at rising zero crossings; each cycle's excursion is its
    max minus min. VT is the median excursion, VC the largest, both
    divided by the units-per-litre calibration, keyed by feature name:
    tidal_volume_l, vital_capacity_l.
    """
    _check_respiration(signal)
    if not (calibration > 0):
        raise ValueError("calibration must be positive")
    y = signal.samples - np.mean(signal.samples)
    rising = np.flatnonzero((y[:-1] < 0) & (y[1:] >= 0)) + 1
    if len(rising) < 4:
        raise NoDataError("need at least 3 full breath cycles")
    excursions = []
    for a, b in zip(rising[:-1], rising[1:]):
        seg = y[a:b]
        excursions.append(np.max(seg) - np.min(seg))
    excursions = np.array(excursions)
    return {"tidal_volume_l": float(np.median(excursions) / calibration),
            "vital_capacity_l": float(np.max(excursions) / calibration)}
