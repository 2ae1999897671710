"""Respiration-rate estimation and volume features.

`respiration_rate` takes the rate of each back-to-back window (60 s
unless the config's respiration.window_s says otherwise) from the window's
dominant spectral line up to F_MAX_HZ; the windows share one length n, so
one bin width rate / n. Tidal volume and vital capacity come from
per-breath excursions of the calibrated signal.
"""

import numpy as np

from .errors import NoDataError
from .signal_core import dft_magnitude, hamming_window

__all__ = [
    "respiration_rate",
    "volume_features",
]

# highest breathing frequency searched for the dominant spectral line
F_MAX_HZ = 2.0


def respiration_rate(signal, window_s=60.0):
    """Breaths per minute per back-to-back window: Hamming window, DFT, and
    the argmax magnitude over (0, F_MAX_HZ] times 60. DC is excluded and
    ties resolve to the lower bin. A window with no bin in that band, an
    empty or one-sample window among them, raises NoDataError."""
    if signal.duration_seconds < window_s:
        raise NoDataError("signal shorter than one window")
    samples, rate = signal.samples, signal.rate_hz
    n = int(round(window_s * rate))
    bin_hz = rate / n if n else np.inf
    k_max = min(int(np.floor(F_MAX_HZ / bin_hz + 1e-9)), n // 2)
    if k_max < 1:
        raise NoDataError("window too short for any in-band bin")
    weights = hamming_window(n)
    out = []
    start = 0.0
    while start + window_s <= signal.duration_seconds + 1e-9:
        i0 = int(round(start * rate))
        if i0 + n > len(samples):
            break
        win = samples[i0: i0 + n]
        # demean before windowing, otherwise a DC offset leaks through the
        # window's sidelobes into the low bins and masks the true peak
        band = dft_magnitude((win - np.mean(win)) * weights)[1: k_max + 1]
        k_dom = 1 + int(np.argmax(band))
        out.append(k_dom * bin_hz * 60.0)
        start += window_s
    return np.array(out)


def volume_features(signal, calibration):
    """Breath-cycle volumes from the mean-removed signal.

    Cycles are cut at rising zero crossings; each cycle's excursion is its
    max minus min. VT is the median excursion, VC the largest, both
    divided by the units-per-litre calibration, keyed by feature name:
    tidal_volume_l, vital_capacity_l.
    """
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
