"""Time-domain and frequency-domain variability features of an RR series.

All statistics use the population (1/n) form except rmssd, whose divisor
is the number of successive-difference pairs. Successive-difference
features only pair intervals that are adjacent in time, so filtered-out
beats never fabricate a difference across a gap.
"""

import numpy as np

from .errors import NoDataError
from .signal_core import dft_magnitude, hamming_window

__all__ = [
    "LF_BAND_HZ",
    "HF_BAND_HZ",
    "sdnn",
    "sdann",
    "sdnnidx",
    "pnn50",
    "rmssd",
    "band_powers",
    "time_features",
]

LF_BAND_HZ = (0.03, 0.15)
HF_BAND_HZ = (0.15, 0.40)

TACHOGRAM_RATE_HZ = 4.0
SEGMENT_S = 300.0


def _require(rr, n):
    if len(rr) < n:
        raise NoDataError("need at least %d intervals" % n)


def sdnn(rr):
    """Population standard deviation of all intervals."""
    _require(rr, 2)
    iv = rr.intervals_ms
    m = np.mean(iv)
    return float(np.sqrt(np.mean((iv - m) ** 2)))


def _segment_bins(rr):
    """Group interval values by SEGMENT_S wall-clock bins anchored at the
    first onset. Bins holding fewer than 2 intervals are dropped, and
    fewer than 2 bins left is a NoDataError."""
    _require(rr, 2)
    width_ms = SEGMENT_S * 1000.0
    idx = np.floor((rr.onsets_ms - rr.onsets_ms[0]) / width_ms).astype(int)
    bins = []
    for b in np.unique(idx):
        members = rr.intervals_ms[idx == b]
        if len(members) >= 2:
            bins.append(members)
    if len(bins) < 2:
        raise NoDataError("need at least 2 usable segments")
    return bins


def sdann(rr):
    """Population SD of the per-segment interval means."""
    bins = _segment_bins(rr)
    means = np.array([np.mean(b) for b in bins])
    return float(np.sqrt(np.mean((means - np.mean(means)) ** 2)))


def sdnnidx(rr):
    """Mean of the per-segment population SDs."""
    bins = _segment_bins(rr)
    sds = [np.sqrt(np.mean((b - np.mean(b)) ** 2)) for b in bins]
    return float(np.mean(sds))


def _successive_diffs(rr):
    pairs = rr.adjacent_diff_pairs()
    if len(pairs) == 0:
        raise NoDataError("no adjacent interval pairs")
    return rr.intervals_ms[pairs + 1] - rr.intervals_ms[pairs]


def pnn50(rr):
    """Percent of successive differences strictly greater than 50 ms."""
    diffs = _successive_diffs(rr)
    return float(100.0 * np.count_nonzero(np.abs(diffs) > 50.0) / len(diffs))


def rmssd(rr):
    """Root mean square of successive differences."""
    diffs = _successive_diffs(rr)
    return float(np.sqrt(np.mean(diffs ** 2)))


def time_features(rr):
    """The five time-domain features keyed by feature name, in the order
    sdnn_ms, sdann_ms, sdnnidx_ms, pnn50_pct, rmssd_ms; a feature the
    series lacks the data for (NoDataError) is left out."""
    out = {}
    for name, feature in (("sdnn_ms", sdnn), ("sdann_ms", sdann), ("sdnnidx_ms", sdnnidx),
                          ("pnn50_pct", pnn50), ("rmssd_ms", rmssd)):
        try:
            out[name] = feature(rr)
        except NoDataError:
            pass
    return out


def band_powers(rr):
    """LF/HF spectral powers of the interval tachogram, keyed by feature
    name: lf_power, hf_power.

    The (onset, interval) points are linearly interpolated onto a uniform
    4 Hz grid, mean-removed, Hamming-windowed and transformed; band power
    sums the per-bin power over bins whose frequency lies in the band.
    The shared 0.15 Hz edge belongs to HF only.
    """
    _require(rr, 30)
    span_ms = rr.end_times_ms[-1] - rr.onsets_ms[0]
    if span_ms < 120000.0:
        raise NoDataError("need at least 120 s of recording")
    t0 = rr.onsets_ms[0]
    step_ms = 1000.0 / TACHOGRAM_RATE_HZ
    grid = np.arange(t0, rr.onsets_ms[-1] + step_ms / 2, step_ms)
    tach = np.interp(grid, rr.onsets_ms, rr.intervals_ms)
    tach = tach - np.mean(tach)
    windowed = tach * hamming_window(len(tach))
    magnitudes = dft_magnitude(windowed)
    n = len(windowed)
    freqs = np.arange(len(magnitudes)) * (TACHOGRAM_RATE_HZ / n)
    power = 2.0 * magnitudes ** 2 / n ** 2
    lf_mask = (freqs >= LF_BAND_HZ[0]) & (freqs < LF_BAND_HZ[1])
    hf_mask = (freqs >= HF_BAND_HZ[0]) & (freqs <= HF_BAND_HZ[1])
    return {"lf_power": float(np.sum(power[lf_mask])),
            "hf_power": float(np.sum(power[hf_mask]))}
