"""Baseline-wander removal and wavelet denoising for raw ECG."""

from dataclasses import dataclass

import numpy as np

from .signal_core import SignalKind

__all__ = [
    "WaveletDecomposition",
    "DB4_DEC_LO",
    "DB4_DEC_HI",
    "DB4_REC_LO",
    "DB4_REC_HI",
    "remove_baseline_linear",
    "select_pq_knots",
    "remove_baseline_poly",
    "dwt_db4",
    "idwt_db4",
    "wavelet_denoise",
]

# 8-tap Daubechies-4 orthonormal filter bank, exact to double precision
# (obtained by spectral factorization; low-pass taps sum to sqrt(2)).
DB4_DEC_LO = np.array([
    -0.010597401785069032,
    0.0328830116668852,
    0.030841381835560764,
    -0.18703481171909309,
    -0.027983769416859854,
    0.6308807679298589,
    0.7148465705529157,
    0.2303778133088965,
])
DB4_REC_LO = DB4_DEC_LO[::-1].copy()
DB4_REC_HI = DB4_DEC_LO * np.array([1.0, -1.0] * 4)
DB4_DEC_HI = DB4_REC_HI[::-1].copy()

_TAPS = 8
# analysis kernels consume the reversed decomposition filters
_DEC_LO_R = DB4_DEC_LO[::-1].copy()
_DEC_HI_R = DB4_DEC_HI[::-1].copy()

# the PQ knot search window, in ms before each R peak
PQ_WINDOW_START_MS = 200.0
PQ_WINDOW_END_MS = 66.0


@dataclass(frozen=True)
class WaveletDecomposition:
    """Multi-level DWT output. details[0] is the finest band (level 1);
    level_input_lengths[i] is the signal length fed into analysis level i+1,
    needed to crop the synthesis of odd-length levels."""

    approximation: np.ndarray
    details: tuple
    levels: int
    level_input_lengths: tuple


def remove_baseline_linear(signal, cutoff_hz=0.5, order=2):
    """High-pass the ECG to strip baseline wander. Zero-phase, so QRS
    morphology is not skewed."""
    if signal.kind is not SignalKind.ECG:
        raise ValueError("baseline removal applies to ECG signals")
    nyquist = signal.rate_hz / 2.0
    if not (0 < cutoff_hz < nyquist):
        raise ValueError("cutoff must lie in (0, Nyquist)")
    if order < 1:
        raise ValueError("order must be >= 1")
    from scipy.signal import butter, sosfiltfilt

    sos = butter(order, cutoff_hz, btype="highpass", fs=signal.rate_hz, output="sos")
    return signal.replace_samples(sosfiltfilt(sos, signal.samples))


def select_pq_knots(signal, r_peaks):
    """One knot per beat: the flattest sample (minimum |local slope|) in the
    quiet PQ interval [R - 200 ms, R - 66 ms] before each R peak.
    """
    x = signal.samples
    n = len(x)
    r_peaks = np.asarray(r_peaks, dtype=int)
    if len(r_peaks) == 0:
        return np.array([], dtype=int)
    if np.any(np.diff(r_peaks) <= 0):
        raise ValueError("r_peaks must be strictly increasing")
    if r_peaks[0] < 0 or r_peaks[-1] >= n:
        raise ValueError("r_peaks out of signal range")
    slope = np.empty(n)
    slope[1:-1] = (x[2:] - x[:-2]) / 2.0
    slope[0] = x[1] - x[0] if n > 1 else 0.0
    slope[-1] = x[-1] - x[-2] if n > 1 else 0.0
    w0 = int(round(PQ_WINDOW_START_MS * signal.rate_hz / 1000.0))
    w1 = int(round(PQ_WINDOW_END_MS * signal.rate_hz / 1000.0))
    knots = []
    for r in r_peaks:
        lo = max(0, r - w0)
        hi = max(0, r - w1)
        if hi <= lo:
            continue
        knots.append(lo + int(np.argmin(np.abs(slope[lo:hi]))))
    return np.unique(np.array(knots, dtype=int))


def remove_baseline_poly(signal, knots):
    """Fit a natural cubic spline through the knot samples and subtract it.
    Output is exactly zero at every knot."""
    knots = np.asarray(knots, dtype=int)
    if len(knots) < 2:
        raise ValueError("need at least 2 knots")
    if np.any(np.diff(knots) <= 0):
        raise ValueError("knots must be strictly increasing")
    if knots[0] < 0 or knots[-1] >= len(signal.samples):
        raise ValueError("knots out of signal range")
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(knots, signal.samples[knots], bc_type="natural")
    baseline = spline(np.arange(len(signal.samples)))
    return signal.replace_samples(signal.samples - baseline)


def _dwt_step(x):
    # out[k] = sum_m ext[2k+1+m] * fr[m], the odd outputs of a correlation,
    # copied so that no full-length correlation outlives the step
    ext = np.pad(x, (_TAPS - 1, _TAPS - 1), mode="symmetric")
    return (np.correlate(ext, _DEC_LO_R, "valid")[1::2].copy(),
            np.correlate(ext, _DEC_HI_R, "valid")[1::2].copy())


def _idwt_step(a, d, out_len):
    # one upsampled buffer carries a, then d; its odd positions stay zero
    u = np.zeros(2 * len(a) - 1)
    u[::2] = a
    y = np.convolve(u, DB4_REC_LO)
    u[::2] = d
    y += np.convolve(u, DB4_REC_HI)
    return y[_TAPS - 2: len(y) - (_TAPS - 2)][:out_len]


def dwt_db4(samples, levels):
    x = np.ascontiguousarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if 2 ** levels > len(x):
        raise ValueError("too many levels for signal length")
    details = []
    input_lengths = []
    a = x
    for _ in range(levels):
        input_lengths.append(len(a))
        a, d = _dwt_step(a)
        details.append(d)
    return WaveletDecomposition(
        approximation=a,
        details=tuple(details),
        levels=levels,
        level_input_lengths=tuple(input_lengths),
    )


def idwt_db4(decomposition):
    a = decomposition.approximation
    for level in range(decomposition.levels - 1, -1, -1):
        a = _idwt_step(
            a,
            decomposition.details[level],
            decomposition.level_input_lengths[level],
        )
    return a


def wavelet_denoise(signal, levels=4, threshold_mode="soft"):
    """Threshold every detail band at the universal level
    sigma * sqrt(2 ln N), sigma estimated from the finest band via
    median(|d1|) / 0.6745, then reconstruct."""
    denoised = denoise_samples(signal.samples, levels, threshold_mode)
    return signal.replace_samples(denoised)


def denoise_samples(samples, levels=4, threshold_mode="soft"):
    if threshold_mode not in ("soft", "hard"):
        raise ValueError("threshold_mode must be 'soft' or 'hard'")
    x = np.asarray(samples, dtype=np.float64)
    dec = dwt_db4(x, levels)
    sigma = np.median(np.abs(dec.details[0])) / 0.6745
    threshold = sigma * np.sqrt(2.0 * np.log(len(x)))
    # the decomposition is ours alone, so its detail bands are thresholded
    # in place: sign(d) * max(|d| - t, 0) when soft, d where |d| > t when hard
    for d in dec.details:
        mag = np.abs(d)
        if threshold_mode == "soft":
            mag -= threshold
            np.maximum(mag, 0.0, out=mag)
            np.sign(d, out=d)
            d *= mag
        else:
            d[~(mag > threshold)] = 0.0
    return idwt_db4(dec)
