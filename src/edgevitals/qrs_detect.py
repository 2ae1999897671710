"""QRS detection by two methods plus the inter-beat interval series.

Pan-Tompkins is the pipeline's primary detector; the denoised-spike scan
acts as an independent cross-check.
"""

import collections
import enum
import io
from dataclasses import dataclass

import numpy as np

from .ecg_preprocess import denoise_samples
from .errors import NoDataError

__all__ = [
    "BeatLabel",
    "BeatAnnotation",
    "RRSeries",
    "pan_tompkins",
    "wavelet_qrs",
    "annotate_spikes",
    "rr_from_peaks",
    "mean_heart_rate",
    "annotations_to_csv",
]

# physiologic interval gate in ms, open interval
RR_MIN_MS = 200.0
RR_MAX_MS = 3000.0


class BeatLabel(enum.Enum):
    QRS = "QRS"
    NOISE = "NOISE"
    ARTIFACT = "ARTIFACT"


@dataclass(frozen=True)
class BeatAnnotation:
    r_peak: int
    pq_junction: int
    j_point: int
    label: BeatLabel


@dataclass(frozen=True)
class RRSeries:
    """Inter-beat intervals with absolute onset times.

    Each interval i spans [onsets_ms[i], onsets_ms[i] + intervals_ms[i]].
    After physiologic filtering the series may have gaps, so onsets are
    stored per interval; successive-difference statistics only pair
    intervals that remain adjacent in time.
    """

    onsets_ms: np.ndarray
    intervals_ms: np.ndarray

    def __post_init__(self):
        onsets = np.asarray(self.onsets_ms, dtype=np.float64)
        intervals = np.asarray(self.intervals_ms, dtype=np.float64)
        if onsets.shape != intervals.shape or onsets.ndim != 1:
            raise ValueError("onsets and intervals must be 1-D and equal length")
        if np.any(np.diff(onsets) <= 0):
            raise ValueError("onsets must be strictly increasing")
        if np.any(intervals <= 0):
            raise ValueError("intervals must be positive")
        onsets = onsets.copy()
        intervals = intervals.copy()
        onsets.setflags(write=False)
        intervals.setflags(write=False)
        object.__setattr__(self, "onsets_ms", onsets)
        object.__setattr__(self, "intervals_ms", intervals)

    def __len__(self):
        return len(self.intervals_ms)

    @classmethod
    def from_intervals(cls, intervals_ms, start_ms=0.0):
        """Contiguous series: interval i starts where interval i-1 ends."""
        intervals = np.asarray(intervals_ms, dtype=np.float64)
        if len(intervals) == 0:
            return _empty_rr()
        onsets = start_ms + np.concatenate(([0.0], np.cumsum(intervals[:-1])))
        return cls(onsets, intervals)

    @property
    def end_times_ms(self):
        return self.onsets_ms + self.intervals_ms

    def adjacent_diff_pairs(self):
        """Indices i where interval i+1 directly follows interval i, the
        only pairs a successive-difference statistic may use."""
        if len(self) < 2:
            return np.array([], dtype=int)
        gaps = np.abs(self.onsets_ms[1:] - self.end_times_ms[:-1])
        return np.flatnonzero(gaps < 1e-6)


def _empty_rr():
    return RRSeries(np.array([]), np.array([]))


def rr_from_peaks(r_peaks, rate_hz, start_time_ms=0.0):
    """Peak indices to RR intervals in ms; intervals outside (200, 3000) ms
    are dropped along with their timestamps."""
    peaks = np.asarray(r_peaks, dtype=np.int64)
    if len(peaks) < 2:
        return _empty_rr()
    if np.any(np.diff(peaks) <= 0):
        raise ValueError("r_peaks must be strictly increasing")
    times_ms = start_time_ms + peaks * (1000.0 / rate_hz)
    intervals = np.diff(times_ms)
    onsets = times_ms[:-1]
    keep = (intervals > RR_MIN_MS) & (intervals < RR_MAX_MS)
    if not np.any(keep):
        return _empty_rr()
    return RRSeries(onsets[keep], intervals[keep])


def mean_heart_rate(rr, window_s=60.0, now_ms=None):
    """60000 / mean(intervals ending inside the trailing window)."""
    if len(rr) == 0:
        raise NoDataError("empty RR series")
    ends = rr.end_times_ms
    if now_ms is None:
        now_ms = ends[-1]
    mask = (ends > now_ms - window_s * 1000.0) & (ends <= now_ms)
    if not np.any(mask):
        raise NoDataError("no intervals inside the window")
    return 60000.0 / float(np.mean(rr.intervals_ms[mask]))


def _moving_average(x, w):
    """Centred w-sample mean with zero padding, from a running sum."""
    n = len(x)
    lead = w - 1 - (w - 1) // 2  # zeros the padding puts before x
    # cum[k] is the sum of the first k padded samples, built in place
    cum = np.zeros(n + w)
    cum[lead + 1: lead + 1 + n] = x
    # the sum runs on from the padding's 0.0, or from x[0] when there is none
    run = cum[max(lead, 1): lead + 1 + n]
    np.cumsum(run, out=run)
    cum[lead + 1 + n:] = cum[lead + n]
    out = cum[w:] - cum[:n]
    out /= w
    return out


def _validate_detector_input(signal):
    if signal.rate_hz < 100:
        raise ValueError("detector requires rate_hz >= 100")
    if signal.duration_seconds < 5.0:
        raise ValueError("detector requires at least 5 s of signal")


def _window_indices(centres, half, n):
    """Sample indices of the window [c - half, c + half] around each centre,
    one row per centre, clipped to [0, n - 1]. Clipping only repeats an edge
    sample that the truncated window already holds, so a row's max, and the
    index behind its first argmax, equal those of the truncated slice."""
    return np.clip(centres[:, None] + np.arange(-half, half + 1), 0, n - 1)


def _search_back(cand, cm, cf, lo, hi, last_qrs, refractory, thr_i, thr_f):
    """Index in [lo, hi) of the strongest candidate past the refractory
    period whose energies clear both thresholds, or -1."""
    best = -1
    best_cm = 0.0
    for j in range(lo, hi):
        if cand[j] - last_qrs <= refractory:
            continue
        if cm[j] > thr_i and cf[j] > thr_f and cm[j] > best_cm:
            best = j
            best_cm = cm[j]
    return best


def pan_tompkins(signal):
    """R-peak indices via band-pass, derivative, squaring, moving-window
    integration, and dual adaptive thresholds with search-back.

    Input is normalized by its peak amplitude first, which makes the
    output exactly invariant under positive rescaling.
    """
    _validate_detector_input(signal)
    fs = signal.rate_hz
    x = signal.samples
    peak = np.max(np.abs(x))
    if peak == 0:
        return np.array([], dtype=int)

    from scipy.signal import butter, find_peaks, sosfiltfilt

    sos_lo = butter(2, 15.0, btype="lowpass", fs=fs, output="sos")
    sos_hi = butter(2, 5.0, btype="highpass", fs=fs, output="sos")
    bp = sosfiltfilt(sos_hi, sosfiltfilt(sos_lo, x / peak))
    deriv = np.convolve(bp, np.array([1.0, 2.0, 0.0, -2.0, -1.0]) * (fs / 8.0), mode="same")
    deriv *= deriv
    mwi = _moving_average(deriv, max(1, int(round(0.150 * fs))))
    del deriv  # not needed past the integration; find_peaks allocates next

    refractory = int(round(0.200 * fs))
    cand, _ = find_peaks(mwi, distance=refractory)
    if len(cand) == 0:
        return np.array([], dtype=int)
    cm = mwi[cand]
    # IIR transients on near-flat input leave ~1e-30 ripples; candidates
    # must carry non-negligible energy relative to the record
    keep = cm > 1e-6 * np.max(cm)
    cand, cm = cand[keep], cm[keep]
    if len(cand) == 0:
        return np.array([], dtype=int)
    half_f = int(round(0.075 * fs))
    n = len(x)
    cf = np.max(np.abs(bp[_window_indices(cand, half_f, n)]), axis=1)

    n_init = min(n, int(2 * fs))
    abp_init = np.abs(bp[:n_init])
    spki = 0.5 * float(np.max(mwi[:n_init]))
    npki = 0.5 * float(np.mean(mwi[:n_init]))
    spkf = 0.5 * float(np.max(abp_init))
    npkf = 0.5 * float(np.mean(abp_init))

    # the decision loop is a per-candidate recurrence: plain Python
    # scalars keep its per-step cost far below numpy scalar arithmetic
    cand, cm, cf = cand.tolist(), cm.tolist(), cf.tolist()
    accepted = []
    # RR values are integer sample counts, so sum / len over the last 8
    # is exact in the sum and equals np.mean bitwise
    rr_recent = collections.deque(maxlen=8)
    rr_avg = 0.0
    last_qrs = -(10 ** 9)
    searched_upto = 0
    irregular = False
    for i, c in enumerate(cand):
        thr_i = npki + 0.25 * (spki - npki)
        thr_f = npkf + 0.25 * (spkf - npkf)
        if irregular:
            # sensitivity doubles while the rhythm is off its running band
            thr_i *= 0.5
            thr_f *= 0.5
        if rr_recent and c - last_qrs > 1.66 * rr_avg:
            best = _search_back(cand, cm, cf, searched_upto, i, last_qrs, refractory,
                                0.5 * thr_i, 0.5 * thr_f)
            if best >= 0:
                cb = cand[best]
                rr = cb - last_qrs
                irregular = not (0.92 * rr_avg <= rr <= 1.16 * rr_avg)
                rr_recent.append(rr)
                rr_avg = sum(rr_recent) / len(rr_recent)
                accepted.append(cb)
                last_qrs = cb
                spki = 0.25 * cm[best] + 0.75 * spki
                spkf = 0.25 * cf[best] + 0.75 * spkf
                searched_upto = best + 1
        if c - last_qrs <= refractory:
            continue
        if cm[i] > thr_i and cf[i] > thr_f:
            if accepted:
                rr = c - last_qrs
                if rr_recent:
                    irregular = not (0.92 * rr_avg <= rr <= 1.16 * rr_avg)
                rr_recent.append(rr)
                rr_avg = sum(rr_recent) / len(rr_recent)
            accepted.append(c)
            last_qrs = c
            spki = 0.125 * cm[i] + 0.875 * spki
            spkf = 0.125 * cf[i] + 0.875 * spkf
            searched_upto = i + 1
        else:
            npki = 0.125 * cm[i] + 0.875 * npki
            npkf = 0.125 * cf[i] + 0.875 * npkf

    if rr_recent and n - last_qrs > 1.66 * rr_avg:
        # one closing search-back so a trailing miss is not lost
        thr_i = npki + 0.25 * (spki - npki)
        thr_f = npkf + 0.25 * (spkf - npkf)
        best = _search_back(cand, cm, cf, searched_upto, len(cand), last_qrs, refractory,
                            0.5 * thr_i, 0.5 * thr_f)
        if best >= 0:
            accepted.append(cand[best])

    # integration delays the mwi peak; relocate each detection onto the
    # strongest input excursion nearby
    idx = _window_indices(np.array(accepted, dtype=np.intp), int(round(0.080 * fs)), n)
    strongest = np.argmax(np.abs(x[idx] / peak), axis=1)
    return np.unique(idx[np.arange(len(idx)), strongest]).astype(int)


def wavelet_qrs(signal, levels=4, threshold_mode="soft", spike_fraction=0.20,
                qrs_min_ms=50.0, qrs_max_ms=150.0, artifact_threshold=0.15):
    """Wavelet-denoise a raw ECG (`denoise_samples` with levels and
    threshold_mode), then label its spikes with `annotate_spikes`. A caller
    that already holds the denoised signal calls `annotate_spikes` on it
    instead, so the record is not denoised twice."""
    _validate_detector_input(signal)
    den = signal.replace_samples(denoise_samples(signal.samples, levels, threshold_mode))
    return annotate_spikes(den, spike_fraction, qrs_min_ms, qrs_max_ms, artifact_threshold)


def annotate_spikes(denoised, spike_fraction=0.20, qrs_min_ms=50.0, qrs_max_ms=150.0,
                    artifact_threshold=0.15):
    """Annotate contiguous supra-threshold spikes of a denoised signal.

    The scan threshold is spike_fraction * max|denoised|. A spike whose
    duration falls outside [qrs_min_ms, qrs_max_ms] is NOISE; one whose
    peak stays below artifact_threshold (in input units) is ARTIFACT;
    anything else is a QRS with r_peak at the largest |amplitude|.
    pq_junction / j_point are the crossing samples just outside the
    supra-threshold run; spikes truncated by the record edge are NOISE.
    """
    _validate_detector_input(denoised)
    aden = np.abs(denoised.samples)
    n = len(aden)
    mx = np.max(aden)
    if mx <= 0:
        return []
    theta = spike_fraction * mx
    above = aden > theta
    edges = np.diff(above.astype(np.int8))
    starts = (np.flatnonzero(edges == 1) + 1).tolist()
    ends = (np.flatnonzero(edges == -1) + 1).tolist()
    if above[0]:
        starts.insert(0, 0)
    if above[-1]:
        ends.append(n)
    fs = denoised.rate_hz
    annotations = []
    for s, e in zip(starts, ends):
        r = s + int(np.argmax(aden[s:e]))
        duration_ms = (e - s) / fs * 1000.0
        truncated = s == 0 or e == n
        if truncated or not (qrs_min_ms <= duration_ms <= qrs_max_ms):
            label = BeatLabel.NOISE
        elif aden[r] < artifact_threshold:
            label = BeatLabel.ARTIFACT
        else:
            label = BeatLabel.QRS
        annotations.append(BeatAnnotation(
            r_peak=r,
            pq_junction=max(s - 1, 0),
            j_point=min(e, n - 1),
            label=label,
        ))
    return annotations


def annotations_to_csv(annotations):
    out = io.StringIO()
    out.write("beat_index,r_peak_sample,onset_sample,offset_sample,label\n")
    for i, ann in enumerate(annotations):
        out.write("%d,%d,%d,%d,%s\n" % (i, ann.r_peak, ann.pq_junction, ann.j_point, ann.label.value))
    return out.getvalue()
