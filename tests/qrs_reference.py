"""The Pan-Tompkins detector and the spike annotator as they were before
their decision loops moved onto Python scalars and their windowed features
onto one vectorised gather. Kept verbatim as the test oracle: the shipped
functions must return identical arrays and annotations.
"""

import numpy as np

from edgevitals.qrs_detect import (
    BeatAnnotation,
    BeatLabel,
    _moving_average,
    _validate_detector_input,
)


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
    xn = x / peak

    from scipy.signal import butter, find_peaks, sosfiltfilt

    sos_lo = butter(2, 15.0, btype="lowpass", fs=fs, output="sos")
    sos_hi = butter(2, 5.0, btype="highpass", fs=fs, output="sos")
    bp = sosfiltfilt(sos_hi, sosfiltfilt(sos_lo, xn))
    deriv = np.convolve(bp, np.array([1.0, 2.0, 0.0, -2.0, -1.0]) * (fs / 8.0), mode="same")
    mwi = _moving_average(deriv * deriv, max(1, int(round(0.150 * fs))))

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
    abp = np.abs(bp)
    cf = np.array([np.max(abp[max(0, c - half_f): c + half_f + 1]) for c in cand])

    n_init = min(len(xn), int(2 * fs))
    spki = 0.5 * np.max(mwi[:n_init])
    npki = 0.5 * np.mean(mwi[:n_init])
    spkf = 0.5 * np.max(abp[:n_init])
    npkf = 0.5 * np.mean(abp[:n_init])

    accepted = []
    rr_hist = []
    last_qrs = -(10 ** 9)
    searched_upto = 0
    irregular = False
    i = 0
    while i < len(cand):
        c = cand[i]
        thr_i = npki + 0.25 * (spki - npki)
        thr_f = npkf + 0.25 * (spkf - npkf)
        if irregular:
            # sensitivity doubles while the rhythm is off its running band
            thr_i *= 0.5
            thr_f *= 0.5
        if accepted and rr_hist:
            rr_avg = np.mean(rr_hist[-8:])
            if c - last_qrs > 1.66 * rr_avg:
                best = -1
                best_cm = 0.0
                for j in range(searched_upto, i):
                    if cand[j] - last_qrs <= refractory:
                        continue
                    if cm[j] > 0.5 * thr_i and cf[j] > 0.5 * thr_f and cm[j] > best_cm:
                        best = j
                        best_cm = cm[j]
                if best >= 0:
                    cb = cand[best]
                    rr = cb - last_qrs
                    irregular = not (0.92 * rr_avg <= rr <= 1.16 * rr_avg)
                    rr_hist.append(rr)
                    accepted.append(cb)
                    last_qrs = cb
                    spki = 0.25 * cm[best] + 0.75 * spki
                    spkf = 0.25 * cf[best] + 0.75 * spkf
                    searched_upto = best + 1
        if c - last_qrs <= refractory:
            i += 1
            continue
        if cm[i] > thr_i and cf[i] > thr_f:
            if accepted:
                rr = c - last_qrs
                if rr_hist:
                    rr_avg = np.mean(rr_hist[-8:])
                    irregular = not (0.92 * rr_avg <= rr <= 1.16 * rr_avg)
                rr_hist.append(rr)
            accepted.append(c)
            last_qrs = c
            spki = 0.125 * cm[i] + 0.875 * spki
            spkf = 0.125 * cf[i] + 0.875 * spkf
            searched_upto = i + 1
        else:
            npki = 0.125 * cm[i] + 0.875 * npki
            npkf = 0.125 * cf[i] + 0.875 * npkf
        i += 1

    if accepted and rr_hist:
        # one closing search-back so a trailing miss is not lost
        rr_avg = np.mean(rr_hist[-8:])
        thr_i = npki + 0.25 * (spki - npki)
        thr_f = npkf + 0.25 * (spkf - npkf)
        if len(xn) - last_qrs > 1.66 * rr_avg:
            best = -1
            best_cm = 0.0
            for j in range(searched_upto, len(cand)):
                if cand[j] - last_qrs <= refractory:
                    continue
                if cm[j] > 0.5 * thr_i and cf[j] > 0.5 * thr_f and cm[j] > best_cm:
                    best = j
                    best_cm = cm[j]
            if best >= 0:
                accepted.append(cand[best])

    # integration delays the mwi peak; relocate each detection onto the
    # strongest input excursion nearby
    half_r = int(round(0.080 * fs))
    axn = np.abs(xn)
    refined = set()
    for c in accepted:
        lo = max(0, c - half_r)
        hi = min(len(xn), c + half_r + 1)
        refined.add(lo + int(np.argmax(axn[lo:hi])))
    return np.array(sorted(refined), dtype=int)


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
    den = denoised.samples
    mx = np.max(np.abs(den))
    if mx <= 0:
        return []
    theta = spike_fraction * mx
    above = np.abs(den) > theta
    edges = np.diff(above.astype(np.int8))
    starts = list(np.flatnonzero(edges == 1) + 1)
    ends = list(np.flatnonzero(edges == -1) + 1)
    if above[0]:
        starts.insert(0, 0)
    if above[-1]:
        ends.append(len(den))
    fs = denoised.rate_hz
    annotations = []
    for s, e in zip(starts, ends):
        r = s + int(np.argmax(np.abs(den[s:e])))
        duration_ms = (e - s) / fs * 1000.0
        truncated = s == 0 or e == len(den)
        if truncated or not (qrs_min_ms <= duration_ms <= qrs_max_ms):
            label = BeatLabel.NOISE
        elif np.abs(den[r]) < artifact_threshold:
            label = BeatLabel.ARTIFACT
        else:
            label = BeatLabel.QRS
        annotations.append(BeatAnnotation(
            r_peak=r,
            pq_junction=max(s - 1, 0),
            j_point=min(e, len(den) - 1),
            label=label,
        ))
    return annotations
