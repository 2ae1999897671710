"""Shared synthetic-signal helpers for the test suite."""

import numpy as np
import pytest

from edgevitals.signal_core import SampledSignal


def qrs_shape(t):
    """Narrow spike on a wider base, close enough to a real QRS for the
    detectors and wide enough to survive thresholding."""
    return np.exp(-0.5 * (t / 0.010) ** 2) + 0.60 * np.exp(-0.5 * (t / 0.030) ** 2)


def synth_ecg(bpm, fs=250.0, duration_s=60.0, snr_db=None, seed=0):
    """Template train at a fixed rate; returns (samples, true R indices).

    snr_db adds white noise at the given mean-power signal-to-noise ratio
    from a seeded generator, so every (bpm, seed) pair is reproducible.
    """
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    x = np.zeros(n)
    period = 60.0 / bpm
    truth = []
    c = period / 2.0
    while c < duration_s - period / 4.0:
        x += qrs_shape(t - c)
        truth.append(int(round(c * fs)))
        c += period
    if snr_db is not None:
        rng = np.random.default_rng(9000 * int(bpm) + seed)
        noise_power = np.mean(x ** 2) / (10.0 ** (snr_db / 10.0))
        x = x + rng.normal(0.0, np.sqrt(noise_power), size=n)
    return x, np.array(truth, dtype=int)


def match_beats(truth, detected, fs, tol_s=0.05):
    """Greedy one-to-one matching within +-tol_s. Returns (tp, fn, fp)."""
    tol = int(round(tol_s * fs))
    detected = sorted(int(d) for d in detected)
    used = [False] * len(detected)
    tp = 0
    for tr in truth:
        best = None
        best_dist = tol + 1
        for i, d in enumerate(detected):
            if used[i]:
                continue
            dist = abs(d - tr)
            if dist < best_dist:
                best_dist = dist
                best = i
        if best is not None and best_dist <= tol:
            used[best] = True
            tp += 1
    fn = len(truth) - tp
    fp = len(detected) - tp
    return tp, fn, fp


def signal_csv_text(samples, fs, start_ms=0):
    lines = ["timestamp_ms,value"]
    for i, v in enumerate(samples):
        lines.append("%r,%r" % (start_ms + i * 1000.0 / fs, float(v)))
    return "\n".join(lines) + "\n"


def write_signal_csv(path, samples, fs, start_ms=0):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(signal_csv_text(samples, fs, start_ms))


def ecg_signal(samples, fs=250.0, start_ms=0):
    return SampledSignal(np.asarray(samples, dtype=float), fs, start_ms)


def resp_signal(samples, fs=25.0, start_ms=0):
    return SampledSignal(np.asarray(samples, dtype=float), fs, start_ms)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
