"""The numeric kernels of the signal path against explicit oracles.

The DB4 analysis step must equal the per-output sum
out[k] = sum_m ext[2k+1+m] * fr[m] bitwise; the synthesis step must match
its explicit sum to rounding; the synthesis step and the whole denoise must
return exactly what their references in denoise_reference.py return; the
Pan-Tompkins moving average must equal a sequential running sum bitwise;
Pan-Tompkins and the spike annotator must return exactly what their
reference loops in qrs_reference.py return.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgevitals.ecg_preprocess import (
    DB4_REC_HI,
    DB4_REC_LO,
    _dwt_step,
    _idwt_step,
    denoise_samples,
    dwt_db4,
)
from edgevitals.qrs_detect import _moving_average, _window_indices, annotate_spikes, pan_tompkins

from conftest import ecg_signal, qrs_shape
from denoise_reference import denoise_samples as reference_denoise_samples
from denoise_reference import idwt_step as reference_idwt_step
from qrs_reference import annotate_spikes as reference_annotate_spikes
from qrs_reference import pan_tompkins as reference_pan_tompkins

TAPS = 8


def explicit_analysis(x, fr):
    ext = np.pad(x, (TAPS - 1, TAPS - 1), mode="symmetric")
    out = np.empty((len(ext) - TAPS + 1) // 2)
    for k in range(len(out)):
        s = 0.0
        for m in range(TAPS):
            s += ext[2 * k + 1 + m] * fr[m]
        out[k] = s
    return out


def explicit_synthesis(a, d, out_len):
    n = 2 * len(a) - 1 + TAPS - 1
    y = np.empty(n)
    for i in range(n):
        s_lo = 0.0
        s_hi = 0.0
        for m in range(TAPS):
            j = i - m
            # upsampled inputs are zero at odd positions
            if 0 <= j < 2 * len(a) - 1 and j % 2 == 0:
                s_lo += a[j // 2] * DB4_REC_LO[m]
                s_hi += d[j // 2] * DB4_REC_HI[m]
        y[i] = s_lo + s_hi
    return y[TAPS - 2: n - (TAPS - 2)][:out_len]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(8, 600), seed=st.integers(0, 2 ** 32 - 1))
def test_down_convolve_bitwise_equals_explicit_sum(n, seed):
    x = np.random.default_rng(seed).normal(size=n)
    lo, hi = _dwt_step(x)
    assert np.array_equal(lo, explicit_analysis(x, DB4_REC_LO))
    assert np.array_equal(hi, explicit_analysis(x, DB4_REC_HI))


def test_down_convolve_length_matches_halfband():
    # floor((n + L - 1) / 2) coefficients for an n-sample input
    for n in (64, 65, 317, 318):
        lo, hi = _dwt_step(np.zeros(n))
        assert len(lo) == len(hi) == (n + TAPS - 1) // 2


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(4, 300), seed=st.integers(0, 2 ** 32 - 1))
def test_up_convolve_add_matches_explicit_sum(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    d = rng.normal(size=n)
    out_len = 2 * n - TAPS + 2 - int(rng.integers(0, 2))
    got = _idwt_step(a, d, out_len)
    want = explicit_synthesis(a, d, out_len)
    assert got.shape == want.shape == (out_len,)
    assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_down_convolve_bands_own_their_memory():
    # a view into the full-length correlation would keep it alive
    lo, hi = _dwt_step(np.random.default_rng(12).normal(size=101))
    assert lo.base is None and hi.base is None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 400), short=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_up_convolve_add_equals_reference(n, short, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=n)
    d = rng.normal(size=n)
    out_len = max(0, 2 * n - TAPS + 2 - int(short))
    got = _idwt_step(a, d, out_len)
    want = reference_idwt_step(a, d, out_len)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(2, 3000), levels=st.integers(1, 5), mode=st.sampled_from(["soft", "hard"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_denoise_equals_reference(n, levels, mode, seed):
    levels = min(levels, n.bit_length() - 1)
    x = np.random.default_rng(seed).normal(size=n)
    before = x.copy()
    got = denoise_samples(x, levels, mode)
    want = reference_denoise_samples(x, levels, mode)
    # identical bytes need the signs of zeros to match as well
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(x, before)


def test_dwt_db4_matches_explicit_sum():
    # each level analyses the previous approximation
    x = np.random.default_rng(11).normal(size=777)
    dec = dwt_db4(x, 3)
    a = x
    for level in range(3):
        assert dec.level_input_lengths[level] == len(a)
        assert np.array_equal(dec.details[level], explicit_analysis(a, DB4_REC_HI))
        a = explicit_analysis(a, DB4_REC_LO)
    assert np.array_equal(dec.approximation, a)
    assert dec.level_input_lengths[0] == 777


def test_moving_average_bitwise_equals_running_sum():
    rng = np.random.default_rng(9)
    for n, w in ((50, 3), (500, 37), (100, 4), (64, 64)):
        x = rng.normal(size=n)
        off = (w - 1) // 2
        xp = np.concatenate((np.zeros(w - 1 - off), x, np.zeros(off)))
        cum = [0.0]
        for v in xp:
            cum.append(cum[-1] + v)
        want = np.array([(cum[k + w] - cum[k]) / w for k in range(n)])
        assert np.array_equal(_moving_average(x, w), want)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 300), w=st.integers(1, 80), signed_zeros=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_moving_average_bytes_equal_padded_running_sum(n, w, signed_zeros, seed):
    # the padded sum starts from 0.0, so a leading -0.0 must not survive
    # unless there is no padding before x (w == 1)
    x = np.random.default_rng(seed).normal(size=n)
    if signed_zeros:
        x[: n // 2] = -0.0
    off = (w - 1) // 2
    xp = np.concatenate((np.zeros(w - 1 - off), x, np.zeros(off)))
    cum = np.empty(n + w)
    cum[0] = 0.0
    np.cumsum(xp, out=cum[1:])
    want = (cum[w:] - cum[:n]) / w
    assert _moving_average(x, w).tobytes() == want.tobytes()


def test_moving_average_matches_numpy_convolve():
    rng = np.random.default_rng(10)
    for n, w in ((100, 5), (257, 38)):
        x = rng.normal(size=n)
        want = np.convolve(x, np.ones(w) / w, mode="same")
        got = _moving_average(x, w)
        assert np.allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(1, 200), half=st.integers(0, 30), seed=st.integers(0, 2 ** 32 - 1))
def test_window_gather_equals_truncated_slices(n, half, seed):
    # ties are likely in a small integer signal, so first-occurrence argmax
    # is checked as well as the max
    rng = np.random.default_rng(seed)
    x = rng.integers(-3, 4, n).astype(float)
    centres = np.unique(rng.integers(0, n, 10))
    idx = _window_indices(centres, half, n)
    rows = np.abs(x[idx])
    for row, pos, c in zip(rows, idx, centres):
        lo = max(0, c - half)
        window = np.abs(x[lo: c + half + 1])
        assert row.max() == window.max()
        assert pos[np.argmax(row)] == lo + np.argmax(window)


def _beat_record(fs, bpm, jitter, duration_s, snr_db, spike_rate, seed, head_ms, tail_ms, weak,
                 scale):
    """synth_ecg's beat template at bpm, each RR scaled by up to 1 +- jitter,
    with the first R peak head_ms after the start and the last tail_ms
    before the end. The beats in `weak` (index, factor) are scaled down:
    factor 0 drops the beat, a partial factor leaves one that only a
    search-back can accept. One-sample artifact spikes, spike_rate per
    sample, put the strongest excursion anywhere in a detection's window,
    its edges included."""
    rng = np.random.default_rng(seed)
    period = 60.0 / bpm
    gaps = np.round(fs * period * (1.0 + jitter * rng.uniform(-1.0, 1.0, int(duration_s / period) + 2)))
    beats = int(round(head_ms * fs / 1000.0)) + np.concatenate(([0], np.cumsum(gaps))).astype(int)
    amps = np.ones(len(beats))
    for k, factor in weak:
        amps[k % len(beats)] = factor
    n = beats[-1] + int(round(tail_ms * fs / 1000.0)) + 1
    t = np.arange(n) / fs
    x = np.zeros(n)
    for b, amp in zip(beats, amps):
        x += amp * qrs_shape(t - b / fs)
    if snr_db is not None:
        x += rng.normal(0.0, np.sqrt(np.mean(x ** 2) / 10.0 ** (snr_db / 10.0)), n)
    spikes = rng.random(n) < spike_rate
    x[spikes] += rng.choice([-1.0, 1.0], spikes.sum()) * rng.uniform(0.5, 2.0, spikes.sum())
    return ecg_signal(scale * x, fs)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    fs=st.sampled_from([100.0, 250.0, 360.0, 500.0]),
    bpm=st.integers(40, 180),
    jitter=st.sampled_from([0.0, 0.1, 0.3]),
    duration_s=st.floats(8.0, 30.0),
    snr_db=st.one_of(st.none(), st.floats(0.0, 30.0)),
    spike_rate=st.sampled_from([0.0, 0.005, 0.02]),
    seed=st.integers(0, 1000),
    head_ms=st.floats(0.0, 80.0),
    tail_ms=st.floats(0.0, 80.0),
    weak=st.lists(st.tuples(st.integers(-3, 60), st.sampled_from([0.0, 0.4, 0.6])), max_size=4),
    scale=st.floats(1e-3, 1e3),
)
# a dropped and a weak final beat: the closing search-back accepts the latter
@example(fs=250.0, bpm=75, jitter=0.0, duration_s=12.0, snr_db=20.0, spike_rate=0.0, seed=3,
         head_ms=40.0, tail_ms=60.0, weak=[(-2, 0.0), (-1, 0.4)], scale=2.0)
@example(fs=500.0, bpm=75, jitter=0.0, duration_s=12.0, snr_db=20.0, spike_rate=0.0, seed=3,
         head_ms=0.0, tail_ms=60.0, weak=[(-2, 0.0), (-1, 0.4)], scale=0.5)
def test_detectors_equal_reference(fs, bpm, jitter, duration_s, snr_db, spike_rate, seed, head_ms,
                                   tail_ms, weak, scale):
    sig = _beat_record(fs, bpm, jitter, duration_s, snr_db, spike_rate, seed, head_ms, tail_ms,
                       weak, scale)
    got = pan_tompkins(sig)
    want = reference_pan_tompkins(sig)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    for fraction in (0.2, 0.5):
        assert annotate_spikes(sig, fraction) == reference_annotate_spikes(sig, fraction)
