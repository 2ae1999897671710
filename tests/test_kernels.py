"""The numeric kernels of the signal path against explicit oracles.

The DB4 analysis step must equal the per-output sum
out[k] = sum_m ext[2k+1+m] * fr[m] bitwise; the synthesis step must match
its explicit sum to rounding; the Pan-Tompkins moving average must equal
a sequential running sum bitwise.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edgevitals.ecg_preprocess import (
    DB4_REC_HI,
    DB4_REC_LO,
    _DEC_HI_R,
    _DEC_LO_R,
    _dwt_step,
    _idwt_step,
    dwt_db4,
)
from edgevitals.qrs_detect import _moving_average

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
    assert np.array_equal(lo, explicit_analysis(x, _DEC_LO_R))
    assert np.array_equal(hi, explicit_analysis(x, _DEC_HI_R))


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


def test_dwt_db4_matches_explicit_sum():
    # each level analyses the previous approximation
    x = np.random.default_rng(11).normal(size=777)
    dec = dwt_db4(x, 3)
    a = x
    for level in range(3):
        assert dec.level_input_lengths[level] == len(a)
        assert np.array_equal(dec.details[level], explicit_analysis(a, _DEC_HI_R))
        a = explicit_analysis(a, _DEC_LO_R)
    assert np.array_equal(dec.approximation, a)
    assert dec.original_length == 777


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


def test_moving_average_matches_numpy_convolve():
    rng = np.random.default_rng(10)
    for n, w in ((100, 5), (257, 38)):
        x = rng.normal(size=n)
        want = np.convolve(x, np.ones(w) / w, mode="same")
        got = _moving_average(x, w)
        assert np.allclose(got, want, rtol=0, atol=1e-12)
