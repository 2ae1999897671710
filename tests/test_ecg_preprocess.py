import numpy as np
import pytest
import scipy.signal

from edgevitals.ecg_preprocess import (
    DB4_DEC_HI,
    DB4_DEC_LO,
    DB4_REC_HI,
    DB4_REC_LO,
    HighPassSpec,
    denoise_samples,
    dwt_db4,
    idwt_db4,
    remove_baseline_linear,
    remove_baseline_poly,
    select_pq_knots,
    wavelet_denoise,
)
from edgevitals.signal_core import SampledSignal, SignalKind

from conftest import ecg_signal, match_beats, qrs_shape, resp_signal, synth_ecg


class TestDb4Taps:
    def test_lowpass_sums_to_sqrt2(self):
        assert abs(np.sum(DB4_DEC_LO) - np.sqrt(2.0)) < 1e-12
        assert abs(np.sum(DB4_REC_LO) - np.sqrt(2.0)) < 1e-12

    def test_highpass_sums_to_zero(self):
        assert abs(np.sum(DB4_DEC_HI)) < 1e-12

    def test_orthonormality(self):
        assert np.sum(DB4_DEC_LO ** 2) == pytest.approx(1.0, abs=1e-12)
        # double-shift orthogonality of the scaling filter
        for shift in (2, 4, 6):
            dot = np.sum(DB4_DEC_LO[shift:] * DB4_DEC_LO[:-shift])
            assert abs(dot) < 1e-12

    def test_vanishing_moments(self):
        # 4 vanishing moments: the wavelet filter kills cubic polynomials
        k = np.arange(8.0)
        for p in range(4):
            assert abs(np.sum(DB4_DEC_HI * k ** p)) < 1e-8


class TestRoundTrip:
    def test_random_lengths_and_levels(self, rng):
        for _ in range(40):
            n = int(rng.integers(64, 4097))
            levels = int(rng.integers(1, 5))
            x = rng.normal(size=n)
            dec = dwt_db4(x, levels)
            y = idwt_db4(dec)
            assert len(y) == n
            rel = np.max(np.abs(y - x)) / np.max(np.abs(x))
            assert rel < 1e-8

    def test_odd_length(self, rng):
        x = rng.normal(size=2501)
        assert np.allclose(idwt_db4(dwt_db4(x, 4)), x, atol=1e-10)

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            dwt_db4(np.zeros(64), 0)
        with pytest.raises(ValueError):
            dwt_db4(np.zeros(7), 3)

    def test_detail_lengths_halve(self):
        dec = dwt_db4(np.zeros(1000), 3)
        assert [len(d) for d in dec.details] == [503, 255, 131]
        assert len(dec.approximation) == 131


class TestDenoise:
    def test_improves_noisy_ecg(self):
        x_clean, _ = synth_ecg(70, snr_db=None)
        x_noisy, _ = synth_ecg(70, snr_db=5.0, seed=0)
        noise_in = x_noisy - x_clean
        den = denoise_samples(x_noisy, 4, "soft")
        noise_out = den - x_clean
        snr_in = 10 * np.log10(np.mean(x_clean ** 2) / np.mean(noise_in ** 2))
        snr_out = 10 * np.log10(np.mean(x_clean ** 2) / np.mean(noise_out ** 2))
        assert snr_in == pytest.approx(5.0, abs=0.3)
        assert snr_out - snr_in >= 3.0

    def test_clean_signal_keeps_peaks(self):
        x, truth = synth_ecg(60, snr_db=None)
        den = denoise_samples(x, 4, "soft")
        for r in truth:
            lo, hi = max(0, r - 5), r + 6
            assert np.max(den[lo:hi]) >= 0.98 * np.max(x[lo:hi])

    def test_hard_mode_keeps_surviving_coefficients(self, rng):
        x = rng.normal(size=512)
        den_h = denoise_samples(x, 2, "hard")
        den_s = denoise_samples(x, 2, "soft")
        assert den_h.shape == den_s.shape == x.shape
        assert not np.array_equal(den_h, den_s)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            denoise_samples(np.zeros(64), 2, "medium")

    def test_signal_wrapper_preserves_metadata(self):
        x, _ = synth_ecg(60)
        sig = ecg_signal(x, 250.0, start_ms=123)
        out = wavelet_denoise(sig)
        assert out.start_time_ms == 123
        assert out.kind is SignalKind.ECG
        assert len(out.samples) == len(x)


class TestRemoveBaselineLinear:
    def _drifted(self, drift_hz=0.1, fs=250.0, dur=120.0):
        x, truth = synth_ecg(70, fs=fs, duration_s=dur)
        t = np.arange(len(x)) / fs
        drift = np.sin(2 * np.pi * drift_hz * t)
        return x, drift, truth

    def test_attenuates_slow_drift_20db(self):
        x, drift, _ = self._drifted()
        sig = ecg_signal(x + drift)
        out = remove_baseline_linear(sig)
        # compare against the clean signal run through the same filter so
        # only the drift residue is measured
        ref = remove_baseline_linear(ecg_signal(x))
        residue = out.samples - ref.samples
        core = slice(2500, len(x) - 2500)
        att_db = 10 * np.log10(np.mean(drift[core] ** 2) / np.mean(residue[core] ** 2))
        assert att_db >= 20.0

    def test_matches_analytic_response_within_1db(self):
        fs = 250.0
        spec = HighPassSpec()
        n = int(fs * 600)
        t = np.arange(n) / fs
        drift = np.sin(2 * np.pi * 0.1 * t)
        out = remove_baseline_linear(ecg_signal(drift, fs))
        core = slice(int(fs * 60), n - int(fs * 60))
        measured_db = 10 * np.log10(np.mean(drift[core] ** 2)
                                    / np.mean(out.samples[core] ** 2))
        sos = scipy.signal.butter(spec.order, spec.cutoff_hz, "highpass",
                                  fs=fs, output="sos")
        _, h = scipy.signal.sosfreqz(sos, worN=[0.1], fs=fs)
        # zero-phase filtering applies the filter twice
        expected_db = -40.0 * np.log10(np.abs(h[0]))
        assert abs(measured_db - expected_db) <= 1.0

    def test_preserves_qrs_detectability(self):
        x, drift, truth = self._drifted()
        from edgevitals.qrs_detect import pan_tompkins
        out = remove_baseline_linear(ecg_signal(x + 0.5 * drift))
        peaks = pan_tompkins(out)
        tp, fn, fp = match_beats(truth, peaks, 250.0)
        assert fn == 0 and fp == 0

    def test_requires_ecg_kind(self):
        with pytest.raises(ValueError):
            remove_baseline_linear(resp_signal(np.zeros(100)))

    def test_cutoff_validation(self):
        sig = ecg_signal(np.zeros(1000))
        with pytest.raises(ValueError):
            remove_baseline_linear(sig, HighPassSpec(cutoff_hz=0.0))
        with pytest.raises(ValueError):
            remove_baseline_linear(sig, HighPassSpec(cutoff_hz=200.0))


class TestSelectPqKnots:
    def test_finds_flat_segment(self):
        fs = 250.0
        n = 2000
        x = np.sin(2 * np.pi * 3.0 * np.arange(n) / fs)
        # flatten a stretch ending 100 ms before the "R" at sample 1500
        flat_lo, flat_hi = 1455, 1472
        x[flat_lo:flat_hi] = x[flat_lo]
        knots = select_pq_knots(ecg_signal(x, fs), [1500])
        assert len(knots) == 1
        assert flat_lo <= knots[0] < flat_hi

    def test_window_clipped_at_record_start(self):
        fs = 250.0
        x = np.arange(500, dtype=float)
        knots = select_pq_knots(ecg_signal(x, fs), [10])
        assert len(knots) == 0

    def test_returns_sorted_unique(self):
        x, truth = synth_ecg(70)
        knots = select_pq_knots(ecg_signal(x), truth)
        assert np.all(np.diff(knots) > 0)


class TestRemoveBaselinePoly:
    def test_zero_at_knots(self):
        x, truth = synth_ecg(70)
        t = np.arange(len(x)) / 250.0
        drifted = ecg_signal(x + 0.8 * np.sin(2 * np.pi * 0.2 * t))
        knots = select_pq_knots(drifted, truth)
        out = remove_baseline_poly(drifted, knots)
        assert np.max(np.abs(out.samples[np.asarray(knots)])) < 1e-9

    def test_cancels_affine_drift(self):
        n = 5000
        affine = 0.3 + 0.001 * np.arange(n)
        sig = ecg_signal(affine)
        out = remove_baseline_poly(sig, [100, 2000, 4500])
        assert np.max(np.abs(out.samples)) < 1e-9

    def test_removes_slow_band_power(self):
        fs = 250.0
        x, truth = synth_ecg(70, fs=fs, duration_s=120.0)
        t = np.arange(len(x)) / fs
        drift = 0.8 * np.sin(2 * np.pi * 0.2 * t)
        drifted = ecg_signal(x + drift)
        knots = select_pq_knots(drifted, truth)
        out = remove_baseline_poly(drifted, knots)

        def band_power(samples):
            spec = np.abs(np.fft.rfft(samples)) ** 2
            freqs = np.fft.rfftfreq(len(samples), 1.0 / fs)
            band = (freqs >= 0.15) & (freqs <= 0.25)
            return np.sum(spec[band])

        assert band_power(out.samples - x) < 0.1 * band_power(drift)

    def test_knot_validation(self):
        sig = ecg_signal(np.zeros(100))
        with pytest.raises(ValueError):
            remove_baseline_poly(sig, [5])
        with pytest.raises(ValueError):
            remove_baseline_poly(sig, [10, 10])
        with pytest.raises(ValueError):
            remove_baseline_poly(sig, [10, 200])
