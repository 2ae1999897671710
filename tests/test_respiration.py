import numpy as np
import pytest

from edgevitals.errors import NoDataError
from edgevitals.respiration import respiration_rate, volume_features

from conftest import resp_signal

FS = 25.0


def breathing(freq_hz, duration_s=60.0, amplitude=1.0, fs=FS, offset=0.0):
    t = np.arange(int(duration_s * fs)) / fs
    return offset + amplitude * np.sin(2 * np.pi * freq_hz * t)


class TestDominantFrequency:
    """respiration_rate is 60 times each window's dominant frequency."""

    def test_exact_bin_frequencies(self):
        for f in (0.1, 0.3, 0.9, 1.9):
            sig = resp_signal(breathing(f), fs=FS)
            rates = respiration_rate(sig)
            assert len(rates) == 1
            assert rates[0] == pytest.approx(f * 60.0, abs=60e-9)

    def test_dc_offset_ignored(self):
        sig = resp_signal(breathing(0.3, offset=50.0), fs=FS)
        assert respiration_rate(sig)[0] == pytest.approx(18.0, abs=60e-9)

    def test_content_above_fmax_ignored(self):
        t = np.arange(int(60 * FS)) / FS
        x = 0.5 * np.sin(2 * np.pi * 0.4 * t) + 2.0 * np.sin(2 * np.pi * 5.0 * t)
        assert respiration_rate(resp_signal(x, fs=FS))[0] == pytest.approx(24.0, abs=60e-9)

    def test_two_windows(self):
        a = breathing(0.2, 60.0)
        b = breathing(0.5, 60.0)
        sig = resp_signal(np.concatenate([a, b]), fs=FS)
        rates = respiration_rate(sig)
        assert len(rates) == 2
        assert rates[0] == pytest.approx(12.0, abs=60e-9)
        assert rates[1] == pytest.approx(30.0, abs=60e-9)

    def test_record_shorter_than_window(self):
        sig = resp_signal(breathing(0.3, 30.0), fs=FS)
        with pytest.raises(NoDataError):
            respiration_rate(sig)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_window_with_no_in_band_bin(self, n):
        # at 25 Hz a window of n <= 3 samples has no bin in (0, F_MAX_HZ]
        sig = resp_signal(breathing(0.3, 1.0), fs=FS)
        with pytest.raises(NoDataError, match="window too short for any in-band bin"):
            respiration_rate(sig, window_s=n / FS)


class TestRespirationRate:
    def test_rate_is_dominant_times_60(self):
        sig = resp_signal(breathing(0.25), fs=FS)
        rates = respiration_rate(sig)
        assert rates.shape == (1,)
        assert rates[0] == pytest.approx(15.0, abs=1e-6)

    def test_within_one_bpm_for_offgrid(self):
        # 0.27 Hz is between bins; nearest bin is within 1/60 Hz
        sig = resp_signal(breathing(0.27), fs=FS)
        assert abs(respiration_rate(sig)[0] - 16.2) <= 1.0


def sweep(duration_s, fs):
    """A 0.1 -> 1.9 Hz chirp plus seeded noise, so each window's dominant
    line depends on exactly which samples the window holds."""
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    phase = 2 * np.pi * np.cumsum(0.1 + 1.8 * t / duration_s) / fs
    return np.sin(phase) + 0.5 * np.random.default_rng(7).standard_normal(n)


class TestFractionalWindows:
    """Windows that are not a whole number of samples over recordings that
    are not a whole number of windows. Window i starts at sample
    round(start * fs), start summed in floats, and holds round(window_s * fs)
    samples; the rates pin that stepping bit for bit, and the recording
    holds floor(duration_s / window_s) whole windows."""

    @pytest.mark.parametrize("fs, window_s, duration_s, rates, windows", [
        (25.0, 37.3, 90.0, ["0x1.cf84f1b77c279p+4", "0x1.21b31712ad98cp+6"],
         2),
        (33.3, 61.13, 301.7, ["0x1.0aec6293ddccap+4", "0x1.322d43e5d8c51p+5",
                              "0x1.ee97e3d5c0a0ep+5", "0x1.4da77b38d53fdp+6"],
         4),
        (4.0, 7.7, 90.0, ["0x1.ef7bdef7bdef8p+2", "0x1.739ce739ce73ap+4",
                          "0x1.ef7bdef7bdef8p+4", "0x1.35ad6b5ad6b5bp+5",
                          "0x1.739ce739ce73ap+5", "0x1.b18c6318c6319p+5",
                          "0x1.ef7bdef7bdef8p+5", "0x1.35ad6b5ad6b5bp+6",
                          "0x1.54a5294a5294bp+6", "0x1.739ce739ce73ap+6",
                          "0x1.9294a5294a529p+6"],
         11),
    ])
    def test_rates_and_window_count_are_pinned(self, fs, window_s, duration_s, rates,
                                               windows):
        sig = resp_signal(sweep(duration_s, fs), fs=fs)
        got = respiration_rate(sig, window_s)
        assert [float(r).hex() for r in got] == rates
        assert len(got) == windows == int(duration_s // window_s)


class TestVolumeFeatures:
    def test_uniform_cycles(self):
        sig = resp_signal(breathing(0.25, 60.0, amplitude=1.5), fs=FS)
        vol = volume_features(sig, calibration=2.0)
        # each cycle swings -1.5..1.5, excursion 3.0, calibrated to 1.5 L
        assert vol["tidal_volume_l"] == pytest.approx(1.5, rel=1e-3)
        assert vol["vital_capacity_l"] == pytest.approx(1.5, rel=1e-3)

    def test_one_deep_breath(self):
        t = np.arange(int(40 * FS)) / FS
        x = np.sin(2 * np.pi * 0.25 * t)
        deep = (t >= 20.0) & (t < 24.0)
        x[deep] *= 3.0
        vol = volume_features(resp_signal(x, fs=FS), calibration=1.0)
        assert vol["vital_capacity_l"] == pytest.approx(6.0, rel=1e-2)
        assert vol["tidal_volume_l"] == pytest.approx(2.0, rel=1e-2)

    def test_too_few_cycles(self):
        sig = resp_signal(breathing(0.25, 8.0), fs=FS)
        with pytest.raises(NoDataError):
            volume_features(sig, calibration=1.0)

    def test_calibration_validation(self):
        sig = resp_signal(breathing(0.25), fs=FS)
        with pytest.raises(ValueError):
            volume_features(sig, calibration=0.0)

