import numpy as np
import pytest

from edgevitals.errors import NoDataError
from edgevitals.respiration import (
    respiration_rate,
    stft_dominant_frequency,
    volume_features,
)

from conftest import ecg_signal, resp_signal

FS = 25.0


def breathing(freq_hz, duration_s=60.0, amplitude=1.0, fs=FS, offset=0.0):
    t = np.arange(int(duration_s * fs)) / fs
    return offset + amplitude * np.sin(2 * np.pi * freq_hz * t)


class TestDominantFrequency:
    def test_exact_bin_frequencies(self):
        for f in (0.1, 0.3, 0.9, 1.9):
            sig = resp_signal(breathing(f), fs=FS)
            doms = stft_dominant_frequency(sig)
            assert len(doms) == 1
            start, f_dom = doms[0]
            assert start == 0.0
            assert f_dom == pytest.approx(f, abs=1e-9)

    def test_dc_offset_ignored(self):
        sig = resp_signal(breathing(0.3, offset=50.0), fs=FS)
        _, f_dom = stft_dominant_frequency(sig)[0]
        assert f_dom == pytest.approx(0.3, abs=1e-9)

    def test_content_above_fmax_ignored(self):
        t = np.arange(int(60 * FS)) / FS
        x = 0.5 * np.sin(2 * np.pi * 0.4 * t) + 2.0 * np.sin(2 * np.pi * 5.0 * t)
        _, f_dom = stft_dominant_frequency(resp_signal(x, fs=FS))[0]
        assert f_dom == pytest.approx(0.4, abs=1e-9)

    def test_two_windows(self):
        a = breathing(0.2, 60.0)
        b = breathing(0.5, 60.0)
        sig = resp_signal(np.concatenate([a, b]), fs=FS)
        doms = stft_dominant_frequency(sig)
        assert [round(s) for s, _ in doms] == [0, 60]
        assert doms[0][1] == pytest.approx(0.2, abs=1e-9)
        assert doms[1][1] == pytest.approx(0.5, abs=1e-9)

    def test_record_shorter_than_window(self):
        sig = resp_signal(breathing(0.3, 30.0), fs=FS)
        with pytest.raises(NoDataError):
            stft_dominant_frequency(sig)

    def test_requires_respiration_kind(self):
        with pytest.raises(ValueError):
            stft_dominant_frequency(ecg_signal(breathing(0.3), fs=250.0))


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

    def test_requires_respiration_kind(self):
        with pytest.raises(ValueError):
            volume_features(ecg_signal(breathing(0.25), fs=250.0), calibration=1.0)
