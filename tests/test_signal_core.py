import numpy as np
import pytest

from edgevitals import signal_core
from edgevitals.errors import IngestionError
from edgevitals.signal_core import (
    SampledSignal,
    dft_magnitude,
    hamming_window,
    read_signal_csv,
)

from conftest import signal_csv_text


def naive_dft_magnitude(x):
    n = len(x)
    k = np.arange(n // 2 + 1)
    mags = np.empty(len(k))
    for i, kk in enumerate(k):
        re = np.sum(x * np.cos(-2 * np.pi * kk * np.arange(n) / n))
        im = np.sum(x * np.sin(-2 * np.pi * kk * np.arange(n) / n))
        mags[i] = np.hypot(re, im)
    return mags


class TestSampledSignal:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SampledSignal(np.array([1.0, np.nan]), 100.0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            SampledSignal(np.zeros((2, 2)), 100.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            SampledSignal(np.zeros(4), 0.0)

    def test_immutable_samples(self):
        sig = SampledSignal(np.zeros(4), 100.0)
        with pytest.raises(ValueError):
            sig.samples[0] = 1.0

    def test_duration(self):
        sig = SampledSignal(np.zeros(250), 250.0)
        assert sig.duration_seconds == 1.0


class TestHammingWindow:
    def test_single_point(self):
        assert hamming_window(1).tolist() == [1.0]

    def test_formula(self):
        n = 17
        w = hamming_window(n)
        k = np.arange(n)
        want = 0.54 - 0.46 * np.cos(2 * np.pi * k / (n - 1))
        assert np.allclose(w, want, rtol=0, atol=1e-15)

    def test_symmetry_and_endpoints(self):
        w = hamming_window(32)
        assert np.allclose(w, w[::-1], atol=1e-15)
        assert w[0] == pytest.approx(0.08, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hamming_window(0)


class TestDftMagnitude:
    def test_matches_naive_dft(self, rng):
        for n in (2, 3, 16, 33, 128):
            x = rng.normal(size=n)
            want = naive_dft_magnitude(x)
            scale = np.max(want) if np.max(want) > 0 else 1.0
            assert np.max(np.abs(dft_magnitude(x) - want)) / scale < 1e-9

    def test_pure_tone_lands_in_one_bin(self):
        fs, n = 64.0, 256
        t = np.arange(n) / fs
        k = int(np.argmax(dft_magnitude(np.sin(2 * np.pi * 8.0 * t))))
        assert k * fs / n == pytest.approx(8.0)

    def test_too_short(self):
        with pytest.raises(ValueError):
            dft_magnitude(np.zeros(1))


class TestReadSignalCsv:
    def test_round_trip(self, tmp_path, rng):
        samples = rng.normal(size=100)
        path = tmp_path / "sig.csv"
        path.write_text(signal_csv_text(samples, 250.0, start_ms=1000))
        sig = read_signal_csv(str(path), 250.0)
        assert np.allclose(sig.samples, samples, atol=1e-12)
        assert sig.start_time_ms == 1000
        assert sig.rate_hz == 250.0

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("time,volts\n0,1\n")
        with pytest.raises(IngestionError):
            read_signal_csv(str(path), 250.0)

    def test_rejects_one_data_column(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("timestamp_ms,value\n0\n4\n8\n")
        with pytest.raises(IngestionError, match="sig.csv: expected 2 columns, .* got 1$"):
            read_signal_csv(str(path), 250.0)

    def test_rejects_three_data_columns(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("timestamp_ms,value\n0,1.0,9\n4,1.5,9\n8,2.0,9\n")
        with pytest.raises(IngestionError, match="sig.csv: expected 2 columns, .* got 3$"):
            read_signal_csv(str(path), 250.0)

    def test_rejects_jitter_above_one_percent(self, tmp_path):
        period = 1000.0 / 250.0
        rows = ["timestamp_ms,value"]
        ts = 0.0
        for i in range(50):
            rows.append("%r,0.0" % ts)
            ts += period * (1.2 if i == 25 else 1.0)
        path = tmp_path / "sig.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestionError):
            read_signal_csv(str(path), 250.0)

    @pytest.mark.parametrize("bad_gap", [7, 8, 16, 28])
    def test_jitter_check_reports_the_worst_gap_across_chunks(self, tmp_path, monkeypatch,
                                                              bad_gap):
        # chunks of 8 gaps; 7 ends the first chunk, 8 and 16 start the next
        # ones and 28 is the record's last gap
        monkeypatch.setattr(signal_core, "_JITTER_CHUNK", 8)
        gaps = np.full(29, 4.0)
        gaps[3], gaps[bad_gap] = 4.02, 5.0
        ts = np.concatenate([[0.0], np.cumsum(gaps)])
        path = tmp_path / "sig.csv"
        path.write_text("timestamp_ms,value\n" + "".join("%r,0.0\n" % t for t in ts.tolist()))
        with pytest.raises(IngestionError, match="sig.csv: timestamp jitter 1.000 ms exceeds"):
            read_signal_csv(str(path), 250.0)

    @pytest.mark.parametrize("bad_row", [1, 25])
    def test_rejects_nan_timestamp(self, tmp_path, bad_row):
        rows = ["timestamp_ms,value"]
        for i in range(50):
            rows.append("%s,0.0" % ("nan" if i + 1 == bad_row else repr(i * 4.0)))
        path = tmp_path / "sig.csv"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(IngestionError, match="sig.csv: non-finite timestamp in data row %d$"
                           % bad_row):
            read_signal_csv(str(path), 250.0)

    def test_accepts_small_jitter(self, tmp_path, rng):
        period = 1000.0 / 250.0
        rows = ["timestamp_ms,value"]
        ts = 0.0
        for _ in range(50):
            rows.append("%r,0.5" % (ts + rng.uniform(-0.004, 0.004) * period))
            ts += period
        path = tmp_path / "sig.csv"
        path.write_text("\n".join(rows) + "\n")
        sig = read_signal_csv(str(path), 250.0)
        assert len(sig.samples) == 50
