import numpy as np
import pytest

from edgevitals.ecg_preprocess import wavelet_denoise
from edgevitals.errors import NoDataError
from edgevitals.qrs_detect import (
    BeatLabel,
    RRSeries,
    annotate_spikes,
    annotations_to_csv,
    mean_heart_rate,
    pan_tompkins,
    rr_from_peaks,
    wavelet_qrs,
)

from conftest import ecg_signal, match_beats, synth_ecg


class TestRRSeries:
    def test_from_intervals(self):
        rr = RRSeries.from_intervals([800.0, 900.0, 850.0])
        assert len(rr) == 3
        assert rr.onsets_ms[0] == 0.0
        assert rr.onsets_ms[2] == pytest.approx(1700.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RRSeries(np.array([0.0, 0.0]), np.array([800.0, 800.0]))
        with pytest.raises(ValueError):
            RRSeries(np.array([0.0, 800.0]), np.array([800.0, -1.0]))
        with pytest.raises(ValueError):
            RRSeries(np.array([0.0]), np.array([800.0, 900.0]))

    def test_adjacent_pairs_skip_gaps(self):
        # second and third intervals are not contiguous: the pair across
        # the gap must not be produced
        onsets = np.array([0.0, 800.0, 5000.0])
        intervals = np.array([800.0, 820.0, 780.0])
        rr = RRSeries(onsets, intervals)
        pairs = rr.adjacent_diff_pairs()
        assert len(pairs) == 1
        assert pairs[0] == 0
        diff = rr.intervals_ms[pairs[0] + 1] - rr.intervals_ms[pairs[0]]
        assert diff == pytest.approx(20.0)


class TestRrFromPeaks:
    def test_basic(self):
        rr = rr_from_peaks(np.array([0, 250, 500, 750]), 250.0)
        assert len(rr) == 3
        assert np.allclose(rr.intervals_ms, 1000.0)

    def test_open_interval_filter(self):
        # 150 ms and 3500 ms intervals are dropped; 200 ms exactly is out
        peaks = np.array([0, 50, 300, 1175])  # at 250 Hz: gaps 200,1000,3500 ms
        rr = rr_from_peaks(peaks, 250.0)
        assert len(rr) == 1
        assert rr.intervals_ms[0] == pytest.approx(1000.0)

    def test_too_few_peaks(self):
        assert len(rr_from_peaks(np.array([100]), 250.0)) == 0
        assert len(rr_from_peaks(np.array([], dtype=int), 250.0)) == 0

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            rr_from_peaks(np.array([100, 100]), 250.0)


class TestMeanHeartRate:
    def test_single_second_interval(self):
        rr = RRSeries.from_intervals([1000.0])
        assert mean_heart_rate(rr) == pytest.approx(60.0)

    def test_fast_rate(self):
        rr = RRSeries.from_intervals([480.0] * 10)
        assert mean_heart_rate(rr) == pytest.approx(125.0)

    def test_mean_of_mixed(self):
        rr = RRSeries.from_intervals([500.0, 1000.0])
        assert mean_heart_rate(rr) == pytest.approx(80.0)

    def test_window_excludes_old_beats(self):
        # two early 500 ms intervals, then a 70 s silence, then 1000 ms ones
        onsets = np.array([0.0, 500.0, 71000.0, 72000.0])
        intervals = np.array([500.0, 500.0, 1000.0, 1000.0])
        rr = RRSeries(onsets, intervals)
        assert mean_heart_rate(rr) == pytest.approx(60.0)

    def test_empty_series(self):
        with pytest.raises(NoDataError):
            mean_heart_rate(RRSeries.from_intervals([]))


class TestPanTompkins:
    def test_clean_train_perfect(self):
        for bpm in (50, 70, 120):
            x, truth = synth_ecg(bpm)
            peaks = pan_tompkins(ecg_signal(x))
            tp, fn, fp = match_beats(truth, peaks, 250.0)
            assert fn == 0 and fp == 0, bpm

    def test_scale_invariance(self):
        x, _ = synth_ecg(70)
        a = pan_tompkins(ecg_signal(x))
        b = pan_tompkins(ecg_signal(1000.0 * x))
        c = pan_tompkins(ecg_signal(0.001 * x))
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)

    def test_refined_peaks_sit_on_maxima(self):
        x, truth = synth_ecg(60)
        peaks = pan_tompkins(ecg_signal(x))
        for p in peaks:
            lo, hi = max(0, p - 3), p + 4
            assert x[p] == pytest.approx(np.max(x[lo:hi]))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            pan_tompkins(ecg_signal(np.zeros(300), fs=50.0))
        with pytest.raises(ValueError):
            pan_tompkins(ecg_signal(np.zeros(250), fs=250.0))


class TestWaveletQrs:
    def test_clean_train_all_qrs(self):
        x, truth = synth_ecg(70)
        anns = wavelet_qrs(ecg_signal(x))
        qrs = [a for a in anns if a.label is BeatLabel.QRS]
        tp, fn, fp = match_beats(truth, [a.r_peak for a in qrs], 250.0)
        assert fn == 0 and fp == 0

    def test_annotation_ordering(self):
        x, _ = synth_ecg(70)
        anns = wavelet_qrs(ecg_signal(x))
        for a in anns:
            if a.label is BeatLabel.QRS:
                assert a.pq_junction < a.r_peak < a.j_point

    def test_wide_bump_is_noise(self):
        x, _ = synth_ecg(60, duration_s=30.0)
        t = np.arange(len(x)) / 250.0
        x = x + 1.2 * np.exp(-0.5 * ((t - 14.75) / 0.5) ** 2)
        anns = wavelet_qrs(ecg_signal(x))
        wide = [a for a in anns if abs(a.r_peak - int(14.75 * 250)) < 75]
        assert wide and all(a.label is BeatLabel.NOISE for a in wide)

    def test_low_amplitude_is_artifact(self):
        x, _ = synth_ecg(60, duration_s=30.0)
        anns = wavelet_qrs(ecg_signal(0.05 * x))
        assert anns and all(a.label is BeatLabel.ARTIFACT for a in anns)

    def test_edge_truncated_run_is_noise(self):
        x, _ = synth_ecg(60, duration_s=30.0)
        x = x.copy()
        x[:20] = 1.5
        anns = wavelet_qrs(ecg_signal(x))
        assert anns[0].label is BeatLabel.NOISE
        assert anns[0].pq_junction == 0

    @pytest.mark.parametrize("snr_db", [None, 5.0])
    @pytest.mark.parametrize("mode", ["soft", "hard"])
    def test_equals_annotating_the_denoised_signal(self, snr_db, mode):
        x, _ = synth_ecg(75, duration_s=30.0, snr_db=snr_db, seed=3)
        sig = ecg_signal(x)
        anns = wavelet_qrs(sig, threshold_mode=mode)
        assert anns
        assert anns == annotate_spikes(wavelet_denoise(sig, threshold_mode=mode))


class TestAnnotationsCsv:
    def test_header_and_rows(self):
        x, _ = synth_ecg(70, duration_s=10.0)
        anns = wavelet_qrs(ecg_signal(x))
        text = annotations_to_csv(anns)
        lines = text.strip().split("\n")
        assert lines[0] == "beat_index,r_peak_sample,onset_sample,offset_sample,label"
        assert len(lines) == len(anns) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert first[-1] in ("QRS", "NOISE", "ARTIFACT")
