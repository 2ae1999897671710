import numpy as np
import pytest

from edgevitals.errors import NoDataError
from edgevitals.hrv import (
    band_powers,
    pnn50,
    rmssd,
    sdann,
    sdnn,
    sdnnidx,
    time_features,
)
from edgevitals.qrs_detect import RRSeries


def modulated_series(freq_hz, n_beats=220, base_ms=800.0, depth_ms=50.0):
    onsets = []
    intervals = []
    t = 0.0
    for _ in range(n_beats):
        iv = base_ms + depth_ms * np.sin(2 * np.pi * freq_hz * t / 1000.0)
        onsets.append(t)
        intervals.append(iv)
        t += iv
    return RRSeries(np.array(onsets), np.array(intervals))


def random_series(rng, n):
    intervals = rng.uniform(600.0, 1100.0, size=n)
    onsets = np.concatenate([[0.0], np.cumsum(intervals)[:-1]])
    return RRSeries(onsets, intervals)


class TestSdnn:
    def test_two_interval_fixed_case(self):
        assert sdnn(RRSeries.from_intervals([800.0, 900.0])) == 50.0

    def test_brute_force_oracle(self, rng):
        for _ in range(50):
            rr = random_series(rng, int(rng.integers(2, 400)))
            x = rr.intervals_ms
            want = np.sqrt(np.sum((x - np.mean(x)) ** 2) / len(x))
            assert abs(sdnn(rr) - want) < 1e-9

    def test_needs_two(self):
        with pytest.raises(NoDataError):
            sdnn(RRSeries.from_intervals([800.0]))


class TestRmssdPnn50:
    def test_rmssd_fixed_case(self):
        assert rmssd(RRSeries.from_intervals([1000.0, 1060.0])) == 60.0

    def test_pnn50_strict_inequality(self):
        assert pnn50(RRSeries.from_intervals([800.0, 850.0])) == 0.0
        assert pnn50(RRSeries.from_intervals([800.0, 850.5])) == 100.0

    def test_brute_force_oracles(self, rng):
        for _ in range(50):
            rr = random_series(rng, int(rng.integers(3, 300)))
            d = np.diff(rr.intervals_ms)
            want_rmssd = np.sqrt(np.mean(d ** 2))
            want_pnn50 = 100.0 * np.sum(np.abs(d) > 50.0) / len(d)
            assert abs(rmssd(rr) - want_rmssd) < 1e-9
            assert abs(pnn50(rr) - want_pnn50) < 1e-9

    def test_gap_breaks_adjacency(self):
        onsets = np.array([0.0, 800.0, 10000.0, 10800.0])
        intervals = np.array([800.0, 820.0, 800.0, 860.0])
        rr = RRSeries(onsets, intervals)
        # only the two contiguous pairs count: diffs 20 and 60
        assert rmssd(rr) == pytest.approx(np.sqrt((400.0 + 3600.0) / 2.0))
        assert pnn50(rr) == pytest.approx(50.0)


class TestSegmentFeatures:
    def _oracle_bins(self, rr, width_ms=300000.0):
        bins = {}
        for onset, iv in zip(rr.onsets_ms, rr.intervals_ms):
            idx = int((onset - rr.onsets_ms[0]) // width_ms)
            bins.setdefault(idx, []).append(iv)
        return [np.array(v) for _, v in sorted(bins.items()) if len(v) >= 2]

    def test_against_binned_oracle(self, rng):
        for _ in range(20):
            rr = random_series(rng, 1500)
            usable = self._oracle_bins(rr)
            means = np.array([np.mean(b) for b in usable])
            want_sdann = np.sqrt(np.sum((means - np.mean(means)) ** 2) / len(means))
            sds = np.array([np.sqrt(np.sum((b - np.mean(b)) ** 2) / len(b))
                            for b in usable])
            want_sdnnidx = np.mean(sds)
            assert abs(sdann(rr) - want_sdann) < 1e-9
            assert abs(sdnnidx(rr) - want_sdnnidx) < 1e-9

    def test_short_series_no_data(self):
        rr = RRSeries.from_intervals([800.0] * 10)  # 8 s, one bin
        with pytest.raises(NoDataError):
            sdann(rr)
        with pytest.raises(NoDataError):
            sdnnidx(rr)

    def test_time_features_bundle(self, rng):
        rr = random_series(rng, 1200)
        assert time_features(rr) == {
            "sdnn_ms": sdnn(rr),
            "sdann_ms": sdann(rr),
            "sdnnidx_ms": sdnnidx(rr),
            "pnn50_pct": pnn50(rr),
            "rmssd_ms": rmssd(rr),
        }
        assert list(time_features(rr)) == [
            "sdnn_ms", "sdann_ms", "sdnnidx_ms", "pnn50_pct", "rmssd_ms"]

    def test_time_features_leave_out_what_lacks_data(self):
        # two 300 s segments of two intervals each; gaps everywhere, so no
        # two intervals are adjacent and no successive difference exists
        rr = RRSeries(np.array([0.0, 5000.0, 400000.0, 405000.0]),
                      np.array([800.0, 900.0, 850.0, 1000.0]))
        assert time_features(rr) == {
            "sdnn_ms": sdnn(rr), "sdann_ms": sdann(rr), "sdnnidx_ms": sdnnidx(rr)}
        one_segment = RRSeries(np.array([0.0, 5000.0]), np.array([800.0, 900.0]))
        assert time_features(one_segment) == {"sdnn_ms": 50.0}


class TestBandPowers:
    def test_lf_modulation_dominates(self):
        ff = band_powers(modulated_series(0.1))
        assert ff.lf_power > 10.0 * ff.hf_power

    def test_hf_modulation_dominates(self):
        ff = band_powers(modulated_series(0.25))
        assert ff.hf_power > 10.0 * ff.lf_power

    def test_band_edges(self):
        ff = band_powers(modulated_series(0.1))
        assert ff.lf_band_hz == (0.03, 0.15)
        assert ff.hf_band_hz == (0.15, 0.40)

    def test_too_few_beats(self):
        with pytest.raises(NoDataError):
            band_powers(RRSeries.from_intervals([800.0] * 20))

    def test_span_too_short(self):
        # 40 beats of 400 ms spans only 16 s
        with pytest.raises(NoDataError):
            band_powers(RRSeries.from_intervals([400.0] * 40))
