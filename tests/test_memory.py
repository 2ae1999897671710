"""Memory of the ECG path, in bytes per input sample, under tracemalloc.

numpy reports its array buffers to tracemalloc, so the traced peak of a
call, less what was allocated before it, counts every array the call holds
at once, its result included. A float64 array the length of the record is
8 B per sample. Each call is measured after a warm-up call, so imports and
first-call caches do not count.
"""

import tracemalloc

import pytest

from conftest import ecg_signal, synth_ecg, write_signal_csv
from edgevitals import pipeline, signal_features
from edgevitals.config import default_config
from edgevitals.ecg_preprocess import wavelet_denoise
from edgevitals.qrs_detect import pan_tompkins
from edgevitals.rules import parse_rules
from edgevitals.signal_core import SignalKind, read_signal_csv
from edgevitals.store import MeasurementStore

FS = 250.0
RULES = ('<rules><rule id="hr-high" severity="ALARM">'
         '<threshold kind="HEART_RATE" op="gt" value="120"/></rule></rules>')


@pytest.fixture(scope="module")
def record(tmp_path_factory):
    """About 150 k samples of noisy ECG, as samples and as a CSV file."""
    samples, _ = synth_ecg(72, fs=FS, duration_s=600.0, snr_db=20, seed=5)
    path = str(tmp_path_factory.mktemp("ecg") / "ecg.csv")
    write_signal_csv(path, samples, FS)
    return samples, path


def peak_bytes_per_sample(fn, n):
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / n
    finally:
        tracemalloc.stop()


def test_read_signal_csv_holds_the_parsed_table_and_one_temporary(record):
    # the two-column table (16 B), the samples copied out (8 B), a little slack
    samples, path = record
    per_sample = peak_bytes_per_sample(lambda: read_signal_csv(path, FS, SignalKind.ECG),
                                       len(samples))
    assert per_sample < 32.0


@pytest.mark.parametrize("stage", [wavelet_denoise, pan_tompkins])
def test_stage_holds_under_five_and_a_half_record_copies(record, stage):
    signal = ecg_signal(record[0], FS)
    per_sample = peak_bytes_per_sample(lambda: stage(signal), len(signal.samples))
    assert per_sample < 44.0


def test_run_patient_drops_raw_and_cleaned_samples_before_pan_tompkins(record, tmp_path,
                                                                         monkeypatch):
    samples, path = record
    n = len(samples)
    alive_at_detection = []

    def measured(signal):
        alive_at_detection.append(tracemalloc.get_traced_memory()[0])
        return pan_tompkins(signal)

    monkeypatch.setattr(signal_features, "pan_tompkins", measured)
    cfg, rules = default_config(), parse_rules(RULES)

    def run(name):
        out = str(tmp_path / name)
        pipeline.run_patient("p1", MeasurementStore(out + "/store"), cfg, rules,
                             now_ms=600000, ecg_csv=path, ecg_rate_hz=FS, out_dir=out)

    run("warm-up")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run("measured")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # only the denoised samples (8 B) are alive when detection starts
    assert (alive_at_detection[-1] - base) / n < 16.0
    # the whole run, its ECG branch included, stays under seven record copies
    assert peak / n < 56.0
