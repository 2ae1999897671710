"""Memory under tracemalloc: of the ECG path, in bytes per input sample,
and of the measurement store, in bytes per loaded record.

numpy reports its array buffers to tracemalloc, so the traced peak of a
call, less what was allocated before it, counts every array the call holds
at once, its result included. A float64 array the length of the record is
8 B per sample. The store is measured by what it still holds after the
call, not by its peak. Each call is measured after a warm-up call, so
imports and first-call caches do not count.
"""

import dataclasses
import tracemalloc

import pytest

from conftest import ecg_signal, synth_ecg, write_signal_csv
from edgevitals import pipeline, signal_core, signal_features
from edgevitals.config import default_config
from edgevitals.ecg_preprocess import denoise_samples
from edgevitals.qrs_detect import pan_tompkins
from edgevitals.rules import MeasurementKind, MeasurementRecord, parse_rules
from edgevitals.signal_core import read_signal_csv
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
    # the two-column table (16 B), the samples copied out (8 B), a little
    # slack: the jitter check's chunks are shorter than the record, and no
    # check holds a temporary the record's length
    samples, path = record
    per_sample = peak_bytes_per_sample(lambda: read_signal_csv(path, FS),
                                       len(samples))
    assert per_sample < 25.0
    assert len(samples) > 2 * signal_core._JITTER_CHUNK


def denoise(signal):
    # the ECG branch's denoise stage
    return signal.replace_samples(denoise_samples(signal.samples))


@pytest.mark.parametrize("stage", [denoise, pan_tompkins])
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


def test_store_holds_a_loaded_log_once(tmp_path):
    # a record with its own float and int is about 145 B on CPython 3.11;
    # a key tuple per record in a set, as the store once kept, made it 320 B
    n, t0 = 20_000, 1_720_000_000_000
    log = [MeasurementRecord("p1", MeasurementKind.HEART_RATE, 60.0 + i % 40, t0 + 60_000 * i)
           for i in range(n)]
    MeasurementStore(str(tmp_path)).ingest(log + [MeasurementRecord(
        "warm-up", MeasurementKind.SPO2, 97.0, t0)])
    row = MeasurementRecord("p1", MeasurementKind.SPO2, 97.0, t0 + 60_000 * n)
    MeasurementStore(str(tmp_path)).ingest([dataclasses.replace(row, patient_id="warm-up")])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        store = MeasurementStore(str(tmp_path))
        assert store.ingest([row]).appended == 1
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert len(store.log_records("p1")) == n + 1
    assert held / n < 200.0
