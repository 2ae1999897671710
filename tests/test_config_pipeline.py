import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import qrs_shape, synth_ecg, write_signal_csv
from edgevitals import ecg_preprocess, pipeline, qrs_detect, respiration, rules, signal_features
from edgevitals.classify.schema import (
    Attribute,
    ClassLabel,
    FeatureVector,
    LabeledDataset,
    patient_schema,
)
from edgevitals.classify.tree import train_decision_tree
from edgevitals.config import config_from_dict, default_config, load_config
from edgevitals.errors import IngestionError
from edgevitals.ecg_preprocess import remove_baseline_linear
from edgevitals.messaging import Urgency, parse_message_xml
from edgevitals.pipeline import run_patient, read_measurements_csv
from edgevitals.rules import (
    AcquisitionMode,
    DiseaseScope,
    MeasurementKind,
    Severity,
    parse_rules,
)
from edgevitals.signal_core import SampledSignal
from edgevitals.store import MeasurementStore

RULES = """<rules>
  <rule id="hr-high" severity="ALARM"><threshold kind="HEART_RATE" op="gt" value="120"/></rule>
  <rule id="weight-gain" scope="CKD" severity="ALARM">
    <percent_change kind="BODY_WEIGHT" op="gt" percent="2" window_hours="24"/>
  </rule>
</rules>"""


class TestConfig:
    def test_defaults(self):
        cfg = default_config()
        assert cfg.disease is None
        assert cfg["preprocess"]["baseline_method"] == "linear"
        assert cfg["qrs"]["detector"] == "pan_tompkins"
        assert cfg["schedule"]["send_time"] == "20:00"
        assert cfg.send_offset_ms == 72000000
        stress = cfg.stress_index
        assert len(stress.weights) == 13
        assert sum(stress.weights.values()) == 1.0
        assert stress.threshold == 0.6
        lifestyle = cfg.lifestyle_index
        assert len(lifestyle.weights) == 14
        assert sum(lifestyle.weights.values()) == 1.0

    def test_deep_merge_keeps_sibling_defaults(self):
        cfg = config_from_dict({"qrs": {"detector": "wavelet"}})
        assert cfg["qrs"]["detector"] == "wavelet"
        assert cfg["qrs"]["qrs_min_ms"] == 50.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_dict({"qrss": {}})
        with pytest.raises(ValueError, match="qrs.bogus"):
            config_from_dict({"qrs": {"bogus": 1}})

    @pytest.mark.parametrize("doc", [
        {"rules_path": "rules.xml"}, {"model_path": "model.json"},
        {"respiration": {"vr_litres": 1.2}}])
    def test_removed_keys_rejected(self, doc):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_dict(doc)

    def test_unsupported_version(self):
        with pytest.raises(ValueError):
            config_from_dict({"config_version": 2})

    def test_disease_values(self):
        assert config_from_dict({"disease": "COPD"}).disease is DiseaseScope.COPD
        assert config_from_dict({"disease": "CKD"}).disease is DiseaseScope.CKD
        with pytest.raises(ValueError):
            config_from_dict({"disease": "ASTHMA"})

    def test_index_sections_replace_wholesale(self):
        cfg = config_from_dict({"stress_index": {
            "weights": {"questionnaire_01": 1.0}, "threshold": 0.5}})
        assert cfg.stress_index.weights == {"questionnaire_01": 1.0}
        assert cfg.stress_index.threshold == 0.5

    def test_bad_weights_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"stress_index": {
                "weights": {"questionnaire_01": 0.5}, "threshold": 0.5}})

    @pytest.mark.parametrize("doc", [
        {"config_version": True},
        {"qrs": {"cross_check_pct": "10"}},
        {"qrs": {"cross_check_pct": True}},
        {"preprocess": {"wavelet_levels": "4"}},
        {"preprocess": {"wavelet_levels": 4.5}},
        {"preprocess": {"highpass_order": False}},
        {"preprocess": {"highpass_cutoff_hz": "0.5"}},
        {"preprocess": {"threshold_mode": "SOFT"}},
        {"respiration": {"window_s": [60]}},
        {"schedule": {"send_time": 2000}},
        {"stress_index": [["questionnaire_01", 1.0]]},
        {"stress_index": {"weights": {"questionnaire_01": True}, "threshold": 0.5}},
        {"lifestyle_index": {"weights": {"food_fish": 1.0}, "threshold": "0.5"}},
    ])
    def test_setting_of_the_wrong_type_rejected(self, doc):
        with pytest.raises(ValueError):
            config_from_dict(doc)

    @pytest.mark.parametrize("doc, key", [
        ({"preprocess": {"wavelet_levels": 0}}, "preprocess.wavelet_levels"),
        ({"preprocess": {"wavelet_levels": -3}}, "preprocess.wavelet_levels"),
        ({"preprocess": {"highpass_order": 0}}, "preprocess.highpass_order"),
        ({"preprocess": {"highpass_cutoff_hz": 0}}, "preprocess.highpass_cutoff_hz"),
        ({"preprocess": {"highpass_cutoff_hz": -0.5}}, "preprocess.highpass_cutoff_hz"),
        ({"preprocess": {"highpass_cutoff_hz": math.nan}}, "preprocess.highpass_cutoff_hz"),
        ({"respiration": {"calibration": 0.0}}, "respiration.calibration"),
        ({"respiration": {"calibration": -1}}, "respiration.calibration"),
        ({"respiration": {"window_s": 0}}, "respiration.window_s"),
        ({"respiration": {"window_s": -60.0}}, "respiration.window_s"),
        ({"respiration": {"window_s": math.inf}}, "respiration.window_s"),
        ({"qrs": {"qrs_min_ms": 200.0}}, "qrs.qrs_min_ms"),
        ({"qrs": {"qrs_min_ms": 60.0, "qrs_max_ms": 40.0}}, "qrs.qrs_min_ms"),
    ])
    def test_out_of_range_setting_rejected_naming_its_key(self, doc, key):
        with pytest.raises(ValueError, match="config key '%s'" % re.escape(key)):
            config_from_dict(doc)

    def test_settings_at_their_bounds_accepted(self):
        cfg = config_from_dict({
            "preprocess": {"wavelet_levels": 1, "highpass_order": 1, "highpass_cutoff_hz": 1e-3},
            "qrs": {"qrs_min_ms": 80.0, "qrs_max_ms": 80},
            "respiration": {"calibration": 1e-6, "window_s": 1}})
        assert cfg["qrs"]["qrs_min_ms"] == cfg["qrs"]["qrs_max_ms"]

    @pytest.mark.parametrize("name", ["stress_index", "lifestyle_index"])
    @pytest.mark.parametrize("section, message", [
        ({"weights": {"w": 1.0}, "threshold": 0.5, "treshold": 0.9}, "unknown config key '{}.treshold'"),
        ({"weights": {"w": 1.0}}, "config key '{}.threshold' is missing"),
        ({"threshold": 0.5}, "config key '{}.weights' is missing"),
        ({"weights": {1: 1.0}, "threshold": 0.5}, "config key '{}.weights' must map names to numbers"),
        ({"weights": [["w", 1.0]], "threshold": 0.5}, "config key '{}.weights' must be an object"),
    ])
    def test_index_section_holds_only_weights_and_threshold(self, name, section, message):
        with pytest.raises(ValueError, match=re.escape(message.format(name))):
            config_from_dict({name: section})

    def test_int_accepted_where_the_default_is_a_float(self):
        cfg = config_from_dict({"qrs": {"cross_check_pct": 10},
                                "preprocess": {"highpass_cutoff_hz": 1}})
        assert cfg["qrs"]["cross_check_pct"] == 10
        assert cfg["preprocess"]["highpass_cutoff_hz"] == 1

    def test_bad_send_time_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"schedule": {"send_time": "25:00"}})

    def test_bad_enums_rejected(self):
        with pytest.raises(ValueError):
            config_from_dict({"preprocess": {"baseline_method": "spline"}})
        with pytest.raises(ValueError):
            config_from_dict({"qrs": {"detector": "hough"}})

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"disease": "COPD"}))
        assert load_config(str(path)).disease is DiseaseScope.COPD
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ValueError):
            load_config(str(bad))


class TestMeasurementsCsv:
    def test_parse(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "kind,value,timestamp_ms,mode,name\n"
            "BODY_WEIGHT,70.5,1000,NOSILENT,\n"
            "QUESTIONNAIRE_ITEM,0.8,2000,NOSILENT,questionnaire_01\n")
        rows = read_measurements_csv(str(path), "p1")
        assert len(rows) == 2
        assert rows[0]["kind"] == "BODY_WEIGHT"
        assert rows[1]["name"] == "questionnaire_01"

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("kind,value\nBODY_WEIGHT,70.5\n")
        with pytest.raises(IngestionError, match=re.escape(
                "%s: measurements CSV needs columns kind,value,timestamp_ms" % path)):
            read_measurements_csv(str(path), "p1")

    @pytest.mark.parametrize("row", ["BODY_WEIGHT,abc,5", "BODY_WEIGHT,70.5,5.5",
                                     "BODY_WEIGHT,70.5"])
    def test_unparseable_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "m.csv"
        path.write_text("kind,value,timestamp_ms\nBODY_WEIGHT,70.5,1000\n%s\n" % row)
        with pytest.raises(IngestionError, match=r"m\.csv:3: "):
            read_measurements_csv(str(path), "p1")

    @pytest.mark.parametrize("row, raw", [
        ("HEART_RATE,1_20,1000", "1_20"),
        ("HEART_RATE,120,1_000", "1_000"),
        ("HEART_RATE,\u0661\u0662\u0660,1000", "\u0661\u0662\u0660"),
        ("HEART_RATE,120,\u0661\u0660\u0660\u0660", "\u0661\u0660\u0660\u0660"),
    ])
    def test_number_outside_ascii_digits_names_file_and_line(self, tmp_path, row, raw):
        # float() and int() read each of these; the signal CSVs' reader refuses them
        path = tmp_path / "m.csv"
        path.write_text("kind,value,timestamp_ms\nBODY_WEIGHT,70.5,1000\n%s\n" % row,
                        encoding="utf-8")
        with pytest.raises(IngestionError, match=re.escape(
                "%s:3: %r is not an ASCII number" % (path, raw))):
            read_measurements_csv(str(path), "p1")

    def test_blanks_sign_and_exponent_still_read(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("kind,value,timestamp_ms\nBODY_WEIGHT, +7.05e1 , 1000 \n")
        (row,) = read_measurements_csv(str(path), "p1")
        assert (row["value"], row["timestamp_ms"]) == (70.5, 1000)


def run_ecg_patient(tmp_path, bpm, model=None, extra_measurements="",
                    config=None):
    samples, _ = synth_ecg(bpm, duration_s=60.0)
    ecg_path = tmp_path / "ecg.csv"
    write_signal_csv(str(ecg_path), samples, 250.0)
    meas_path = None
    if extra_measurements:
        meas_path = tmp_path / "meas.csv"
        meas_path.write_text("kind,value,timestamp_ms,mode,name\n" + extra_measurements)
    store = MeasurementStore(str(tmp_path / "store"))
    cfg = config or default_config()
    result = run_patient(
        "p1", store, cfg, parse_rules(RULES), now_ms=60000,
        ecg_csv=str(ecg_path),
        measurements_csv=str(meas_path) if meas_path else None,
        model=model, out_dir=str(tmp_path / "out"))
    return result, store


def hr_model():
    schema = patient_schema()
    idx = [a.name for a in schema].index("mean_heart_rate_bpm")

    def row(v):
        vals = [None] * len(schema)
        vals[idx] = v
        return FeatureVector(schema, tuple(vals))

    data = LabeledDataset(
        schema,
        (row(60.0), row(65.0), row(130.0), row(135.0)),
        (ClassLabel.STABLE, ClassLabel.STABLE,
         ClassLabel.WORSENING, ClassLabel.WORSENING))
    return train_decision_tree(data)


class TestPipelineEcg:
    def test_tachycardia_raises_alarm(self, tmp_path):
        result, store = run_ecg_patient(tmp_path, bpm=125)
        assert abs(result.features["mean_heart_rate_bpm"] - 125.0) <= 1.0
        assert [a.rule_id for a in result.alerts] == ["hr-high"]
        assert result.alerts[0].severity is Severity.ALARM
        assert result.decision is Urgency.IMMEDIATE
        msg = parse_message_xml(result.message_xml)
        assert msg.urgency.value == "IMMEDIATE"
        assert msg.alerts[0].rule_id == "hr-high"
        hr = [r for r in store.records("p1") if r.kind is MeasurementKind.HEART_RATE]
        assert len(hr) == 1
        assert hr[0].mode is AcquisitionMode.SILENT
        assert hr[0].timestamp_ms == 60000

    def test_normal_rate_schedules_quietly(self, tmp_path):
        result, _ = run_ecg_patient(tmp_path, bpm=70)
        assert abs(result.features["mean_heart_rate_bpm"] - 70.0) <= 1.0
        assert result.alerts == []
        assert result.decision is Urgency.SCHEDULED
        assert parse_message_xml(result.message_xml).urgency.value == "SCHEDULED"
        assert result.report["qrs_flagged"] is False

    def test_artifacts_written(self, tmp_path):
        result, _ = run_ecg_patient(tmp_path, bpm=125)
        names = sorted(os.path.basename(p) for p in result.artifacts)
        assert names == ["beats.csv", "features.csv", "message.xml", "report.jsonl"]
        for p in result.artifacts:
            assert os.path.getsize(p) > 0
        report = json.loads(Path(result.artifacts[0]).read_text())
        assert report["patient"] == "p1"
        assert report["alerts"][0]["rule"] == "hr-high"
        feat_csv = Path([p for p in result.artifacts if p.endswith("features.csv")][0]).read_text()
        header, row = feat_csv.strip().split("\n")
        assert header.split(",")[0] == "sdnn_ms"
        assert row.split(",")[header.split(",").index("mean_heart_rate_bpm")] != ""

    def test_each_tick_leaves_exactly_its_artifacts(self, tmp_path):
        def assert_listing_is(result, names):
            assert sorted(os.path.basename(p) for p in result.artifacts) == names
            assert sorted(os.listdir(tmp_path / "out" / "p1")) == names

        result, store = run_ecg_patient(tmp_path, bpm=70)
        assert result.decision is Urgency.SCHEDULED
        assert_listing_is(result, ["beats.csv", "features.csv", "message.xml", "report.jsonl"])
        # measurements only, before the next send slot: no beats, held
        meas = tmp_path / "later.csv"
        meas.write_text("kind,value,timestamp_ms\nBODY_WEIGHT,70.0,90000\n")
        result = run_patient("p1", store, default_config(), parse_rules(RULES), now_ms=120000,
                             measurements_csv=str(meas), out_dir=str(tmp_path / "out"))
        assert result.decision is None and result.message_xml is None
        assert_listing_is(result, ["features.csv", "report.jsonl"])

    def test_hrv_features_present(self, tmp_path):
        result, _ = run_ecg_patient(tmp_path, bpm=70)
        for key in ("sdnn_ms", "rmssd_ms", "pnn50_pct"):
            assert key in result.features
        # 60 s cannot support the long-horizon features; they must be
        # omitted rather than filled with junk
        for key in ("sdann_ms", "sdnnidx_ms", "lf_power", "hf_power"):
            assert key not in result.features
        # a metronome-steady synthetic train has almost no variability
        assert result.features["sdnn_ms"] < 10.0

    def test_rr_series_without_adjacent_pairs_leaves_those_features_blank(self, tmp_path):
        # the 3.4 s pause is gated out of the RR series, so its two 800 ms
        # intervals are not adjacent and no successive difference exists
        fs = 250.0
        t = np.arange(int(7 * fs)) / fs
        samples = sum(qrs_shape(t - c) for c in (0.6, 1.4, 4.8, 5.6))
        ecg_path = tmp_path / "ecg.csv"
        write_signal_csv(str(ecg_path), samples, fs)
        result = run_patient("p1", MeasurementStore(str(tmp_path / "store")),
                             default_config(), parse_rules(RULES), now_ms=7000,
                             ecg_csv=str(ecg_path), out_dir=str(tmp_path / "out"))
        assert result.features == {"sdnn_ms": 0.0, "mean_heart_rate_bpm": 75.0}
        assert result.decision is Urgency.SCHEDULED

    def test_message_covers_store_exactly_once(self, tmp_path):
        result, store = run_ecg_patient(tmp_path, bpm=125)
        msg = parse_message_xml(result.message_xml)
        assert list(msg.measurements) == store.log_records("p1")
        assert store.untransmitted("p1") == []

    def test_prediction_included_when_model_given(self, tmp_path):
        result, _ = run_ecg_patient(tmp_path, bpm=125, model=hr_model())
        assert result.report["prediction"] == "WORSENING"
        msg = parse_message_xml(result.message_xml)
        assert ("predicted_severity", "WORSENING") in msg.features


class TestPipelineEcgStages:
    def test_denoise_runs_once_per_record(self, tmp_path, monkeypatch):
        calls = []
        real = ecg_preprocess.denoise_samples

        def counting(samples, *args, **kwargs):
            calls.append(len(samples))
            return real(samples, *args, **kwargs)

        # three modules bind the name; a second denoise from any shows
        monkeypatch.setattr(ecg_preprocess, "denoise_samples", counting)
        monkeypatch.setattr(qrs_detect, "denoise_samples", counting)
        monkeypatch.setattr(signal_features, "denoise_samples", counting)
        run_ecg_patient(tmp_path, bpm=70)
        assert calls == [15000]

    def test_the_run_builds_only_the_read_cleaned_and_denoised_signals(self, tmp_path,
                                                                       monkeypatch):
        # one check and copy each: the record as read, then the output of
        # baseline removal and of the denoise
        built = []
        real = SampledSignal.__post_init__

        def counting(signal):
            built.append(len(signal.samples))
            real(signal)

        monkeypatch.setattr(SampledSignal, "__post_init__", counting)
        run_ecg_patient(tmp_path, bpm=70)
        assert built == [15000, 15000, 15000]

    def test_highpass_config_reaches_baseline_removal(self, tmp_path, monkeypatch):
        seen = []

        def spy(signal, *args):
            out = remove_baseline_linear(signal, *args)
            seen.append((signal, out.samples))
            return out

        monkeypatch.setattr(signal_features, "remove_baseline_linear", spy)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        run_ecg_patient(tmp_path / "a", bpm=70)
        cfg = config_from_dict({"preprocess": {"highpass_cutoff_hz": 3.0,
                                               "highpass_order": 3}})
        run_ecg_patient(tmp_path / "b", bpm=70, config=cfg)
        (signal, default), (_, custom) = seen
        assert np.array_equal(default, remove_baseline_linear(signal).samples)
        assert np.array_equal(
            custom, remove_baseline_linear(signal, 3.0, 3).samples)
        assert not np.allclose(default, custom)


class TestPipelineSinglePass:
    def test_rules_evaluated_once_per_run(self, tmp_path, monkeypatch):
        # hr-high is the only rule with data, so each evaluation pass
        # applies its one "gt" comparison exactly once
        calls = []
        real = rules._OPS["gt"]

        def counting(a, b):
            calls.append((a, b))
            return real(a, b)

        monkeypatch.setitem(rules._OPS, "gt", counting)
        result, _ = run_ecg_patient(tmp_path, bpm=125)
        assert [a.rule_id for a in result.alerts] == ["hr-high"]
        assert len(calls) == 1

    def test_history_read_once_with_model(self, tmp_path, monkeypatch):
        # the rules, both indices and the feature vector read one view
        views = []
        real = pipeline.history_view

        def counting(*args):
            views.append(args[1:])
            return real(*args)

        def no_query(*args, **kwargs):
            raise AssertionError("a tick must not query the store by kind or time")

        monkeypatch.setattr(pipeline, "history_view", counting)
        monkeypatch.setattr(MeasurementStore, "records", no_query)
        result, _ = run_ecg_patient(
            tmp_path, bpm=125, model=hr_model(),
            extra_measurements="BODY_WEIGHT,70.0,1000,NOSILENT,\n"
                               "QUESTIONNAIRE_ITEM,1.0,1000,NOSILENT,questionnaire_01\n")
        assert result.report["prediction"] == "WORSENING"
        assert [a.rule_id for a in result.alerts] == ["hr-high", "stress-index"]
        assert views == [("p1", 60000)]

    # ((bpm, seconds) of ECG, seconds of respiration, the rate records that
    # follow the CSV rows): a respiration window is 60 s, and 6 s of ECG at
    # 20 bpm holds one RR interval, so neither gives a rate
    @pytest.mark.parametrize("ecg, resp_s, rates", [
        ((70, 120.0), 120.0, [("HEART_RATE", 120000), ("RESPIRATION_RATE", 120000)]),
        (None, 120.0, [("RESPIRATION_RATE", 120000)]),
        (None, 30.0, []),
        ((20, 6.0), None, []),
    ], ids=["both", "respiration-only", "respiration-under-a-window", "ecg-one-rr"])
    def test_one_append_per_run(self, tmp_path, monkeypatch, ecg, resp_s, rates):
        inputs = {}
        if ecg:
            samples, _ = synth_ecg(ecg[0], duration_s=ecg[1])
            write_signal_csv(str(tmp_path / "ecg.csv"), samples, 250.0)
            inputs["ecg_csv"] = str(tmp_path / "ecg.csv")
        if resp_s:
            t = np.arange(int(resp_s * 25.0)) / 25.0
            write_signal_csv(str(tmp_path / "resp.csv"), np.sin(2 * np.pi * 0.25 * t), 25.0)
            inputs["resp_csv"] = str(tmp_path / "resp.csv")
        (tmp_path / "meas.csv").write_text("kind,value,timestamp_ms\n"
                                          "BODY_WEIGHT,70.0,1000\n"
                                          "BODY_WEIGHT,nan,2000\n"
                                          "BODY_TEMPERATURE,36.8,3000\n")
        appends = []
        real = MeasurementStore._append

        def counting(self, patient_id, new):
            new = list(new)
            appends.append(len(new))
            return real(self, patient_id, new)

        monkeypatch.setattr(MeasurementStore, "_append", counting)
        store = MeasurementStore(str(tmp_path / "store"))
        result = run_patient("p1", store, default_config(), parse_rules(RULES),
                             now_ms=120000, measurements_csv=str(tmp_path / "meas.csv"),
                             out_dir=str(tmp_path / "out"), **inputs)
        assert appends == [2 + len(rates)]
        assert [(r.kind.value, r.timestamp_ms) for r in store.log_records("p1")] == [
            ("BODY_WEIGHT", 1000), ("BODY_TEMPERATURE", 3000), *rates]
        assert result.report["rejected_rows"] == [
            {"line": 3, "reason": "measurement value must be finite"}]

    def test_name_xml_cannot_carry_stays_out_of_message(self, tmp_path):
        meas = tmp_path / "meas.csv"
        meas.write_text("kind,value,timestamp_ms,mode,name\n"
                        "HEART_RATE,130,1000,NOSILENT,\n"
                        "QUESTIONNAIRE_ITEM,0.5,1000,NOSILENT,a\x01b\n"
                        "QUESTIONNAIRE_ITEM,0.5,1000,NOSILENT,a\ufffeb\n"
                        "QUESTIONNAIRE_ITEM,0.5,1000,NOSILENT,tab\tdel\x7f\x85\n",
                        encoding="utf-8")
        store = MeasurementStore(str(tmp_path / "store"))
        result = run_patient("p1", store, default_config(), parse_rules(RULES),
                             now_ms=2000, measurements_csv=str(meas),
                             out_dir=str(tmp_path / "out"))
        assert result.decision is Urgency.IMMEDIATE
        with open(tmp_path / "out" / "p1" / "message.xml", encoding="utf-8") as fh:
            msg = parse_message_xml(fh.read())
        assert [r.name for r in msg.measurements] == ["", "tab\tdel\x7f\x85"]


class TestPipelineIndices:
    def test_stress_index_light_alert(self, tmp_path):
        cfg = config_from_dict({"stress_index": {
            "weights": {"questionnaire_01": 0.5, "questionnaire_02": 0.5},
            "threshold": 0.6}})
        rows = ("QUESTIONNAIRE_ITEM,0.9,1000,NOSILENT,questionnaire_01\n"
                "QUESTIONNAIRE_ITEM,0.8,1000,NOSILENT,questionnaire_02\n")
        result, _ = run_ecg_patient(tmp_path, bpm=70, extra_measurements=rows,
                                    config=cfg)
        light = [a for a in result.alerts if a.rule_id == "stress-index"]
        assert len(light) == 1
        assert light[0].severity is Severity.LIGHT_ALERT
        assert abs(result.report["stress_index"] - 0.85) < 1e-6

    def test_index_silent_below_threshold(self, tmp_path):
        cfg = config_from_dict({"stress_index": {
            "weights": {"questionnaire_01": 1.0}, "threshold": 0.6}})
        rows = "QUESTIONNAIRE_ITEM,0.5,1000,NOSILENT,questionnaire_01\n"
        result, _ = run_ecg_patient(tmp_path, bpm=70, extra_measurements=rows,
                                    config=cfg)
        assert [a.rule_id for a in result.alerts] == []
        assert abs(result.report["stress_index"] - 0.5) < 1e-6

    def test_out_of_range_scores_count_as_missing(self, tmp_path):
        cfg = config_from_dict({"stress_index": {
            "weights": {"questionnaire_01": 0.5, "questionnaire_02": 0.5},
            "threshold": 0.6}})
        rows = ("QUESTIONNAIRE_ITEM,0.9,1000,NOSILENT,questionnaire_01\n"
                "QUESTIONNAIRE_ITEM,7.5,1000,NOSILENT,questionnaire_02\n")
        result, _ = run_ecg_patient(tmp_path, bpm=70, extra_measurements=rows,
                                    config=cfg)
        # renormalized over the one valid score: 0.9 > 0.6 triggers
        assert [a.rule_id for a in result.alerts] == ["stress-index"]
        assert abs(result.report["stress_index"] - 0.9) < 1e-6

    def test_index_alert_is_not_a_rule_alert(self, tmp_path):
        # an index alert comes from the config's weighted indices, so the
        # rule set does not name it
        meas = tmp_path / "meas.csv"
        meas.write_text("kind,value,timestamp_ms,mode,name\n" + "".join(
            "QUESTIONNAIRE_ITEM,1.0,1000,NOSILENT,questionnaire_%02d\n" % i
            for i in range(1, 14)))
        store = MeasurementStore(str(tmp_path / "store"))
        ruleset = parse_rules(RULES)
        result = run_patient("p1", store, default_config(), ruleset, now_ms=2000,
                             measurements_csv=str(meas), out_dir=str(tmp_path / "out"))
        assert [a.rule_id for a in result.alerts] == ["stress-index"]
        assert result.report["stress_index"] == 1.0
        assert "stress-index" not in {r.id for r in ruleset}

    def test_index_alert_evidence_names_each_row_in_the_report(self, tmp_path):
        # the rows differ only by name, so without it the evidence reads the same
        meas = tmp_path / "meas.csv"
        meas.write_text("kind,value,timestamp_ms,mode,name\n" + "".join(
            "QUESTIONNAIRE_ITEM,1.0,1000,NOSILENT,questionnaire_%02d\n" % i
            for i in range(1, 14)))
        out = tmp_path / "out"
        run_patient("p1", MeasurementStore(str(tmp_path / "store")), default_config(),
                    parse_rules(RULES), now_ms=2000, measurements_csv=str(meas),
                    out_dir=str(out))
        (alert,) = json.loads((out / "p1" / "report.jsonl").read_text())["alerts"]
        names = [e["name"] for e in alert["evidence"]]
        assert names == ["questionnaire_%02d" % i for i in range(1, 14)]


class TestPipelineMeasurementsOnly:
    def test_ckd_weight_gain(self, tmp_path):
        meas = tmp_path / "meas.csv"
        meas.write_text("kind,value,timestamp_ms\n"
                        "BODY_WEIGHT,70.0,0\n"
                        "BODY_WEIGHT,71.5,72000000\n")
        store = MeasurementStore(str(tmp_path / "store"))
        cfg = config_from_dict({"disease": "CKD"})
        result = run_patient("p1", store, cfg, parse_rules(RULES),
                             now_ms=72000000, measurements_csv=str(meas),
                             out_dir=str(tmp_path / "out"))
        assert [a.rule_id for a in result.alerts] == ["weight-gain"]
        assert result.decision is Urgency.IMMEDIATE

    def test_copd_scope_skips_ckd_rule(self, tmp_path):
        meas = tmp_path / "meas.csv"
        meas.write_text("kind,value,timestamp_ms\n"
                        "BODY_WEIGHT,70.0,0\n"
                        "BODY_WEIGHT,71.5,72000000\n")
        store = MeasurementStore(str(tmp_path / "store"))
        cfg = config_from_dict({"disease": "COPD"})
        result = run_patient("p1", store, cfg, parse_rules(RULES),
                             now_ms=72000000, measurements_csv=str(meas),
                             out_dir=str(tmp_path / "out"))
        assert result.alerts == []

    def test_rejected_rows_listed_in_report_by_line(self, tmp_path):
        meas = tmp_path / "meas.csv"
        meas.write_text("kind,value,timestamp_ms,mode,name\n"
                        "BODY_WEIGHT,70.0,1000,,\n"
                        "BODY_WEIGHT,nan,2000,,\n"
                        "BODY_TEMPERATURE,36.8,3000,,\n"
                        "BODY_MASS,80,4000,,\n"
                        "QUESTIONNAIRE_ITEM,0.5,5000,,a\x01b\n"
                        "BODY_WEIGHT,70.4,6000,,\n")
        store = MeasurementStore(str(tmp_path / "store"))
        result = run_patient("p1", store, default_config(), parse_rules(RULES),
                             now_ms=10000, measurements_csv=str(meas),
                             out_dir=str(tmp_path / "out"))
        assert [(r.kind.value, r.timestamp_ms) for r in store.log_records("p1")] == [
            ("BODY_WEIGHT", 1000), ("BODY_TEMPERATURE", 3000), ("BODY_WEIGHT", 6000)]
        expected = [
            {"line": 3, "reason": "measurement value must be finite"},
            {"line": 5, "reason": "'BODY_MASS' is not a valid MeasurementKind"},
            {"line": 6, "reason": "name 'a\\x01b' holds a character XML 1.0 cannot carry"},
        ]
        assert result.report["rejected_rows"] == expected
        with open(tmp_path / "out" / "p1" / "report.jsonl", encoding="utf-8") as fh:
            assert json.loads(fh.read())["rejected_rows"] == expected

    def test_model_sees_glucose_weight_and_named_scores(self, tmp_path, monkeypatch):
        seen = []
        real = pipeline.predict_any

        def spy(model, x):
            seen.append(x)
            return real(model, x)

        monkeypatch.setattr(pipeline, "predict_any", spy)
        meas = tmp_path / "meas.csv"
        meas.write_text("kind,value,timestamp_ms,mode,name\n"
                        "GLUCOSE,105.5,1000,,\n"
                        "BODY_WEIGHT,71.0,2000,,\n"
                        "BODY_WEIGHT,70.0,1000,,\n"
                        "QUESTIONNAIRE_ITEM,0.5,1000,,questionnaire_01\n"
                        "QUESTIONNAIRE_ITEM,0.25,1000,,food_fish\n"
                        "QUESTIONNAIRE_ITEM,0.9,1000,,mood\n")
        result = run_patient("p1", MeasurementStore(str(tmp_path / "store")), default_config(),
                             parse_rules(RULES), now_ms=10000, out_dir=str(tmp_path / "out"),
                             measurements_csv=str(meas), model=hr_model())
        (fv,) = seen
        assert fv.schema == patient_schema()
        # the latest weight by time; a categorical attribute gets its "%g" code;
        # a name outside the schema reaches no attribute
        assert {a.name: v for a, v in zip(fv.schema, fv.values) if v is not None} == {
            "glucose_mg_dl": 105.5, "body_weight_kg": 71.0,
            "questionnaire_01": "0.5", "food_fish": 0.25}
        assert result.report["stress_index"] == 0.5
        assert result.report["lifestyle_index"] == 0.25

    def test_no_rejected_rows_key_when_every_row_ingests(self, tmp_path):
        meas = tmp_path / "meas.csv"
        meas.write_text("kind,value,timestamp_ms\nBODY_WEIGHT,70.0,1000\n")
        result = run_patient("p1", MeasurementStore(str(tmp_path / "store")), default_config(),
                             parse_rules(RULES), now_ms=10000, measurements_csv=str(meas),
                             out_dir=str(tmp_path / "out"))
        assert "rejected_rows" not in result.report


def run_resp_patient(tmp_path, cfg=None, start_ms=0):
    fs = 25.0
    t = np.arange(int(120 * fs)) / fs
    samples = 1.5 * np.sin(2 * np.pi * 0.25 * t)
    resp_path = tmp_path / "resp.csv"
    write_signal_csv(str(resp_path), samples, fs, start_ms)
    store = MeasurementStore(str(tmp_path / "store"))
    result = run_patient("p1", store, cfg or default_config(), parse_rules(RULES),
                         now_ms=120000 + start_ms, resp_csv=str(resp_path),
                         out_dir=str(tmp_path / "out"))
    return result, store


class TestPipelineRespiration:
    @pytest.mark.parametrize("start_ms", [0, 7000])
    def test_respiration_features_and_injection(self, tmp_path, start_ms):
        result, store = run_resp_patient(tmp_path, start_ms=start_ms)
        assert abs(result.features["respiration_rate_bpm"] - 15.0) <= 1.0
        # peak-to-trough excursion of a +-1.5 sine at calibration 1.0
        assert abs(result.features["tidal_volume_l"] - 3.0) < 1e-6
        rr = [r for r in store.records("p1") if r.kind is MeasurementKind.RESPIRATION_RATE]
        assert len(rr) == 1 and rr[0].mode is AcquisitionMode.SILENT
        # stamped with the recording's end: its start plus 120 s
        assert rr[0].timestamp_ms == start_ms + 120000

    def test_respiration_rate_computed_once(self, tmp_path, monkeypatch):
        calls = []
        real = respiration.respiration_rate

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # both modules bind the name; a second pass from either shows
        monkeypatch.setattr(respiration, "respiration_rate", counting)
        monkeypatch.setattr(signal_features, "respiration_rate", counting)
        result, _ = run_resp_patient(tmp_path)
        assert "tidal_volume_l" in result.features
        assert len(calls) == 1

    # 0.04 s at 25 Hz is one sample and 0.01 s none: no bin in the breathing band
    @pytest.mark.parametrize("window_s", [0.04, 0.01])
    def test_one_sample_window_leaves_the_rate_blank(self, tmp_path, window_s):
        cfg = config_from_dict({"respiration": {"window_s": window_s}})
        result, store = run_resp_patient(tmp_path, cfg)
        assert "respiration_rate_bpm" not in result.features
        assert "tidal_volume_l" in result.features
        assert store.records("p1") == []
