import json
import math
import os
import re

import numpy as np
import pytest

from conftest import qrs_shape, synth_ecg, write_signal_csv
from edgevitals import ecg_preprocess, pipeline, qrs_detect, respiration, rules
from edgevitals.classify import (
    Attribute,
    ClassLabel,
    FeatureVector,
    LabeledDataset,
    patient_schema,
    train_decision_tree,
)
from edgevitals.config import config_from_dict, default_config, load_config
from edgevitals.errors import IngestionError
from edgevitals.ecg_preprocess import HighPassSpec, remove_baseline_linear
from edgevitals.messaging import TransmissionDecision, parse_message_xml
from edgevitals.pipeline import run_patient, read_measurements_csv
from edgevitals.rules import (
    AcquisitionMode,
    MeasurementKind,
    Severity,
    parse_rules,
)
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
        assert cfg.schedule.send_time == "20:00"
        stress = cfg.stress_model()
        assert len(stress.weights) == 13
        assert sum(stress.weights.values()) == 1.0
        assert stress.threshold == 0.6
        lifestyle = cfg.lifestyle_model()
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
        assert config_from_dict({"disease": "COPD"}).disease == "COPD"
        assert config_from_dict({"disease": "CKD"}).disease == "CKD"
        with pytest.raises(ValueError):
            config_from_dict({"disease": "ASTHMA"})

    def test_index_sections_replace_wholesale(self):
        cfg = config_from_dict({"stress_index": {
            "weights": {"questionnaire_01": 1.0}, "threshold": 0.5}})
        assert cfg.stress_model().weights == {"questionnaire_01": 1.0}
        assert cfg.stress_model().threshold == 0.5

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
        assert load_config(str(path)).disease == "COPD"
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
        with pytest.raises(ValueError):
            read_measurements_csv(str(path), "p1")

    @pytest.mark.parametrize("row", ["BODY_WEIGHT,abc,5", "BODY_WEIGHT,70.5,5.5",
                                     "BODY_WEIGHT,70.5"])
    def test_unparseable_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "m.csv"
        path.write_text("kind,value,timestamp_ms\nBODY_WEIGHT,70.5,1000\n%s\n" % row)
        with pytest.raises(IngestionError, match=r"m\.csv:3: "):
            read_measurements_csv(str(path), "p1")


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
        assert result.decision is TransmissionDecision.IMMEDIATE
        msg = parse_message_xml(result.message_xml)
        assert msg.urgency.value == "IMMEDIATE"
        assert msg.alerts[0].rule_id == "hr-high"
        hr = store.records("p1", kind=MeasurementKind.HEART_RATE)
        assert len(hr) == 1
        assert hr[0].mode is AcquisitionMode.SILENT
        assert hr[0].timestamp_ms == 60000

    def test_normal_rate_schedules_quietly(self, tmp_path):
        result, _ = run_ecg_patient(tmp_path, bpm=70)
        assert abs(result.features["mean_heart_rate_bpm"] - 70.0) <= 1.0
        assert result.alerts == []
        assert result.decision is TransmissionDecision.SCHEDULED
        assert parse_message_xml(result.message_xml).urgency.value == "SCHEDULED"
        assert not result.qrs_flagged

    def test_artifacts_written(self, tmp_path):
        result, _ = run_ecg_patient(tmp_path, bpm=125)
        names = sorted(os.path.basename(p) for p in result.artifacts)
        assert names == ["beats.csv", "features.csv", "message.xml", "report.jsonl"]
        for p in result.artifacts:
            assert os.path.getsize(p) > 0
        report = json.loads(open(result.artifacts[0]).read())
        assert report["patient"] == "p1"
        assert report["alerts"][0]["rule"] == "hr-high"
        feat_csv = open([p for p in result.artifacts if p.endswith("features.csv")][0]).read()
        header, row = feat_csv.strip().split("\n")
        assert header.split(",")[0] == "sdnn_ms"
        assert row.split(",")[header.split(",").index("mean_heart_rate_bpm")] != ""

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
        assert result.decision is TransmissionDecision.SCHEDULED

    def test_message_covers_store_exactly_once(self, tmp_path):
        result, store = run_ecg_patient(tmp_path, bpm=125)
        msg = parse_message_xml(result.message_xml)
        assert list(msg.measurements) == store.log_records("p1")
        assert store.untransmitted("p1") == []

    def test_prediction_included_when_model_given(self, tmp_path):
        result, _ = run_ecg_patient(tmp_path, bpm=125, model=hr_model())
        assert result.prediction == "WORSENING"
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

        # both modules bind the name; a second denoise from either shows
        monkeypatch.setattr(ecg_preprocess, "denoise_samples", counting)
        monkeypatch.setattr(qrs_detect, "denoise_samples", counting)
        run_ecg_patient(tmp_path, bpm=70)
        assert calls == [15000]

    def test_highpass_config_reaches_baseline_removal(self, tmp_path, monkeypatch):
        seen = []

        def spy(signal, spec=None):
            out = remove_baseline_linear(signal, spec)
            seen.append((signal, out.samples))
            return out

        monkeypatch.setattr(pipeline, "remove_baseline_linear", spy)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        run_ecg_patient(tmp_path / "a", bpm=70)
        cfg = config_from_dict({"preprocess": {"highpass_cutoff_hz": 3.0,
                                               "highpass_order": 3}})
        run_ecg_patient(tmp_path / "b", bpm=70, config=cfg)
        (signal, default), (_, custom) = seen
        assert np.array_equal(default, remove_baseline_linear(signal).samples)
        assert np.array_equal(
            custom, remove_baseline_linear(signal, HighPassSpec(3.0, 3)).samples)
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
        calls = []
        real = MeasurementStore.records

        def counting(self, *args, **kwargs):
            calls.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(MeasurementStore, "records", counting)
        result, _ = run_ecg_patient(tmp_path, bpm=125, model=hr_model())
        assert result.prediction == "WORSENING"
        assert len(calls) == 1

    def test_one_append_per_run(self, tmp_path, monkeypatch):
        samples, _ = synth_ecg(70, duration_s=120.0)
        write_signal_csv(str(tmp_path / "ecg.csv"), samples, 250.0)
        t = np.arange(int(120 * 25.0)) / 25.0
        write_signal_csv(str(tmp_path / "resp.csv"), np.sin(2 * np.pi * 0.25 * t), 25.0)
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
                             now_ms=120000, ecg_csv=str(tmp_path / "ecg.csv"),
                             resp_csv=str(tmp_path / "resp.csv"),
                             measurements_csv=str(tmp_path / "meas.csv"))
        assert appends == [4]
        assert [(r.kind.value, r.timestamp_ms) for r in store.log_records("p1")] == [
            ("BODY_WEIGHT", 1000), ("BODY_TEMPERATURE", 3000),
            ("HEART_RATE", 120000), ("RESPIRATION_RATE", 120000)]
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
        assert result.decision is TransmissionDecision.IMMEDIATE
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
        assert result.decision is TransmissionDecision.IMMEDIATE

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

    def test_no_rejected_rows_key_when_every_row_ingests(self, tmp_path):
        meas = tmp_path / "meas.csv"
        meas.write_text("kind,value,timestamp_ms\nBODY_WEIGHT,70.0,1000\n")
        result = run_patient("p1", MeasurementStore(str(tmp_path / "store")), default_config(),
                             parse_rules(RULES), now_ms=10000, measurements_csv=str(meas))
        assert "rejected_rows" not in result.report


def run_resp_patient(tmp_path):
    fs = 25.0
    t = np.arange(int(120 * fs)) / fs
    samples = 1.5 * np.sin(2 * np.pi * 0.25 * t)
    resp_path = tmp_path / "resp.csv"
    write_signal_csv(str(resp_path), samples, fs)
    store = MeasurementStore(str(tmp_path / "store"))
    result = run_patient("p1", store, default_config(), parse_rules(RULES),
                         now_ms=120000, resp_csv=str(resp_path),
                         out_dir=str(tmp_path / "out"))
    return result, store


class TestPipelineRespiration:
    def test_respiration_features_and_injection(self, tmp_path):
        result, store = run_resp_patient(tmp_path)
        assert abs(result.features["respiration_rate_bpm"] - 15.0) <= 1.0
        # peak-to-trough excursion of a +-1.5 sine at calibration 1.0
        assert abs(result.features["tidal_volume_l"] - 3.0) < 1e-6
        rr = store.records("p1", kind=MeasurementKind.RESPIRATION_RATE)
        assert len(rr) == 1 and rr[0].mode is AcquisitionMode.SILENT

    def test_respiration_rate_computed_once(self, tmp_path, monkeypatch):
        calls = []
        real = respiration.respiration_rate

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # both modules bind the name; a second pass from either shows
        monkeypatch.setattr(respiration, "respiration_rate", counting)
        monkeypatch.setattr(pipeline, "respiration_rate", counting)
        result, _ = run_resp_patient(tmp_path)
        assert "tidal_volume_l" in result.features
        assert len(calls) == 1
