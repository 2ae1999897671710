import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgevitals
from conftest import synth_ecg, write_signal_csv
from edgevitals.classify.schema import (
    NUMERIC,
    Attribute,
    ClassLabel,
    FeatureVector,
    LabeledDataset,
    dataset_to_csv,
    patient_schema,
)
from edgevitals.classify.serialize import model_to_json, schema_hash
from edgevitals.classify.tree import DecisionTreeModel
from edgevitals import cli
from edgevitals.cli import main
from edgevitals.errors import IngestionError
from edgevitals.messaging import parse_message_xml
from edgevitals.rules import MeasurementKind, MeasurementRecord
from edgevitals.signal_core import SignalKind, read_signal_csv
from edgevitals.store import MeasurementStore

RULES = """<rules>
  <rule id="hr-high" severity="ALARM"><threshold kind="HEART_RATE" op="gt" value="120"/></rule>
  <rule id="weight-gain" scope="CKD" severity="ALARM">
    <percent_change kind="BODY_WEIGHT" op="gt" percent="2" window_hours="24"/>
  </rule>
  <rule id="fever" severity="ALARM"><threshold kind="BODY_TEMPERATURE" op="gt" value="38"/></rule>
</rules>"""

NOW = "1970-01-01T00:01:00Z"  # ms 60000, the end of a 60 s recording


def write_rules(tmp_path):
    path = tmp_path / "rules.xml"
    path.write_text(RULES)
    return str(path)


def ecg_manifest(tmp_path, patient, bpm, disease=None, tag=""):
    samples, _ = synth_ecg(bpm, duration_s=60.0)
    ecg = tmp_path / ("ecg-%s%s.csv" % (patient, tag))
    write_signal_csv(str(ecg), samples, 250.0)
    doc = {
        "patient_id": patient,
        "out_dir": "out-%s%s" % (patient, tag),
        "ecg": ecg.name,
        "rules": os.path.basename(write_rules(tmp_path)),
    }
    if disease:
        cfg = tmp_path / ("cfg-%s%s.json" % (patient, tag))
        cfg.write_text(json.dumps({"disease": disease}))
        doc["config"] = cfg.name
    path = tmp_path / ("manifest-%s%s.json" % (patient, tag))
    path.write_text(json.dumps(doc))
    return str(path)


def measurements_manifest(tmp_path, patient, csv_text, disease, now_note=""):
    meas = tmp_path / ("meas-%s.csv" % patient)
    meas.write_text(csv_text)
    cfg = tmp_path / ("cfg-%s.json" % patient)
    cfg.write_text(json.dumps({"disease": disease}))
    doc = {
        "patient_id": patient,
        "out_dir": "out-%s" % patient,
        "measurements": meas.name,
        "rules": os.path.basename(write_rules(tmp_path)),
        "config": cfg.name,
    }
    path = tmp_path / ("manifest-%s.json" % patient)
    path.write_text(json.dumps(doc))
    return str(path)


# a weighted-index model document, a model type that is no longer read
WEIGHTED_INDEX_MODEL = json.dumps({
    "format": "edgevitals-model", "version": 1, "model_type": "weighted_index",
    "schema": [], "schema_hash": schema_hash(()),
    "payload": {"threshold": 0.5, "weights": {"a": 1.0}}}, sort_keys=True)
# a model trained on an attribute schema other than the patient schema
TWO_ATTRIBUTE_TREE = model_to_json(DecisionTreeModel(
    (Attribute("a", NUMERIC), Attribute("b", NUMERIC)),
    {"kind": "leaf", "n": 1, "distribution": [1.0, 0.0, 0.0]}))
# a leaf with one class's probability, where predict_tree reads three
ONE_CLASS_LEAF_TREE = model_to_json(DecisionTreeModel(
    patient_schema(), {"kind": "leaf", "n": 1, "distribution": [1.0]}))


def message_path(tmp_path, patient, tag=""):
    return tmp_path / ("out-%s%s" % (patient, tag)) / patient / "message.xml"


class TestRun:
    def test_copd_tachycardia_exits_2_with_immediate_xml(self, tmp_path, capsys):
        manifest = ecg_manifest(tmp_path, "pat-copd", bpm=125, disease="COPD")
        code = main(["run", manifest, "--now", NOW])
        out = capsys.readouterr().out
        assert code == 2
        assert "pat-copd alerts=1 alarm=yes decision=IMMEDIATE" in out
        xml = message_path(tmp_path, "pat-copd").read_text()
        msg = parse_message_xml(xml)
        assert msg.urgency.value == "IMMEDIATE"
        assert msg.alerts[0].rule_id == "hr-high"

    def test_ckd_weight_gain_exits_2(self, tmp_path, capsys):
        csv_text = ("kind,value,timestamp_ms\n"
                    "BODY_WEIGHT,70.0,0\n"
                    "BODY_WEIGHT,71.5,50000\n")
        manifest = measurements_manifest(tmp_path, "pat-ckd", csv_text, "CKD")
        code = main(["run", manifest, "--now", NOW])
        out = capsys.readouterr().out
        assert code == 2
        assert "pat-ckd alerts=1 alarm=yes decision=IMMEDIATE" in out
        msg = parse_message_xml(message_path(tmp_path, "pat-ckd").read_text())
        assert msg.alerts[0].rule_id == "weight-gain"

    def test_healthy_patient_exits_0(self, tmp_path, capsys):
        manifest = ecg_manifest(tmp_path, "pat-ok", bpm=70)
        code = main(["run", manifest, "--now", NOW])
        out = capsys.readouterr().out
        assert code == 0
        assert "pat-ok alerts=0 alarm=no decision=SCHEDULED" in out

    def test_pinned_now_reruns_byte_identically(self, tmp_path, capsys):
        a = ecg_manifest(tmp_path, "pat-rep", bpm=125, tag="-a")
        b = ecg_manifest(tmp_path, "pat-rep", bpm=125, tag="-b")
        assert main(["run", a, "--now", NOW]) == 2
        assert main(["run", b, "--now", NOW]) == 2
        capsys.readouterr()
        for name in ("message.xml", "report.jsonl", "features.csv", "beats.csv"):
            fa = tmp_path / "out-pat-rep-a" / "pat-rep" / name
            fb = tmp_path / "out-pat-rep-b" / "pat-rep" / name
            assert fa.read_bytes() == fb.read_bytes()

    def test_summary_flags_only_the_qrs_disagreement_past_the_bound(self, tmp_path, capsys):
        # QRS widths of 1-2 ms reject every annotated beat, so the detectors
        # disagree on all of them; the default widths agree on the same ECG
        within = ecg_manifest(tmp_path, "pat-agree", bpm=70)
        past = ecg_manifest(tmp_path, "pat-differ", bpm=70)
        narrow = tmp_path / "narrow-qrs.json"
        narrow.write_text(json.dumps({"qrs": {"qrs_min_ms": 1.0, "qrs_max_ms": 2.0}}))
        doc = json.loads(Path(past).read_text())
        doc["config"] = narrow.name
        Path(past).write_text(json.dumps(doc))
        assert main(["run", within, past, "--now", NOW]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "pat-agree alerts=0 alarm=no decision=SCHEDULED",
            "pat-differ alerts=0 alarm=no decision=SCHEDULED flagged-qrs-disagreement",
        ]

    def test_jobs_outputs_sorted_by_patient(self, tmp_path, capsys):
        m_b = ecg_manifest(tmp_path, "pat-b", bpm=70)
        m_a = ecg_manifest(tmp_path, "pat-a", bpm=70)
        code = main(["run", m_b, m_a, "--now", NOW, "--jobs", "2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("pat-")]
        assert [l.split()[0] for l in lines] == ["pat-a", "pat-b"]

    def test_duplicate_patient_ids_usage_error(self, tmp_path, capsys):
        manifest = ecg_manifest(tmp_path, "pat-x", bpm=70)
        assert main(["run", manifest, manifest, "--now", NOW]) == 64
        assert "duplicate patient_id" in capsys.readouterr().err

    def test_missing_manifest_usage_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json"), "--now", NOW]) == 64
        assert "not readable" in capsys.readouterr().err

    def test_bad_now_usage_error(self, tmp_path, capsys):
        manifest = ecg_manifest(tmp_path, "pat-y", bpm=70)
        assert main(["run", manifest, "--now", "tomorrow"]) == 64
        assert "ISO8601" in capsys.readouterr().err

    def test_manifest_without_patient_id(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"out_dir": "out"}))
        assert main(["run", str(path)]) == 64
        assert "patient_id" in capsys.readouterr().err

    def test_missing_rules_usage_error(self, tmp_path, capsys):
        samples, _ = synth_ecg(70, duration_s=60.0)
        ecg = tmp_path / "e.csv"
        write_signal_csv(str(ecg), samples, 250.0)
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"patient_id": "p", "out_dir": "out",
                                    "ecg": "e.csv"}))
        assert main(["run", str(path), "--now", NOW]) == 64
        assert "rules" in capsys.readouterr().err


def shared_store_manifest(tmp_path, patient, csv_text):
    meas = tmp_path / ("meas-%s.csv" % patient)
    meas.write_text(csv_text)
    path = tmp_path / ("manifest-%s.json" % patient)
    path.write_text(json.dumps({
        "patient_id": patient, "out_dir": "out", "store_dir": "store",
        "measurements": meas.name, "rules": os.path.basename(write_rules(tmp_path))}))
    return str(path)


HEALTHY_CSV = "kind,value,timestamp_ms\nBODY_WEIGHT,70.0,1000\n"


class TestRunBatch:
    def test_batch_loads_only_its_patients_once_each(self, tmp_path, capsys, monkeypatch):
        store = MeasurementStore(str(tmp_path / "store"))
        for i in range(6):  # three bystanders share the store
            store.ingest([MeasurementRecord("p%d" % i, MeasurementKind.BODY_WEIGHT,
                                            70.0 + j, j) for j in range(i + 1)])
        loaded = []
        real = MeasurementStore._load_patient

        def counting(self, patient_id):
            real(self, patient_id)
            loaded.append((patient_id, len(self._log[patient_id])))

        monkeypatch.setattr(MeasurementStore, "_load_patient", counting)
        manifests = [shared_store_manifest(tmp_path, "p%d" % i, HEALTHY_CSV)
                     for i in (4, 0, 2)]
        assert main(["run", *manifests, "--now", NOW]) == 0
        assert sorted(loaded) == [("p0", 1), ("p2", 3), ("p4", 5)]
        assert [l.split()[0] for l in capsys.readouterr().out.splitlines()] == [
            "p0", "p2", "p4"]

    def test_rerun_before_the_next_slot_holds_and_leaves_no_message(self, tmp_path, capsys):
        manifest = shared_store_manifest(tmp_path, "p-ok", HEALTHY_CSV)
        assert main(["run", manifest, "--now", NOW]) == 0
        assert main(["run", manifest, "--now", NOW]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "p-ok alerts=0 alarm=no decision=SCHEDULED", "p-ok alerts=0 alarm=no decision=HOLD"]
        assert sorted(os.listdir(tmp_path / "out" / "p-ok")) == ["features.csv", "report.jsonl"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_csv_row_fails_only_its_patient(self, tmp_path, capsys, jobs):
        bad = shared_store_manifest(
            tmp_path, "p-bad", "kind,value,timestamp_ms\nBODY_WEIGHT,70,1\nBODY_WEIGHT,abc,5\n")
        good = shared_store_manifest(tmp_path, "p-ok", HEALTHY_CSV)
        code = main(["run", good, bad, "--now", NOW, "--jobs", jobs])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[0].startswith("p-bad error=IngestionError: ")
        assert lines[0].endswith("meas-p-bad.csv:3: could not convert string to float: 'abc'")
        assert lines[1] == "p-ok alerts=0 alarm=no decision=SCHEDULED"
        assert (tmp_path / "out" / "p-ok" / "message.xml").exists()
        assert not (tmp_path / "out" / "p-bad").exists()

    @pytest.mark.parametrize("key, data, reason", [
        ("measurements", b"kind,val,timestamp_ms\nBODY_WEIGHT,70,1\n",
         "measurements CSV needs columns kind,value,timestamp_ms"),
        ("measurements", b"\xffkind,value,timestamp_ms\nBODY_WEIGHT,70,1\n",
         "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ("ecg", b"timestamp_ms,value\n0,0.1\n4,\xff0.2\n8,0.1\n",
         "'utf-8' codec can't decode byte 0xff in position 27: invalid start byte"),
        ("respiration", b"timestamp_ms,value\n0,0.1\n40,0.2\n80,\xff0.1\n",
         "'utf-8' codec can't decode byte 0xff in position 35: invalid start byte"),
    ], ids=["missing-column", "measurements-not-utf-8", "ecg-not-utf-8", "resp-not-utf-8"])
    def test_input_file_that_does_not_decode_fails_only_its_patient(
            self, tmp_path, capsys, key, data, reason):
        bad = shared_store_manifest(tmp_path, "p-bad", HEALTHY_CSV)
        path = tmp_path / ("bad-%s.csv" % key)
        path.write_bytes(data)
        doc = json.loads(Path(bad).read_text())
        doc[key] = path.name
        Path(bad).write_text(json.dumps(doc))
        good = shared_store_manifest(tmp_path, "p-ok", HEALTHY_CSV)
        code = main(["run", good, bad, "--now", NOW])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines == ["p-bad error=IngestionError: %s: %s" % (path, reason),
                         "p-ok alerts=0 alarm=no decision=SCHEDULED"]
        assert (tmp_path / "out" / "p-ok" / "message.xml").exists()
        assert not (tmp_path / "out" / "p-bad").exists()

    def test_corrupt_log_fails_only_its_patient(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "p-bad.jsonl").write_text("garbage\n" + "{}\n")
        bad = shared_store_manifest(tmp_path, "p-bad", HEALTHY_CSV)
        good = shared_store_manifest(tmp_path, "p-ok", HEALTHY_CSV)
        code = main(["run", bad, good, "--now", NOW])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[0].startswith("p-bad error=IntegrityError: corrupt record at ")
        assert lines[0].endswith("p-bad.jsonl line 1")
        assert lines[1] == "p-ok alerts=0 alarm=no decision=SCHEDULED"
        assert (tmp_path / "out" / "p-ok" / "message.xml").exists()

    def test_corrupt_last_send_fails_only_its_patient(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        (store_dir / "p-bad.cursor").write_text('{"sent": 0, "last_scheduled_ms": "yesterday"}')
        bad = shared_store_manifest(tmp_path, "p-bad", HEALTHY_CSV)
        good = shared_store_manifest(tmp_path, "p-ok", HEALTHY_CSV)
        code = main(["run", bad, good, "--now", NOW])
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines[0].startswith("p-bad error=IntegrityError: corrupt cursor file ")
        assert lines[0].endswith("p-bad.cursor")
        assert lines[1] == "p-ok alerts=0 alarm=no decision=SCHEDULED"
        assert (tmp_path / "out" / "p-ok" / "message.xml").exists()

    @pytest.mark.parametrize("data, reason", [
        (b'{"patient_id": "p-b", "out_dir": "out", "store_dir": "store"}',
         "needs patient_id, out_dir and rules"),
        (b'{"patient_id": "p-b", "out_dir": "out\xff", "store_dir": "store"}',
         "is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 37"),
    ], ids=["missing-keys", "not-utf-8"])
    def test_usage_error_in_a_later_manifest_runs_no_patient(self, tmp_path, capsys, data,
                                                              reason):
        first = shared_store_manifest(tmp_path, "p-a", HEALTHY_CSV)
        second = tmp_path / "manifest-p-b.json"
        second.write_bytes(data)
        assert main(["run", first, str(second), "--now", NOW, "--jobs", "1"]) == 64
        captured = capsys.readouterr()
        assert "manifest %s %s" % (second, reason) in captured.err
        assert captured.out == ""
        assert not (tmp_path / "store" / "p-a.cursor").exists()
        assert not (tmp_path / "out" / "p-a").exists()

    @pytest.mark.parametrize("key, text, reason", [
        ("config", '{"rules_path": "x"}', "unknown config key 'rules_path'"),
        ("config", "{not json", "is not valid JSON"),
        ("rules", '<rules><rule id="a" severity="ALARM"/></rules>', "exactly one condition"),
        ("rules", "<rules>", "no element found"),
        ("rules", '<rules><rule id="lifestyle-index" severity="LIGHT_ALERT">'
                  '<threshold kind="SPO2" op="lt" value="90"/></rule></rules>',
         "rule id 'lifestyle-index' is reserved"),
        ("model", "{}", "not a model document"),
        ("model", WEIGHTED_INDEX_MODEL, "unknown model type 'weighted_index'"),
        ("model", TWO_ATTRIBUTE_TREE,
         "the model's 2-attribute schema is not the 41-attribute patient schema"),
        ("model", ONE_CLASS_LEAF_TREE,
         "model payload: a leaf needs a distribution of 3 finite numbers >= 0, got [1.0]"),
        ("config", '{"qrs": {"cross_check_pct": "10"}}',
         "config key 'qrs.cross_check_pct' must be a number, got '10'"),
        ("config", '{"qrs": {"cross_check_pct": true}}', "must be a number, got True"),
        ("config", '{"preprocess": {"wavelet_levels": 4.5}}',
         "config key 'preprocess.wavelet_levels' must be an integer"),
        ("config", '{"preprocess": {"threshold_mode": "SOFT"}}',
         "threshold_mode must be soft or hard"),
        ("config", '{"preprocess": {"wavelet_levels": 0}}',
         "config key 'preprocess.wavelet_levels' must be >= 1, got 0"),
        ("config", '{"qrs": {"qrs_min_ms": 200.0}}',
         "config key 'qrs.qrs_min_ms' must not exceed qrs.qrs_max_ms"),
        ("config", '{"respiration": {"window_s": 0}}',
         "config key 'respiration.window_s' must be a finite number > 0, got 0"),
        ("config", '{"schedule": {"send_time": "8:00"}}', "send_time must be HH:MM, got '8:00'"),
        ("config", '{"stress_index": {"weights": {"questionnaire_01": 1.0}, "threshold": 0.5, '
                   '"treshold": 0.9}}', "unknown config key 'stress_index.treshold'"),
    ])
    def test_input_that_does_not_parse_in_a_later_manifest_runs_no_patient(
            self, tmp_path, capsys, key, text, reason):
        first = shared_store_manifest(tmp_path, "p-a", HEALTHY_CSV)
        second = shared_store_manifest(tmp_path, "p-b", HEALTHY_CSV)
        bad = tmp_path / ("bad-" + key)
        bad.write_text(text)
        doc = json.loads(Path(second).read_text())
        doc[key] = bad.name
        with open(second, "w") as fh:
            json.dump(doc, fh)
        assert main(["run", first, second, "--now", NOW, "--jobs", "1"]) == 64
        captured = capsys.readouterr()
        assert captured.err.startswith("usage error: manifest %s: %s %s does not parse: " % (
            second, key, bad))
        assert reason in captured.err
        assert captured.out == ""
        assert not (tmp_path / "store" / "p-a.cursor").exists()
        assert not (tmp_path / "out" / "p-a" / "message.xml").exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_shared_inputs_parsed_once_and_left_unchanged(self, tmp_path, capsys, monkeypatch,
                                                          jobs):
        model = str(tmp_path / "tree.json")
        assert main(["train", write_dataset(tmp_path, "train.csv", TRAIN_PAIRS),
                     "--algorithm", "tree", "--out", model]) == 0
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"disease": "CKD"}))
        manifests = []
        for pid in ("p-a", "p-b", "p-c"):
            path = shared_store_manifest(tmp_path, pid, HEALTHY_CSV)
            doc = json.loads(Path(path).read_text())
            doc.update(config=config.name, model="tree.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            manifests.append(path)
        calls = []
        real = cli._parse_file

        def counting(key, path):
            calls.append((key, path))
            return real(key, path)

        docs = []
        real_inputs = cli._parse_inputs

        def keeping(pairs):
            pairs = list(pairs)
            docs.extend(doc for _, doc in pairs)
            real_inputs(pairs)

        monkeypatch.setattr(cli, "_parse_file", counting)
        monkeypatch.setattr(cli, "_parse_inputs", keeping)
        capsys.readouterr()
        assert main(["run", *manifests, "--now", NOW, "--jobs", jobs]) == 0
        assert sorted(key for key, _ in calls) == ["config", "model", "rules"]
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert len(docs) == 3
        # the patients shared one object per file, and after their runs it
        # is still what a fresh parse of the file gives
        for key, path in calls:
            assert len({id(doc[key]) for doc in docs}) == 1
            parsed, fresh = docs[0][key], real(key, path)
            if key == "model":
                assert model_to_json(parsed) == model_to_json(fresh)
            elif key == "config":
                assert parsed.raw == fresh.raw
            else:
                assert parsed == fresh

    def test_manifests_without_a_config_share_one_default(self, tmp_path, capsys,
                                                          monkeypatch):
        calls = []
        real = cli.default_config

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(cli, "default_config", counting)
        manifests = [shared_store_manifest(tmp_path, pid, HEALTHY_CSV) for pid in ("p-a", "p-b")]
        manifests.append(ecg_manifest(tmp_path, "p-c", bpm=70))
        assert main(["run", *manifests, "--now", NOW]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3
        assert len(calls) == 1

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_usage_error(self, tmp_path, capsys, jobs):
        manifest = shared_store_manifest(tmp_path, "p-a", HEALTHY_CSV)
        assert main(["run", manifest, "--now", NOW, "--jobs", jobs]) == 64
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_importing_the_cli_and_pipeline_loads_no_numpy(self):
        assert fresh_python(
            "import sys, edgevitals.cli, edgevitals.pipeline; "
            "sys.exit('numpy' in sys.modules or 'scipy' in sys.modules)").returncode == 0

    def test_device_path_modules_load_without_numpy(self):
        # the package imports no submodule, so the store, rules and
        # messaging load only what they import themselves
        assert fresh_python(
            "import sys, edgevitals.errors, edgevitals.rules, edgevitals.messaging, "
            "edgevitals.store; sys.exit('numpy' in sys.modules or 'scipy' in sys.modules)"
        ).returncode == 0

    def test_importing_the_cli_loads_no_pool_or_sax_modules(self, tmp_path):
        # messaging escapes by itself, and --jobs forks its workers itself
        assert fresh_python(
            "import sys, edgevitals.cli; sys.exit(sorted(m for m in ("
            "'multiprocessing', 'concurrent.futures', 'xml.sax', 'urllib.request') "
            "if m in sys.modules) or 0)").returncode == 0
        manifests = [shared_store_manifest(tmp_path, pid, HEALTHY_CSV) for pid in ("p-a", "p-b")]
        proc = fresh_python(
            "import sys\n"
            "from edgevitals import cli\n"
            "POOL = ('multiprocessing', 'concurrent.futures')\n"
            "real = cli.run_patient\n"
            "def checking(*args, **kwargs):\n"
            "    assert not any(m in sys.modules for m in POOL), 'a worker loaded a pool module'\n"
            "    return real(*args, **kwargs)\n"
            "cli.run_patient = checking\n"
            "code = cli.main(%r)\n"
            "sys.exit(code or sorted(m for m in POOL if m in sys.modules) or 0)\n"
            % ["run", *manifests, "--now", NOW, "--jobs", "2"])
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout.splitlines() == [
            "p-a alerts=0 alarm=no decision=SCHEDULED", "p-b alerts=0 alarm=no decision=SCHEDULED"]

    @pytest.mark.parametrize("key, value", [
        ("patient_id", 5), ("ecg", 5), ("respiration", True), ("measurements", 1.5),
        ("config", {"disease": "CKD"}), ("rules", ["rules.xml"]), ("model", 0),
        ("out_dir", 7), ("store_dir", ["s"])])
    def test_path_key_of_another_type_in_a_later_manifest_runs_no_patient(
            self, tmp_path, capsys, key, value):
        first = shared_store_manifest(tmp_path, "p-a", HEALTHY_CSV)
        second = shared_store_manifest(tmp_path, "p-b", HEALTHY_CSV)
        with open(second) as fh:
            doc = json.load(fh)
        doc[key] = value
        with open(second, "w") as fh:
            json.dump(doc, fh)
        assert main(["run", first, second, "--now", NOW]) == 64
        captured = capsys.readouterr()
        assert captured.err == "usage error: manifest %s: %s must be a string\n" % (second, key)
        assert captured.out == ""
        assert not (tmp_path / "out" / "p-a").exists()

    @pytest.mark.parametrize("key, value", [
        ("ecg_rate_hz", "fast"), ("ecg_rate_hz", True), ("ecg_rate_hz", None),
        ("ecg_rate_hz", float("nan")), ("resp_rate_hz", float("inf")),
        ("resp_rate_hz", 10 ** 400), ("resp_rate_hz", 0), ("resp_rate_hz", -25.0)])
    def test_bad_rate_in_a_later_manifest_runs_no_patient(self, tmp_path, capsys, key, value):
        first = shared_store_manifest(tmp_path, "p-a", HEALTHY_CSV)
        second = shared_store_manifest(tmp_path, "p-b", HEALTHY_CSV)
        doc = json.loads(Path(second).read_text())
        doc[key] = value
        with open(second, "w") as fh:
            json.dump(doc, fh)
        assert main(["run", first, second, "--now", NOW]) == 64
        captured = capsys.readouterr()
        assert captured.err == (
            "usage error: manifest %s: %s must be a finite number above 0, got %s\n"
            % (second, key, json.dumps(value)))
        assert captured.out == ""
        assert not (tmp_path / "out" / "p-a").exists()

    @pytest.mark.parametrize("patient", ["../escape", "a/b", "p1\n", "p 1", "é"])
    def test_unsafe_patient_id_in_a_later_manifest_runs_no_patient(
            self, tmp_path, capsys, patient):
        first = shared_store_manifest(tmp_path, "p-a", HEALTHY_CSV)
        second = shared_store_manifest(tmp_path, "p-b", HEALTHY_CSV)
        doc = json.loads(Path(second).read_text())
        doc["patient_id"] = patient
        with open(second, "w") as fh:
            json.dump(doc, fh)
        assert main(["run", first, second, "--now", NOW]) == 64
        captured = capsys.readouterr()
        assert captured.err == (
            "usage error: manifest %s: patient_id %r may hold only ASCII letters, digits, "
            "'_' and '-'\n" % (second, patient))
        assert captured.out == ""
        assert not (tmp_path / "out" / "p-a").exists()

    def test_integer_rates_are_accepted(self, tmp_path, capsys):
        manifest = shared_store_manifest(tmp_path, "p-a", HEALTHY_CSV)
        doc = json.loads(Path(manifest).read_text())
        doc.update(ecg_rate_hz=250, resp_rate_hz=25)
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        assert main(["run", manifest, "--now", NOW]) == 0
        assert capsys.readouterr().out == "p-a alerts=0 alarm=no decision=SCHEDULED\n"


    def test_misspelt_manifest_key_in_a_later_manifest_runs_no_patient(self, tmp_path, capsys):
        first = shared_store_manifest(tmp_path, "p-a", HEALTHY_CSV)
        second = shared_store_manifest(tmp_path, "p-b", HEALTHY_CSV)
        doc = json.loads(Path(second).read_text())
        doc.update(measurement=doc.pop("measurements"), confg="nope.json")
        with open(second, "w") as fh:
            json.dump(doc, fh)
        assert main(["run", first, second, "--now", NOW]) == 64
        captured = capsys.readouterr()
        assert captured.err == ("usage error: manifest %s: unknown key 'confg', 'measurement'\n"
                                % second)
        assert captured.out == ""
        assert not (tmp_path / "out" / "p-a").exists()

    @pytest.mark.parametrize("cutoff", [125.0, 200.0])
    def test_cutoff_at_or_above_nyquist_in_a_later_manifest_runs_no_patient(
            self, tmp_path, capsys, cutoff):
        first = shared_store_manifest(tmp_path, "p-a", HEALTHY_CSV)
        second = ecg_manifest(tmp_path, "p-b", bpm=70)
        config = tmp_path / "cfg-hp.json"
        config.write_text(json.dumps({"preprocess": {"highpass_cutoff_hz": cutoff}}))
        doc = json.loads(Path(second).read_text())
        doc["config"] = config.name
        with open(second, "w") as fh:
            json.dump(doc, fh)
        assert main(["run", first, second, "--now", NOW]) == 64
        captured = capsys.readouterr()
        assert captured.err == (
            "usage error: manifest %s: highpass_cutoff_hz %r in config %s must lie below "
            "125.0 Hz, the Nyquist frequency of ecg_rate_hz 250.0\n" % (second, cutoff, config))
        assert captured.out == ""
        assert not (tmp_path / "out" / "p-a").exists()

    def test_poly_baseline_runs_whatever_the_cutoff(self, tmp_path, capsys):
        manifest = ecg_manifest(tmp_path, "p-a", bpm=70)
        config = tmp_path / "cfg-poly.json"
        config.write_text(json.dumps({"preprocess": {"baseline_method": "poly",
                                                     "highpass_cutoff_hz": 200.0}}))
        doc = json.loads(Path(manifest).read_text())
        doc["config"] = config.name
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        assert main(["run", manifest, "--now", NOW]) == 0
        assert capsys.readouterr().out == "p-a alerts=0 alarm=no decision=SCHEDULED\n"

    def test_log_name_xml_cannot_carry_fails_its_patient_and_sends_nothing(
            self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        store_dir.mkdir()
        log = store_dir / "p1.jsonl"
        log.write_text('{"patient":"p1","kind":"QUESTIONNAIRE_ITEM","value":0.5,"ts":1000,'
                       '"mode":"NOSILENT","name":"a\\u0001b"}\n')
        cursor = store_dir / "p1.cursor"
        cursor.write_text('{"sent": 0, "last_scheduled_ms": null}')
        manifest = shared_store_manifest(tmp_path, "p1", HEALTHY_CSV)
        assert main(["run", manifest, "--now", NOW]) == 1
        out = capsys.readouterr().out
        assert out.startswith("p1 error=IntegrityError: corrupt record at ")
        assert out.endswith("p1.jsonl line 1\n")
        assert not (tmp_path / "out" / "p1" / "message.xml").exists()
        assert cursor.read_text() == '{"sent": 0, "last_scheduled_ms": null}'


class TestForkedJobs:
    def test_measurement_only_run_with_a_model_loads_no_numpy(self, tmp_path):
        model = str(tmp_path / "tree.json")
        assert main(["train", write_dataset(tmp_path, "train.csv", TRAIN_PAIRS),
                     "--algorithm", "tree", "--out", model]) == 0
        manifest = shared_store_manifest(tmp_path, "p-a", HEALTHY_CSV)
        doc = json.loads(Path(manifest).read_text())
        doc["model"] = "tree.json"
        with open(manifest, "w") as fh:
            json.dump(doc, fh)
        argv = ["run", manifest, "--now", NOW]
        proc = fresh_python(
            "import sys; from edgevitals.cli import main; code = main(%r); "
            "sys.exit(code or 3 * ('numpy' in sys.modules or 'scipy' in sys.modules))" % argv)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads((tmp_path / "out" / "p-a" / "report.jsonl").read_text())
        assert "prediction" in report

    @pytest.mark.parametrize("baseline_method", ["linear", "poly"])
    def test_ecg_run_loads_no_scipy_signal_or_stats(self, tmp_path, baseline_method):
        # the filter and peak kernels load by themselves and register as
        # scipy.signal._sosfilt and the like; the packages must stay out
        manifest = ecg_manifest(tmp_path, "p-a", bpm=70)
        if baseline_method != "linear":
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps({"preprocess": {"baseline_method": baseline_method}}))
            doc = json.loads(Path(manifest).read_text())
            doc["config"] = config.name
            Path(manifest).write_text(json.dumps(doc))
        argv = ["run", manifest, "--now", NOW]
        proc = fresh_python(
            "import sys; from edgevitals.cli import main; code = main(%r); "
            "sys.exit(code or 3 * any(m in sys.modules for m in ('scipy.signal', 'scipy.stats')))"
            % argv)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert proc.stdout == "p-a alerts=0 alarm=no decision=SCHEDULED\n"
        _, truth = synth_ecg(70, duration_s=60.0)
        beats = (tmp_path / "out-p-a" / "p-a" / "beats.csv").read_text().splitlines()[1:]
        r_peaks = [int(row.split(",")[1]) for row in beats if row.endswith(",QRS")]
        assert len(r_peaks) == len(truth)
        assert max(abs(r - t) for r, t in zip(r_peaks, truth)) <= 2

    def test_jobs_run_patients_in_worker_processes(self, tmp_path, capsys, monkeypatch):
        pids = tmp_path / "pids"
        real = cli.run_patient

        def recording(*args, **kwargs):
            with open(pids, "a") as fh:
                fh.write("%d\n" % os.getpid())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "run_patient", recording)
        manifests = [shared_store_manifest(tmp_path, "p%d" % i, HEALTHY_CSV) for i in range(4)]
        assert main(["run", *manifests, "--now", NOW, "--jobs", "2"]) == 0
        workers = [int(pid) for pid in pids.read_text().split()]
        assert len(workers) == 4
        assert os.getpid() not in workers and len(set(workers)) <= 2
        assert capsys.readouterr().out.splitlines() == [
            "p%d alerts=0 alarm=no decision=SCHEDULED" % i for i in range(4)]

    @staticmethod
    def run_with_a_dying_patient(tmp_path, patients, dying):
        """`run --jobs 2` over measurement-only patients in a new
        interpreter, where the worker that runs `dying` exits with status 3
        in its place."""
        manifests = [shared_store_manifest(tmp_path, pid, HEALTHY_CSV) for pid in patients]
        argv = ["run", *manifests, "--now", NOW, "--jobs", "2"]
        return fresh_python(
            "import os, sys\n"
            "from edgevitals import cli\n"
            "real = cli.run_patient\n"
            "def dying(patient_id, *args, **kwargs):\n"
            "    if patient_id == %r:\n"
            "        os._exit(3)\n"
            "    return real(patient_id, *args, **kwargs)\n"
            "cli.run_patient = dying\n"
            "sys.exit(cli.main(%r))\n" % (dying, argv))

    def test_a_dead_worker_fails_the_run_without_hanging(self, tmp_path):
        # p-b is the second worker's whole share
        proc = self.run_with_a_dying_patient(tmp_path, ("p-a", "p-b", "p-c"), "p-b")
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout.splitlines() == [
            "p-a alerts=0 alarm=no decision=SCHEDULED",
            "p-b error=ChildProcessError: worker exited with status 3 before reporting, so "
            "its run may have finished",
            "p-c alerts=0 alarm=no decision=SCHEDULED"]

    def test_a_dead_worker_fails_only_its_own_share(self, tmp_path):
        patients = ["p-" + c for c in "abcdefgh"]
        proc = self.run_with_a_dying_patient(tmp_path, patients, "p-c")
        assert proc.returncode == 1, proc.stderr
        lines = proc.stdout.splitlines()
        assert [line.split()[0] for line in lines] == patients
        for pid, line in zip(patients, lines):
            if pid in ("p-a", "p-c", "p-e", "p-g"):  # the first worker's share
                assert line == ("%s error=ChildProcessError: worker exited with status 3 "
                                "before reporting, so its run may have finished" % pid)
            else:
                assert line == "%s alerts=0 alarm=no decision=SCHEDULED" % pid
                assert (tmp_path / "out" / pid / "message.xml").is_file()
        # p-a finished before its worker died; p-c's death ended p-e and p-g unrun
        assert (tmp_path / "out" / "p-a").is_dir()
        assert not any((tmp_path / "out" / pid).exists() for pid in ("p-c", "p-e", "p-g"))

    @pytest.mark.parametrize("call, nth", [("fork", 1), ("fork", 2), ("pipe", 2)])
    def test_a_failed_fork_runs_the_shares_left_over_in_the_run_process(
            self, tmp_path, capsys, monkeypatch, call, nth):
        # the nth os.pipe or os.fork fails as it does when the system is
        # out of processes; the workers already forked go on
        runs = {}
        for jobs in ("1", "2"):
            work = tmp_path / ("jobs-" + jobs)
            work.mkdir()
            manifests = [shared_store_manifest(work, pid, HEALTHY_CSV)
                         for pid in ("p-a", "p-b", "p-d")]
            manifests.insert(2, shared_store_manifest(
                work, "p-c", HEALTHY_CSV + "HEART_RATE,130.0,2000\n"))
            with monkeypatch.context() as m:
                if jobs == "2":
                    real, calls = getattr(os, call), []

                    def failing():
                        calls.append(1)
                        if len(calls) == nth:
                            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
                        return real()

                    m.setattr(os, call, failing)
                code = main(["run", *manifests, "--now", NOW, "--jobs", jobs])
            files = {str(p.relative_to(work)): p.read_bytes()
                     for p in sorted(work.rglob("*")) if p.is_file()}
            runs[jobs] = code, capsys.readouterr().out, files
        assert len(calls) == nth
        with pytest.raises(ChildProcessError):  # every worker was reaped
            os.waitpid(-1, os.WNOHANG)
        assert runs["2"] == runs["1"]
        code, out, files = runs["1"]
        assert code == 2
        assert out.splitlines() == [
            "p-a alerts=0 alarm=no decision=SCHEDULED", "p-b alerts=0 alarm=no decision=SCHEDULED",
            "p-c alerts=1 alarm=yes decision=IMMEDIATE", "p-d alerts=0 alarm=no decision=SCHEDULED"]

    @pytest.mark.parametrize("jobs, extra", [("2", 0), ("3", 2)])
    def test_forked_and_in_process_batches_write_the_same_bytes(self, tmp_path, capsys, jobs,
                                                                 extra):
        runs = {}
        for n in ("1", jobs):
            work = tmp_path / ("jobs-" + n)
            work.mkdir()
            manifests = [
                ecg_manifest(work, "pat-copd", bpm=125, disease="COPD"),
                measurements_manifest(work, "pat-ckd", "kind,value,timestamp_ms\n"
                                      "BODY_WEIGHT,70.0,0\nBODY_WEIGHT,71.5,50000\n", "CKD"),
                shared_store_manifest(work, "pat-ok", HEALTHY_CSV)]
            # with 5 patients and 3 workers, two shares hold two patients
            manifests += [shared_store_manifest(work, "pat-ok%d" % i, HEALTHY_CSV)
                          for i in range(extra)]
            code = main(["run", *manifests, "--now", NOW, "--jobs", n])
            files = {str(p.relative_to(work)): p.read_bytes()
                     for p in sorted(work.rglob("*")) if p.is_file()}
            runs[n] = code, capsys.readouterr().out, files
        assert runs["1"] == runs[jobs]
        code, out, files = runs["1"]
        assert code == 2 and len(out.splitlines()) == 3 + extra
        assert "out-pat-copd/pat-copd/beats.csv" in files
        assert "out/pat-ok/message.xml" in files


BAD_ECG = {
    "header": "time,value\n0,0.1\n4,0.2\n",
    "three-columns": "timestamp_ms,value\n0,0.1,1\n4,0.2,1\n",
    "non-finite-timestamp": "timestamp_ms,value\n0,0.1\nnan,0.2\n8,0.3\n",
    "jitter": "timestamp_ms,value\n0,0.1\n4,0.2\n9,0.3\n",
}


class TestEcgReader:
    """The patient's own process reads the ECG CSV, as it reads the
    respiration one; these pin what a rejected recording reports and
    that only --jobs forks."""

    def batch(self, tmp_path):
        """An ECG patient and a measurement-only one; returns the manifests
        and the ECG path as run resolves it."""
        ecg = ecg_manifest(tmp_path, "p-ecg", bpm=70)
        return [ecg, shared_store_manifest(tmp_path, "p-ok", HEALTHY_CSV)], str(
            tmp_path / "ecg-p-ecg.csv")

    @pytest.mark.parametrize("case", sorted(BAD_ECG))
    def test_a_rejected_recording_fails_only_its_patient_with_the_readers_message(
            self, tmp_path, capsys, case):
        manifests, ecg = self.batch(tmp_path)
        with open(ecg, "w") as fh:
            fh.write(BAD_ECG[case])
        with pytest.raises(IngestionError) as expected:
            read_signal_csv(ecg, 250.0, SignalKind.ECG)
        assert main(["run", *manifests, "--now", NOW]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "p-ecg error=IngestionError: %s" % expected.value,
            "p-ok alerts=0 alarm=no decision=SCHEDULED"]

    def test_with_both_recordings_bad_the_ecg_error_is_reported(self, tmp_path, capsys):
        manifests, ecg = self.batch(tmp_path)
        with open(ecg, "w") as fh:
            fh.write(BAD_ECG["header"])
        (tmp_path / "resp.csv").write_text(BAD_ECG["jitter"])
        with open(manifests[0]) as fh:
            doc = json.load(fh)
        doc["respiration"] = "resp.csv"
        with open(manifests[0], "w") as fh:
            json.dump(doc, fh)
        assert main(["run", *manifests, "--now", NOW]) == 1
        assert capsys.readouterr().out.splitlines()[0] == (
            "p-ecg error=IngestionError: %s: expected header 'timestamp_ms,value', "
            "got 'time,value'" % ecg)

    @pytest.mark.parametrize("jobs, forks", [("1", []), ("2", [(False, 1), (False, 1)])])
    def test_only_jobs_forks_and_each_fork_precedes_numpy(self, tmp_path, jobs, forks):
        # each fork: (numpy loaded, threads in the forking process)
        argv = ["run", ecg_manifest(tmp_path, "p-a", bpm=70),
                ecg_manifest(tmp_path, "p-b", bpm=70), "--now", NOW, "--jobs", jobs]
        proc = fresh_python(
            "import os, sys\n"
            "real, forks = os.fork, []\n"
            "def fork():\n"
            "    tasks = '/proc/self/task'\n"
            "    threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else 1\n"
            "    forks.append(('numpy' in sys.modules, threads))\n"
            "    return real()\n"
            "os.fork = fork\n"
            "from edgevitals.cli import main\n"
            "code = main(%r)\n"
            "print(forks)\n"
            "sys.exit(code)\n" % argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "p-a alerts=0 alarm=no decision=SCHEDULED",
            "p-b alerts=0 alarm=no decision=SCHEDULED", repr(forks)]
        assert proc.stderr == ""


def fresh_python(code):
    """The finished run, output captured, of code in a new interpreter
    that imports this tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(edgevitals.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def hr_row(schema, v, attribute="mean_heart_rate_bpm"):
    idx = [a.name for a in schema].index(attribute)
    vals = [None] * len(schema)
    vals[idx] = v
    return FeatureVector(schema, tuple(vals))


def write_dataset(tmp_path, name, pairs, attribute="mean_heart_rate_bpm"):
    schema = patient_schema()
    feats = tuple(hr_row(schema, v, attribute) for v, _ in pairs)
    labels = tuple(lab for _, lab in pairs)
    path = tmp_path / name
    path.write_text(dataset_to_csv(LabeledDataset(schema, feats, labels)))
    return str(path)


TRAIN_PAIRS = [(58.0, ClassLabel.STABLE), (62.0, ClassLabel.STABLE),
               (96.0, ClassLabel.LIGHT_WORSENING), (104.0, ClassLabel.LIGHT_WORSENING),
               (128.0, ClassLabel.WORSENING), (132.0, ClassLabel.WORSENING)]


class TestTrainEval:
    def test_tree_round_trip_perfect_on_training_data(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path, "train.csv", TRAIN_PAIRS)
        model = str(tmp_path / "tree.json")
        assert main(["train", dataset, "--algorithm", "tree", "--out", model]) == 0
        out = capsys.readouterr().out
        assert "trained decision tree" in out and "rows=6" in out
        assert main(["eval", model, dataset]) == 0
        table = capsys.readouterr().out
        assert "MAE" in table and "0.0000" in table
        assert "Instances" in table and "6" in table

    def test_eval_table_reports_fifty_percent_rae(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path, "train.csv",
                                [(60.0, ClassLabel.STABLE),
                                 (100.0, ClassLabel.LIGHT_WORSENING)])
        model = str(tmp_path / "tree.json")
        assert main(["train", dataset, "--algorithm", "tree", "--out", model]) == 0
        capsys.readouterr()
        testset = write_dataset(tmp_path, "test.csv",
                                [(60.0, ClassLabel.STABLE),
                                 (100.0, ClassLabel.LIGHT_WORSENING),
                                 (100.0, ClassLabel.WORSENING)])
        assert main(["eval", model, testset]) == 0
        table = capsys.readouterr().out
        assert "RAE (%)" in table
        assert "50.0000" in table
        assert "0.3333" in table  # MAE of (0, 0, 1)

    def test_eval_rae_not_available_for_constant_targets(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path, "train.csv", TRAIN_PAIRS)
        model = str(tmp_path / "tree.json")
        assert main(["train", dataset, "--algorithm", "tree", "--out", model]) == 0
        capsys.readouterr()
        testset = write_dataset(tmp_path, "test.csv",
                                [(60.0, ClassLabel.STABLE), (62.0, ClassLabel.STABLE)])
        assert main(["eval", model, testset]) == 0
        assert "n/a" in capsys.readouterr().out

    def test_forest_and_bayes_summaries(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path, "train.csv", TRAIN_PAIRS)
        forest = str(tmp_path / "forest.json")
        assert main(["train", dataset, "--algorithm", "forest", "--out", forest,
                     "--n-trees", "5", "--attrs-per-split", "3", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "trained random forest: trees=5 attrs_per_split=3 seed=9" in out
        bayes = str(tmp_path / "bayes.json")
        assert main(["train", dataset, "--algorithm", "bayes", "--out", bayes]) == 0
        out = capsys.readouterr().out
        assert "trained naive bayes" in out
        assert "STABLE=0.3333" in out

    def test_train_bad_header_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        model = str(tmp_path / "m.json")
        assert main(["train", str(path), "--algorithm", "tree", "--out", model]) == 1
        assert "header mismatch" in capsys.readouterr().err

    def test_model_that_would_not_load_is_not_written(self, tmp_path, capsys):
        # the two rates sum past the largest float, so the class mean is inf
        dataset = write_dataset(tmp_path, "train.csv", [(1.7e308, ClassLabel.STABLE)] * 2)
        model = tmp_path / "bayes.json"
        model.write_text("earlier model")
        assert main(["train", dataset, "--algorithm", "bayes", "--out", str(model)]) == 1
        assert "model holds a number that is not finite" in capsys.readouterr().err
        assert model.read_text() == "earlier model"

    def test_bayes_variance_past_the_largest_float_is_not_written(self, tmp_path, capsys):
        # each squared deviation from the mean 0 is too large for a float
        dataset = write_dataset(tmp_path, "train.csv", [(1e308, ClassLabel.STABLE),
                                                        (-1e308, ClassLabel.STABLE)])
        model = tmp_path / "bayes.json"
        assert main(["train", dataset, "--algorithm", "bayes", "--out", str(model)]) == 1
        assert "model holds a number that is not finite" in capsys.readouterr().err
        assert not model.exists()

    def test_bayes_prediction_with_no_finite_score_is_valid_json(self, tmp_path, capsys):
        # 70 kg against a mean of 1e150 and the 1e-9 variance floor scores -inf
        pairs = [(1e150, ClassLabel.STABLE)] * 2
        dataset = write_dataset(tmp_path, "train.csv", pairs, "body_weight_kg")
        assert main(["train", dataset, "--algorithm", "bayes",
                     "--out", str(tmp_path / "bayes.json")]) == 0
        manifest = shared_store_manifest(tmp_path, "p-a", HEALTHY_CSV)
        doc = json.loads(Path(manifest).read_text())
        doc["model"] = "bayes.json"
        Path(manifest).write_text(json.dumps(doc))
        assert main(["run", manifest, "--now", NOW]) == 0
        text = (tmp_path / "out" / "p-a" / "report.jsonl").read_text()

        def refuse(name):
            raise ValueError("%s in report.jsonl" % name)

        report = json.loads(text, parse_constant=refuse)
        assert report["prediction"] == "STABLE"
        assert report["prediction_distribution"] == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("algorithm, flag, value, reason", [
        ("tree", "--min-leaf", "0", "min_leaf must be >= 1"),
        ("tree", "--max-depth", "-1", "max_depth must be >= 0"),
        ("forest", "--n-trees", "0", "n_trees must be >= 1"),
        ("forest", "--attrs-per-split", "0", "attrs_per_split must be in [1, 41]"),
        ("forest", "--attrs-per-split", "99", "attrs_per_split must be in [1, 41]"),
        ("forest", "--seed", "-1", "expected non-negative integer"),
    ])
    def test_train_bad_numeric_flag_is_usage_error(self, tmp_path, capsys, algorithm, flag,
                                                   value, reason):
        dataset = write_dataset(tmp_path, "train.csv", TRAIN_PAIRS)
        model = tmp_path / "m.json"
        assert main(["train", dataset, "--algorithm", algorithm, "--out", str(model),
                     flag, value]) == 64
        assert capsys.readouterr().err == "usage error: %s\n" % reason
        assert not model.exists()

    def test_train_missing_algorithm_is_usage_error(self, tmp_path):
        dataset = write_dataset(tmp_path, "train.csv", TRAIN_PAIRS)
        with pytest.raises(SystemExit) as exc:
            main(["train", dataset, "--out", str(tmp_path / "m.json")])
        assert exc.value.code == 64


class TestRulesCheck:
    def test_valid_rules(self, tmp_path, capsys):
        path = write_rules(tmp_path)
        assert main(["rules-check", path]) == 0
        assert capsys.readouterr().out == "ok: 3 rules, schema 1\n"

    @pytest.mark.parametrize("rule", [
        '<rule id="a" severity="ALARM"><threshold kind="NOPE" op="gt" value="1"/></rule>',
        '<rule id="a" severity="ALARM"><not extra="1">'
        '<threshold kind="SPO2" op="lt" value="90"/></not></rule>',
        '<rule id="a" severity="ALARM"><threshold kind="SPO2" op="lt" value="90">'
        '<threshold kind="SPO2" op="gt" value="99"/></threshold></rule>',
        '<rule id="" severity="ALARM"><threshold kind="SPO2" op="lt" value="90"/></rule>',
        '<rule id="stress-index" severity="LIGHT_ALERT">'
        '<threshold kind="SPO2" op="lt" value="90"/></rule>',
    ], ids=["unknown-kind", "logic-attribute", "predicate-child", "empty-id", "reserved-id"])
    def test_invalid_rules_exit_1(self, tmp_path, capsys, rule):
        path = tmp_path / "bad.xml"
        path.write_text("<rules>%s</rules>" % rule)
        assert main(["rules-check", str(path)]) == 1
        assert "invalid" in capsys.readouterr().err

    def test_unreadable_rules_usage_error(self, tmp_path, capsys):
        assert main(["rules-check", str(tmp_path / "missing.xml")]) == 64
        assert "not readable" in capsys.readouterr().err


class TestParser:
    def test_unknown_subcommand_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 64

    def test_no_arguments_exits_64(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64
