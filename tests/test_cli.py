import json
import os
import subprocess
import sys

import pytest

import edgevitals
from conftest import synth_ecg, write_signal_csv
from edgevitals.classify import (
    ClassLabel,
    FeatureVector,
    LabeledDataset,
    dataset_to_csv,
    patient_schema,
)
from edgevitals import cli
from edgevitals.classify.serialize import model_to_json, schema_hash
from edgevitals.cli import main
from edgevitals.messaging import parse_message_xml
from edgevitals.rules import MeasurementKind, MeasurementRecord
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

    def test_usage_error_in_a_later_manifest_runs_no_patient(self, tmp_path, capsys):
        first = shared_store_manifest(tmp_path, "p-a", HEALTHY_CSV)
        second = tmp_path / "manifest-p-b.json"
        second.write_text(json.dumps({"patient_id": "p-b", "out_dir": "out",
                                      "store_dir": "store"}))
        assert main(["run", first, str(second), "--now", NOW, "--jobs", "1"]) == 64
        captured = capsys.readouterr()
        assert "needs patient_id, out_dir and rules" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "store" / "p-a.cursor").exists()
        assert not (tmp_path / "out" / "p-a").exists()

    @pytest.mark.parametrize("key, text, reason", [
        ("config", '{"rules_path": "x"}', "unknown config key 'rules_path'"),
        ("config", "{not json", "is not valid JSON"),
        ("rules", '<rules><rule id="a" severity="ALARM"/></rules>', "exactly one condition"),
        ("rules", "<rules>", "no element found"),
        ("model", "{}", "not a model document"),
        ("model", WEIGHTED_INDEX_MODEL, "unknown model type 'weighted_index'"),
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
        ("config", '{"stress_index": {"weights": {"questionnaire_01": 1.0}, "threshold": 0.5, '
                   '"treshold": 0.9}}', "unknown config key 'stress_index.treshold'"),
    ])
    def test_input_that_does_not_parse_in_a_later_manifest_runs_no_patient(
            self, tmp_path, capsys, key, text, reason):
        first = shared_store_manifest(tmp_path, "p-a", HEALTHY_CSV)
        second = shared_store_manifest(tmp_path, "p-b", HEALTHY_CSV)
        bad = tmp_path / ("bad-" + key)
        bad.write_text(text)
        doc = json.loads(open(second).read())
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
            doc = json.loads(open(path).read())
            doc.update(config=config.name, model="tree.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            manifests.append(path)
        calls = []
        real = cli._parse_file

        def counting(key, path):
            calls.append(key)
            return real(key, path)

        shared = []
        real_inputs = cli._parse_inputs

        def keeping(manifests):
            shared.append(real_inputs(manifests))
            return shared[-1]

        monkeypatch.setattr(cli, "_parse_file", counting)
        monkeypatch.setattr(cli, "_parse_inputs", keeping)
        capsys.readouterr()
        assert main(["run", *manifests, "--now", NOW, "--jobs", jobs]) == 0
        assert sorted(calls) == ["config", "model", "rules"]
        assert len(capsys.readouterr().out.splitlines()) == 3
        # what the patients shared is what a fresh parse of the files gives
        for (key, path), parsed in shared[0].items():
            fresh = real(key, path)
            if key == "model":
                assert model_to_json(parsed) == model_to_json(fresh)
            elif key == "config":
                assert parsed.raw == fresh.raw
            else:
                assert parsed == fresh

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_usage_error(self, tmp_path, capsys, jobs):
        manifest = shared_store_manifest(tmp_path, "p-a", HEALTHY_CSV)
        assert main(["run", manifest, "--now", NOW, "--jobs", jobs]) == 64
        assert "--jobs must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_importing_the_cli_does_not_load_scipy(self):
        assert fresh_python("import sys, edgevitals.cli; sys.exit('scipy' in sys.modules)") == 0

    def test_device_path_modules_load_without_numpy(self):
        # the package imports no submodule, so the store, rules and
        # messaging load only what they import themselves
        assert fresh_python(
            "import sys, edgevitals.errors, edgevitals.rules, edgevitals.messaging, "
            "edgevitals.store; sys.exit('numpy' in sys.modules or 'scipy' in sys.modules)") == 0


def fresh_python(code):
    """Exit status of code run in a new interpreter that imports this tree."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(edgevitals.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env).returncode


def hr_row(schema, v):
    idx = [a.name for a in schema].index("mean_heart_rate_bpm")
    vals = [None] * len(schema)
    vals[idx] = v
    return FeatureVector(schema, tuple(vals))


def write_dataset(tmp_path, name, pairs):
    schema = patient_schema()
    feats = tuple(hr_row(schema, v) for v, _ in pairs)
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

    def test_train_missing_algorithm_is_usage_error(self, tmp_path):
        dataset = write_dataset(tmp_path, "train.csv", TRAIN_PAIRS)
        with pytest.raises(SystemExit) as exc:
            main(["train", dataset, "--out", str(tmp_path / "m.json")])
        assert exc.value.code == 64


class TestRulesCheck:
    def test_valid_rules(self, tmp_path, capsys):
        path = write_rules(tmp_path)
        assert main(["rules-check", path]) == 0
        assert "ok: 3 rules" in capsys.readouterr().out

    def test_invalid_rules_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.xml"
        path.write_text('<rules><rule id="a" severity="ALARM">'
                        '<threshold kind="NOPE" op="gt" value="1"/></rule></rules>')
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
