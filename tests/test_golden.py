"""End-to-end golden bytes for one fixed manifest.

A synthetic ECG (with baseline wander and 6 dB noise), a respiration
sine and a measurements CSV go through `edgevitals run` under each
baseline method and each detector. The sha256 of every artifact is
pinned, so any change to the signal path that moves a byte shows here.
"""

import hashlib
import json
import os

import numpy as np
import pytest

from conftest import synth_ecg, write_signal_csv
from edgevitals.cli import main

RULES = """<rules>
  <rule id="hr-high" severity="ALARM"><threshold kind="HEART_RATE" op="gt" value="120"/></rule>
  <rule id="fever" severity="ALARM"><threshold kind="BODY_TEMPERATURE" op="gt" value="38"/></rule>
  <rule id="weight-gain" severity="LIGHT_ALERT">
    <percent_change kind="BODY_WEIGHT" op="gt" percent="2" window_hours="24"/>
  </rule>
</rules>"""

MEASUREMENTS = (
    "kind,value,timestamp_ms,mode,name\n"
    "BODY_WEIGHT,70.0,1000,NOSILENT,\n"
    "BODY_WEIGHT,72.0,90000,NOSILENT,\n"
    "BODY_TEMPERATURE,37.1,60000,NOSILENT,\n"
    "QUESTIONNAIRE_ITEM,0.4,30000,NOSILENT,questionnaire_01\n"
)

NOW = "1970-01-01T00:02:00Z"  # ms 120000, the end of both recordings
ARTIFACTS = ("beats.csv", "features.csv", "report.jsonl", "message.xml")

GOLDEN = {
    ("linear", "pan_tompkins"): {
        "beats.csv": "7e59652cc7f7044309fe3d8a027423947045454cf004d9bec0f61b92907e6b19",
        "features.csv": "ca473235d8173e31db61a7e43fb777a27bb7ec05ed5d29e40130afe0bb878c2e",
        "report.jsonl": "ccdfe537f3ead947d1a3116ebc70be74715063963302c7e62e8bb277e5c23dee",
        "message.xml": "6ec62939865e41da31f5b81e2bdb26dd44674c687dca952286c94c6d39421817",
    },
    ("linear", "wavelet"): {
        "beats.csv": "7e59652cc7f7044309fe3d8a027423947045454cf004d9bec0f61b92907e6b19",
        "features.csv": "ca473235d8173e31db61a7e43fb777a27bb7ec05ed5d29e40130afe0bb878c2e",
        "report.jsonl": "ccdfe537f3ead947d1a3116ebc70be74715063963302c7e62e8bb277e5c23dee",
        "message.xml": "6ec62939865e41da31f5b81e2bdb26dd44674c687dca952286c94c6d39421817",
    },
    ("poly", "pan_tompkins"): {
        "beats.csv": "56fc4c9dbc8d5d127990580bd4f7e81d69cdb92ec1d0c9395eeb4c8806658c1c",
        "features.csv": "4d96280ff2bae729320c1495e019b5f16eb2e0d464a2c13f31e474d9d912e3ea",
        "report.jsonl": "38dedb61d44dc106d7d01dc79873852002f401f4365382f423f916e4d468bac5",
        "message.xml": "15b86a8ae83aa0444bea884dd3daf1ec907ee3af7d14035c0630d1eb9ce3ba14",
    },
    ("poly", "wavelet"): {
        "beats.csv": "56fc4c9dbc8d5d127990580bd4f7e81d69cdb92ec1d0c9395eeb4c8806658c1c",
        "features.csv": "b28ff125211c7237a1e6f1a1eb5f2570705c970d02f58465c420a0b6cc8366b4",
        "report.jsonl": "38dedb61d44dc106d7d01dc79873852002f401f4365382f423f916e4d468bac5",
        "message.xml": "412772433857921033d77e45feb7aa0977624fab489dde425e3c3542e37b4dcd",
    },
}


def write_manifest(tmp_path, baseline_method, detector):
    ecg, _ = synth_ecg(84, duration_s=120.0, snr_db=6.0, seed=5)
    t = np.arange(len(ecg)) / 250.0
    write_signal_csv(str(tmp_path / "ecg.csv"), ecg + 0.3 * np.sin(2 * np.pi * 0.2 * t), 250.0)
    t_resp = np.arange(int(120 * 25.0)) / 25.0
    write_signal_csv(str(tmp_path / "resp.csv"), 1.2 * np.sin(2 * np.pi * 0.3 * t_resp), 25.0)
    (tmp_path / "meas.csv").write_text(MEASUREMENTS)
    (tmp_path / "rules.xml").write_text(RULES)
    (tmp_path / "config.json").write_text(json.dumps({
        "preprocess": {"baseline_method": baseline_method},
        "qrs": {"detector": detector},
    }))
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "patient_id": "golden", "out_dir": "out", "ecg": "ecg.csv",
        "respiration": "resp.csv", "measurements": "meas.csv",
        "rules": "rules.xml", "config": "config.json",
    }))
    return str(path)


@pytest.mark.parametrize("baseline_method,detector", sorted(GOLDEN))
def test_artifact_bytes_pinned(tmp_path, capsys, baseline_method, detector):
    manifest = write_manifest(tmp_path, baseline_method, detector)
    main(["run", manifest, "--now", NOW])
    capsys.readouterr()
    pdir = tmp_path / "out" / "golden"
    got = {}
    for name in ARTIFACTS:
        with open(os.path.join(pdir, name), "rb") as fh:
            got[name] = hashlib.sha256(fh.read()).hexdigest()
    assert got == GOLDEN[(baseline_method, detector)]
