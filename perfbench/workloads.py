"""Seeded input generators for the benchmark workloads.

Each generator writes the files one workload hands to `edgevitals run`
(manifests, signal and measurement CSVs, a pre-filled store, the shared
rules/config/model) and returns a plan: the invocations to make, in
order, and what each one was built to produce. The program sees only the
files; the plan stays with the benchmark so the checks can compare.

The same (workload, seed) gives the same bytes. Sizes are parameters so
the self-tests can build small versions quickly; the defaults are the
benchmark's sizes.
"""

import datetime
import json
import os

import numpy as np

WORKLOADS = ("holter", "fleet", "backlog")

DAY_MS = 86400000
MINUTE_MS = 60000
# every tick happens 30 min after the 20:00 UTC daily send slot
DAY0_MS = int(datetime.datetime(2024, 8, 12, 20, 30, tzinfo=datetime.timezone.utc)
              .timestamp() * 1000)

RULES_XML = """<rules schema="1">
  <rule id="hr-high" scope="BOTH" severity="ALARM" message="heart rate above 120 bpm">
    <threshold kind="HEART_RATE" op="gt" value="120"/>
  </rule>
  <rule id="weight-gain" scope="CKD" severity="ALARM" message="weight up 2% in 24 h">
    <percent_change kind="BODY_WEIGHT" op="gt" percent="2" window_hours="24"/>
  </rule>
  <rule id="low-spo2-sustained" scope="BOTH" severity="LIGHT_ALERT">
    <sustained kind="SPO2" op="lt" value="92" duration_minutes="360"/>
  </rule>
  <rule id="tachycardia-afebrile" scope="BOTH" severity="LIGHT_ALERT">
    <and>
      <threshold kind="HEART_RATE" op="gt" value="110"/>
      <not><threshold kind="BODY_TEMPERATURE" op="gt" value="38"/></not>
    </and>
  </rule>
  <rule id="bp-crisis" scope="BOTH" severity="ALARM">
    <or>
      <threshold kind="BLOOD_PRESSURE_SYS" op="gt" value="180"/>
      <threshold kind="BLOOD_PRESSURE_DIA" op="gt" value="120"/>
    </or>
  </rule>
  <rule id="copd-breathing" scope="COPD" severity="LIGHT_ALERT">
    <threshold kind="RESPIRATION_RATE" op="gt" value="30"/>
  </rule>
  <rule id="glucose-high" scope="BOTH" severity="LIGHT_ALERT">
    <threshold kind="GLUCOSE" op="gt" value="250"/>
  </rule>
</rules>
"""

CONFIG = {"config_version": 1, "disease": "CKD", "schedule": {"send_time": "20:00"}}

QUESTIONNAIRE = ["questionnaire_%02d" % i for i in range(1, 14)]
LIFESTYLE = ["food_cereals", "food_vegetables", "food_fruit", "food_dairy",
             "food_meat", "food_fish", "food_legumes", "food_sweets", "food_salt",
             "food_fluids", "food_alcohol", "food_caffeine",
             "activity_minutes", "activity_intensity"]
# named items take quarter steps so their categorical codes ("%g") match
# the codes the model was trained on
_STEPS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])


def iso(ms):
    return datetime.datetime.fromtimestamp(ms / 1000.0, tz=datetime.timezone.utc) \
        .strftime("%Y-%m-%dT%H:%M:%SZ")


def qrs_shape(t):
    """The test suite's QRS template: a narrow spike on a wider base."""
    return np.exp(-0.5 * (t / 0.010) ** 2) + 0.60 * np.exp(-0.5 * (t / 0.030) ** 2)


def ecg_from_beats(beat_s, n, fs, snr_db, rng, half_window_s=0.15):
    """Template train with white noise at snr_db. Each template is added
    only in a window around its beat, so cost grows with beats, not with
    beats x samples."""
    x = np.zeros(n)
    half = int(round(half_window_s * fs))
    offsets = np.arange(-half, half + 1)
    centre = np.round(beat_s * fs).astype(np.int64)
    idx = centre[:, None] + offsets[None, :]
    t = idx / fs - beat_s[:, None]
    ok = (idx >= 0) & (idx < n)
    np.add.at(x, idx[ok], qrs_shape(t[ok]))
    noise_power = np.mean(x ** 2) / (10.0 ** (snr_db / 10.0))
    return x + rng.normal(0.0, np.sqrt(noise_power), size=n)


def _csv_text(header, row_fmt, columns, chunk=200_000):
    """Vectorised-per-chunk CSV formatting: one %-format per chunk of rows."""
    n = len(columns[0])
    parts = [header + "\n"]
    for i in range(0, n, chunk):
        cols = [c[i:i + chunk].tolist() for c in columns]
        flat = [v for row in zip(*cols) for v in row]
        parts.append((row_fmt * len(cols[0])) % tuple(flat))
    return "".join(parts)


def write_signal_csv(path, samples, fs, start_ms):
    """`timestamp_ms,value` with integer timestamps; fs must divide 1000."""
    step = 1000 // int(fs)
    if step * fs != 1000:
        raise ValueError("sample period must be a whole number of ms")
    ts = start_ms + step * np.arange(len(samples), dtype=np.int64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_csv_text("timestamp_ms,value", "%d,%.6f\n", [ts, np.asarray(samples)]))


def write_measurements_csv(path, rows):
    """rows: (kind, value, timestamp_ms, mode, name)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("kind,value,timestamp_ms,mode,name\n")
        for kind, value, ts, mode, name in rows:
            fh.write("%s,%r,%d,%s,%s\n" % (kind, float(value), ts, mode, name))


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_shared(inputs, seed):
    """Rules, config and a small seeded forest model, shared by every
    manifest of a workload."""
    from edgevitals.classify.forest import train_random_forest
    from edgevitals.classify.schema import (
        CATEGORICAL, ClassLabel, FeatureVector, LabeledDataset, patient_schema)
    from edgevitals.classify.serialize import model_to_json

    with open(os.path.join(inputs, "rules.xml"), "w", encoding="utf-8") as fh:
        fh.write(RULES_XML)
    _write_json(os.path.join(inputs, "config.json"), CONFIG)
    rng = np.random.default_rng([seed, 99])
    schema = patient_schema()
    feats, labels = [], []
    for _ in range(90):
        severity = int(rng.integers(0, 3))
        values = []
        for attr in schema:
            if rng.random() < 0.2:
                values.append(None)
            elif attr.kind == CATEGORICAL:
                values.append("%g" % rng.choice(_STEPS))
            else:
                values.append(float(rng.normal(60.0 + 8.0 * severity, 10.0)))
        feats.append(FeatureVector(schema, tuple(values)))
        labels.append(list(ClassLabel)[severity])
    model = train_random_forest(LabeledDataset(schema, tuple(feats), tuple(labels)),
                                n_trees=7, attrs_per_split=6, seed=seed, max_depth=6)
    with open(os.path.join(inputs, "model.json"), "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def _manifest(inputs, name, patient_id, out_dir, **files):
    doc = {"patient_id": patient_id, "out_dir": out_dir, "store_dir": "../run/store",
           "rules": "rules.xml", "config": "config.json", "model": "model.json"}
    doc.update(files)
    _write_json(os.path.join(inputs, name), doc)
    return name


def _expect(alarm, decision):
    return {"alarm": alarm, "decision": decision}


def build_holter(inputs, seed, hours=4.0, episode_s=180.0, fs=250, resp_fs=25):
    """One patient: `hours` of 20 dB ECG whose rate drifts slowly and
    breathes (LF/HF modulation), ending in a 130 bpm episode that fires
    hr-high; matching respiration; a short measurements CSV."""
    rng = np.random.default_rng([seed, 1])
    duration = hours * 3600.0
    now = DAY0_MS
    start = now - int(duration * 1000) - MINUTE_MS
    ph = rng.uniform(0.0, 2.0 * np.pi, size=3)
    beats = []
    c = 0.4
    while c < duration - 0.3:
        beats.append(c)
        if c >= duration - episode_s:
            rr = 60.0 / 130.0 + rng.normal(0.0, 0.004)
        else:
            bpm = 68.0 + 6.0 * np.sin(2 * np.pi * c / 1800.0 + ph[0])
            rr = (60.0 / bpm + 0.030 * np.sin(2 * np.pi * 0.1 * c + ph[1])
                  + 0.015 * np.sin(2 * np.pi * 0.25 * c + ph[2]) + rng.normal(0.0, 0.008))
        c += rr
    beat_s = np.array(beats)
    n = int(round(duration * fs))
    ecg = ecg_from_beats(beat_s, n, fs, 20.0, rng)
    write_signal_csv(os.path.join(inputs, "ecg.csv"), ecg, fs, start)

    t = np.arange(int(round(duration * resp_fs))) / resp_fs
    resp = (0.6 * np.sin(2 * np.pi * 0.25 * t + ph[1])
            + 0.05 * rng.normal(size=len(t)))
    write_signal_csv(os.path.join(inputs, "resp.csv"), resp, resp_fs, start)

    rows = []
    for i in range(6):
        ts = start + i * int(duration * 1000 / 6)
        rows.append(("BODY_WEIGHT", round(81.0 + rng.normal(0, 0.1), 2), ts, "NOSILENT", ""))
        rows.append(("BODY_TEMPERATURE", round(36.7 + rng.normal(0, 0.1), 2), ts + 1000,
                     "NOSILENT", ""))
        rows.append(("SPO2", round(97.0 + rng.normal(0, 0.5), 1), ts + 2000, "SILENT", ""))
    write_measurements_csv(os.path.join(inputs, "measurements.csv"), rows)

    m = _manifest(inputs, "holter.json", "holter-0", "../run/out",
                  ecg="ecg.csv", respiration="resp.csv", measurements="measurements.csv")
    # what the pipeline's trailing-60 s mean heart rate should read
    rr_ms = np.diff(np.round(beat_s * fs)) * (1000.0 / fs)
    ends = start + np.round(beat_s[1:] * fs) * (1000.0 / fs)
    last = ends > ends[-1] - 60000.0
    truth = {"beats": len(beat_s), "mean_hr_bpm": 60000.0 / float(np.mean(rr_ms[last]))}
    return {
        "invocations": [{"manifests": [m], "now_ms": now, "jobs": 1, "exit": 2,
                         "expect": {"holter-0": _expect(True, "IMMEDIATE")}}],
        "patients": ["holter-0"], "out_dirs": ["run/out"], "holter": truth,
    }


def _fleet_day(rng, pid, day, gain):
    """About 200 records over one day, all before the 20:00 slot."""
    midnight = DAY0_MS - (20 * 60 + 30) * MINUTE_MS + day * DAY_MS
    rows = []

    def add(kind, values, hours, mode="NOSILENT", name=""):
        for v, h in zip(values, hours):
            rows.append((kind, round(float(v), 3), midnight + int(h * 3600000), mode, name))

    base = 70.0 + (int(pid[-3:]) % 30)
    weights = base * (1.0 + rng.normal(0.0, 0.0008, size=4))
    if gain:
        weights[-1] = base * 1.045
    add("BODY_WEIGHT", weights, [7.0, 11.0, 15.0, 19.0])
    hourly = np.arange(24) * (19.5 / 24)
    half_hourly = np.arange(48) * (19.5 / 48)
    add("BODY_TEMPERATURE", rng.uniform(36.3, 37.2, 24), hourly + 0.01)
    add("BLOOD_PRESSURE_SYS", rng.uniform(110, 140, 24), hourly + 0.02, "SILENT")
    add("BLOOD_PRESSURE_DIA", rng.uniform(65, 90, 24), hourly + 0.03, "SILENT")
    add("SPO2", rng.uniform(94, 99, 48), half_hourly + 0.04, "SILENT")
    add("HEART_RATE", rng.uniform(60, 90, 48), half_hourly + 0.05, "SILENT")
    add("GLUCOSE", rng.uniform(90, 160, 4), [7.5, 12.5, 17.5, 19.25])
    for i, name in enumerate(QUESTIONNAIRE + LIFESTYLE):
        add("QUESTIONNAIRE_ITEM", [rng.choice(_STEPS)], [18.0 + i / 60.0], name=name)
    return rows


def build_fleet(inputs, seed, patients=50):
    """`patients` measurement-only patients share one store over two daily
    ticks; one in five gains 4.5% weight on day 1 (weight-gain)."""
    rng = np.random.default_rng([seed, 2])
    pids = ["fleet-%03d" % i for i in range(patients)]
    # fixed positions, so the seed moves values but not where in the batch
    # the ALARMs fall (alarm_s depends on that position)
    gainers = set(pids[2::5])
    invocations = []
    for day in (0, 1):
        names, expect = [], {}
        for pid in pids:
            gain = day == 1 and pid in gainers
            csv_name = "%s-day%d.csv" % (pid, day)
            write_measurements_csv(os.path.join(inputs, csv_name),
                                   _fleet_day(rng, pid, day, gain))
            names.append(_manifest(inputs, "%s-day%d.json" % (pid, day), pid,
                                   "../run/out/day%d" % day, measurements=csv_name))
            expect[pid] = _expect(True, "IMMEDIATE") if gain else _expect(False, "SCHEDULED")
        invocations.append({"manifests": names, "now_ms": DAY0_MS + day * DAY_MS,
                            "jobs": 2, "exit": 2 if day == 1 else 0, "expect": expect})
    return {"invocations": invocations, "patients": pids,
            "out_dirs": ["run/out/day0", "run/out/day1"]}


def build_backlog(inputs, seed, records=50_000):
    """Two patients with `records` untransmitted one-per-minute readings
    already in the store, then one tick at the send slot whose new row
    fires hr-high for backlog-1."""
    from edgevitals.store import MeasurementStore

    rng = np.random.default_rng([seed, 3])
    now = DAY0_MS
    first = now - (records + 1) * MINUTE_MS
    kinds = ["HEART_RATE", "SPO2", "BODY_TEMPERATURE", "BLOOD_PRESSURE_SYS",
             "BLOOD_PRESSURE_DIA", "BODY_WEIGHT"]
    ranges = {"HEART_RATE": (60, 90), "SPO2": (94, 99), "BODY_TEMPERATURE": (36.3, 37.2),
              "BLOOD_PRESSURE_SYS": (110, 140), "BLOOD_PRESSURE_DIA": (65, 90),
              "BODY_WEIGHT": (79.8, 80.2)}
    store = MeasurementStore(os.path.join(inputs, "store"))
    names, expect = [], {}
    for p in range(2):
        pid = "backlog-%d" % p
        kind_idx = np.arange(records) % len(kinds)
        lo = np.array([ranges[k][0] for k in kinds])[kind_idx]
        hi = np.array([ranges[k][1] for k in kinds])[kind_idx]
        values = np.round(rng.uniform(lo, hi), 2).tolist()
        store.ingest({"patient_id": pid, "kind": kinds[k], "value": v,
                      "timestamp_ms": first + i * MINUTE_MS,
                      "mode": "SILENT" if k < 2 else "NOSILENT"}
                     for i, (k, v) in enumerate(zip(kind_idx.tolist(), values)))
        alarm = p == 1
        csv_name = "%s-tick.csv" % pid
        write_measurements_csv(os.path.join(inputs, csv_name), [
            ("HEART_RATE", 135.0 if alarm else 72.0, now - 30000, "SILENT", "")])
        names.append(_manifest(inputs, "%s.json" % pid, pid, "../run/out",
                               measurements=csv_name))
        expect[pid] = _expect(True, "IMMEDIATE") if alarm else _expect(False, "SCHEDULED")
    return {
        "invocations": [{"manifests": names, "now_ms": now, "jobs": 1, "exit": 2,
                         "expect": expect}],
        "patients": ["backlog-0", "backlog-1"], "out_dirs": ["run/out"],
        "store_seed": "inputs/store",
    }


BUILDERS = {"holter": build_holter, "fleet": build_fleet, "backlog": build_backlog}


def build(workload, seed, inputs, **sizes):
    """Writes the workload's files under `inputs` and returns its plan."""
    os.makedirs(inputs, exist_ok=True)
    _write_shared(inputs, seed)
    plan = BUILDERS[workload](inputs, seed, **sizes)
    plan["workload"] = workload
    plan["seed"] = seed
    return plan
