"""Release-gate battery.

Each test checks one numbered release criterion end to end against an
independent oracle and prints a single PASS/FAIL verdict line on the real
console (bypassing capture), then asserts. The tolerances encoded here are
contractual; loosening one to get a green run is never acceptable.
"""

import json
import math
import time

import numpy as np
import scipy.signal

from conftest import match_beats, resp_signal, synth_ecg, write_signal_csv
from edgevitals import cli
from edgevitals.classify.bayes import predict_bayes, train_naive_bayes
from edgevitals.classify.forest import predict_forest, train_random_forest
from edgevitals.classify.metrics import evaluate_classifier
from edgevitals.classify.schema import (
    CATEGORICAL,
    NUMERIC,
    Attribute,
    ClassLabel,
    FeatureVector,
    LabeledDataset,
)
from edgevitals.classify.serialize import model_to_json
from edgevitals.classify.tree import _entropy, _split_quality, predict_tree, train_decision_tree
from edgevitals.classify.weighted import WeightedIndexModel, weighted_index
from edgevitals.ecg_preprocess import (
    DB4_DEC_LO,
    denoise_samples,
    dwt_db4,
    idwt_db4,
    remove_baseline_linear,
    remove_baseline_poly,
    select_pq_knots,
)
from edgevitals.errors import RuleParseError
from edgevitals.hrv import band_powers, pnn50, rmssd, sdann, sdnn, sdnnidx
from edgevitals.messaging import parse_message_xml
from edgevitals.qrs_detect import BeatLabel, RRSeries, pan_tompkins, wavelet_qrs
from edgevitals.respiration import respiration_rate
from edgevitals.rules import (
    MeasurementKind,
    MeasurementRecord,
    evaluate,
    evaluation_report,
    parse_rules,
    report_to_json_line,
)
from edgevitals.signal_core import SampledSignal, SignalKind, dft_magnitude
from edgevitals.store import MeasurementStore

S, L, W = ClassLabel.STABLE, ClassLabel.LIGHT_WORSENING, ClassLabel.WORSENING

RATES_BPM = (40, 50, 60, 70, 80, 90, 100, 110, 120, 135, 150, 165, 180)


def _verdict(capsys, num, slug, ok, detail=""):
    line = "CRITERION %02d %-22s %s" % (num, slug, "PASS" if ok else "FAIL")
    if detail:
        line += "  [%s]" % detail
    with capsys.disabled():
        print(line)
    assert ok, line


def _ecg(samples, fs=250.0):
    return SampledSignal(np.asarray(samples, dtype=float), fs, 0, SignalKind.ECG)


def test_criterion_01_dft_oracle(capsys):
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 1025))
        x = rng.normal(size=n)
        got = dft_magnitude(x, 1.0).magnitudes
        k = np.arange(n // 2 + 1)
        # the n distinct twiddles, indexed by k*j mod n: one exp per sample,
        # not one per matrix entry, and no rounding from large k*j angles
        w = np.exp(-2j * np.pi * np.arange(n) / n)
        mat = w[np.outer(k, np.arange(n)) % n]
        want = np.abs(mat @ x)
        scale = np.max(want) if np.max(want) > 0 else 1.0
        worst = max(worst, float(np.max(np.abs(got - want)) / scale))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(capsys, 1, "dft-oracle", ok,
             "worst rel err %.3g, %.2f s" % (worst, elapsed))


def test_criterion_02_wavelet_round_trip(capsys):
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(64, 4097))
        levels = int(rng.integers(1, 5))
        x = rng.normal(size=n)
        y = idwt_db4(dwt_db4(x, levels))
        worst = max(worst, float(np.max(np.abs(y - x)) / np.max(np.abs(x))))
    tap_err = abs(float(np.sum(DB4_DEC_LO)) - math.sqrt(2.0))
    ok = worst <= 1e-8 and tap_err <= 1e-12
    _verdict(capsys, 2, "wavelet-round-trip", ok,
             "worst rel err %.3g, tap sum err %.3g" % (worst, tap_err))


def test_criterion_03_denoise_gain(capsys):
    out_snrs = []
    for seed in range(50):
        bpm = RATES_BPM[seed % len(RATES_BPM)]
        clean, _ = synth_ecg(bpm, duration_s=60.0)
        noisy, _ = synth_ecg(bpm, duration_s=60.0, snr_db=5.0, seed=seed)
        den = denoise_samples(noisy, 4, "soft")
        out_snrs.append(10.0 * np.log10(
            np.mean(clean ** 2) / np.mean((den - clean) ** 2)))
    median_snr = float(np.median(out_snrs))

    worst_loss = 0.0
    for bpm in (60, 90, 120):
        clean, truth = synth_ecg(bpm, duration_s=60.0)
        den = denoise_samples(clean, 4, "soft")
        for r in truth:
            lo, hi = max(0, r - 5), r + 6
            loss = 1.0 - np.max(den[lo:hi]) / np.max(clean[lo:hi])
            worst_loss = max(worst_loss, float(loss))

    ok = median_snr >= 8.0 and worst_loss <= 0.02
    _verdict(capsys, 3, "denoise-gain", ok,
             "median out SNR %.2f dB, worst peak loss %.3f%%"
             % (median_snr, 100 * worst_loss))


def test_criterion_04_baseline_removal(capsys):
    fs = 250.0
    # linear method: attenuation of a 0.1 Hz tone, checked against the
    # closed-form response of the underlying filter (applied twice by the
    # zero-phase pass)
    n = int(fs * 600)
    t = np.arange(n) / fs
    tone = np.sin(2 * np.pi * 0.1 * t)
    out = remove_baseline_linear(_ecg(tone, fs))
    core = slice(int(fs * 60), n - int(fs * 60))
    measured_db = 10 * np.log10(np.mean(tone[core] ** 2)
                                / np.mean(out.samples[core] ** 2))
    # remove_baseline_linear's defaults: order 2, cutoff 0.5 Hz
    sos = scipy.signal.butter(2, 0.5, "highpass", fs=fs, output="sos")
    _, h = scipy.signal.sosfreqz(sos, worN=[0.1], fs=fs)
    expected_db = -40.0 * np.log10(np.abs(h[0]))
    linear_ok = measured_db >= 20.0 and abs(measured_db - expected_db) <= 1.0

    # polynomial method: exact on affine drift
    affine = 0.3 + 0.001 * np.arange(5000)
    poly_res = float(np.max(np.abs(
        remove_baseline_poly(_ecg(affine, fs), [100, 2000, 4500]).samples)))

    # polynomial method: 0.2 Hz drift band power on a real template train
    x, truth = synth_ecg(70, fs=fs, duration_s=120.0)
    tt = np.arange(len(x)) / fs
    drift = 0.8 * np.sin(2 * np.pi * 0.2 * tt)
    drifted = _ecg(x + drift, fs)
    knots = select_pq_knots(drifted, pan_tompkins(drifted))
    cleaned = remove_baseline_poly(drifted, knots)

    def band_power(samples):
        mags = np.abs(np.fft.rfft(samples)) ** 2
        freqs = np.fft.rfftfreq(len(samples), 1.0 / fs)
        return np.sum(mags[(freqs >= 0.15) & (freqs <= 0.25)])

    removed = 1.0 - band_power(cleaned.samples - x) / band_power(drift)
    ok = linear_ok and poly_res < 1e-9 and removed >= 0.90
    _verdict(capsys, 4, "baseline-removal", ok,
             "linear %.2f dB (analytic %.2f), affine res %.2g, "
             "0.2 Hz power removed %.1f%%"
             % (measured_db, expected_db, poly_res, 100 * removed))


def test_criterion_05_qrs_detection(capsys):
    fs = 250.0
    worst = 1.0
    for bpm in RATES_BPM:
        clean, truth = synth_ecg(bpm, fs=fs, duration_s=60.0)
        cases = [("pt", clean), ("wv", clean)]
        for trial in range(3):
            noisy, _ = synth_ecg(bpm, fs=fs, duration_s=60.0, snr_db=5.0, seed=trial)
            cases.append(("pt", denoise_samples(noisy, 4, "hard")))
            cases.append(("wv", noisy))
        for det, samples in cases:
            if det == "pt":
                peaks = pan_tompkins(_ecg(samples, fs))
            else:
                anns = wavelet_qrs(_ecg(samples, fs))
                peaks = [a.r_peak for a in anns if a.label is BeatLabel.QRS]
            tp, fn, fp = match_beats(truth, peaks, fs, tol_s=0.05)
            se = tp / (tp + fn) if tp + fn else 0.0
            ppv = tp / (tp + fp) if tp + fp else 0.0
            worst = min(worst, se, ppv)

    long_sig, _ = synth_ecg(70, fs=fs, duration_s=300.0)
    sig5 = _ecg(long_sig, fs)
    pan_tompkins(_ecg(synth_ecg(70, duration_s=10.0)[0], fs))  # warm the kernels
    wavelet_qrs(_ecg(synth_ecg(70, duration_s=10.0)[0], fs))
    t0 = time.perf_counter()
    pan_tompkins(sig5)
    t_pt = time.perf_counter() - t0
    t0 = time.perf_counter()
    wavelet_qrs(sig5)
    t_wv = time.perf_counter() - t0

    ok = worst >= 0.99 and t_pt < 1.0 and t_wv < 1.0
    _verdict(capsys, 5, "qrs-detection", ok,
             "worst Se/PPV %.4f, 5 min in %.3f s / %.3f s" % (worst, t_pt, t_wv))


def _oracle_bins(onsets, intervals, width_ms=300000.0):
    idx = np.floor((onsets - onsets[0]) / width_ms).astype(int)
    return [intervals[idx == b] for b in np.unique(idx)
            if np.sum(idx == b) >= 2]


def test_criterion_06_hrv_oracles(capsys):
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(420, 700))
        iv = rng.uniform(600.0, 1100.0, n)
        rr = RRSeries.from_intervals(iv)
        d = np.diff(iv)
        o_sdnn = math.sqrt(np.mean((iv - np.mean(iv)) ** 2))
        o_rmssd = math.sqrt(np.mean(d ** 2))
        o_pnn50 = 100.0 * np.sum(np.abs(d) > 50.0) / len(d)
        bins = _oracle_bins(rr.onsets_ms, rr.intervals_ms)
        means = np.array([np.mean(b) for b in bins])
        o_sdann = math.sqrt(np.mean((means - np.mean(means)) ** 2))
        o_sdnnidx = float(np.mean(
            [math.sqrt(np.mean((b - np.mean(b)) ** 2)) for b in bins]))
        worst = max(worst,
                    abs(sdnn(rr) - o_sdnn), abs(rmssd(rr) - o_rmssd),
                    abs(pnn50(rr) - o_pnn50), abs(sdann(rr) - o_sdann),
                    abs(sdnnidx(rr) - o_sdnnidx))
    fixed_ok = (sdnn(RRSeries.from_intervals([800.0, 900.0])) == 50.0
                and rmssd(RRSeries.from_intervals([1000.0, 1060.0])) == 60.0)

    def modulated(freq_hz, beats=220):
        iv, t = [], 0.0
        for _ in range(beats):
            v = 800.0 + 50.0 * math.sin(2 * math.pi * freq_hz * t / 1000.0)
            iv.append(v)
            t += v
        return RRSeries.from_intervals(iv)

    lf = band_powers(modulated(0.10))
    hf = band_powers(modulated(0.25))
    bands_ok = (lf["lf_power"] > 10.0 * lf["hf_power"]
                and hf["hf_power"] > 10.0 * hf["lf_power"])
    ok = worst <= 1e-9 and fixed_ok and bands_ok
    _verdict(capsys, 6, "hrv-oracles", ok,
             "worst oracle err %.3g, fixed %s, bands %s"
             % (worst, fixed_ok, bands_ok))


def test_criterion_07_respiration_rate(capsys):
    fs = 25.0
    t = np.arange(int(120 * fs)) / fs
    worst = 0.0
    for k in range(1, 20):
        f = k / 10.0
        sig = resp_signal(np.sin(2 * np.pi * f * t), fs)
        rates = respiration_rate(sig, window_s=60.0)
        err = abs(float(np.mean(rates)) - 60.0 * f)
        worst = max(worst, err)
    ok = worst <= 1.0
    _verdict(capsys, 7, "respiration-rate", ok, "worst err %.3f bpm" % worst)


GOLDEN_RULES = """<rules>
  <rule id="hr-high" severity="ALARM"><threshold kind="HEART_RATE" op="gt" value="120"/></rule>
  <rule id="weight-gain" severity="ALARM">
    <percent_change kind="BODY_WEIGHT" op="gt" percent="2" window_hours="24"/>
  </rule>
  <rule id="fever" severity="ALARM"><threshold kind="BODY_TEMPERATURE" op="gt" value="38"/></rule>
</rules>"""


def test_criterion_08_rule_golden_suite(capsys):
    rules = parse_rules(GOLDEN_RULES)
    hour = 3600000

    def rec(kind, value, ts):
        return MeasurementRecord("p1", kind, value, ts)

    def fired(history, now):
        return [a.rule_id for a in evaluate(rules, history, "p1", now)]

    checks = []
    checks.append(fired([rec(MeasurementKind.HEART_RATE, 125.0, 1000)], 2000)
                  == ["hr-high"])
    checks.append(fired([rec(MeasurementKind.HEART_RATE, 118.0, 1000)], 2000) == [])
    weight_up = [rec(MeasurementKind.BODY_WEIGHT, 70.0, 0),
                 rec(MeasurementKind.BODY_WEIGHT, 71.5, 20 * hour)]
    weight_flat = [rec(MeasurementKind.BODY_WEIGHT, 70.0, 0),
                   rec(MeasurementKind.BODY_WEIGHT, 70.9, 20 * hour)]
    checks.append(fired(weight_up, 20 * hour) == ["weight-gain"])
    checks.append(fired(weight_flat, 20 * hour) == [])
    checks.append(fired([rec(MeasurementKind.BODY_TEMPERATURE, 38.4, 1000)], 2000)
                  == ["fever"])
    checks.append(fired([rec(MeasurementKind.BODY_TEMPERATURE, 37.9, 1000)], 2000) == [])

    history = weight_up + [rec(MeasurementKind.HEART_RATE, 125.0, 1000)]
    line_a = report_to_json_line(evaluation_report(rules, history, "p1", 20 * hour))
    line_b = report_to_json_line(evaluation_report(rules, history, "p1", 20 * hour))
    checks.append(line_a == line_b)

    try:
        parse_rules("<rules>\n  <rule id='x' severity='ALARM'>\n</rules>")
        checks.append(False)
    except RuleParseError as exc:
        checks.append(exc.line == 3 and "line 3" in str(exc))

    ok = all(checks)
    _verdict(capsys, 8, "rule-golden-suite", ok,
             "%d/%d checks" % (sum(checks), len(checks)))


def test_criterion_09_classifiers(capsys):
    checks = []

    # exact training fit on consistent data, unbounded depth
    for seed in range(5):
        rng = np.random.default_rng(900 + seed)
        schema = (Attribute("x0", NUMERIC), Attribute("x1", NUMERIC),
                  Attribute("c0", CATEGORICAL))
        rows, labels = [], []
        for _ in range(120):
            x0, x1 = rng.uniform(0, 1, 2)
            c0 = "uv"[int(rng.integers(0, 2))]
            lab = W if x0 > 0.7 else (L if (x1 > 0.5) == (c0 == "u") else S)
            rows.append(FeatureVector(schema, (float(x0), float(x1), c0)))
            labels.append(lab)
        data = LabeledDataset(schema, tuple(rows), tuple(labels))
        model = train_decision_tree(data)
        checks.append(all(predict_tree(model, fv)[0] is lab
                          for fv, lab in zip(data.features, data.labels)))

    # entropy and gain ratio against hand-worked values
    h = _entropy([3, 1])
    gain, ratio = _split_quality(1.0, 8, [[S, S, S, L], [S, L, L, L]])
    expected_gain = 1.0 - 0.8112781244591328
    checks.append(abs(h - 0.8112781244591328) <= 1e-9)
    checks.append(abs(gain - expected_gain) <= 1e-9)
    checks.append(abs(ratio - expected_gain) <= 1e-9)

    # Laplace-smoothed posterior, hand computed: 36/41
    sym = (Attribute("sym", CATEGORICAL),)
    nb_data = LabeledDataset(
        sym, tuple(FeatureVector(sym, (v,)) for v in ("x", "x", "x", "y")),
        (S, S, S, L))
    nb = train_naive_bayes(nb_data)
    _, post = predict_bayes(nb, FeatureVector(sym, ("x",)))
    checks.append(abs(post[0] - 0.878) <= 1e-3)

    # posterior normalization on a random battery
    rng = np.random.default_rng(909)
    schema = (Attribute("v", NUMERIC), Attribute("c", CATEGORICAL))
    rows = tuple(FeatureVector(schema, (float(rng.normal()),
                                        "abc"[int(rng.integers(0, 3))]))
                 for _ in range(60))
    labels = tuple((S, L, W)[int(i)] for i in rng.integers(0, 3, 60))
    nb2 = train_naive_bayes(LabeledDataset(schema, rows, labels))
    norm_ok = True
    for _ in range(200):
        q = FeatureVector(schema, (float(rng.normal()),
                                   "abcd"[int(rng.integers(0, 4))]))
        _, post = predict_bayes(nb2, q)
        norm_ok = norm_ok and abs(sum(post) - 1.0) <= 1e-12
    checks.append(norm_ok)

    # degenerate forest equals a single tree
    data = LabeledDataset(schema, rows, labels)
    tree = train_decision_tree(data)
    forest1 = train_random_forest(data, n_trees=1, attrs_per_split=2,
                                  seed=0, bootstrap=False)
    same = forest1.trees[0].root == tree.root
    for _ in range(100):
        q = FeatureVector(schema, (float(rng.normal()),
                                   "abc"[int(rng.integers(0, 3))]))
        same = same and predict_forest(forest1, q)[0] is predict_tree(tree, q)[0]
    checks.append(same)

    # same seed, byte-identical serialization
    fa = train_random_forest(data, n_trees=5, attrs_per_split=1, seed=42)
    fb = train_random_forest(data, n_trees=5, attrs_per_split=1, seed=42)
    checks.append(model_to_json(fa) == model_to_json(fb))

    ok = all(checks)
    _verdict(capsys, 9, "classifiers", ok, "%d/%d checks" % (sum(checks), len(checks)))


def test_criterion_10_metrics_fixture(capsys):
    schema = (Attribute("x", NUMERIC),)
    train = LabeledDataset(
        schema, (FeatureVector(schema, (0.0,)), FeatureVector(schema, (1.0,))),
        (S, L))
    model = train_decision_tree(train)
    test = LabeledDataset(
        schema, (FeatureVector(schema, (0.0,)), FeatureVector(schema, (1.0,)),
                 FeatureVector(schema, (1.0,))),
        (S, L, W))
    m = evaluate_classifier(model, test)
    e_mae = abs(m["mae"] - 1.0 / 3.0)
    e_rmse = abs(m["rmse"] - math.sqrt(1.0 / 3.0))
    e_rae = abs(m["rae_pct"] - 50.0)
    ok = e_mae <= 1e-12 and e_rmse <= 1e-12 and e_rae <= 1e-12
    _verdict(capsys, 10, "metrics-fixture", ok,
             "errs mae %.2g rmse %.2g rae %.2g" % (e_mae, e_rmse, e_rae))


def test_criterion_11_weighted_index(capsys):
    model = WeightedIndexModel({"a": 0.5, "b": 0.3, "c": 0.2}, threshold=0.5)
    index, triggered = weighted_index(model, {"a": 1.0, "b": 0.0, "c": 0.5})
    fixture_ok = abs(index - 0.60) <= 1e-12 and triggered

    rng = np.random.default_rng(1011)
    names = ["q%02d" % i for i in range(10)]
    mono_ok = True
    for _ in range(1000):
        raw = rng.uniform(0.05, 1.0, len(names))
        weights = {n: float(v) for n, v in zip(names, raw / raw.sum())}
        m = WeightedIndexModel(weights, threshold=0.5)
        scores = {n: float(rng.uniform(0, 1)) for n in names}
        base, _ = weighted_index(m, scores)
        pick = names[int(rng.integers(0, len(names)))]
        bumped = dict(scores)
        bumped[pick] = float(min(1.0, scores[pick] + rng.uniform(0, 1)))
        up, _ = weighted_index(m, bumped)
        mono_ok = mono_ok and up >= base - 1e-12
    ok = fixture_ok and mono_ok
    _verdict(capsys, 11, "weighted-index", ok,
             "fixture %.12f, monotone %s" % (index, mono_ok))


def test_criterion_12_end_to_end(capsys, tmp_path):
    t0 = time.perf_counter()
    rules_path = tmp_path / "rules.xml"
    rules_path.write_text(GOLDEN_RULES.replace(
        '<rule id="weight-gain" severity="ALARM">',
        '<rule id="weight-gain" scope="CKD" severity="ALARM">'))
    now = "1970-01-01T00:01:00Z"

    def manifest(name, doc):
        doc.setdefault("rules", "rules.xml")
        path = tmp_path / ("%s.json" % name)
        path.write_text(json.dumps(doc))
        return str(path)

    checks = []

    # COPD: tachycardia out of the full signal pipeline
    samples, _ = synth_ecg(125, duration_s=60.0)
    write_signal_csv(str(tmp_path / "ecg-fast.csv"), samples, 250.0)
    cfg_copd = tmp_path / "cfg-copd.json"
    cfg_copd.write_text(json.dumps({"disease": "COPD"}))
    m = manifest("m-copd", {"patient_id": "pat-copd", "out_dir": "out-copd",
                            "ecg": "ecg-fast.csv", "config": "cfg-copd.json"})
    code = cli.main(["run", m, "--now", now])
    capsys.readouterr()
    msg = parse_message_xml(
        (tmp_path / "out-copd" / "pat-copd" / "message.xml").read_text())
    checks.append(code == 2 and msg.urgency.value == "IMMEDIATE"
                  and msg.alerts[0].rule_id == "hr-high")

    # CKD: weight gain from plain measurements
    meas = tmp_path / "meas-ckd.csv"
    meas.write_text("kind,value,timestamp_ms\nBODY_WEIGHT,70.0,0\n"
                    "BODY_WEIGHT,71.5,50000\n")
    cfg_ckd = tmp_path / "cfg-ckd.json"
    cfg_ckd.write_text(json.dumps({"disease": "CKD"}))
    m = manifest("m-ckd", {"patient_id": "pat-ckd", "out_dir": "out-ckd",
                           "measurements": "meas-ckd.csv", "config": "cfg-ckd.json"})
    code = cli.main(["run", m, "--now", now])
    capsys.readouterr()
    msg = parse_message_xml(
        (tmp_path / "out-ckd" / "pat-ckd" / "message.xml").read_text())
    checks.append(code == 2 and msg.urgency.value == "IMMEDIATE"
                  and msg.alerts[0].rule_id == "weight-gain")

    # healthy: normal rate, no alarm
    samples, _ = synth_ecg(70, duration_s=60.0)
    write_signal_csv(str(tmp_path / "ecg-ok.csv"), samples, 250.0)
    m = manifest("m-ok", {"patient_id": "pat-ok", "out_dir": "out-ok",
                          "ecg": "ecg-ok.csv"})
    code = cli.main(["run", m, "--now", now])
    capsys.readouterr()
    checks.append(code == 0)

    # successive sends cover the store exactly once
    store_dir = str(tmp_path / "shared-store")
    meas1 = tmp_path / "meas-1.csv"
    meas1.write_text("kind,value,timestamp_ms\nBODY_WEIGHT,70.0,0\n"
                     "GLUCOSE,101.0,1000\n")
    meas2 = tmp_path / "meas-2.csv"
    meas2.write_text("kind,value,timestamp_ms\nBODY_WEIGHT,70.0,0\n"
                     "GLUCOSE,101.0,1000\nBODY_WEIGHT,71.5,50000\n"
                     "GLUCOSE,99.0,51000\n")
    cfg = tmp_path / "cfg-cover.json"
    cfg.write_text(json.dumps({"disease": "CKD"}))
    m1 = manifest("m-cov1", {"patient_id": "pat-cov", "out_dir": "out-cov1",
                             "store_dir": "shared-store",
                             "measurements": "meas-1.csv", "config": "cfg-cover.json"})
    m2 = manifest("m-cov2", {"patient_id": "pat-cov", "out_dir": "out-cov2",
                             "store_dir": "shared-store",
                             "measurements": "meas-2.csv", "config": "cfg-cover.json"})
    code1 = cli.main(["run", m1, "--now", "1970-01-01T00:00:30Z"])
    code2 = cli.main(["run", m2, "--now", now])
    capsys.readouterr()
    msg1 = parse_message_xml(
        (tmp_path / "out-cov1" / "pat-cov" / "message.xml").read_text())
    msg2 = parse_message_xml(
        (tmp_path / "out-cov2" / "pat-cov" / "message.xml").read_text())
    store = MeasurementStore(store_dir)
    sent = list(msg1.measurements) + list(msg2.measurements)
    checks.append(code1 == 0 and code2 == 2)
    checks.append(sent == store.log_records("pat-cov"))
    checks.append(len(sent) == len(set(r.key() for r in sent)))

    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 60.0
    _verdict(capsys, 12, "end-to-end-cli", ok,
             "%d/%d checks, %.1f s" % (sum(checks), len(checks), elapsed))
