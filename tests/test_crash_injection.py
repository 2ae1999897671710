"""A crash at any file write of a tick, followed by a rerun of that tick,
loses no record and puts none in two messages.

One patient runs six ticks: a scheduled send, a held tick, an alarm sent
at once, the next day's scheduled send, an ECG tick whose heart rate sends
an alarm, and the day after's scheduled send without an ECG. For every
tick and every write k of it, a fresh scenario makes the k-th write-mode
open, os.replace or os.fsync raise, reruns the tick with a new store (as a
restarted process would) and goes on with the other ticks. After each
completed tick the files on disk equal a crash-free run's, byte for byte.

A batch of three patients over one store runs under `run --jobs 2`, and a
worker calls os._exit at its k-th write instead; only the patients of its
share it had not reported fail, and the rerun completes the tick.
"""

import builtins
import datetime
import functools
import itertools
import json
import os

import pytest

from conftest import signal_csv_text, synth_ecg
from edgevitals import cli
from edgevitals.config import default_config
from edgevitals.messaging import Urgency, parse_message_xml
from edgevitals.pipeline import run_patient
from edgevitals.rules import parse_rules
from edgevitals.store import MeasurementStore

RULES = """<rules>
  <rule id="hr-high" severity="ALARM"><threshold kind="HEART_RATE" op="gt" value="120"/></rule>
</rules>"""

HOUR = 3600000
DAY = 24 * HOUR
ECG_S = 10.0
# (now, new measurement rows, the bpm of an ECG ending at now or None,
# decision, None for a hold); the default send slot is 20:00
TICKS = [
    (DAY + 21 * HOUR, [("HEART_RATE", 70.0, DAY + 20 * HOUR),
                       ("BODY_WEIGHT", 70.0, DAY + 20 * HOUR)], None, Urgency.SCHEDULED),
    (DAY + 22 * HOUR, [("HEART_RATE", 72.0, DAY + 21 * HOUR)], None, None),
    (DAY + 23 * HOUR, [("HEART_RATE", 130.0, DAY + 22 * HOUR)], None, Urgency.IMMEDIATE),
    (2 * DAY + 21 * HOUR, [("HEART_RATE", 75.0, 2 * DAY + 20 * HOUR)], None, Urgency.SCHEDULED),
    (2 * DAY + 22 * HOUR, [("BODY_WEIGHT", 70.5, 2 * DAY + 21 * HOUR)], 130, Urgency.IMMEDIATE),
    (3 * DAY + 21 * HOUR, [("HEART_RATE", 72.0, 3 * DAY + 20 * HOUR),
                           ("BODY_WEIGHT", 70.2, 3 * DAY + 20 * HOUR)], None, Urgency.SCHEDULED),
]


class Crash(Exception):
    pass


def _is_write_open(args, kwargs):
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "r")
    return any(c in mode for c in "wax+")


def inject(monkeypatch, crash_at, crash=None):
    """Counts write-mode opens, os.replace and os.fsync calls; the
    crash_at-th one raises Crash, or calls crash() when it is given.
    Returns the running count."""
    seen = [0]

    def wrap(real, counts):
        def call(*args, **kwargs):
            if counts(args, kwargs):
                seen[0] += 1
                if seen[0] == crash_at:
                    if crash is not None:
                        crash()
                    raise Crash("write %d" % crash_at)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(builtins, "open", wrap(builtins.open, _is_write_open))
    monkeypatch.setattr(os, "replace", wrap(os.replace, lambda a, k: True))
    monkeypatch.setattr(os, "fsync", wrap(os.fsync, lambda a, k: True))
    return seen


def files(root):
    """Every file under root, relative path to bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@functools.lru_cache(maxsize=None)
def ecg_text(t):
    now, _, bpm, _ = TICKS[t]
    return signal_csv_text(synth_ecg(bpm, duration_s=ECG_S)[0], 250.0, now - ECG_S * 1000)


def write_inputs(tmp_path):
    tmp_path.mkdir()
    for t, (_, rows, bpm, _) in enumerate(TICKS):
        (tmp_path / ("meas-%d.csv" % t)).write_text(
            "kind,value,timestamp_ms\n" + "".join("%s,%r,%d\n" % row for row in rows))
        if bpm is not None:
            (tmp_path / ("ecg-%d.csv" % t)).write_text(ecg_text(t))


def run_tick(tmp_path, t):
    ecg = tmp_path / ("ecg-%d.csv" % t)
    return run_patient("p1", MeasurementStore(str(tmp_path / "store")), default_config(),
                       parse_rules(RULES), TICKS[t][0],
                       measurements_csv=str(tmp_path / ("meas-%d.csv" % t)),
                       out_dir=str(tmp_path / "out"), ecg_csv=str(ecg) if ecg.exists() else None)


def crash_free_run(tmp_path, monkeypatch):
    """Each tick's write count and the files of out/ and store/ after it."""
    write_inputs(tmp_path)
    counts, states = [], []
    for t in range(len(TICKS)):
        with monkeypatch.context() as m:
            seen = inject(m, crash_at=None)
            run_tick(tmp_path, t)
        counts.append(seen[0])
        states.append((files(tmp_path / "out"), files(tmp_path / "store")))
    return counts, states


def run_scenario(tmp_path, monkeypatch, crash_tick, crash_at, states):
    """All ticks in order, the given one crashed once and rerun. Returns
    the decisions and the messages of the completed ticks, both read from
    disk. After each completed tick the patient's directory holds exactly
    its artifacts, beats.csv among them exactly when the tick had an ECG,
    and out/ and store/ hold the bytes of the crash-free run."""
    decisions, messages = [], []
    pdir = tmp_path / "out" / "p1"
    for t in range(len(TICKS)):
        if t == crash_tick:
            with monkeypatch.context() as m:
                inject(m, crash_at)
                with pytest.raises(Crash):
                    run_tick(tmp_path, t)
        result = run_tick(tmp_path, t)
        listing = sorted(os.listdir(pdir))
        assert listing == sorted(os.path.basename(p) for p in result.artifacts)
        assert ("beats.csv" in listing) == (TICKS[t][2] is not None)
        assert (files(tmp_path / "out"), files(tmp_path / "store")) == states[t]
        if "message.xml" in listing:
            messages.append(parse_message_xml((pdir / "message.xml").read_text(encoding="utf-8")))
        decisions.append(messages[-1].urgency if "message.xml" in listing else None)
    return decisions, messages


def test_crash_at_any_write_then_rerun_sends_each_record_once(tmp_path, monkeypatch):
    counts, states = crash_free_run(tmp_path / "count", monkeypatch)
    assert all(counts)
    for t, total in enumerate(counts):
        for k in range(1, total + 1):
            work = tmp_path / ("tick%d-write%d" % (t, k))
            write_inputs(work)
            decisions, messages = run_scenario(work, monkeypatch, t, k, states)
            where = "crash in tick %d at write %d of %d" % (t, k, total)
            assert decisions == [decision for _, _, _, decision in TICKS], where
            store = MeasurementStore(str(work / "store"))
            sent = [rec.key() for msg in messages for rec in msg.measurements]
            assert sent == [rec.key() for rec in store.log_records("p1")], where
            assert store.untransmitted("p1") == [], where


BATCH = ("p-a", "p-b", "p-c")  # under --jobs 2, worker 0 runs p-a and p-c, worker 1 p-b
# (now, the bpm of each patient's heart-rate row): a scheduled send for
# all, then the next day's, in which p-b's alarm sends at once
BATCH_TICKS = [(DAY + 21 * HOUR, (70.0, 71.0, 72.0)), (2 * DAY + 21 * HOUR, (73.0, 130.0, 74.0))]


def write_batch(work, tick):
    """The batch's manifests, over one store, with the tick's measurement
    rows; returns the manifest paths."""
    now, bpms = BATCH_TICKS[tick]
    work.mkdir(exist_ok=True)
    (work / "rules.xml").write_text(RULES)
    manifests = []
    for pid, bpm in zip(BATCH, bpms):
        (work / ("meas-%s.csv" % pid)).write_text(
            "kind,value,timestamp_ms\nHEART_RATE,%r,%d\n" % (bpm, now - HOUR))
        path = work / ("%s.json" % pid)
        path.write_text(json.dumps({
            "patient_id": pid, "out_dir": "out", "store_dir": "store",
            "measurements": "meas-%s.csv" % pid, "rules": "rules.xml"}))
        manifests.append(str(path))
    return manifests


def run_batch(work, tick, capsys):
    """One `run --jobs 2` of the tick. Returns its exit code, each
    patient's stdout line without the id, and each patient's message, read
    from disk, when the run sent one: the line reports a send, or the
    patient's cursor moved, which a patient whose worker died after that
    write and before reporting would show in no line."""
    manifests = write_batch(work, tick)
    cursors = {pid: work / "store" / ("%s.cursor" % pid) for pid in BATCH}
    before = {pid: c.read_bytes() if c.exists() else None for pid, c in cursors.items()}
    now = datetime.datetime.fromtimestamp(BATCH_TICKS[tick][0] / 1000, datetime.timezone.utc)
    code = cli.main(["run", *manifests, "--now", now.isoformat(), "--jobs", "2"])
    lines = dict(line.split(" ", 1) for line in capsys.readouterr().out.splitlines())
    assert sorted(lines) == list(BATCH)
    messages = {}
    for pid, cursor in cursors.items():
        moved = cursor.exists() and cursor.read_bytes() != before[pid]
        held = lines[pid].endswith("decision=HOLD")
        assert not (held and moved)
        if moved or not (held or "error=" in lines[pid]):
            messages[pid] = parse_message_xml(
                (work / "out" / pid / "message.xml").read_text(encoding="utf-8"))
    return code, lines, messages


@pytest.mark.parametrize("share", [0, 1])
def test_a_worker_dying_at_any_write_fails_only_its_share(tmp_path, capsys, monkeypatch,
                                                          share):
    clean = [run_batch(tmp_path / "clean", t, capsys)[:2] for t in range(len(BATCH_TICKS))]
    dying = BATCH[share::2]
    real = cli._summarise
    for crash_tick in range(len(BATCH_TICKS)):
        failed_counts = set()
        for k in itertools.count(1):
            work = tmp_path / ("tick%d-write%d" % (crash_tick, k))
            where = "worker %d dies in tick %d at write %d" % (share, crash_tick, k)
            sent = {pid: [] for pid in BATCH}
            for t in range(len(BATCH_TICKS)):
                runs = []
                if t == crash_tick:
                    def summarise(docs, now_ms):
                        if docs[0]["patient_id"] == dying[0]:  # in the dying worker only
                            inject(pytest.MonkeyPatch(), k, crash=lambda: os._exit(3))
                        return real(docs, now_ms)

                    with monkeypatch.context() as m:
                        m.setattr(cli, "_summarise", summarise)
                        runs.append(run_batch(work, t, capsys))
                    code, lines, _ = runs[0]
                    # the patients the worker ran to the end before it died are reported
                    died = [pid for pid in dying if "error=" in lines[pid]]
                    assert died == list(dying[len(dying) - len(died):]), where
                    failed_counts.add(len(died))
                    for pid in died:
                        assert lines[pid] == ("error=ChildProcessError: worker exited with "
                                              "status 3 before reporting, so its run may have "
                                              "finished"), where
                    assert code == (1 if died else clean[t][0]), where
                    assert {pid: lines[pid] for pid in BATCH if pid not in died} == {
                        pid: clean[t][1][pid] for pid in BATCH if pid not in died}, where
                runs.append(run_batch(work, t, capsys))
                assert "error=" not in "".join(runs[-1][1].values()), where
                for _, _, messages in runs:
                    for pid, msg in messages.items():
                        sent[pid] += [rec.key() for rec in msg.measurements]
            store = MeasurementStore(str(work / "store"))
            for pid in BATCH:
                assert sent[pid] == [rec.key() for rec in store.log_records(pid)], where
                assert store.untransmitted(pid) == [], where
            if not died:  # k passed the worker's last write
                break
        # a death in each patient's run, and none once k passed them all
        assert failed_counts == set(range(len(dying) + 1))
