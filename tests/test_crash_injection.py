"""A crash at any file write of a tick, followed by a rerun of that tick,
loses no record and puts none in two messages.

The patient is measurement-only and runs four ticks: a scheduled send, a
held tick, an alarm sent at once, and the next day's scheduled send. For
every tick and every write k of it, a fresh scenario makes the k-th
write-mode open, os.replace or os.fsync raise, reruns the tick with a new
store (as a restarted process would) and goes on with the other ticks.
"""

import builtins
import os

import pytest

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
# (now, new measurement rows, decision, None for a hold); the default send slot is 20:00
TICKS = [
    (DAY + 21 * HOUR, [("HEART_RATE", 70.0, DAY + 20 * HOUR),
                       ("BODY_WEIGHT", 70.0, DAY + 20 * HOUR)], Urgency.SCHEDULED),
    (DAY + 22 * HOUR, [("HEART_RATE", 72.0, DAY + 21 * HOUR)], None),
    (DAY + 23 * HOUR, [("HEART_RATE", 130.0, DAY + 22 * HOUR)], Urgency.IMMEDIATE),
    (2 * DAY + 21 * HOUR, [("HEART_RATE", 75.0, 2 * DAY + 20 * HOUR)], Urgency.SCHEDULED),
]


class Crash(Exception):
    pass


def _is_write_open(args, kwargs):
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "r")
    return any(c in mode for c in "wax+")


def inject(monkeypatch, crash_at):
    """Counts write-mode opens, os.replace and os.fsync calls; the
    crash_at-th one raises Crash. Returns the running count."""
    seen = [0]

    def wrap(real, counts):
        def call(*args, **kwargs):
            if counts(args, kwargs):
                seen[0] += 1
                if seen[0] == crash_at:
                    raise Crash("write %d" % crash_at)
            return real(*args, **kwargs)
        return call

    monkeypatch.setattr(builtins, "open", wrap(builtins.open, _is_write_open))
    monkeypatch.setattr(os, "replace", wrap(os.replace, lambda a, k: True))
    monkeypatch.setattr(os, "fsync", wrap(os.fsync, lambda a, k: True))
    return seen


def write_inputs(tmp_path):
    tmp_path.mkdir()
    for t, (_, rows, _) in enumerate(TICKS):
        (tmp_path / ("meas-%d.csv" % t)).write_text(
            "kind,value,timestamp_ms\n" + "".join("%s,%r,%d\n" % row for row in rows))


def run_tick(tmp_path, t):
    return run_patient("p1", MeasurementStore(str(tmp_path / "store")), default_config(),
                       parse_rules(RULES), TICKS[t][0],
                       measurements_csv=str(tmp_path / ("meas-%d.csv" % t)),
                       out_dir=str(tmp_path / "out"))


def writes_per_tick(tmp_path, monkeypatch):
    write_inputs(tmp_path)
    counts = []
    for t in range(len(TICKS)):
        with monkeypatch.context() as m:
            seen = inject(m, crash_at=None)
            run_tick(tmp_path, t)
        counts.append(seen[0])
    return counts


def run_scenario(tmp_path, monkeypatch, crash_tick, crash_at):
    """All ticks in order, the given one crashed once and rerun. Returns
    the decisions and the messages of the completed ticks. After each
    completed tick the patient's directory holds exactly its artifacts,
    message.xml among them exactly when the tick sent."""
    decisions, messages = [], []
    pdir = tmp_path / "out" / "p1"
    for t in range(len(TICKS)):
        if t == crash_tick:
            with monkeypatch.context() as m:
                inject(m, crash_at)
                with pytest.raises(Crash):
                    run_tick(tmp_path, t)
        result = run_tick(tmp_path, t)
        decisions.append(result.decision)
        listing = sorted(os.listdir(pdir))
        assert listing == sorted(os.path.basename(p) for p in result.artifacts)
        assert ("message.xml" in listing) == (result.decision is not None)
        if result.decision is not None:
            messages.append(parse_message_xml((pdir / "message.xml").read_text(encoding="utf-8")))
    return decisions, messages


def test_crash_at_any_write_then_rerun_sends_each_record_once(tmp_path, monkeypatch):
    counts = writes_per_tick(tmp_path / "count", monkeypatch)
    assert all(counts)
    for t, total in enumerate(counts):
        for k in range(1, total + 1):
            work = tmp_path / ("tick%d-write%d" % (t, k))
            write_inputs(work)
            decisions, messages = run_scenario(work, monkeypatch, t, k)
            where = "crash in tick %d at write %d of %d" % (t, k, total)
            assert decisions == [decision for _, _, decision in TICKS], where
            store = MeasurementStore(str(work / "store"))
            sent = [rec.key() for msg in messages for rec in msg.measurements]
            assert sent == [rec.key() for rec in store.log_records("p1")], where
            assert store.untransmitted("p1") == [], where
