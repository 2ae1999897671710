"""Output checks for one round of a workload.

A round's failures are keyed by patient run, (invocation index, patient
id), so that `failed / attempted` is the share of patient runs that
errored or produced a wrong artifact.
"""

import csv
import hashlib
import os
import re

from edgevitals.errors import IntegrityError, SchemaMismatchError
from edgevitals.messaging import Urgency, parse_message_xml
from edgevitals.store import MeasurementStore

_LINE = re.compile(r"^(\S+) alerts=(\d+) alarm=(yes|no) decision=(\w+)(.*)$")


def check_invocation(index, inv, exit_code, stdout, fail):
    """Exit code and the one-line-per-patient summary against the plan."""
    seen = {}
    for line in stdout.splitlines():
        m = _LINE.match(line)
        if m:
            seen[m.group(1)] = m
    for pid, want in inv["expect"].items():
        if exit_code != inv["exit"]:
            fail(index, pid, "exit code %s, expected %d" % (exit_code, inv["exit"]))
            continue
        m = seen.get(pid)
        if m is None:
            fail(index, pid, "no summary line")
            continue
        if (m.group(3) == "yes") != want["alarm"] or m.group(4) != want["decision"]:
            fail(index, pid, "summary %r, expected alarm=%s decision=%s"
                 % (m.group(0), want["alarm"], want["decision"]))


def check_messages(plan, workdir, fail):
    """Every message parses, has the expected urgency, and together the
    messages of all ticks send each stored record exactly once, in log
    order."""
    sent = {pid: [] for pid in plan["patients"]}
    for index, (inv, out_dir) in enumerate(zip(plan["invocations"], plan["out_dirs"])):
        for pid, want in inv["expect"].items():
            path = os.path.join(workdir, out_dir, pid, "message.xml")
            if not os.path.exists(path):
                if want["decision"] != "HOLD":
                    fail(index, pid, "no message.xml")
                continue
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    msg = parse_message_xml(fh.read())
            except (SchemaMismatchError, IntegrityError, ValueError, KeyError) as exc:
                fail(index, pid, "message.xml does not parse: %s" % exc)
                continue
            urgent = msg.urgency is Urgency.IMMEDIATE
            if msg.patient_id != pid or urgent != want["alarm"]:
                fail(index, pid, "message for %s urgency %s" % (msg.patient_id,
                                                                msg.urgency.value))
            sent[pid].extend(r.key() for r in msg.measurements)
    last = len(plan["invocations"]) - 1
    try:
        store = MeasurementStore(os.path.join(workdir, "run", "store"))
    except IntegrityError as exc:
        for pid in sent:
            fail(last, pid, "store does not load: %s" % exc)
        return
    for pid, keys in sent.items():
        logged = [r.key() for r in store.log_records(pid)]
        if keys != logged:
            extra = len(keys) - len(set(keys))
            fail(last, pid, "messages do not partition the log: %d sent, %d logged, "
                 "%d sent twice" % (len(keys), len(logged), extra))


def check_holter(plan, workdir, fail):
    """Beats and mean heart rate against the generator's beat times, the
    QRS cross-check, and the hr-high ALARM."""
    truth = plan["holter"]
    pdir = os.path.join(workdir, plan["out_dirs"][0], plan["patients"][0])
    pid = plan["patients"][0]
    try:
        with open(os.path.join(pdir, "beats.csv"), encoding="utf-8") as fh:
            beats = sum(1 for row in csv.DictReader(fh) if row["label"] == "QRS")
        with open(os.path.join(pdir, "features.csv"), encoding="utf-8") as fh:
            features = next(csv.DictReader(fh))
        with open(os.path.join(pdir, "report.jsonl"), encoding="utf-8") as fh:
            report = fh.read()
        with open(os.path.join(pdir, "message.xml"), encoding="utf-8") as fh:
            msg = parse_message_xml(fh.read())
    except (OSError, StopIteration, KeyError, ValueError, SchemaMismatchError,
            IntegrityError) as exc:
        fail(0, pid, "holter artifacts unreadable: %s" % exc)
        return
    if abs(beats - truth["beats"]) > 0.005 * truth["beats"]:
        fail(0, pid, "%d QRS beats, generator placed %d" % (beats, truth["beats"]))
    hr = float(features["mean_heart_rate_bpm"] or "nan")
    if not abs(hr - truth["mean_hr_bpm"]) <= 1.0:
        fail(0, pid, "mean heart rate %.2f, generator %.2f" % (hr, truth["mean_hr_bpm"]))
    if '"qrs_flagged":false' not in report:
        fail(0, pid, "QRS cross-check flagged")
    if msg.urgency is not Urgency.IMMEDIATE or "hr-high" not in [a.rule_id for a in msg.alerts]:
        fail(0, pid, "no IMMEDIATE hr-high message")


def check_round(plan, workdir, results):
    """results: (exit code, stdout) per invocation. Returns {(invocation,
    patient): [reasons]}."""
    failures = {}

    def fail(index, pid, reason):
        failures.setdefault((index, pid), []).append(reason)

    for index, (inv, (code, stdout)) in enumerate(zip(plan["invocations"], results)):
        check_invocation(index, inv, code, stdout, fail)
    check_messages(plan, workdir, fail)
    if "holter" in plan:
        check_holter(plan, workdir, fail)
    return failures


def artifact_digests(workdir, out_dirs):
    """sha256 of every artifact, by path relative to workdir."""
    out = []
    for out_dir in out_dirs:
        top = os.path.join(workdir, out_dir)
        for dirpath, _, files in sorted(os.walk(top)):
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    out.append((os.path.relpath(path, workdir),
                                hashlib.sha256(fh.read()).hexdigest()))
    return out
