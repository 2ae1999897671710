import json
import math
import os
from pathlib import Path

import pytest

from edgevitals.errors import IntegrityError, SchemaMismatchError
from edgevitals.messaging import (
    DailySchedule,
    OutboundMessage,
    TransmissionDecision,
    Urgency,
    build_message_xml,
    decide_transmission,
    parse_message_xml,
)
from edgevitals.rules import (
    AcquisitionMode,
    Alert,
    MeasurementKind,
    MeasurementRecord,
    Severity,
)
from edgevitals.store import MeasurementStore

HR = MeasurementKind.HEART_RATE
WT = MeasurementKind.BODY_WEIGHT
DAY = 86400000


def rec(value, ts, kind=HR, patient="p1", name=""):
    return MeasurementRecord(patient, kind, value, ts, name=name)


class TestStoreIngest:
    def test_counts_and_idempotence(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        batch = [rec(60.0 + i, 1000 * i) for i in range(5)]
        result = store.ingest(batch)
        assert result.appended == 5
        assert result.rejections == []
        again = store.ingest(batch)
        assert again.appended == 0
        assert again.rejections == []
        assert len(store.records("p1")) == 5

    def test_bad_record_rejected_batch_continues(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        batch = [
            {"patient_id": "p1", "kind": "HEART_RATE", "value": 60.0, "timestamp_ms": 0},
            {"patient_id": "p1", "kind": "HEART_RATE", "value": float("nan"),
             "timestamp_ms": 1000},
            {"patient_id": "p1", "kind": "NOT_A_KIND", "value": 1.0, "timestamp_ms": 2000},
            {"patient_id": "p1", "value": 1.0, "timestamp_ms": 3000},  # kind missing
            {"patient_id": "p1", "kind": "SPO2", "value": 97.0, "timestamp_ms": 4000},
        ]
        result = store.ingest(batch)
        assert result.appended == 2
        assert len(result.rejections) == 3
        for _, reason in result.rejections:
            assert reason

    def test_names_xml_cannot_carry_rejected(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        bad = ["a\x01b", "a\x00", "a\x0bb", "a\x1f", "a\ufffeb", "a\uffffb",
               "a\ud800b", "\udfff"]
        good = ["tab\there", "lf\nhere", "cr\rhere", "del\x7f", "c1\x85\x9f",
                "bmp\ufffd", "astral\U0001f600"]
        result = store.ingest([{"patient_id": "p1", "kind": "HEART_RATE", "value": 60.0,
                                "timestamp_ms": i, "name": n}
                               for i, n in enumerate(bad + good)])
        assert result.appended == len(good)
        assert len(result.rejections) == len(bad)
        assert all("XML" in reason for _, reason in result.rejections)
        names = [r.name for r in store.log_records("p1")]
        assert names == good
        message = OutboundMessage("p1", 0, Urgency.SCHEDULED, (), (),
                                  tuple(store.log_records("p1")))
        parsed = parse_message_xml(build_message_xml(message))
        assert [r.name for r in parsed.measurements] == good
        assert [r.name for r in MeasurementStore(str(tmp_path)).log_records("p1")] == good

    def test_dict_and_record_forms_equivalent(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        store.ingest([{"patient_id": "p1", "kind": "HEART_RATE", "value": 61.0,
                       "timestamp_ms": 5, "mode": "SILENT", "name": "hr"}])
        (r,) = store.records("p1")
        assert r == MeasurementRecord("p1", HR, 61.0, 5,
                                      AcquisitionMode.SILENT, "hr")

    def test_unsafe_patient_id_rejected(self, tmp_path):
        # rejected with a reason like any bad record; the batch goes on
        store = MeasurementStore(str(tmp_path / "store"))
        bad = rec(60.0, 0, patient="../escape")
        result = store.ingest([bad, rec(61.0, 0)])
        assert result.appended == 1
        assert result.rejections == [(bad, "patient id '../escape' is not filesystem-safe")]
        assert sorted(os.listdir(tmp_path)) == ["store"]
        assert os.listdir(tmp_path / "store") == ["p1.jsonl"]


class TestStoreLazyLoad:
    def test_constructor_reads_no_log(self, tmp_path, monkeypatch):
        MeasurementStore(str(tmp_path)).ingest([rec(60.0, 0), rec(61.0, 0, patient="p2")])
        loaded = []
        real = MeasurementStore._load_patient

        def counting(self, patient_id):
            loaded.append(patient_id)
            return real(self, patient_id)

        monkeypatch.setattr(MeasurementStore, "_load_patient", counting)
        store = MeasurementStore(str(tmp_path))
        assert loaded == []
        assert store.patients() == ["p1", "p2"]
        assert loaded == []
        store.records("p2")
        store.log_records("p2")
        store.untransmitted("p2")
        store.mark_transmitted("p2", 1)
        store.ingest([rec(62.0, 1, patient="p2")])
        assert loaded == ["p2"]

    def test_unknown_patient_reads_empty_and_creates_no_file(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        assert store.records("nobody") == []
        assert store.log_records("nobody") == []
        assert store.untransmitted("nobody") == []
        assert store.patients() == []
        assert os.listdir(str(tmp_path)) == []

    def test_patients_lists_disk_and_memory(self, tmp_path):
        MeasurementStore(str(tmp_path)).ingest([rec(60.0, 0, patient="p2")])
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 0, patient="p1")])
        assert store.patients() == ["p1", "p2"]

    def test_ingest_opens_the_log_once_per_batch(self, tmp_path, monkeypatch):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(50.0, 0)])
        path = os.path.join(str(tmp_path), "p1.jsonl")
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        result = store.ingest([rec(60.0 + i, 1000 * i) for i in range(20)]
                              + [rec(60.0, 0)])  # in-batch duplicate
        monkeypatch.undo()
        assert result.appended == 20
        assert opened.count(path) == 1
        assert len(MeasurementStore(str(tmp_path)).log_records("p1")) == 21


class TestStorePersistence:
    def test_reload_round_trip(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 2000), rec(61.0, 1000), rec(70.0, 1500, kind=WT)])
        reloaded = MeasurementStore(str(tmp_path))
        assert reloaded.records("p1") == store.records("p1")
        assert reloaded.log_records("p1") == store.log_records("p1")
        assert reloaded.patients() == ["p1"]

    def test_records_are_time_sorted_log_keeps_append_order(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 2000), rec(61.0, 1000)])
        assert [r.timestamp_ms for r in store.records("p1")] == [1000, 2000]
        assert [r.timestamp_ms for r in store.log_records("p1")] == [2000, 1000]

    def test_torn_final_line_dropped(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 1000), rec(61.0, 2000)])
        path = os.path.join(str(tmp_path), "p1.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"patient":"p1","kind":"HEART_')
        reloaded = MeasurementStore(str(tmp_path))
        assert len(reloaded.records("p1")) == 2
        # a fresh append after the crash recovers cleanly: the torn fragment
        # is cut off, so the new line is not glued onto it
        reloaded.ingest([rec(62.0, 3000)])
        assert [r.value for r in MeasurementStore(str(tmp_path)).log_records("p1")] == [
            60.0, 61.0, 62.0]
        MeasurementStore(str(tmp_path)).ingest([rec(63.0, 4000)])
        assert [r.value for r in MeasurementStore(str(tmp_path)).log_records("p1")] == [
            60.0, 61.0, 62.0, 63.0]

    @pytest.mark.parametrize("tail", [b'{"patient":"p1","name":"\xc3',
                                      b'{"patient":"p1","name":"\xc3\xa9\xc3\xa9'])
    def test_torn_multibyte_tail_dropped(self, tmp_path, tail):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 1000)])
        path = os.path.join(str(tmp_path), "p1.jsonl")
        with open(path, "ab") as fh:
            fh.write(tail)
        reloaded = MeasurementStore(str(tmp_path))
        assert len(reloaded.records("p1")) == 1
        reloaded.ingest([rec(61.0, 2000)])
        assert len(MeasurementStore(str(tmp_path)).records("p1")) == 2

    def test_terminated_bad_final_line_is_integrity_error(self, tmp_path):
        # a crash mid-append cannot leave a complete bad line, so one is
        # corruption: it must be reported, never cut off by the next append
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 1000), rec(61.0, 2000)])
        path = os.path.join(str(tmp_path), "p1.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("garbage\n")
        with open(path, "rb") as fh:
            before = fh.read()
        with pytest.raises(IntegrityError, match=r"p1\.jsonl line 3"):
            MeasurementStore(str(tmp_path)).records("p1")
        with pytest.raises(IntegrityError, match=r"p1\.jsonl line 3"):
            MeasurementStore(str(tmp_path)).ingest([rec(62.0, 3000)])
        with open(path, "rb") as fh:
            assert fh.read() == before

    def test_undecodable_midfile_line_is_integrity_error(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 1000), rec(61.0, 2000)])
        path = os.path.join(str(tmp_path), "p1.jsonl")
        with open(path, "rb") as fh:
            first, second = fh.read().splitlines()
        with open(path, "wb") as fh:
            fh.write(first + b"\n" + second.replace(b"p1", b"p\xff") + b"\n" + first + b"\n")
        with pytest.raises(IntegrityError, match=r"p1\.jsonl line 2"):
            MeasurementStore(str(tmp_path)).records("p1")

    def test_unterminated_final_record_kept_and_terminated(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 1000), rec(61.0, 2000)])
        path = os.path.join(str(tmp_path), "p1.jsonl")
        with open(path, "rb+") as fh:
            fh.truncate(os.path.getsize(path) - 1)  # crash before the final newline
        reloaded = MeasurementStore(str(tmp_path))
        assert len(reloaded.records("p1")) == 2
        reloaded.ingest([rec(62.0, 3000)])
        assert [r.value for r in MeasurementStore(str(tmp_path)).log_records("p1")] == [
            60.0, 61.0, 62.0]

    def test_failed_append_leaves_memory_matching_disk(self, tmp_path, monkeypatch):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 1000)])
        path = os.path.join(str(tmp_path), "p1.jsonl")
        real_open = open

        class TornWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                raise OSError("disk full")

        def failing_open(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            return TornWrite(fh) if file == path and "a" in mode else fh

        monkeypatch.setattr("builtins.open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            store.ingest([rec(61.0, 2000), rec(62.0, 3000)])
        monkeypatch.undo()
        on_disk = MeasurementStore(str(tmp_path)).log_records("p1")
        assert store.log_records("p1") == on_disk
        store.ingest([rec(61.0, 2000), rec(62.0, 3000)])
        assert [r.value for r in MeasurementStore(str(tmp_path)).log_records("p1")] == [
            60.0, 61.0, 62.0]

    def test_midfile_corruption_is_integrity_error(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 1000), rec(61.0, 2000)])
        path = os.path.join(str(tmp_path), "p1.jsonl")
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        lines.insert(1, "garbage not json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        store.ingest([rec(70.0, 1000, patient="p2")])
        reloaded = MeasurementStore(str(tmp_path))  # logs load per patient on first use
        with pytest.raises(IntegrityError, match=r"p1\.jsonl line 2"):
            reloaded.records("p1")
        assert [r.value for r in reloaded.records("p2")] == [70.0]


class TestTransmissionCursor:
    def test_exactly_once_coverage(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 5000), rec(61.0, 6000), rec(62.0, 7000)])
        first = store.untransmitted("p1")
        assert len(first) == 3
        store.mark_transmitted("p1", len(first))
        assert store.untransmitted("p1") == []
        # a late-arriving older record must still be covered by the next batch
        store.ingest([rec(59.0, 1000), rec(63.0, 8000)])
        second = store.untransmitted("p1")
        assert [r.timestamp_ms for r in second] == [1000, 8000]
        store.mark_transmitted("p1", len(second))
        assert store.untransmitted("p1") == []
        assert first + second == store.log_records("p1")

    def test_cursor_survives_reload(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 5000), rec(61.0, 6000)])
        store.mark_transmitted("p1", 1)
        reloaded = MeasurementStore(str(tmp_path))
        assert reloaded.cursor("p1") == 1
        assert [r.timestamp_ms for r in reloaded.untransmitted("p1")] == [6000]

    def test_scheduled_send_committed_with_cursor(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 5000), rec(61.0, 6000)])
        assert store.last_scheduled_send("p1") is None
        store.mark_transmitted("p1", 1, scheduled_at_ms=7000)
        store.mark_transmitted("p1", 1)  # an immediate send keeps the slot time
        assert json.loads((tmp_path / "p1.cursor").read_text()) == {
            "sent": 2, "last_scheduled_ms": 7000}
        reloaded = MeasurementStore(str(tmp_path))
        assert (reloaded.cursor("p1"), reloaded.last_scheduled_send("p1")) == (2, 7000)
        assert sorted(os.listdir(str(tmp_path))) == ["p1.cursor", "p1.jsonl"]

    def test_cursor_without_scheduled_send_loads(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 5000)])
        (tmp_path / "p1.cursor").write_text('{"sent": 1}')
        assert (store.cursor("p1"), store.last_scheduled_send("p1")) == (1, None)

    def test_sidecar_read_once_per_store(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 5000)])
        store.mark_transmitted("p1", 1, scheduled_at_ms=7000)
        reloaded = MeasurementStore(str(tmp_path))
        assert reloaded.cursor("p1") == 1
        os.remove(str(tmp_path / "p1.cursor"))
        assert (reloaded.cursor("p1"), reloaded.last_scheduled_send("p1")) == (1, 7000)

    @pytest.mark.parametrize("fail", ["fsync", "replace"])
    def test_failed_commit_keeps_state(self, tmp_path, monkeypatch, fail):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 5000), rec(61.0, 6000)])
        store.mark_transmitted("p1", 1, scheduled_at_ms=7000)
        sidecar = (tmp_path / "p1.cursor").read_bytes()

        def crash(*args):
            raise OSError("disk gone")

        monkeypatch.setattr(os, fail, crash)
        with pytest.raises(OSError):
            store.mark_transmitted("p1", 1, scheduled_at_ms=8000)
        monkeypatch.undo()
        assert sorted(os.listdir(str(tmp_path))) == ["p1.cursor", "p1.jsonl"]
        assert (tmp_path / "p1.cursor").read_bytes() == sidecar
        assert (store.cursor("p1"), store.last_scheduled_send("p1")) == (1, 7000)
        reloaded = MeasurementStore(str(tmp_path))
        assert (reloaded.cursor("p1"), reloaded.last_scheduled_send("p1")) == (1, 7000)

    @pytest.mark.parametrize("text", [
        "5", "[1]", '{"sent": null}', '{"sent": "x"}', "{}", "{", '{"sent": -1}',
        '{"sent": 1.5}', '{"sent": true}', '{"sent": 2}',
        '{"sent": 0, "last_scheduled_ms": "x"}', '{"sent": 0, "last_scheduled_ms": true}',
        '{"sent": 0, "last_scheduled_ms": 1.5}'])
    def test_corrupt_cursor_names_its_file(self, tmp_path, text):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 5000)])  # one record, so "sent": 2 lies beyond the log
        (tmp_path / "p1.cursor").write_text(text)
        with pytest.raises(IntegrityError, match=r"corrupt cursor file .*p1\.cursor$"):
            store.cursor("p1")

    def test_overmark_rejected(self, tmp_path):
        store = MeasurementStore(str(tmp_path))
        store.ingest([rec(60.0, 5000)])
        with pytest.raises(ValueError):
            store.mark_transmitted("p1", 2)
        with pytest.raises(ValueError):
            store.mark_transmitted("p1", -1)


def alarm(rule="hr-high", patient="p1", fired=5000):
    return Alert(rule, patient, Severity.ALARM, fired,
                 (rec(130.0, 4000, patient=patient),))


def light(rule="stress-index", patient="p1", fired=5000):
    return Alert(rule, patient, Severity.LIGHT_ALERT, fired, ())


class TestDecideTransmission:
    SCHED = DailySchedule("20:00")

    def ms(self, day, hh, mm=0):
        return day * DAY + (hh * 60 + mm) * 60000

    def test_alarm_is_immediate(self):
        now = self.ms(10, 9)
        decision = decide_transmission([alarm()], self.SCHED, now,
                                       last_scheduled_send_ms=now - 1)
        assert decision is TransmissionDecision.IMMEDIATE

    def test_first_contact_is_scheduled(self):
        assert decide_transmission([], self.SCHED, self.ms(10, 9)) \
            is TransmissionDecision.SCHEDULED

    def test_slot_passed_since_last_send(self):
        now = self.ms(10, 21)
        last = self.ms(9, 20, 30)
        assert decide_transmission([], self.SCHED, now, last) \
            is TransmissionDecision.SCHEDULED

    def test_hold_between_slots(self):
        now = self.ms(10, 21)
        last = self.ms(10, 20, 30)
        assert decide_transmission([], self.SCHED, now, last) \
            is TransmissionDecision.HOLD

    def test_hold_before_todays_slot(self):
        now = self.ms(10, 9)
        last = self.ms(9, 20)
        assert decide_transmission([], self.SCHED, now, last) \
            is TransmissionDecision.HOLD

    def test_light_alerts_never_immediate(self):
        for hh in range(24):
            decision = decide_transmission([light()], self.SCHED, self.ms(10, hh),
                                           self.ms(9, 23))
            assert decision is not TransmissionDecision.IMMEDIATE


class TestMessageXml:
    def empty_message(self):
        return OutboundMessage("p1", 1723456789123, Urgency.SCHEDULED, (), (), ())

    def alarm_message(self):
        return OutboundMessage(
            "p1", 1723456789123, Urgency.IMMEDIATE,
            (alarm(),),
            (("mean_heart_rate_bpm", 130.25), ("drug_adherence", "full")),
            (rec(130.0, 4000), rec(97.5, 4500, kind=MeasurementKind.SPO2)),
        )

    def test_single_line_with_self_closed_sections(self):
        xml = build_message_xml(self.empty_message())
        assert xml.startswith('<?xml version="1.0" encoding="UTF-8"?>\n')
        body = xml.split("\n", 1)[1]
        assert "\n" not in body
        assert "<alerts/>" in body
        assert "<features/>" in body
        assert "<measurements/>" in body
        assert 'created="2024-08-12T09:59:49.123Z"' in body

    def test_alarm_message_content(self):
        xml = build_message_xml(self.alarm_message())
        assert 'urgency="IMMEDIATE"' in xml
        assert 'severity="ALARM"' in xml
        assert 'rule="hr-high"' in xml
        assert 'value="130.25"' in xml
        assert 'code="full"' in xml

    def test_urgency_alarm_invariant(self):
        msg = OutboundMessage("p1", 0, Urgency.IMMEDIATE, (), (), ())
        with pytest.raises(IntegrityError):
            build_message_xml(msg)
        msg = OutboundMessage("p1", 0, Urgency.SCHEDULED, (alarm(),), (), ())
        with pytest.raises(IntegrityError):
            build_message_xml(msg)

    def test_parse_checks_the_urgency_alarm_invariant(self):
        scheduled = build_message_xml(self.empty_message())
        with pytest.raises(IntegrityError, match="urgency IMMEDIATE does not match"):
            parse_message_xml(scheduled.replace('urgency="SCHEDULED"', 'urgency="IMMEDIATE"'))
        immediate = build_message_xml(self.alarm_message())
        with pytest.raises(IntegrityError, match="urgency SCHEDULED does not match"):
            parse_message_xml(immediate.replace('urgency="IMMEDIATE"', 'urgency="SCHEDULED"'))

    def test_builds_are_byte_identical(self):
        assert build_message_xml(self.alarm_message()) == \
            build_message_xml(self.alarm_message())

    def test_parse_inverts_build(self):
        for msg in (self.empty_message(), self.alarm_message()):
            xml = build_message_xml(msg)
            parsed = parse_message_xml(xml)
            assert parsed == msg
            assert build_message_xml(parsed) == xml

    def test_attribute_escaping_round_trips(self):
        msg = OutboundMessage(
            "p1", 1000, Urgency.SCHEDULED, (),
            (('food "sweets" & snacks', "often<daily>"),),
            (rec(61.0, 500, name='lead "II" & aux'),),
        )
        xml = build_message_xml(msg)
        assert parse_message_xml(xml) == msg

    def test_millisecond_timestamps_survive(self):
        for ms in (0, 999, 1723456789123, 4102444799999):
            msg = OutboundMessage("p1", ms, Urgency.SCHEDULED, (), (), ())
            assert parse_message_xml(build_message_xml(msg)).created_at_ms == ms

    def test_unknown_section_rejected(self):
        xml = build_message_xml(self.empty_message())
        bad = xml.replace("<alerts/>", "<junk/>")
        with pytest.raises(SchemaMismatchError):
            parse_message_xml(bad)

    def test_wrong_root_or_schema_rejected(self):
        with pytest.raises(SchemaMismatchError):
            parse_message_xml("<other/>")
        xml = build_message_xml(self.empty_message())
        with pytest.raises(SchemaMismatchError):
            parse_message_xml(xml.replace('schema="1"', 'schema="9"'))
        with pytest.raises(SchemaMismatchError):
            parse_message_xml("<chronious-msg schema='1'")

    def test_float_values_keep_full_precision(self):
        value = 123.45678901234567
        msg = OutboundMessage("p1", 0, Urgency.SCHEDULED, (),
                              (("sdnn_ms", value),), ())
        parsed = parse_message_xml(build_message_xml(msg))
        assert parsed.features[0][1] == value
