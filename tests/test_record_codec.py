"""The per-record codecs against their oracle (tests/messaging_reference.py):
the outbound `<measurement>`/`<evidence>` element and the store's log line
parser. Property tests draw every kind and mode, names from the whole XML
1.0 character range (markup characters, tab, CR and LF included) and
values at the edges of the float range."""

import json
import os
import tempfile
from xml.sax import saxutils

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgevitals.errors import IntegrityError
from edgevitals.messaging import (
    OutboundMessage,
    Urgency,
    _record_xml,
    build_message_xml,
    parse_message_xml,
    quoteattr,
)
from edgevitals.rules import (
    AcquisitionMode,
    Alert,
    MeasurementKind,
    MeasurementRecord,
    Severity,
)
from edgevitals.store import MeasurementStore, _record_to_line
from messaging_reference import _record_from_doc, load_log, record_xml

XML_CHARS = st.one_of(
    st.sampled_from("&<>\"'\t\r\n"),
    st.characters(min_codepoint=0x20, max_codepoint=0xD7FF),
    st.characters(min_codepoint=0xE000, max_codepoint=0xFFFD),
    st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF),
)
NAMES = st.text(XML_CHARS, max_size=12)
VALUES = st.one_of(
    st.integers(-10**12, 10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2]),
)
TIMESTAMPS = st.integers(-2**53, 2**53)


RECORDS = st.builds(MeasurementRecord, st.just("p1"), st.sampled_from(MeasurementKind),
                    VALUES, TIMESTAMPS, st.sampled_from(AcquisitionMode), NAMES)


class TestQuoteattr:
    """messaging.quoteattr against xml.sax.saxutils.quoteattr, the oracle."""

    @pytest.mark.parametrize("text", ["", "plain", 'a"b', "a'b", "a'\"b", "\"'\"'",
                                      "&amp;", "<&>", "\t\r\n", "&quot;'\""])
    def test_pinned_values(self, text):
        assert quoteattr(text) == saxutils.quoteattr(text)

    @settings(max_examples=300, deadline=None)
    @given(st.text(st.one_of(st.sampled_from("\"'&<>\t\r\n;#"), XML_CHARS,
                             st.characters()), max_size=16))
    def test_bytes_match_saxutils(self, text):
        ours, oracle = quoteattr(text), saxutils.quoteattr(text)
        assert ours.encode("utf-8", "surrogatepass") == oracle.encode("utf-8", "surrogatepass")


class TestRecordXml:
    @pytest.mark.parametrize("tag", ["measurement", "evidence"])
    def test_every_kind_and_mode_matches_oracle(self, tag):
        for kind in MeasurementKind:
            for mode in AcquisitionMode:
                for name in ("", "a&b<c>\"d'e\tf\rg\nh"):
                    r = MeasurementRecord("p1", kind, 36.6, 1720000000123, mode, name)
                    assert _record_xml(tag, r) == record_xml(tag, r)

    @settings(max_examples=400, deadline=None)
    @given(RECORDS, st.sampled_from(["measurement", "evidence"]))
    def test_bytes_match_oracle(self, r, tag):
        assert _record_xml(tag, r).encode("utf-8") == record_xml(tag, r).encode("utf-8")

    @settings(max_examples=150, deadline=None)
    @given(st.lists(RECORDS, max_size=8), st.lists(RECORDS, min_size=1, max_size=3),
           st.booleans())
    def test_build_parse_round_trip(self, measurements, evidence, alarm):
        alert = Alert("r-1", "p1", Severity.ALARM if alarm else Severity.LIGHT_ALERT,
                      1720000000123, tuple(evidence))
        message = OutboundMessage(
            patient_id="p1", created_at_ms=1720000000123,
            urgency=Urgency.IMMEDIATE if alarm else Urgency.SCHEDULED,
            alerts=(alert,), features=(("sdnn_ms", 41.5),),
            measurements=tuple(measurements))
        assert parse_message_xml(build_message_xml(message)) == message


# inputs an ingest caller can hand the store, most of which it must refuse
_ABSENT = object()  # no "mode" key in the dict; the record's default mode
ANY_KINDS = st.one_of(st.sampled_from(MeasurementKind),
                      st.sampled_from([k.value for k in MeasurementKind]),
                      st.sampled_from(["NOT_A_KIND", "heart_rate", "", None]))
ANY_MODES = st.one_of(st.just(_ABSENT), st.sampled_from(AcquisitionMode),
                      st.sampled_from(["SILENT", "NOSILENT", "LOUD", None]))
ANY_VALUES = st.one_of(VALUES, st.booleans(), st.text(max_size=3),
                       st.sampled_from([float("nan"), 1e400, -1e400, 10**400, -10**400]))
ANY_TIMESTAMPS = st.one_of(TIMESTAMPS, st.floats(), st.booleans(), st.text(max_size=3))
ANY_NAMES = st.one_of(
    st.text(st.one_of(XML_CHARS, st.sampled_from(
        "\x00\x01\x08\x0b\x0c\x1f\ud800\udbff\udc00\udfff\ufffe\uffff")), max_size=6),
    st.integers(0, 9))
SEED = MeasurementRecord("p1", MeasurementKind.FEATURE, 1.0, -2**60, name="seed")


def files(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestStoreRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(RECORDS, max_size=12, unique_by=lambda r: r.key()))
    def test_ingest_then_fresh_store_returns_equal_records(self, recs):
        with tempfile.TemporaryDirectory() as root:
            assert MeasurementStore(root).ingest(recs).appended == len(recs)
            loaded = MeasurementStore(root).log_records("p1")
        assert loaded == recs
        assert [r.key() for r in loaded] == [r.key() for r in recs]

    # ingest either rejects an input, leaving every file as it was, or
    # appends a line that a fresh store reads back as the same record: it
    # cannot write what _load_patient refuses
    @settings(max_examples=200, deadline=None)
    @given(st.booleans(), st.sampled_from(["p1", "p-2", "../p1"]), ANY_KINDS, ANY_VALUES,
           ANY_TIMESTAMPS, ANY_MODES, ANY_NAMES)
    @example(as_record=False, patient="p1", kind="HEART_RATE", value=60.0, ts=1000.5,
             mode=_ABSENT, name="")
    @example(as_record=True, patient="p1", kind=MeasurementKind.HEART_RATE, value=60.0,
             ts=1000.5, mode=_ABSENT, name="")
    def test_ingest_appends_only_what_a_fresh_store_reads_back(
            self, as_record, patient, kind, value, ts, mode, name):
        modes = {} if mode is _ABSENT else {"mode": mode}
        if as_record:
            try:
                item = MeasurementRecord(patient, kind, value, ts, name=name, **modes)
            except ValueError:
                return  # the record refuses itself; nothing reaches the store
        else:
            item = {"patient_id": patient, "kind": kind, "value": value,
                    "timestamp_ms": ts, "name": name, **modes}
        with tempfile.TemporaryDirectory() as root:
            store = MeasurementStore(root)
            store.ingest([SEED])
            before = files(root)
            try:
                result = store.ingest([item])
            except ValueError as exc:
                assert patient == "../p1" and "not filesystem-safe" in str(exc)
                assert files(root) == before
                return
            if result.rejections:
                ((rejected, reason),) = result.rejections
                assert rejected is item and reason and result.appended == 0
                assert files(root) == before
                return
            assert result.appended == 1
            expected = MeasurementRecord(
                patient, MeasurementKind(kind), value, ts,
                AcquisitionMode(modes.get("mode", "NOSILENT")), name)
            assert store.log_records(patient)[-1] == expected
            assert MeasurementStore(root).log_records(patient) == store.log_records(patient)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=6)
FIELD_VALUES = {
    "patient": st.one_of(st.just("p1"), JSON_VALUES),
    "kind": st.one_of(st.sampled_from([k.value for k in MeasurementKind]),
                      st.sampled_from(["", "heart_rate", "NOPE"]), JSON_VALUES),
    "value": st.one_of(VALUES, st.sampled_from(["1.5", "abc", 10**400]),
                       st.floats(), JSON_VALUES),
    "ts": st.one_of(TIMESTAMPS, st.sampled_from(["12", 1.7]), JSON_VALUES),
    "mode": st.one_of(st.sampled_from([m.value for m in AcquisitionMode]), JSON_VALUES),
    "name": st.one_of(NAMES, JSON_VALUES),
}


@st.composite
def record_docs(draw):
    """A record document; each field present or not, well-typed or not."""
    doc = {}
    for key, values in FIELD_VALUES.items():
        if draw(st.integers(0, 9)):
            doc[key] = draw(values)
    return doc


PADDING = st.text(st.sampled_from(" \t\r\x0b\x0c\xa0\u3000\ufeff"), max_size=3)


@st.composite
def log_lines(draw):
    """One line of a patient log as bytes, without its newline."""
    shape = draw(st.sampled_from(["record", "doc", "json", "text", "bytes"]))
    if shape == "bytes":
        return draw(st.binary(max_size=12)).replace(b"\n", b"")
    if shape == "text":
        return draw(st.text(max_size=12)).replace("\n", "").encode("utf-8", "surrogatepass")
    if shape == "record":
        body = _record_to_line(draw(RECORDS))
    else:
        body = json.dumps(draw(record_docs() if shape == "doc" else JSON_VALUES))
    edit = draw(st.sampled_from(["", "padded", "trailing", "bom", "utf16"]))
    if edit == "padded":
        body = draw(PADDING) + body + draw(PADDING)
    elif edit == "trailing":
        body += draw(st.sampled_from([" {}", "x", " 1", body, "]", ","]))
    elif edit == "bom":
        return b"\xef\xbb\xbf" + body.encode("utf-8")
    elif edit == "utf16":
        return body.encode(draw(st.sampled_from(["utf-16-le", "utf-16-be"]))).replace(b"\n", b"")
    return body.encode("utf-8", "surrogatepass")


def xml_char(c):
    """Whether XML 1.0's Char production admits c."""
    return (c in "\t\n\r" or "\x20" <= c <= "\ud7ff" or "\ue000" <= c <= "\ufffd"
            or c >= "\U00010000")


def typed_from_doc(doc):
    """The oracle's record builder, with each field required to be what
    the store's writer writes: the file's patient (p1), an int ts, an int
    or float value that is no bool and fits a float, and a str name that
    ingest would accept, every character of it one XML 1.0 can carry."""
    if not (doc["patient"] == "p1" and type(doc["ts"]) is int
            and type(doc["value"]) in (int, float) and type(doc.get("name", "")) is str
            and all(map(xml_char, doc.get("name", "")))):
        raise ValueError("field of the wrong type")
    try:
        return _record_from_doc(doc)
    except OverflowError:
        raise ValueError("value does not fit a float") from None


class SurrogateEscaped(bytes):
    """Log bytes that decode as the store decodes them: a byte that is not
    UTF-8 becomes a lone surrogate. Handed to load_log, they run the
    oracle's line loop over the lines the store splits."""

    def decode(self, *args):
        return bytes.decode(self, "utf-8", "surrogateescape")


def outcome(load):
    try:
        return "loaded", load()
    except IntegrityError as exc:
        return "integrity", str(exc)
    except Exception as exc:
        return "raised", type(exc)


GOOD = MeasurementRecord("p1", MeasurementKind.HEART_RATE, 72.0, 1000)
_NAMED = _record_to_line(GOOD)[:-1] + ',"name":"a%sb"}'
# lines the writer never writes, which a store used to load depending on the
# bytes of other lines, or loaded into a message parse_message_xml rejects
NOT_WRITTEN = {
    b"\xef\xbb\xbf" + _record_to_line(GOOD).encode(): "bom",
    _record_to_line(GOOD).encode("utf-16-le"): "utf16",
    (_NAMED % "\xff").encode("latin-1"): "name-byte-ff",
    (_NAMED % "\\u0001").encode(): "name-escaped-u0001",
    (_NAMED % "\\ud800").encode(): "name-escaped-ud800",
    (_NAMED % "\ud800").encode("utf-8", "surrogatepass"): "name-encoded-ed-a0-80",
}


class TestLogParser:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(log_lines(), max_size=5), st.booleans())
    def test_load_matches_oracle(self, lines, terminated):
        data = b"\n".join(lines) + (b"\n" if terminated and lines else b"")
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "p1.jsonl")
            with open(path, "wb") as fh:
                fh.write(data)
            shipped = outcome(lambda: MeasurementStore(root).log_records("p1"))
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            data = SurrogateEscaped(data)
        assert shipped == outcome(lambda: load_log(data, path, typed_from_doc))

    def write(self, tmp_path, text):
        (tmp_path / "p1.jsonl").write_bytes(text.encode("utf-8"))
        return MeasurementStore(str(tmp_path))

    def test_padded_and_crlf_lines_load(self, tmp_path):
        a = MeasurementRecord("p1", MeasurementKind.HEART_RATE, 72.0, 1000)
        b = MeasurementRecord("p1", MeasurementKind.SPO2, 97.5, 2000, AcquisitionMode.SILENT, "x")
        store = self.write(tmp_path, " %s \n%s\r\n" % (_record_to_line(a), _record_to_line(b)))
        assert store.log_records("p1") == [a, b]

    @pytest.mark.parametrize("bad", ['[1, 2]', '"text"', "42", "null", "true",
                                     "{good} {{}}", "{good}x", "{good}{good}", "{good},"])
    def test_non_object_or_trailing_data_names_its_line(self, tmp_path, bad):
        good = _record_to_line(MeasurementRecord("p1", MeasurementKind.HEART_RATE, 72.0, 1000))
        bad = bad.replace("{good}", good).replace("{{}}", "{}")
        store = self.write(tmp_path, "%s\n%s\n%s\n" % (good, bad, good))
        with pytest.raises(IntegrityError, match=r"p1\.jsonl line 2$"):
            store.log_records("p1")

    @pytest.mark.parametrize("fields", [
        '"name":[1]', '"name":{"a":1}', '"name":5', '"value":"61"', '"value":true',
        pytest.param('"value":1' + "0" * 400, id='"value":<401 digits>'),
        '"ts":1e999', '"ts":"2"', '"ts":2.0', '"ts":true', '"patient":"b"', '"patient":["p1"]',
    ])
    def test_field_the_writer_would_not_write_names_its_line(self, tmp_path, fields):
        good = _record_to_line(MeasurementRecord("p1", MeasurementKind.HEART_RATE, 72.0, 1000))
        bad = good[:-1] + "," + fields + "}"  # the later key wins
        store = self.write(tmp_path, "%s\n%s\n%s\n" % (good, bad, good))
        with pytest.raises(IntegrityError, match=r"p1\.jsonl line 2$"):
            store.log_records("p1")

    @pytest.mark.parametrize("bad", list(NOT_WRITTEN), ids=list(NOT_WRITTEN.values()))
    @pytest.mark.parametrize("tail", [b"", b"{\xff"], ids=["no-tail", "undecodable-tail"])
    def test_undecodable_or_unsendable_line_names_its_line(self, tmp_path, bad, tail):
        # whether the rest of the log decodes as UTF-8 does not matter
        good = _record_to_line(GOOD).encode()
        (tmp_path / "p1.jsonl").write_bytes(b"%s\n%s\n%s\n%s" % (good, bad, good, tail))
        with pytest.raises(IntegrityError, match=r"p1\.jsonl line 2$"):
            MeasurementStore(str(tmp_path)).log_records("p1")

    @pytest.mark.parametrize("bad", list(NOT_WRITTEN), ids=list(NOT_WRITTEN.values()))
    def test_same_bytes_as_a_torn_tail_are_dropped_and_cut_off(self, tmp_path, bad):
        good = _record_to_line(GOOD).encode() + b"\n"
        path = tmp_path / "p1.jsonl"
        path.write_bytes(good + bad)
        store = MeasurementStore(str(tmp_path))
        assert store.log_records("p1") == [GOOD]
        later = MeasurementRecord("p1", MeasurementKind.SPO2, 97.0, 2000)
        assert store.ingest([later]).appended == 1
        assert path.read_bytes() == good + _record_to_line(later).encode() + b"\n"
        assert MeasurementStore(str(tmp_path)).log_records("p1") == [GOOD, later]
