"""Document ingestion: error codes, round trips, profile documents."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import itertools
import json
import os
import pickle
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    LONE_SURROGATE_MUTATIONS,
    compliant_document,
    document_bytes,
    failing_variants,
    find,
    prefixed,
    variant,
)
from gdpr_engine import evaluate_all, ingest, load_instance, load_profile, serialize_instance
from gdpr_engine.ingest import (
    BAD_LITERAL,
    DANGLING_REF,
    DUPLICATE_ID,
    INVARIANT,
    LoadError,
    SCHEMA,
    SYNTAX,
    UNKNOWN_CLASS,
    UNKNOWN_VARIATION,
    graph_fingerprint,
    serialize_profile,
)
from gdpr_engine.timebase import (_FIRST_MINUTE, _LAST_MINUTE, TimestampError,
                                  TimestampRangeError, minutes_to_iso, parse_minutes)
from gdpr_engine.variability import Resolution, build_profile


def doc_bytes(objects: list) -> bytes:
    return json.dumps({"schemaVersion": "1", "objects": objects}).encode()


def expect_code(data: bytes, code: str) -> LoadError:
    with pytest.raises(LoadError) as excinfo:
        load_instance(data)
    assert excinfo.value.code == code
    return excinfo.value


def test_minimal_document_loads_one_object():
    graph = load_instance(doc_bytes([
        {"id": "LU", "class": "Country",
         "attrs": {"code": "LU", "isEUMemberState": True,
                   "EULawApplies": True}}]))
    assert len(graph) == 1
    assert graph["LU"].code == "LU"


def test_syntax_errors_report_position():
    error = expect_code(b'{"objects": [', SYNTAX)
    assert error.line == 1
    assert error.column is not None


def test_unknown_class_error():
    expect_code(doc_bytes([{"id": "x", "class": "Quantum_Flux"}]), UNKNOWN_CLASS)


def test_abstract_class_cannot_be_instantiated():
    error = expect_code(doc_bytes([{"id": "x", "class": "Actor",
                                    "attrs": {"kind": "ENTERPRISE"}}]),
                        UNKNOWN_CLASS)
    assert "abstract" in str(error)


def test_duplicate_id_error():
    expect_code(doc_bytes([
        {"id": "x", "class": "Country", "attrs": {"code": "LU"}},
        {"id": "x", "class": "Country", "attrs": {"code": "DE"}}]),
        DUPLICATE_ID)


def test_dangling_reference_error():
    expect_code(doc_bytes([
        {"id": "purp", "class": "Purpose", "attrs": {"legalBasis": "BY_CONSENT"}},
        {"id": "c", "class": "Consent", "attrs": {},
         "refs": {"givenBy": "ghost", "givenFor": ["purp"]}}]),
        DANGLING_REF)


def test_bad_literal_error():
    expect_code(doc_bytes([
        {"id": "purp", "class": "Purpose", "attrs": {"legalBasis": "VIBES"}}]),
        BAD_LITERAL)


def test_invariant_violations_abort_the_load():
    error = expect_code(doc_bytes([
        {"id": "s", "class": "Data_Subject", "attrs": {"ageYears": 20},
         "refs": {"residence": "LU"}},
        {"id": "LU", "class": "Country",
         "attrs": {"code": "LU", "isEUMemberState": True,
                   "EULawApplies": True}},
        {"id": "c", "class": "Consent", "attrs": {},
         "refs": {"givenBy": "s", "givenFor": []}}]),
        INVARIANT)
    assert error.violations


def test_unknown_top_level_key_rejected():
    with pytest.raises(LoadError) as excinfo:
        load_instance(json.dumps({"objects": [], "extra": 1}).encode())
    assert excinfo.value.code == SCHEMA


def test_unsupported_schema_version_rejected():
    with pytest.raises(LoadError) as excinfo:
        load_instance(json.dumps({"schemaVersion": "2", "objects": []}).encode())
    assert excinfo.value.code == SCHEMA


def test_unknown_attr_rejected():
    expect_code(doc_bytes([
        {"id": "LU", "class": "Country",
         "attrs": {"code": "LU", "anthem": "Ons Heemecht"}}]), SCHEMA)


def test_unknown_attrs_and_refs_are_listed_in_sorted_order():
    error = expect_code(doc_bytes([
        {"id": "LU", "class": "Country",
         "attrs": {"code": "LU", "zeta": 1, "basis": {}, "alpha": 2}}]), SCHEMA)
    assert str(error) == ("SCHEMA (object 'LU'): Country does not define "
                          "attrs: alpha, basis, zeta")
    error = expect_code(doc_bytes([
        {"id": "t", "class": "Data_Transfer",
         "attrs": {"basis": {"kind": "IntraEU"}},
         "refs": {"to": "LU", "via": "DE", "from": "LU", "by": "x"}}]), SCHEMA)
    assert str(error) == ("SCHEMA (object 't'): Data_Transfer does not define "
                          "refs: by, via")


@pytest.mark.parametrize("stamp", ["9999-12-31T23:59:59-05:00",
                                   "0001-01-01T00:00:00+01:00"])
def test_timestamp_outside_years_1_to_9999_in_utc_is_rejected(stamp):
    document = compliant_document()
    find(document, "cert1")["attrs"]["issuedAt"] = stamp
    error = expect_code(document_bytes(document), SCHEMA)
    assert error.object_id == "cert1"
    assert str(error) == (f"SCHEMA (object 'cert1'): Certification.issuedAt: "
                          f"timestamp {stamp!r} falls outside years 1-9999 in UTC")


def test_consultation_timestamp_outside_years_1_to_9999_keeps_the_reason():
    document = compliant_document()
    consultation = find(document, "dpia1")["attrs"]["consultation"]
    consultation["adviceAt"] = "9999-12-31T23:59:59-05:00"
    error = expect_code(document_bytes(document), SCHEMA)
    assert str(error) == ("SCHEMA (object 'dpia1'): consultation.adviceAt: "
                          "timestamp '9999-12-31T23:59:59-05:00' falls outside "
                          "years 1-9999 in UTC")


@pytest.mark.parametrize("stamp", ["yesterday", "2023-13-01T00:00:00Z", 20230101])
def test_malformed_timestamps_keep_the_iso_8601_message(stamp):
    document = compliant_document()
    find(document, "cert1")["attrs"]["issuedAt"] = stamp
    error = expect_code(document_bytes(document), SCHEMA)
    assert str(error) == ("SCHEMA (object 'cert1'): Certification.issuedAt "
                          "must be an ISO-8601 timestamp")
    document = compliant_document()
    find(document, "dpia1")["attrs"]["consultation"]["requestedAt"] = stamp
    error = expect_code(document_bytes(document), SCHEMA)
    assert str(error) == ("SCHEMA (object 'dpia1'): consultation.requestedAt "
                          "must be an ISO-8601 timestamp")


@pytest.mark.parametrize("stamp, minutes", [
    ("1970-01-01T00:00:00Z", 0),
    ("1969-12-31T23:59:00Z", -1),
    ("1969-12-31T23:59:59.5Z", -1),
    ("1969-12-31T23:58:00.000001Z", -2),
    ("1970-01-01T00:00:59.999999Z", 0),
    ("1970-01-01T00:59:00+01:00", -1),
])
def test_parse_minutes_floors_onto_the_minute_grid(stamp, minutes):
    assert parse_minutes(stamp) == minutes


# The timestamp grammar, with literal outcomes: minutes, ERROR or RANGE. Rows
# marked * changed on some supported Python: datetime.fromisoformat accepted
# them on 3.11 and later only, or (the stray Z) on 3.10 only.
ERROR, RANGE = "error", "range"
TIMESTAMP_GRAMMAR = [
    ("1970-01-01T00:00:00Z", 0),
    ("1969-12-31T23:59:59.5Z", -1),  # *
    ("2023-06-01T00:00:00.5Z", 28092960),  # *
    ("2023-06-01T00:00:00.1234567Z", 28092960),  # *
    ("9999-12-31T23:59:59.9999999Z", 4223371679),  # *
    ("2023-06-01T12.5", 28093680),  # *
    ("2023-06-01T12:30:45.1234567+01:00", 28093650),  # *
    ("2023-06-01T12:30+01:00:00.5", 28093649),  # *
    ("1970-01-01T00:01:00+00:00:01.5", 0),  # *
    ("0001-01-01T00:00:00+00:00:00.5", _FIRST_MINUTE),  # *
    ("2023-06-01T00:00:00+0100", ERROR),  # *
    ("2023-06-01T00:00:00+01", ERROR),  # *
    ("20230601T000000Z", ERROR),  # *
    ("2023-W22-4", ERROR),  # *
    ("2023-06-01T00:00:00,5Z", ERROR),  # *
    ("2023-06-01T12Z+01:00", ERROR),  # *
    ("2023-06-01", 28092960),
    ("2023-06-01 12:30", 28093710),
    ("2023-06-01é12:30", 28093710),
    ("2023-06-01T12", 28093680),
    (" 2023-06-01T12:30Z\n", 28093710),
    ("2023-06-01t12:30z", 28093710),
    ("2023-06-01T12:30:45.123+01:00", 28093650),
    ("2023-06-01T12:30:45:123456+05:30", 28093380),
    ("2023-06-01T12:30-23:59", 28095149),
    ("2023-06-01T12:30+00:99", 28093611),
    ("1970-01-01T00:01:00+00:00:00.000001", 1),
    ("1970-01-01T00:01:00-00:00:00.999999", 1),
    ("1970-01-01T00:01:00-00:00:01.000001", 1),
    ("1970-01-01T00:00:59.999999+00:00:59:999999", 0),
    ("2023-06-01T12x+01:00", 28093620),
    ("2023-06-01T12:30:45.+01:00", 28093650),
    ("2023-06-01T12\x00", 28093680),
    ("2023-06-01T12x", ERROR),
    ("2023-06-01T24:00:00Z", ERROR),
    ("2023-06-01T23:59:60Z", ERROR),
    ("2023-06-01T12:30+24:00", ERROR),
    ("\uff12023-06-01", ERROR),
    ("2023-6-01", ERROR),
    ("2023-02-29", ERROR),
    ("0000-12-31T23:59Z", ERROR),
    ("0001-01-01T00:00:00+00:00:01", RANGE),
    ("yesterday", ERROR),
    ("", ERROR),
]


@pytest.mark.parametrize("stamp, outcome", TIMESTAMP_GRAMMAR)
def test_timestamps_parse_by_one_grammar(stamp, outcome):
    if outcome == ERROR:
        with pytest.raises(TimestampError) as caught:
            parse_minutes(stamp)
        assert not isinstance(caught.value, TimestampRangeError)
    elif outcome == RANGE:
        with pytest.raises(TimestampRangeError):
            parse_minutes(stamp)
    else:
        assert parse_minutes(stamp) == outcome


def test_parse_minutes_accepts_the_last_microsecond_of_year_9999():
    last = parse_minutes("9999-12-31T23:59:00Z")
    assert parse_minutes("9999-12-31T23:59:59.999999Z") == last
    with pytest.raises(TimestampError):
        parse_minutes("9999-12-31T23:59:59.999999-00:01")


@pytest.mark.parametrize("minutes, stamp", [
    (0, "1970-01-01T00:00:00Z"), (-1, "1969-12-31T23:59:00Z"),
    (_FIRST_MINUTE, "0001-01-01T00:00:00Z"), (_LAST_MINUTE, "9999-12-31T23:59:00Z"),
])
def test_minutes_to_iso_pads_the_year_and_ends_in_z(minutes, stamp):
    assert minutes_to_iso(minutes) == stamp


@settings(max_examples=300)
@given(st.integers(min_value=_FIRST_MINUTE, max_value=_LAST_MINUTE))
def test_minutes_to_iso_is_read_back_by_parse_minutes(minutes):
    assert parse_minutes(minutes_to_iso(minutes)) == minutes


@pytest.mark.parametrize("stamp, printed", [
    ("9999-12-31T23:59:59Z", "9999-12-31T23:59:00Z"),
    ("0001-01-01T00:00:00Z", "0001-01-01T00:00:00Z"),
])
def test_timestamps_at_the_ends_of_years_1_to_9999_load_and_evaluate(
        stamp, printed, generic_profile):
    document = compliant_document()
    find(document, "cert1")["attrs"]["issuedAt"] = stamp
    graph = load_instance(document_bytes(document), generic_profile)
    report = evaluate_all(graph, generic_profile, check_date=stamp)
    assert report.checkDate == printed


def test_extended_literal_requires_the_extending_resolution():
    document = doc_bytes([
        {"id": "d", "class": "DPIA",
         "attrs": {"residualRisk": "LOW",
                   "information": ["EMPLOYMENT_ASSESSMENT"]}}])
    expect_code(document, BAD_LITERAL)

    profile = build_profile([Resolution("V16", {})])
    graph = load_instance(document, profile)
    assert "EMPLOYMENT_ASSESSMENT" in graph["d"].information


def test_church_actor_kind_requires_v20():
    document = doc_bytes([
        {"id": "LU", "class": "Country",
         "attrs": {"code": "LU", "isEUMemberState": True, "EULawApplies": True}},
        {"id": "a", "class": "Data_Controller",
         "attrs": {"kind": "CHURCH_OR_RELIGIOUS_ORGANIZATION"},
         "refs": {"countries": ["LU"]}}])
    expect_code(document, BAD_LITERAL)
    graph = load_instance(document, build_profile([Resolution("V20", {})]))
    assert graph["a"].kind == "CHURCH_OR_RELIGIOUS_ORGANIZATION"


def test_round_trip_is_the_identity(generic_profile):
    document = compliant_document()
    graph = load_instance(document_bytes(document), generic_profile)
    first = serialize_instance(graph)
    again = load_instance(first, generic_profile)
    assert serialize_instance(again) == first
    assert graph_fingerprint(again) == graph_fingerprint(graph)


def test_object_order_is_canonicalized(generic_profile):
    document = compliant_document()
    reversed_doc = {"schemaVersion": "1",
                    "objects": list(reversed(document["objects"]))}
    left = load_instance(document_bytes(document), generic_profile)
    right = load_instance(document_bytes(reversed_doc), generic_profile)
    assert serialize_instance(left) == serialize_instance(right)


def test_class_alias_is_normalized(generic_profile):
    document = compliant_document()
    find(document, "dpia1")["class"] = "Data_Protection_Impact_Assessment"
    graph = load_instance(document_bytes(document), generic_profile)
    assert graph["dpia1"].cls == "Data_Protection_Impact_Assessment"
    canonical = serialize_instance(graph)
    assert "Data_Protection_Impact_Assessment" in canonical


@pytest.mark.parametrize("where", list(LONE_SURROGATE_MUTATIONS))
def test_lone_surrogate_escape_is_a_syntax_error(where):
    document = variant(compliant_document(), LONE_SURROGATE_MUTATIONS[where])
    error = expect_code(document_bytes(document), SYNTAX)
    assert "lone surrogate" in str(error)


@pytest.mark.parametrize("where", list(LONE_SURROGATE_MUTATIONS))
def test_lone_surrogate_in_a_str_argument_is_a_syntax_error(where):
    document = variant(compliant_document(), LONE_SURROGATE_MUTATIONS[where])
    with pytest.raises(LoadError) as excinfo:
        load_instance(json.dumps(document, ensure_ascii=False))
    assert excinfo.value.code == SYNTAX


def test_non_ascii_str_document_loads_without_redumping(monkeypatch,
                                                      generic_profile):
    document = compliant_document()
    find(document, "ctrl")["attrs"]["contactDetails"] = "bureau é"
    text = json.dumps(document, ensure_ascii=False)

    def no_dumps(*args, **kwargs):
        raise AssertionError("the parsed document was dumped again")

    monkeypatch.setattr(ingest.json, "dumps", no_dumps)
    graph = load_instance(text, generic_profile)
    assert graph["ctrl"].contactDetails == "bureau é"


def test_paired_surrogate_escapes_and_escaped_backslashes_stay_valid(
        generic_profile):
    document = compliant_document()
    find(document, "ctrl")["attrs"]["contactDetails"] = "desk \U0001F600"
    find(document, "demo1")["attrs"]["note"] = "C:\\ud800"
    data = document_bytes(document)
    assert b"\\ud83d\\ude00" in data and b"\\\\ud800" in data
    for source in (data, data.decode("ascii"),
                   json.dumps(document, ensure_ascii=False)):
        graph = load_instance(source, generic_profile)
        assert graph["ctrl"].contactDetails == "desk \U0001F600"
        assert graph["demo1"].attrs["note"] == "C:\\ud800"
        canonical = serialize_instance(graph)
        assert graph_fingerprint(graph) == \
            hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Decoding object by object
# ---------------------------------------------------------------------------

def load_outcome(data: bytes | str):
    """The canonical text of the loaded graph, or the LoadError's fields."""
    try:
        return serialize_instance(load_instance(data))
    except LoadError as error:
        return (error.code, error.object_id, error.line, error.column, str(error),
                [(v.code, v.objectId, v.message) for v in error.violations])


def whole_document_outcome(data: bytes | str):
    """``load_outcome`` with the object-by-object stream declining, so the
    document is parsed whole."""
    with mock.patch.object(ingest, "_stream_nodes", lambda text: None):
        return load_outcome(data)


def streamed_outcome(data: bytes | str):
    """``load_outcome`` with the objects array read object by object, as a
    text longer than ``_SCAN_WHOLE`` is."""
    with mock.patch.object(ingest, "_SCAN_WHOLE", 0):
        return load_outcome(data)


@pytest.mark.parametrize("layout", [
    {}, {"indent": 2}, {"indent": "\t"}, {"separators": (",", ":")},
    {"separators": (" ,\r\n ", " : ")}, {"ensure_ascii": False},
])
def test_valid_documents_are_streamed_in_any_layout(monkeypatch, layout):
    document = compliant_document()
    find(document, "ctrl")["attrs"]["contactDetails"] = "bureau é"
    text = json.dumps(document, **layout)
    expected = serialize_instance(load_instance(document_bytes(document)))

    def no_whole_document(text, parsed, surrogates):
        raise AssertionError("the document was parsed whole")

    def no_id_walk(nodes):
        raise AssertionError("the ids of a streamed document were walked")

    monkeypatch.setattr(ingest, "_document_nodes", no_whole_document)
    monkeypatch.setattr(ingest, "_with_unique_ids", no_id_walk)
    monkeypatch.setattr(ingest, "_SCAN_WHOLE", 0)  # so every text is streamed
    for source in (text, " \n" + text + "\r\n\t", text.encode("utf-8")):
        assert serialize_instance(load_instance(source)) == expected


def top_level_texts():
    """Instance texts whose top-level members vary: the objects among valid,
    wrong, unknown and repeated members, then faulty separators, leads and
    tails, then the separators between objects."""
    objects = '"objects": ' + json.dumps(compliant_document()["objects"])
    extras = ['"schemaVersion": "1"', '"schemaVersion": "2"', '"schemaVersion": 1',
              '"objects": []', '"objects": {}', '"zeta": []', '"zeta": 1']
    for count in range(3):
        for chosen in itertools.product(extras, repeat=count):
            for at in range(count + 1):
                members = list(chosen)
                members.insert(at, objects)
                yield "{" + ", ".join(members) + "}"
    for separator in (",", " ,\n\t", " ", "x", "]", ",,", ", }"):
        yield "{" + objects + separator + '"schemaVersion": "1"}'
    for lead in ("", " ", "x", "[", "{{"):
        for tail in ("", " \n", " x", "{}", "]", ","):
            yield lead + "{" + objects + "}" + tail
    yield "{}"
    yield '{"objects": [,]}'
    yield '{"objects": [ ]}'
    yield '{"objects": [] ,"schemaVersion":"1" }'
    items = [json.dumps(o) for o in compliant_document()["objects"]]
    for separator in (",", " ,\n\t", "", " ", "\n", ",,", "x", "]"):
        yield '{"objects": [' + separator.join(items) + "]}"
    for tail in (",", ", ", " ", "\n\t"):
        yield '{"objects": [ ' + ", ".join(items) + tail + "]}"


def test_top_level_members_load_as_a_whole_document_parse_does():
    for text in top_level_texts():
        data = text.encode("utf-8")
        assert streamed_outcome(data) == whole_document_outcome(data), \
            text[:20] + " ... " + text[-40:]


def counted_scans(monkeypatch) -> list[str]:
    """The character at which each ``_DECODER.scan_once`` call starts, from now on."""
    calls = []
    scan = ingest._DECODER.scan_once

    def counted(text, pos):
        calls.append(text[pos])
        return scan(text, pos)

    monkeypatch.setattr(ingest._DECODER, "scan_once", counted)
    return calls


def test_a_short_text_is_parsed_in_one_call(monkeypatch):
    """A text at most ``_SCAN_WHOLE`` long is parsed whole in one
    ``scan_once`` call; a longer one is scanned as the schemaVersion value
    plus one call per object."""
    document = compliant_document()
    text = json.dumps(document)
    assert len(text) <= ingest._SCAN_WHOLE
    calls = counted_scans(monkeypatch)
    expected = serialize_instance(load_instance(text))
    for limit, scanned in [(ingest._SCAN_WHOLE, ["{"]), (len(text), ["{"]),
                           (len(text) - 1, ['"'] + ["{"] * len(document["objects"]))]:
        monkeypatch.setattr(ingest, "_SCAN_WHOLE", limit)
        calls.clear()
        assert serialize_instance(load_instance(text)) == expected
        assert calls == scanned, limit


def test_a_short_faulty_text_is_read_once(monkeypatch):
    """A short text is not streamed first, so its fault costs one parse."""
    document = compliant_document()
    document["objects"][-1]["attrs"] = 5
    text = json.dumps(document)
    assert len(text) <= ingest._SCAN_WHOLE
    calls = counted_scans(monkeypatch)
    with pytest.raises(LoadError) as caught:
        load_instance(text)
    assert str(caught.value) == "SCHEMA (object 'inf1'): attrs must be an object"
    assert calls == ["{"]


def test_a_long_text_that_may_hold_a_lone_surrogate_is_parsed_whole(monkeypatch):
    """A text longer than ``_SCAN_WHOLE`` with a surrogate escape, or a str
    with a raw surrogate, is not streamed: the whole parse rejects it."""
    document = variant(compliant_document(), LONE_SURROGATE_MUTATIONS["attr value"])
    find(document, "demo1")["attrs"]["pad"] = "x" * ingest._SCAN_WHOLE

    def no_stream(text):
        raise AssertionError("a text that may hold a lone surrogate was streamed")

    monkeypatch.setattr(ingest, "_stream_nodes", no_stream)
    for source in (document_bytes(document), json.dumps(document, ensure_ascii=False)):
        assert len(source) > ingest._SCAN_WHOLE
        with pytest.raises(LoadError) as caught:
            load_instance(source)
        assert caught.value.code == SYNTAX
        assert "lone surrogate U+D800" in str(caught.value)


def test_a_lone_surrogate_a_repeated_key_shadows_loads_raw_or_escaped():
    """Only the parsed strings are judged: under an ``objects`` key that a
    later one shadows, a raw surrogate in a str and its escape in bytes are
    both dropped, and both texts load the later objects."""
    kept = compliant_document()
    shadowed = variant(kept, LONE_SURROGATE_MUTATIONS["attr value"])
    tail = ', "objects": ' + json.dumps(kept["objects"]) + "}"
    raw = '{"objects": ' + json.dumps(shadowed["objects"], ensure_ascii=False) + tail
    escaped = ('{"objects": ' + json.dumps(shadowed["objects"]) + tail).encode("utf-8")
    assert "\ud800" in raw and b"\\ud800" in escaped
    expected = serialize_instance(load_instance(document_bytes(kept)))
    assert load_outcome(raw) == load_outcome(escaped) == expected


def test_timestamps_of_a_declined_stream_do_not_reach_the_graph():
    """Two ``objects`` keys: the stream declines the repeated key and the
    whole-document parse keeps the last array. A later timestamp that only
    the first array holds must not become the graph's latest instant."""
    kept = compliant_document()
    dropped = variant(kept, lambda d: find(d, "breach1")["attrs"].update(
        detectedAt="2031-07-01T00:00:00Z"))
    text = ('{"objects": ' + json.dumps(dropped["objects"])
            + ', "objects": ' + json.dumps(kept["objects"]) + "}")
    profile = build_profile([])
    expected = load_instance(document_bytes(kept))
    with mock.patch.object(ingest, "_stream_nodes", lambda text: None):
        whole = load_instance(text.encode("utf-8"))
    with mock.patch.object(ingest, "_SCAN_WHOLE", 0):  # so the text is streamed first
        graph = load_instance(text.encode("utf-8"))
    assert graph.latest_minutes() == whole.latest_minutes() == expected.latest_minutes()
    assert graph.latest_minutes() < parse_minutes("2031-07-01T00:00:00Z")
    check_date = evaluate_all(graph, profile).to_payload()["checkDate"]
    assert check_date == evaluate_all(whole, profile).to_payload()["checkDate"]
    assert check_date == evaluate_all(expected, profile).to_payload()["checkDate"]
    assert serialize_instance(graph) == serialize_instance(expected)


# ---------------------------------------------------------------------------
# One string object per distinct value
# ---------------------------------------------------------------------------

def held_strings(value):
    """Every string a loaded node holds: its fields, their items, nested
    basis and consultation fields, and generic attr and ref keys and values."""
    if type(value) is str:
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from held_strings(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from held_strings(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from held_strings(getattr(value, f.name))


def repeated_strings(graph) -> list[tuple[str, str]]:
    """(object id, string) for each string the nodes hold that equals, but
    is not, one held earlier."""
    first: dict[str, str] = {}
    return [(node.id, text) for node in graph for text in held_strings(node)
            if first.setdefault(text, text) is not text]


def landscape_documents():
    yield "fixture", compliant_document()
    yield from failing_variants().items()
    objects = compliant_document()["objects"]
    yield "20 replicas", {"schemaVersion": "1",
                          "objects": [prefixed(o, f"r{i}.") for i in range(20)
                                      for o in objects]}


@pytest.mark.parametrize("whole", [False, True], ids=["streamed", "whole"])
def test_equal_strings_of_a_loaded_graph_are_one_object(whole):
    documents = dict(landscape_documents())
    assert len(documents) == 37
    for name, document in documents.items():
        data = document_bytes(document)
        if whole:
            with mock.patch.object(ingest, "_stream_nodes", lambda text: None):
                graph = load_instance(data)
        else:
            with mock.patch.object(ingest, "_SCAN_WHOLE", 0):  # so every text is streamed
                graph = load_instance(data)
        assert repeated_strings(graph) == [], name
        # The walker reaches into every node: it yields each object and ref id.
        held = {text for node in graph for text in held_strings(node)}
        ids = {raw["id"] for raw in document["objects"]}
        ids.update(target for raw in document["objects"] for value in raw.get("refs", {}).values()
                   for target in ([value] if isinstance(value, str) else value))
        assert ids <= held, name


def test_the_string_table_does_not_outlive_the_load():
    """Keys and values a document chooses are not interned: once the graph
    is gone, nothing holds them."""
    key = "".join(["open", "Key"])  # made at run time, so not interned
    document = {"schemaVersion": "1", "objects": [
        {"id": "n1", "class": "Demonstration", "attrs": {key: "v"}, "refs": {key: ["n1"]}}]}
    graph = load_instance(document_bytes(document))
    held = next(k for k in graph["n1"].attrs if k == key)
    assert held is next(k for k in graph["n1"].refs if k == key)
    assert sys.intern(key) is not held
    del graph
    assert sys.getrefcount(held) == 2  # the name and getrefcount's argument


def test_a_loaded_generic_nodes_attrs_and_refs_are_read_only():
    graph = load_instance(document_bytes(compliant_document()))
    node = graph["note_rect"]
    assert node.attrs == {"about": "RECTIFICATION", "dsInformed": True}
    assert node.refs == {"processing": ("p1",), "recipients": ("recip",)}
    for members in (node.attrs, node.refs):
        before = dict(members)
        for mutate in (lambda m: m.__setitem__("x", ()), lambda m: m.__delitem__("processing"),
                       lambda m: m.update(x=()), lambda m: m.setdefault("x", ()),
                       lambda m: m.pop("processing", None), lambda m: m.popitem(),
                       lambda m: m.clear(), lambda m: m.__ior__({"x": ()})):
            with pytest.raises(TypeError, match="read-only"):
                mutate(members)
        assert members == before
        assert ingest.canonical_json(members) == ingest.canonical_json(before)
    copy = pickle.loads(pickle.dumps(node))
    assert copy == node and type(copy.attrs) is type(node.attrs)
    with pytest.raises(TypeError):
        copy.refs["x"] = ()


# ---------------------------------------------------------------------------
# Cyclic garbage collection is paused during a load
# ---------------------------------------------------------------------------

@pytest.fixture()
def gc_enabled():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_load_restores_the_callers_gc_state(gc_enabled):
    data = document_bytes(compliant_document())
    load_instance(data)
    assert gc.isenabled()
    expect_code(document_bytes(variant(compliant_document(),
                                       lambda d: find(d, "LU")["attrs"].pop("code"))),
                SCHEMA)
    assert gc.isenabled()
    expect_code(b"[", SYNTAX)
    assert gc.isenabled()

    gc.disable()
    load_instance(data)
    assert not gc.isenabled()
    expect_code(b"[", SYNTAX)
    assert not gc.isenabled()


def replicas(count: int) -> bytes:
    """An instance document of ``count`` renamed copies of the compliant one."""
    objects = compliant_document()["objects"]
    return json.dumps({"schemaVersion": "1",
                       "objects": [prefixed(o, f"r{i}.") for i in range(count)
                                   for o in objects]}).encode("utf-8")


def test_no_collection_runs_during_a_load(gc_enabled):
    objects = compliant_document()["objects"]
    data = replicas(40)
    collections = 0

    def count(phase, info):
        nonlocal collections
        collections += phase == "start"

    gc.collect()
    gc.callbacks.append(count)
    try:
        graph = load_instance(data)
    finally:
        gc.callbacks.remove(count)
    assert len(graph) == 40 * len(objects)
    assert collections == 0


def fresh_generations() -> None:
    """Collect everything, then empty the permanent generation, where a load
    leaves alone what a caller froze after importing the engine."""
    gc.collect()
    gc.unfreeze()


def in_generation(generation: int, objects) -> list[bool]:
    """Whether each of ``objects`` is in the collector's ``generation``."""
    members = {id(o) for o in gc.get_objects(generation=generation)}
    return [id(o) in members for o in objects]


def test_a_loaded_graph_is_in_the_oldest_generation(gc_enabled):
    data = replicas(40)
    fresh_generations()
    graph = load_instance(data)
    nodes = list(graph)
    assert len(nodes) == 40 * len(compliant_document()["objects"])
    assert all(gc.is_tracked(node) for node in nodes)
    assert not any(in_generation(0, nodes)) and not any(in_generation(1, nodes))


def test_a_load_leaves_the_callers_frozen_objects_frozen(gc_enabled):
    data = replicas(2)
    gc.collect()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        graph = load_instance(data)
        assert gc.get_freeze_count() == frozen
        assert not any(in_generation(2, graph))  # the graph was not promoted
    finally:
        gc.unfreeze()
    assert len(graph) == 2 * len(compliant_document()["objects"])


@pytest.mark.parametrize("loads", [True, False], ids=["loaded", "LoadError"])
def test_only_a_successful_load_promotes_young_objects(gc_enabled, loads):
    """A container made just before the load reaches the oldest generation
    with a loaded graph, and stays young when the load fails (here in
    validation, its last step)."""
    document = compliant_document()
    if not loads:
        find(document, "LU")["attrs"]["code"] = "lu"
    data = document_bytes(document)
    fresh_generations()
    sentinel: list[object] = []
    try:
        load_instance(data)
    except LoadError as error:
        assert not loads and error.code == "INVARIANT"
    assert in_generation(2, [sentinel]) == [loads]


# A fresh interpreter: on 3.12 it has frozen objects of its own before the
# engine is imported, which a load moves to the oldest generation with the
# graph; what the caller freezes after the import stays frozen.
FRESH_PROMOTION = """
import gc
from fixtures import compliant_document, document_bytes
from gdpr_engine import load_instance

def in_oldest(graph):
    members = {id(o) for o in gc.get_objects(generation=2)}
    return [id(node) in members for node in graph]

data = document_bytes(compliant_document())
gc.collect()
assert all(in_oldest(load_instance(data)))
assert gc.get_freeze_count() == 0
gc.freeze()
frozen = gc.get_freeze_count()
graph = load_instance(data)
assert gc.get_freeze_count() == frozen
assert not any(in_oldest(graph))
"""


@pytest.mark.skipif(sys.version_info < (3, 12),
                    reason="before 3.12 the interpreter freezes nothing of its own")
def test_a_fresh_interpreters_load_promotes_and_keeps_later_freezes():
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    done = subprocess.run([sys.executable, "-c", FRESH_PROMOTION],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# Profile documents
# ---------------------------------------------------------------------------

def test_profile_document_with_one_resolution():
    resolutions = load_profile(json.dumps({
        "resolutions": [{"variation": "V1",
                         "params": {"thresholds": {"AT": 14}}}]}).encode())
    assert len(resolutions) == 1
    assert resolutions[0].variationId == "V1"
    assert resolutions[0].parameters["thresholds"] == {"AT": 14}


def test_empty_resolution_list():
    assert load_profile(b'{"resolutions": []}') == []


def test_unknown_variation_id_rejected():
    with pytest.raises(LoadError) as excinfo:
        load_profile(json.dumps({"resolutions": [{"variation": "V99"}]}).encode())
    assert excinfo.value.code == UNKNOWN_VARIATION


def test_profile_parameter_schema_checked_at_load():
    with pytest.raises(LoadError) as excinfo:
        load_profile(json.dumps({
            "resolutions": [{"variation": "V2", "params": {}}]}).encode())
    assert excinfo.value.code == SCHEMA


def test_profile_round_trip():
    payload = {"resolutions": [
        {"variation": "V16", "params": {}},
        {"variation": "V1", "params": {"thresholds": {"AT": 14}}}]}
    resolutions = load_profile(json.dumps(payload).encode())
    again = load_profile(serialize_profile(resolutions).encode())
    assert [r.variationId for r in again] == ["V16", "V1"]
