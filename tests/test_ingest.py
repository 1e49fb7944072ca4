"""Document ingestion: error codes, round trips, profile documents."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
from unittest import mock

import pytest

from fixtures import (
    LONE_SURROGATE_MUTATIONS,
    compliant_document,
    document_bytes,
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
from gdpr_engine.timebase import TimestampError, parse_minutes
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


def test_parse_minutes_accepts_the_last_microsecond_of_year_9999():
    last = parse_minutes("9999-12-31T23:59:00Z")
    assert parse_minutes("9999-12-31T23:59:59.999999Z") == last
    with pytest.raises(TimestampError):
        parse_minutes("9999-12-31T23:59:59.999999-00:01")


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
    with mock.patch.object(ingest, "_stream_nodes", lambda text, from_str: None):
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

    def no_whole_document(text, from_str):
        raise AssertionError("the document was parsed whole")

    monkeypatch.setattr(ingest, "_document_nodes", no_whole_document)
    for source in (text, " \n" + text + "\r\n\t", text.encode("utf-8")):
        assert serialize_instance(load_instance(source)) == expected


def top_level_texts():
    """Instance texts whose top-level members vary: the objects among valid,
    wrong, unknown and repeated members, then faulty separators, leads and
    tails."""
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


def test_top_level_members_load_as_a_whole_document_parse_does():
    for text in top_level_texts():
        data = text.encode("utf-8")
        assert load_outcome(data) == whole_document_outcome(data), \
            text[:20] + " ... " + text[-40:]


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


def test_no_collection_runs_during_a_load(gc_enabled):
    objects = compliant_document()["objects"]
    data = json.dumps({"schemaVersion": "1",
                       "objects": [prefixed(o, f"r{i}.") for i in range(40)
                                   for o in objects]}).encode("utf-8")
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
