"""Golden load errors: every decode and validate branch keeps its code,
its object and its message.

Each case mutates the compliant fixture once and pins what ``load_instance``
raises: the code, the object id, ``str(error)`` and, for graph-level
failures, every violation in order. The literals were written from the
output of the loader before its per-class plans existed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable
from unittest import mock

import pytest

from fixtures import compliant_document, document_bytes, find
from gdpr_engine import ingest, load_instance, load_profile, serialize_instance
from gdpr_engine.ingest import MAX_INT_DIGITS, LoadError
from gdpr_engine.variability import Resolution, build_profile


def _attr(object_id: str, name: str, value) -> Callable[[dict], None]:
    def mutate(d: dict) -> None:
        find(d, object_id)["attrs"][name] = value
    return mutate


def _ref(object_id: str, name: str, value) -> Callable[[dict], None]:
    def mutate(d: dict) -> None:
        find(d, object_id)["refs"][name] = value
    return mutate


def _key(object_id: str, name: str, value) -> Callable[[dict], None]:
    def mutate(d: dict) -> None:
        find(d, object_id)[name] = value
    return mutate


def _drop_attr(object_id: str, name: str) -> Callable[[dict], None]:
    def mutate(d: dict) -> None:
        del find(d, object_id)["attrs"][name]
    return mutate


def _drop_ref(object_id: str, name: str) -> Callable[[dict], None]:
    def mutate(d: dict) -> None:
        del find(d, object_id)["refs"][name]
    return mutate


def _basis(object_id: str, **fields) -> Callable[[dict], None]:
    def mutate(d: dict) -> None:
        find(d, object_id)["attrs"]["basis"].update(fields)
    return mutate


def _consultation(**fields) -> Callable[[dict], None]:
    def mutate(d: dict) -> None:
        find(d, "dpia1")["attrs"]["consultation"].update(fields)
    return mutate


def _replace_object(position: int, value) -> Callable[[dict], None]:
    def mutate(d: dict) -> None:
        d["objects"][position] = value
    return mutate


def _duplicate(object_id: str) -> Callable[[dict], None]:
    def mutate(d: dict) -> None:
        d["objects"].append(dict(find(d, object_id)))
    return mutate


def _all(*mutations: Callable[[dict], None]) -> Callable[[dict], None]:
    def mutate(d: dict) -> None:
        for step in mutations:
            step(d)
    return mutate


OUT_OF_RANGE = "9999-12-31T23:59:59-05:00"

# name -> (mutation, code, object id, str(error), violations)
CASES: dict[str, tuple] = {
    # Object shape.
    "non-dict object": (
        _replace_object(3, ["US"]), "SCHEMA", None,
        "SCHEMA: objects[3] is not an object", ()),
    "unknown object key": (
        _all(_key("ctrl", "zeta", 1), _key("ctrl", "alpha", 2)), "SCHEMA", None,
        "SCHEMA: objects[4]: unknown keys alpha, zeta", ()),
    "empty id": (
        _key("ctrl", "id", ""), "SCHEMA", None,
        "SCHEMA: objects[4]: id must be a nonempty string", ()),
    "non-string id": (
        _key("ctrl", "id", 7), "SCHEMA", None,
        "SCHEMA: objects[4]: id must be a nonempty string", ()),
    "non-string class": (
        _key("ctrl", "class", ["Data_Controller"]), "SCHEMA", "ctrl",
        "SCHEMA (object 'ctrl'): class must be a string", ()),
    "unknown class": (
        _key("ctrl", "class", "Quantum_Flux"), "UNKNOWN_CLASS", "ctrl",
        "UNKNOWN_CLASS (object 'ctrl'): unknown class 'Quantum_Flux'", ()),
    "abstract class": (
        _key("ctrl", "class", "Actor"), "UNKNOWN_CLASS", "ctrl",
        "UNKNOWN_CLASS (object 'ctrl'): class Actor is abstract and cannot be "
        "instantiated", ()),
    "attrs not a dict": (
        _key("ctrl", "attrs", ["kind"]), "SCHEMA", "ctrl",
        "SCHEMA (object 'ctrl'): attrs must be an object", ()),
    "refs not a dict": (
        _key("ctrl", "refs", "LU"), "SCHEMA", "ctrl",
        "SCHEMA (object 'ctrl'): refs must be an object", ()),
    "generic attrs not a dict": (
        _key("demo1", "attrs", None), "SCHEMA", "demo1",
        "SCHEMA (object 'demo1'): attrs must be an object", ()),

    # Attrs and refs of typed classes.
    "unknown attrs": (
        _all(_attr("ctrl", "zeta", 1), _attr("ctrl", "alpha", 2)), "SCHEMA",
        "ctrl",
        "SCHEMA (object 'ctrl'): Data_Controller does not define attrs: alpha, zeta",
        ()),
    "unknown attrs before unknown refs": (
        _all(_attr("ctrl", "zeta", 1), _ref("ctrl", "owner", "x")), "SCHEMA",
        "ctrl",
        "SCHEMA (object 'ctrl'): Data_Controller does not define attrs: zeta", ()),
    "unknown refs": (
        _all(_ref("ctrl", "zeta", "LU"), _ref("ctrl", "alpha", "LU")), "SCHEMA",
        "ctrl",
        "SCHEMA (object 'ctrl'): Data_Controller does not define refs: alpha, zeta",
        ()),
    "nested attr on the wrong class": (
        _attr("ctrl", "basis", {"kind": "IntraEU"}), "SCHEMA", "ctrl",
        "SCHEMA (object 'ctrl'): Data_Controller does not define attrs: basis", ()),
    "missing required attr": (
        _drop_attr("LU", "code"), "SCHEMA", "LU",
        "SCHEMA (object 'LU'): Country.code is required", ()),
    "required attr given as null": (
        _attr("LU", "code", None), "SCHEMA", "LU",
        "SCHEMA (object 'LU'): Country.code is required", ()),
    "missing required ref": (
        _drop_ref("alice", "residence"), "SCHEMA", "alice",
        "SCHEMA (object 'alice'): Data_Subject ref 'residence' is required", ()),
    "attrs checked before refs": (
        _all(_drop_attr("alice", "ageYears"), _drop_ref("alice", "residence")),
        "SCHEMA", "alice",
        "SCHEMA (object 'alice'): Data_Subject.ageYears is required", ()),
    "attrs in spec order": (
        _all(_attr("cons1", "explicit", "yes"), _attr("cons1", "freelyGiven", 1)),
        "SCHEMA", "cons1",
        "SCHEMA (object 'cons1'): Consent.freelyGiven must be a boolean", ()),
    "enum list given a string": (
        _attr("pd1", "categories", "OTHER_PERSONAL_DATA"), "SCHEMA", "pd1",
        "SCHEMA (object 'pd1'): Personal_Data.categories must be a list", ()),
    "enum list entries": (
        _attr("pd1", "categories", ["OTHER_PERSONAL_DATA", 3]), "SCHEMA", "pd1",
        "SCHEMA (object 'pd1'): Personal_Data.categories entries must be strings",
        ()),
    "strlist given a dict": (
        _attr("proc", "instructions", {"a": "b"}), "SCHEMA", "proc",
        "SCHEMA (object 'proc'): Data_Processor.instructions must be a list", ()),
    "strlist entries": (
        _attr("proc", "instructions", [None]), "SCHEMA", "proc",
        "SCHEMA (object 'proc'): Data_Processor.instructions entries must be "
        "strings", ()),
    "bool": (
        _attr("LU", "isEUMemberState", "true"), "SCHEMA", "LU",
        "SCHEMA (object 'LU'): Country.isEUMemberState must be a boolean", ()),
    "bool given an int": (
        _attr("LU", "EULawApplies", 1), "SCHEMA", "LU",
        "SCHEMA (object 'LU'): Country.EULawApplies must be a boolean", ()),
    "int": (
        _attr("alice", "ageYears", "34"), "SCHEMA", "alice",
        "SCHEMA (object 'alice'): Data_Subject.ageYears must be an integer", ()),
    "int given a float": (
        _attr("alice", "ageYears", 34.0), "SCHEMA", "alice",
        "SCHEMA (object 'alice'): Data_Subject.ageYears must be an integer", ()),
    "bool as int": (
        _attr("alice", "ageYears", True), "SCHEMA", "alice",
        "SCHEMA (object 'alice'): Data_Subject.ageYears must be an integer", ()),
    "negative nonneg int": (
        _attr("inf1", "imposedFineEUR", -1), "SCHEMA", "inf1",
        "SCHEMA (object 'inf1'): Infringement.imposedFineEUR must be non-negative",
        ()),
    "negative required nonneg int": (
        _attr("tc1", "worldwideAnnualTurnoverEUR", -5), "SCHEMA", "tc1",
        "SCHEMA (object 'tc1'): Turnover_Context.worldwideAnnualTurnoverEUR must "
        "be non-negative", ()),
    "malformed timestamp": (
        _attr("breach1", "saNotifiedAt", "yesterday"), "SCHEMA", "breach1",
        "SCHEMA (object 'breach1'): Breach.saNotifiedAt must be an ISO-8601 "
        "timestamp", ()),
    "non-string timestamp": (
        _attr("cert1", "issuedAt", 20230101), "SCHEMA", "cert1",
        "SCHEMA (object 'cert1'): Certification.issuedAt must be an ISO-8601 "
        "timestamp", ()),
    "out-of-range timestamp": (
        _attr("req_access", "respondedAt", OUT_OF_RANGE), "SCHEMA", "req_access",
        "SCHEMA (object 'req_access'): Right_Request.respondedAt: timestamp "
        "'9999-12-31T23:59:59-05:00' falls outside years 1-9999 in UTC", ()),
    "str": (
        _attr("ctrl", "contactDetails", 5), "SCHEMA", "ctrl",
        "SCHEMA (object 'ctrl'): Data_Controller.contactDetails must be a string",
        ()),
    "optional str": (
        _attr("purp1", "obligationSource", ["statute"]), "SCHEMA", "purp1",
        "SCHEMA (object 'purp1'): Purpose.obligationSource must be a string", ()),
    "many ref with a non-string id": (
        _ref("ctrl", "countries", ["LU", 5]), "SCHEMA", "ctrl",
        "SCHEMA (object 'ctrl'): Data_Controller ref 'countries' must hold "
        "object ids", ()),
    "many ref with an empty id": (
        _ref("p1", "purposes", ""), "SCHEMA", "p1",
        "SCHEMA (object 'p1'): Data_Processing ref 'purposes' must hold object "
        "ids", ()),
    "single ref as a two-element list": (
        _ref("alice", "residence", ["LU", "DE"]), "SCHEMA", "alice",
        "SCHEMA (object 'alice'): Data_Subject ref 'residence' takes a single id",
        ()),
    "single ref as an empty string": (
        _ref("alice", "residence", ""), "SCHEMA", "alice",
        "SCHEMA (object 'alice'): Data_Subject ref 'residence' must hold an "
        "object id", ()),
    "single ref as a number in a list": (
        _ref("breach1", "processing", [1]), "SCHEMA", "breach1",
        "SCHEMA (object 'breach1'): Breach ref 'processing' must hold an object "
        "id", ()),
    "generic ref with a non-string id": (
        _ref("demo1", "processing", ["p1", None]), "SCHEMA", "demo1",
        "SCHEMA (object 'demo1'): ref 'processing' must hold object ids", ()),

    # Nested fields: the transfer basis.
    "basis missing": (
        _drop_attr("tr_eu", "basis"), "SCHEMA", "tr_eu",
        "SCHEMA (object 'tr_eu'): Data_Transfer.basis is required", ()),
    "basis checked after refs": (
        _all(_drop_attr("tr_eu", "basis"), _drop_ref("tr_eu", "to")), "SCHEMA",
        "tr_eu", "SCHEMA (object 'tr_eu'): Data_Transfer ref 'to' is required",
        ()),
    "basis not an object": (
        _attr("tr_eu", "basis", "IntraEU"), "SCHEMA", "tr_eu",
        "SCHEMA (object 'tr_eu'): basis must be an object", ()),
    "basis kind": (
        _basis("tr_eu", kind="Handshake"), "BAD_LITERAL", "tr_eu",
        "BAD_LITERAL (object 'tr_eu'): basis kind 'Handshake' is not a transfer "
        "basis", ()),
    "basis kind missing": (
        _attr("tr_eu", "basis", {}), "BAD_LITERAL", "tr_eu",
        "BAD_LITERAL (object 'tr_eu'): basis kind None is not a transfer basis",
        ()),
    "basis fields of another kind": (
        _basis("tr_ca", details="x", approved=True), "SCHEMA", "tr_ca",
        "SCHEMA (object 'tr_ca'): basis fields approved, details do not belong to "
        "a AdequacyDecision basis (exactly one variant may be populated)", ()),
    "basis string list given a string": (
        _basis("tr_ca", evidence="importer"), "SCHEMA", "tr_ca",
        "SCHEMA (object 'tr_ca'): basis.evidence must be a list of strings", ()),
    "basis string list entries": (
        _basis("tr_us", information=["CONTACT_DETAILS", 1]), "SCHEMA", "tr_us",
        "SCHEMA (object 'tr_us'): basis.information must be a list of strings",
        ()),
    "basis string lists in field order": (
        _basis("tr_ca", evidence=1, additionalRequirements=1), "SCHEMA", "tr_ca",
        "SCHEMA (object 'tr_ca'): basis.additionalRequirements must be a list of "
        "strings", ()),
    "basis boolean": (
        _basis("tr_us", legallyBinding="yes"), "SCHEMA", "tr_us",
        "SCHEMA (object 'tr_us'): basis.legallyBinding must be a boolean", ()),
    "basis derogation": (
        _attr("tr_eu", "basis", {"kind": "Derogation", "derogation": 1}), "SCHEMA",
        "tr_eu", "SCHEMA (object 'tr_eu'): basis.derogation must be a string", ()),
    "basis details": (
        _attr("tr_eu", "basis", {"kind": "Derogation", "details": ["x"]}),
        "SCHEMA", "tr_eu", "SCHEMA (object 'tr_eu'): basis.details must be a string",
        ()),

    # Nested fields: the DPIA consultation.
    "consultation not an object": (
        _attr("dpia1", "consultation", "2023-02-01T00:00:00Z"), "SCHEMA", "dpia1",
        "SCHEMA (object 'dpia1'): consultation must be an object", ()),
    "consultation unknown fields": (
        _consultation(zeta=1, alpha=2), "SCHEMA", "dpia1",
        "SCHEMA (object 'dpia1'): consultation does not define: alpha, zeta", ()),
    "consultation requestedAt missing": (
        _attr("dpia1", "consultation", {"extended": True}), "SCHEMA", "dpia1",
        "SCHEMA (object 'dpia1'): consultation.requestedAt must be an ISO-8601 "
        "timestamp", ()),
    "consultation requestedAt out of range": (
        _consultation(requestedAt=OUT_OF_RANGE), "SCHEMA", "dpia1",
        "SCHEMA (object 'dpia1'): consultation.requestedAt: timestamp "
        "'9999-12-31T23:59:59-05:00' falls outside years 1-9999 in UTC", ()),
    "consultation adviceAt": (
        _consultation(adviceAt="soon"), "SCHEMA", "dpia1",
        "SCHEMA (object 'dpia1'): consultation.adviceAt must be an ISO-8601 "
        "timestamp", ()),
    "consultation extended": (
        _consultation(extended="no"), "SCHEMA", "dpia1",
        "SCHEMA (object 'dpia1'): consultation.extended must be a boolean", ()),
    "consultation null": (
        _attr("dpia1", "consultation", None), "SCHEMA", "dpia1",
        "SCHEMA (object 'dpia1'): consultation must be an object", ()),

    # Graph level.
    "duplicate id": (
        _duplicate("US"), "DUPLICATE_ID", "US",
        "DUPLICATE_ID (object 'US'): object id 'US' declared twice", ()),
    "dangling typed ref": (
        _ref("p1", "purposes", ["purp1", "purp9"]), "DANGLING_REF", "p1",
        "DANGLING_REF (object 'p1'): reference 'purposes' to missing object 'purp9'",
        (("DANGLING_REF", "p1", "reference 'purposes' to missing object 'purp9'"),)),
    "dangling generic ref": (
        _ref("note_rect", "recipients", ["recip", "ghost"]), "DANGLING_REF",
        "note_rect",
        "DANGLING_REF (object 'note_rect'): reference 'recipients' to missing "
        "object 'ghost'",
        (("DANGLING_REF", "note_rect",
          "reference 'recipients' to missing object 'ghost'"),)),
    "ref to the wrong class": (
        _ref("breach1", "detectedBy", "alice"), "DANGLING_REF", "breach1",
        "DANGLING_REF (object 'breach1'): reference 'detectedBy' resolves to "
        "Data_Subject, expected one of ['Certification_Body', 'Data_Controller', "
        "'Data_Processor', 'Data_Protection_Officer', 'Joint_Controllers', "
        "'Recipient', 'Representative', 'Supervisory_Authority', 'Third_Party', "
        "'Undertaking']",
        (("DANGLING_REF", "breach1",
          "reference 'detectedBy' resolves to Data_Subject, expected one of "
          "['Certification_Body', 'Data_Controller', 'Data_Processor', "
          "'Data_Protection_Officer', 'Joint_Controllers', 'Recipient', "
          "'Representative', 'Supervisory_Authority', 'Third_Party', "
          "'Undertaking']"),)),
    "bad literal": (
        _attr("purp1", "legalBasis", "VIBES"), "BAD_LITERAL", "purp1",
        "BAD_LITERAL (object 'purp1'): legalBasis: 'VIBES' is not a literal of "
        "Lawfulness_Sources",
        (("BAD_LITERAL", "purp1",
          "legalBasis: 'VIBES' is not a literal of Lawfulness_Sources"),)),
    "bad literals in an enum list": (
        _attr("dpia1", "information", ["RISK_ASSESSMENT", "EMPLOYMENT_ASSESSMENT",
                                       "GUESSWORK"]),
        "BAD_LITERAL", "dpia1",
        "BAD_LITERAL (object 'dpia1'): information: 'EMPLOYMENT_ASSESSMENT' is not "
        "a literal of DPIA_Information_Type",
        (("BAD_LITERAL", "dpia1",
          "information: 'EMPLOYMENT_ASSESSMENT' is not a literal of "
          "DPIA_Information_Type"),
         ("BAD_LITERAL", "dpia1",
          "information: 'GUESSWORK' is not a literal of DPIA_Information_Type"))),
    "bad denial reason": (
        _attr("req_erase", "denialReason", "BUSY"), "BAD_LITERAL", "req_erase",
        "BAD_LITERAL (object 'req_erase'): denialReason: 'BUSY' is not a known "
        "denial or restriction reason",
        (("BAD_LITERAL", "req_erase",
          "denialReason: 'BUSY' is not a known denial or restriction reason"),)),
    "derogation basis without its derogation": (
        _attr("tr_eu", "basis", {"kind": "Derogation", "details": "x"}),
        "INVARIANT", "tr_eu",
        "INVARIANT (object 'tr_eu'): a derogation basis must name its derogation",
        (("INVARIANT", "tr_eu", "a derogation basis must name its derogation"),)),
    "invariant": (
        _all(_attr("LU", "EULawApplies", False), _attr("DE", "code", "de")),
        "INVARIANT", "DE",
        "INVARIANT (object 'DE'): country code 'de' is not a two-letter ISO code",
        (("INVARIANT", "DE", "country code 'de' is not a two-letter ISO code"),
         ("INVARIANT", "LU", "an EU member state is subject to EU law"))),
    "violations sorted by object, code and message": (
        _all(_ref("p1", "purposes", ["purp9"]), _attr("p1", "type", "NOPE"),
             _ref("cons1", "givenFor", ["purp8"])),
        "DANGLING_REF", "cons1",
        "DANGLING_REF (object 'cons1'): reference 'givenFor' to missing object "
        "'purp8'",
        (("DANGLING_REF", "cons1", "reference 'givenFor' to missing object 'purp8'"),
         ("BAD_LITERAL", "p1", "type: 'NOPE' is not a literal of Processing_Context"),
         ("DANGLING_REF", "p1", "reference 'purposes' to missing object 'purp9'"))),
}


@pytest.mark.parametrize("name", list(CASES))
def test_load_error_is_pinned(name):
    mutate, code, object_id, text, violations = CASES[name]
    document = compliant_document()
    mutate(document)
    with pytest.raises(LoadError) as excinfo:
        load_instance(document_bytes(document))
    error = excinfo.value
    assert (error.code, error.object_id, str(error)) == (code, object_id, text)
    assert [(v.code, v.objectId, v.message) for v in error.violations] \
        == list(violations)


def test_bad_literal_under_a_profile_that_extends_the_enumeration():
    """V16 adds EMPLOYMENT_ASSESSMENT to the DPIA information types: that
    literal loads, the unextended one still fails."""
    profile = build_profile([Resolution("V16", {})])
    document = compliant_document()
    _attr("dpia1", "information", ["RISK_ASSESSMENT", "EMPLOYMENT_ASSESSMENT",
                                   "GUESSWORK"])(document)
    with pytest.raises(LoadError) as excinfo:
        load_instance(document_bytes(document), profile)
    error = excinfo.value
    assert (error.code, error.object_id, str(error)) == (
        "BAD_LITERAL", "dpia1",
        "BAD_LITERAL (object 'dpia1'): information: 'GUESSWORK' is not a "
        "literal of DPIA_Information_Type")
    assert [(v.code, v.objectId, v.message) for v in error.violations] == [
        ("BAD_LITERAL", "dpia1",
         "information: 'GUESSWORK' is not a literal of DPIA_Information_Type")]


# Whole documents that the JSON parser itself rejects, for either loader.
UNPARSABLE_DOCUMENTS = {
    "nesting past the recursion limit": (
        b"[" * 100_000, "SYNTAX: document nests deeper than the parser allows"),
    "integer past the digit limit": (
        b'{"objects": [], "n": ' + b"9" * 5000 + b"}",
        "SYNTAX: a number has more digits than the parser allows"),
    "negative integer one digit past the engine's limit": (
        b'{"objects": [], "n": [-' + b"9" * 641 + b"]}",
        "SYNTAX: a number has more digits than the parser allows"),
    "NaN": (b'{"objects": [], "n": NaN}', "SYNTAX: NaN is not a JSON number"),
    "Infinity": (b'{"objects": [], "n": Infinity}',
                 "SYNTAX: Infinity is not a JSON number"),
    "-Infinity": (b'{"objects": [], "n": [-Infinity]}',
                  "SYNTAX: -Infinity is not a JSON number"),
    "number past the double range": (
        b'{"objects": [], "n": -1e999999}',
        "SYNTAX: a number is too large for a finite double"),
    "byte that starts no UTF-8 sequence": (
        b"\xff", "SYNTAX: document is not UTF-8: 'utf-8' codec can't decode byte 0xff "
                 "in position 0: invalid start byte"),
    "surrogate encoded as UTF-8": (
        '{"objects": ["\ud800"]}'.encode("utf-8", "surrogatepass"),
        "SYNTAX: document is not UTF-8: 'utf-8' codec can't decode byte 0xed in "
        "position 14: invalid continuation byte"),
    "truncated multibyte tail": (
        b'{"objects": []}\xe2\x82',
        "SYNTAX: document is not UTF-8: 'utf-8' codec can't decode bytes in "
        "position 15-16: unexpected end of data"),
}


@pytest.mark.parametrize("loader", [load_instance, load_profile])
@pytest.mark.parametrize("name", list(UNPARSABLE_DOCUMENTS))
def test_unparsable_document_is_a_syntax_error(name, loader):
    data, text = UNPARSABLE_DOCUMENTS[name]
    with pytest.raises(LoadError) as excinfo:
        loader(data)
    error = excinfo.value
    assert (error.code, error.object_id, str(error), error.violations) \
        == ("SYNTAX", None, text, ())


def test_overflowing_number_in_a_generic_attr_is_a_syntax_error():
    """``1e999999`` would reach the graph's canonical text as ``Infinity``,
    which is not JSON; a finite float still loads."""
    document = compliant_document()
    find(document, "demo1")["attrs"]["ratio"] = 0.125
    data = document_bytes(document)
    assert data.count(b"0.125") == 1
    assert load_instance(data).get("demo1").attrs["ratio"] == 0.125
    with pytest.raises(LoadError) as excinfo:
        load_instance(data.replace(b"0.125", b"1e999999"))
    assert str(excinfo.value) == "SYNTAX: a number is too large for a finite double"


def _long_integer_document(literal: str) -> bytes:
    document = compliant_document()
    find(document, "demo1")["attrs"]["ratio"] = 0.125
    data = document_bytes(document)
    assert data.count(b"0.125") == 1
    return data.replace(b"0.125", literal.encode("ascii"))


# An integer of at most MAX_INT_DIGITS digits, sign not counted, loads; one
# digit more is a SYNTAX error, whatever the interpreter's own digit limit.
LONG_INTEGERS = {f"{sign}{digits} digits": (sign + "9" * digits, digits <= MAX_INT_DIGITS)
                 for digits in (640, 641) for sign in ("", "-")}
SCRIPT = """
import sys
from pathlib import Path
from gdpr_engine import ingest
for path in sys.argv[1:]:
    for scan_whole in (ingest._SCAN_WHOLE, 0):
        ingest._SCAN_WHOLE = scan_whole
        try:
            graph = ingest.load_instance(Path(path).read_bytes())
        except ingest.LoadError as error:
            print(error)
        else:
            ratio = graph.get("demo1").attrs["ratio"]
            print(len(str(ratio)), len(ingest.serialize_instance(graph)))
"""


def _long_integer_outcome(data: bytes) -> str:
    try:
        graph = load_instance(data)
    except LoadError as error:
        return str(error)
    return f"{len(str(graph.get('demo1').attrs['ratio']))} {len(serialize_instance(graph))}"


@pytest.mark.parametrize("streamed", [False, True], ids=["whole", "streamed"])
@pytest.mark.parametrize("name", list(LONG_INTEGERS))
def test_integer_digit_limit_is_the_engines(name, streamed):
    assert MAX_INT_DIGITS == 640
    literal, loads = LONG_INTEGERS[name]
    with mock.patch.object(ingest, "_SCAN_WHOLE", 0 if streamed else ingest._SCAN_WHOLE):
        outcome = _long_integer_outcome(_long_integer_document(literal))
    if loads:
        assert outcome.split()[0] == str(len(literal))
    else:
        assert outcome == "SYNTAX: a number has more digits than the parser allows"


@pytest.mark.parametrize("setting", ["0", "640"])
def test_integer_digit_limit_holds_under_any_interpreter_setting(setting, tmp_path):
    """The interpreter's limit off, and at its lowest: each reader gives
    the outcome of an in-process load."""
    paths, expected = [], []
    for name, (literal, _) in LONG_INTEGERS.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(_long_integer_document(literal))
        paths.append(str(path))
        expected += [_long_integer_outcome(path.read_bytes())] * 2
    source_root = str(Path(ingest.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, *paths], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": source_root, "PYTHONINTMAXSTRDIGITS": setting})
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == expected


def test_basis_kind_that_is_not_a_string_is_a_bad_literal():
    document = compliant_document()
    _attr("tr_eu", "basis", {"kind": []})(document)
    with pytest.raises(LoadError) as excinfo:
        load_instance(document_bytes(document))
    assert str(excinfo.value) == \
        "BAD_LITERAL (object 'tr_eu'): basis kind [] is not a transfer basis"


# Documents with several faults report the one a whole-document parse finds
# first: syntax anywhere, then a lone surrogate, then the top-level keys,
# then each object and duplicate id in document order. Each text is built
# from pieces of JSON, so a fault can follow the objects.
BAD_OBJECT = '{"id": "x", "class": "Quantum_Flux"}'


def _objects(*extra: str) -> str:
    """The compliant fixture's objects array, with ``extra`` appended."""
    return "[" + ", ".join([json.dumps(o) for o in compliant_document()["objects"]]
                           + list(extra)) + "]"


def _load_error(text: str) -> LoadError:
    with pytest.raises(LoadError) as excinfo:
        load_instance(text.encode("utf-8"))
    return excinfo.value


def test_syntax_error_after_a_bad_object_comes_first():
    text = '{"objects": ' + _objects(BAD_OBJECT) + ', "schemaVersion": nul}'
    error = _load_error(text)
    column = text.index("nul") + 1
    assert (error.code, error.line, error.column, str(error)) == (
        "SYNTAX", 1, column, f"SYNTAX at line 1, column {column}: Expecting value")


def test_wrong_schema_version_after_the_objects_comes_first():
    error = _load_error('{"objects": ' + _objects(BAD_OBJECT) + ', "schemaVersion": "2"}')
    assert str(error) == "SCHEMA: unsupported schemaVersion '2'"


def test_unknown_top_level_key_after_a_bad_object_comes_first():
    error = _load_error('{"objects": ' + _objects(BAD_OBJECT) + ', "zeta": 1}')
    assert str(error) == "SCHEMA: unknown top-level keys: zeta"


def test_last_of_two_objects_keys_is_loaded():
    text = '{"objects": [' + BAD_OBJECT + '], "objects": ' + _objects() + "}"
    graph = load_instance(text.encode("utf-8"))
    assert serialize_instance(graph) == \
        serialize_instance(load_instance(document_bytes(compliant_document())))


def test_syntax_error_after_a_duplicate_id_comes_first():
    duplicate = json.dumps(find(compliant_document(), "US"))
    text = '{"objects": ' + _objects(duplicate) + ', "schemaVersion": nul}'
    error = _load_error(text)
    column = text.index("nul") + 1
    assert str(error) == f"SYNTAX at line 1, column {column}: Expecting value"


def test_duplicate_id_before_a_bad_object_comes_first():
    duplicate = json.dumps(find(compliant_document(), "US"))
    error = _load_error('{"objects": ' + _objects(duplicate, BAD_OBJECT) + "}")
    assert str(error) == "DUPLICATE_ID (object 'US'): object id 'US' declared twice"


def test_the_first_id_repeated_in_document_order_is_named():
    """The stream leaves ids to the graph, which indexes them by id; the
    error still names the id repeated first in the document, not the least."""
    document = compliant_document()
    repeats = [json.dumps(find(document, "US")), json.dumps(find(document, "LU"))]
    error = _load_error('{"objects": ' + _objects(*repeats) + "}")
    assert str(error) == "DUPLICATE_ID (object 'US'): object id 'US' declared twice"


def test_bad_object_before_a_duplicate_id_comes_first():
    duplicate = json.dumps(find(compliant_document(), "US"))
    error = _load_error('{"objects": ' + _objects(BAD_OBJECT, duplicate) + "}")
    assert str(error) == "UNKNOWN_CLASS (object 'x'): unknown class 'Quantum_Flux'"


def test_lone_surrogate_after_a_bad_object_comes_first():
    error = _load_error('{"objects": ' + _objects(BAD_OBJECT)
                        + ', "schemaVersion": "\\ud800"}')
    assert str(error) == ("SYNTAX: a string holds the lone surrogate U+D800, "
                          "which UTF-8 cannot encode")


def test_number_error_after_a_bad_object_comes_first():
    error = _load_error('{"objects": ' + _objects(BAD_OBJECT) + ', "schemaVersion": NaN}')
    assert str(error) == "SYNTAX: NaN is not a JSON number"
