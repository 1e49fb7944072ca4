"""Loading is total: any JSON value in any field gives a graph or a LoadError.

Random attr and ref values, and now and then a whole object field, of the
compliant fixture are replaced with random JSON: scalars, lists, nested
dicts, non-string ids, extreme ints, floats, and timestamps near the ends of
years 1-9999, or with a value of some field's shape (ids, enumeration
literals, booleans). Keys are drawn from the class's own attr and ref names, the
fixture's keys and random text, so both known and unknown fields are hit.

The same documents, and random valid graphs, some with a JSON fragment
spliced into their text, also check that the streamed load, its objects
array read object by object, loads what a whole-document parse loads, or
fails with the same error.
"""

from __future__ import annotations

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import compliant_document, document_bytes
from gdpr_engine import load_instance
from gdpr_engine.enums import ENUMERATIONS
from gdpr_engine.ingest import LoadError
from gdpr_engine.model import (
    CLASS_ATTRS,
    CLASS_REFS,
    InstanceGraph,
    RefSpec,
    validate_graph,
)
from gdpr_engine.registry import UnknownClassError, canonical_class_name
from test_canonical_encoding import documents
from test_ingest import streamed_outcome, whole_document_outcome

BASE = compliant_document()
IDS = sorted(o["id"] for o in BASE["objects"])

STAMPS = st.sampled_from([
    "0001-01-01T00:00:00Z", "0001-01-01T00:00:00+01:00", "0001-01-01T00:59:59+01:00",
    "0001-01-01T00:00:00-00:01", "0001-01-01", "9999-12-31T23:59:59Z",
    "9999-12-31T23:59:59.999999Z", "9999-12-31T23:59:59-05:00",
    "9999-12-31T23:59:00+00:01", "10000-01-01T00:00:00Z", "2023-02-30T00:00:00Z",
    "2023-01-01T24:00:00Z", "2023-01-01T00:00:00+24:00", " 2023-01-01T00:00:00Z ",
    "2023-01-01T00:00:00z", "", "Z",
])
INTS = st.one_of(st.integers(), st.sampled_from(
    [0, -1, 2**31, -2**31, 2**63, -2**63 - 1, 2**64, 10**30, -10**30]))
SCALARS = (st.none() | st.booleans() | INTS
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(max_size=6) | st.sampled_from(IDS) | STAMPS)
# Values of the right shape for some field, so that loads also succeed or
# fail in validation, not only in the schema checks.
LITERALS = st.sampled_from(sorted(set().union(*ENUMERATIONS.values())))
PLAUSIBLE = (st.booleans() | st.integers(min_value=0, max_value=120) | STAMPS
             | st.sampled_from(IDS) | st.lists(st.sampled_from(IDS), max_size=3)
             | LITERALS | st.lists(LITERALS, max_size=3))
JSON = PLAUSIBLE | st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(["kind", "requestedAt"]),
                      inner, max_size=3),
    max_leaves=6)


def field_names(entry: dict, part: str) -> list[str]:
    """The fixture's keys under ``part`` plus the class's spec names."""
    names = set(entry.get(part) or {})
    try:
        cls = canonical_class_name(entry["class"])
    except (UnknownClassError, TypeError):  # a mutated class
        return sorted(names)
    specs = CLASS_ATTRS if part == "attrs" else CLASS_REFS
    names.update(spec.name for spec in specs.get(cls, ()))
    if cls == "Data_Transfer" and part == "attrs":
        names.add("basis")
    if cls == "Data_Protection_Impact_Assessment" and part == "attrs":
        names.add("consultation")
    return sorted(names)


# (class as written in the fixture, "attrs" or "refs", name) -> spec.
SPECS = {(o["class"], part, spec.name): spec
         for o in BASE["objects"]
         for part, table in (("attrs", CLASS_ATTRS), ("refs", CLASS_REFS))
         for spec in table.get(canonical_class_name(o["class"]), ())}


def shaped(spec) -> st.SearchStrategy:
    """A value of the spec's own shape: ids for a ref, a literal of its
    enumeration (or a near miss) for an enum attr, and so on."""
    if isinstance(spec, RefSpec):
        ids = st.sampled_from(IDS + ["ghost"])
        return st.lists(ids, max_size=3) if spec.many else ids
    if spec.enum is not None:
        literal = st.sampled_from(sorted(ENUMERATIONS[spec.enum]) + ["NOPE"])
        return st.lists(literal, max_size=3) if spec.many else literal
    return {"bool": st.booleans(), "int": INTS, "ts": STAMPS,
            "strlist": st.lists(st.text(max_size=3), max_size=3)}.get(
                spec.kind, st.text(max_size=6))


@st.composite
def mutated_documents(draw) -> dict:
    document = copy.deepcopy(BASE)
    objects = document["objects"]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        cls = draw(st.sampled_from(sorted({o["class"] for o in objects
                                           if isinstance(o["class"], str)})))
        entry = draw(st.sampled_from([o for o in objects if o["class"] == cls]))
        # Mostly a known attr or ref; now and then an object field or a
        # random key.
        part = draw(st.sampled_from(["attrs"] * 4 + ["refs"] * 4 + ["object"]))
        value = draw(JSON)
        if part == "object":
            entry[draw(st.sampled_from(["id", "class", "attrs", "refs"]))] = value
            continue
        if not isinstance(entry.get(part), dict):
            continue
        names = field_names(entry, part)
        if names and draw(st.integers(min_value=0, max_value=9)):
            key = draw(st.sampled_from(names))
            spec = SPECS.get((entry["class"], part, key))
            if spec is not None and draw(st.booleans()):
                value = draw(shaped(spec))
        else:
            key = draw(st.text(max_size=4))
        entry[part][key] = value
    return document


@settings(max_examples=400)
@given(mutated_documents())
def test_any_json_in_any_field_gives_a_graph_or_a_load_error(document):
    try:
        graph = load_instance(document_bytes(document))
    except LoadError:
        return
    assert isinstance(graph, InstanceGraph)
    assert validate_graph(graph) == []


SPACE = st.sampled_from(["", " ", "\n", "\t ", "\r\n  "])
# Top-level members beside the objects: valid, wrong, unknown and repeated.
EXTRA_MEMBERS = st.sampled_from([
    '"schemaVersion": "1"', '"schemaVersion": "2"', '"schemaVersion": 1',
    '"objects": []', '"objects": {}', '"zeta": []', '"zeta": 1',
])
# Fragments that break a document's syntax, schema or encoding when spliced
# in anywhere.
SPLICES = st.sampled_from([
    "nul", "NaN", "1e999999", "9" * 5000, ",", "]", "}", "[", "{", '"', ":",
    " ", "\n", "\\ud800", '"zeta": 1, ', '"objects": [], ',
])


@st.composite
def instance_texts(draw) -> bytes | str:
    """An instance document's text: its top-level members in any order and
    any whitespace, the objects written compact, spaced or indented, and now
    and then one fragment spliced in or one character dropped."""
    objects = json.dumps(
        draw(documents() | mutated_documents())["objects"],
        ensure_ascii=draw(st.booleans()),
        indent=draw(st.sampled_from([None, None, 0, 2])),
        separators=draw(st.sampled_from([None, (",", ":"), (" , ", " : ")])))
    members = draw(st.permutations(['"objects": ' + objects]
                                   + draw(st.lists(EXTRA_MEMBERS, max_size=2))))
    text = draw(SPACE) + "{" + draw(SPACE)
    for index, member in enumerate(members):
        if index:
            # A lone space is a missing comma.
            text += draw(st.sampled_from([",", ", ", " ,\n", " "]))
        text += member + draw(SPACE)
    text += "}" + draw(st.sampled_from(["", " \n", " x", "{}"]))
    at = draw(st.integers(min_value=0, max_value=len(text)))
    text = draw(st.sampled_from([
        text, text, text[:at] + draw(SPLICES) + text[at:], text[:at] + text[at + 1:]]))
    return text if draw(st.booleans()) else text.encode("utf-8", "surrogatepass")


@settings(max_examples=200)
@given(instance_texts())
def test_streamed_load_matches_the_whole_document_path(data):
    assert streamed_outcome(data) == whole_document_outcome(data)
