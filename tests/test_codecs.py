"""Decode errors swept over the field table: every typed wire class, every
field, every way its value can be wrong.

For each class one object is built with every attr and ref valid, then one
fault (or a chosen pair of faults) is put in and the loader's
``LoadError`` is compared with the message a template gives. The templates
are the loader's own message literals, copied from the code that checked
fields through per-attr closures, so the generated decoders must give the
same code, object and text, and report the same fault first.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields

import pytest

from fixtures import compliant_document, document_bytes
from gdpr_engine import ingest, load_instance, serialize_instance
from gdpr_engine.ingest import LoadError
from gdpr_engine.model import CLASS_ATTRS, CLASS_REFS, DATACLASS_FOR, NESTED_ATTRS
from gdpr_engine.registry import canonical_class_name

TYPED = sorted(DATACLASS_FOR)
STAMP = "2023-03-01T10:00:00Z"
ID = "x1"

# Message templates, as the loader writes them.
UNKNOWN_ATTRS = "{cls} does not define attrs: {names}"
UNKNOWN_REFS = "{cls} does not define refs: {names}"
ATTR_REQUIRED = "{label} is required"
NOT_LIST = "{label} must be a list"
NOT_STR_ENTRIES = "{label} entries must be strings"
NOT_BOOL = "{label} must be a boolean"
NOT_INT = "{label} must be an integer"
NEGATIVE = "{label} must be non-negative"
NOT_STAMP = "{label} must be an ISO-8601 timestamp"
STAMP_RANGE = "{label}: timestamp {value!r} falls outside years 1-9999 in UTC"
NOT_STR = "{label} must be a string"
REF_REQUIRED = "{cls} ref {name!r} is required"
NOT_IDS = "{cls} ref {name!r} must hold object ids"
NOT_SINGLE = "{cls} ref {name!r} takes a single id"
NOT_ID = "{cls} ref {name!r} must hold an object id"


def is_list(spec) -> bool:
    return spec.many or spec.kind == "strlist"


def valid_attr(spec):
    if is_list(spec):
        return ["B", "A"]
    return {"str": "text", "ts": STAMP, "bool": True, "int": 3}[spec.kind]


def full_object(cls: str) -> dict:
    """An object of ``cls`` with every attr and ref present and valid in
    shape (refs point nowhere, which only the graph checks)."""
    attrs = {spec.name: valid_attr(spec) for spec in CLASS_ATTRS[cls]}
    for spec in NESTED_ATTRS.get(cls, ()):
        attrs[spec.name] = ({"kind": "IntraEU"} if spec.kind == "basis"
                            else {"requestedAt": STAMP, "adviceAt": STAMP})
    refs = {spec.name: (["t1", "t2"] if spec.many else "t1")
            for spec in CLASS_REFS[cls]}
    return {"id": ID, "class": cls, "attrs": attrs, "refs": refs}


def load_error(raw: dict) -> LoadError:
    document = {"schemaVersion": "1", "objects": [raw]}
    with pytest.raises(LoadError) as caught:
        load_instance(json.dumps(document).encode("utf-8"))
    return caught.value


def attr_faults(cls: str, spec) -> list[tuple[str, object, str]]:
    """(case, value, expected message) for each wrong value of one attr."""
    label = f"{cls}.{spec.name}"
    cases: list[tuple[str, object, str]] = []
    if spec.required:
        cases.append(("null", None, ATTR_REQUIRED.format(label=label)))
    if is_list(spec):
        for value in ("A", {"A": 1}, 3, True):
            cases.append((f"not-list-{type(value).__name__}", value,
                          NOT_LIST.format(label=label)))
        for value in (["A", 1], [None], [["A"]], ["A", True]):
            cases.append((f"entry-{json.dumps(value)}", value,
                          NOT_STR_ENTRIES.format(label=label)))
    elif spec.kind == "bool":
        for value in (1, 0, "true", ["x"], {}):
            cases.append((f"wrong-{json.dumps(value)}", value,
                          NOT_BOOL.format(label=label)))
    elif spec.kind == "int":
        for value in ("3", True, False, 1.5, 3.0, [3], {}):
            cases.append((f"wrong-{json.dumps(value)}", value,
                          NOT_INT.format(label=label)))
        if spec.nonneg:
            cases.append(("negative", -1, NEGATIVE.format(label=label)))
    elif spec.kind == "ts":
        for value in ("yesterday", "", 20230301, True, [STAMP], {"at": STAMP}):
            cases.append((f"wrong-{json.dumps(value)}", value,
                          NOT_STAMP.format(label=label)))
        late = "0001-01-01T00:00:00+01:00"
        cases.append(("out-of-range", late, STAMP_RANGE.format(label=label, value=late)))
    else:
        for value in (3, True, ["text"], {}):
            cases.append((f"wrong-{json.dumps(value)}", value,
                          NOT_STR.format(label=label)))
    return cases


def ref_faults(cls: str, spec) -> list[tuple[str, object, str]]:
    """(case, value, expected message) for each wrong value of one ref."""
    name = spec.name
    cases: list[tuple[str, object, str]] = []
    if spec.required:
        cases.append(("null", None, REF_REQUIRED.format(cls=cls, name=name)))
    if spec.many:
        for value in (["t1", ""], "", [1], 1, ["t1", None], [["t1"]], {}):
            cases.append((f"ids-{json.dumps(value)}", value,
                          NOT_IDS.format(cls=cls, name=name)))
    else:
        for value in (["t1", "t2"], []):
            cases.append((f"list-of-{len(value)}", value,
                          NOT_SINGLE.format(cls=cls, name=name)))
        for value in ("", [""], 1, [1], True, {}):
            cases.append((f"id-{json.dumps(value)}", value,
                          NOT_ID.format(cls=cls, name=name)))
    return cases


def single_fault_cases():
    for cls in TYPED:
        for spec in CLASS_ATTRS[cls]:
            for case, value, message in attr_faults(cls, spec):
                yield pytest.param(cls, "attrs", spec.name, value, message,
                                   id=f"{cls}.{spec.name}-{case}")
            if spec.required:
                yield pytest.param(cls, "attrs", spec.name, ...,
                                   ATTR_REQUIRED.format(label=f"{cls}.{spec.name}"),
                                   id=f"{cls}.{spec.name}-missing")
        for spec in CLASS_REFS[cls]:
            for case, value, message in ref_faults(cls, spec):
                yield pytest.param(cls, "refs", spec.name, value, message,
                                   id=f"{cls}.ref.{spec.name}-{case}")
            if spec.required:
                yield pytest.param(cls, "refs", spec.name, ...,
                                   REF_REQUIRED.format(cls=cls, name=spec.name),
                                   id=f"{cls}.ref.{spec.name}-missing")


@pytest.mark.parametrize("cls, part, name, value, message", single_fault_cases())
def test_one_faulty_field_gives_its_message(cls, part, name, value, message):
    raw = full_object(cls)
    if value is ...:
        del raw[part][name]
    else:
        raw[part][name] = value
    error = load_error(raw)
    assert (error.code, error.object_id) == ("SCHEMA", ID)
    assert str(error) == f"SCHEMA (object {ID!r}): {message}"


@pytest.mark.parametrize("cls", TYPED)
def test_full_object_decodes(cls):
    """Every field of the full object passes decoding: the first error is
    the graph's (its refs point nowhere), or the object loads."""
    raw = full_object(cls)
    document = json.dumps({"schemaVersion": "1", "objects": [raw]}).encode("utf-8")
    try:
        graph = load_instance(document)
    except LoadError as error:
        assert error.code != "SCHEMA", str(error)
    else:
        assert serialize_instance(graph)


def test_decoded_nodes_match_what_their_class_builds(fail_documents):
    """The decoders write each node's slots directly; every typed node of
    the fixture and its variants equals, hashes and pickles as the node its
    class's constructor builds from the same fields, and stays frozen."""
    documents = [compliant_document(), *fail_documents.values()]
    seen = set()
    for document in documents:
        for node in load_instance(document_bytes(document)):
            if node.cls not in DATACLASS_FOR:
                continue
            seen.add(node.cls)
            built = type(node)(**{f.name: getattr(node, f.name) for f in fields(node)})
            assert node == built and hash(node) == hash(built), node.id
            assert pickle.loads(pickle.dumps(node)) == node, node.id
            with pytest.raises(FrozenInstanceError):
                node.id = "changed"
    assert len(documents) == 36
    assert seen == {canonical_class_name(raw["class"]) for document in documents
                    for raw in document["objects"]} & set(DATACLASS_FOR)


def wrong_value(spec):
    """A value of the wrong type for the attr ``spec``."""
    if is_list(spec):
        return "A"
    return {"str": 3, "ts": "yesterday", "bool": 1, "int": "3"}[spec.kind]


def first_attr_message(cls: str) -> str:
    spec = CLASS_ATTRS[cls][0]
    label = f"{cls}.{spec.name}"
    if is_list(spec):
        return NOT_LIST.format(label=label)
    template = {"str": NOT_STR, "ts": NOT_STAMP, "bool": NOT_BOOL, "int": NOT_INT}
    return template[spec.kind].format(label=label)


def first_ref_message(cls: str) -> str:
    spec = CLASS_REFS[cls][0]
    return (NOT_IDS if spec.many else NOT_ID).format(cls=cls, name=spec.name)


def bad_refs(cls: str) -> dict:
    return {spec.name: 1 for spec in CLASS_REFS[cls]}


def bad_attrs(cls: str) -> dict:
    return {spec.name: wrong_value(spec) for spec in CLASS_ATTRS[cls]}


def precedence_cases():
    """Several faults at once: unknown attrs, then unknown refs, then attrs
    in table order, then refs in table order, then nested attrs."""
    for cls in TYPED:
        attrs, refs = CLASS_ATTRS[cls], CLASS_REFS[cls]
        yield pytest.param(cls, {"zeta": 1, "alpha": 2, **bad_attrs(cls)},
                           {"omega": "t", **bad_refs(cls)},
                           UNKNOWN_ATTRS.format(cls=cls, names="alpha, zeta"),
                           id=f"{cls}-unknown-attrs-first")
        yield pytest.param(cls, bad_attrs(cls), {"omega": "t", "beta": "t", **bad_refs(cls)},
                           UNKNOWN_REFS.format(cls=cls, names="beta, omega"),
                           id=f"{cls}-unknown-refs-before-attrs")
        if attrs:
            yield pytest.param(cls, bad_attrs(cls), bad_refs(cls), first_attr_message(cls),
                               id=f"{cls}-first-attr-in-table-order")
        if refs:
            nested = {spec.name: [] for spec in NESTED_ATTRS.get(cls, ())}
            yield pytest.param(cls, nested, bad_refs(cls), first_ref_message(cls),
                               id=f"{cls}-first-ref-in-table-order")
        for spec in NESTED_ATTRS.get(cls, ()):
            message = ("basis must be an object" if spec.kind == "basis"
                       else "consultation must be an object")
            yield pytest.param(cls, {spec.name: []}, {}, message,
                               id=f"{cls}-{spec.name}-after-attrs-and-refs")


@pytest.mark.parametrize("cls, attrs, refs, message", precedence_cases())
def test_several_faults_report_the_first_in_order(cls, attrs, refs, message):
    raw = full_object(cls)
    raw["attrs"].update(attrs)
    raw["refs"].update(refs)
    error = load_error(raw)
    assert (error.code, error.object_id) == ("SCHEMA", ID)
    assert str(error) == f"SCHEMA (object {ID!r}): {message}"


def test_nested_attrs_are_checked_after_attrs_and_refs():
    """A required nested attr that is absent is reported only once every
    attr and ref has passed."""
    raw = full_object("Data_Transfer")
    del raw["attrs"]["basis"]
    assert str(load_error(raw)) == \
        f"SCHEMA (object {ID!r}): Data_Transfer.basis is required"
    raw["refs"]["to"] = ""
    assert str(load_error(raw)) == \
        f"SCHEMA (object {ID!r}): {NOT_ID.format(cls='Data_Transfer', name='to')}"
    raw = full_object("Data_Protection_Impact_Assessment")
    raw["attrs"]["consultation"] = None
    assert str(load_error(raw)) == \
        f"SCHEMA (object {ID!r}): consultation must be an object"


def test_generated_decoder_source_is_kept():
    raw = full_object("Consent")
    load_error(raw)  # the graph rejects the dangling refs after decoding
    source = ingest._CODEC_SOURCE["decode", "Consent"]
    for spec in CLASS_ATTRS["Consent"]:
        assert repr(spec.name) in source, spec.name
    for spec in CLASS_REFS["Consent"]:
        assert repr(spec.name) in source, spec.name


def test_codecs_are_generated_per_wire_class_only():
    """The nested basis and consultation are decoded by plain functions, so
    a load of every typed class generates one decoder and one encoder each."""
    serialize_instance(load_instance(document_bytes(compliant_document())))
    assert {"Data_Transfer", "Data_Protection_Impact_Assessment"} <= {
        cls for _, cls in ingest._CODEC_SOURCE}
    for kind, cls in ingest._CODEC_SOURCE:
        assert kind in ("decode", "encode") and cls in DATACLASS_FOR, (kind, cls)


def test_import_generates_no_codec():
    """Codecs are generated when a class is first met, so an import (which
    every one-document check pays) builds none."""
    script = ("import gdpr_engine.cli\n"
              "from gdpr_engine import ingest\n"
              "assert not ingest._CODEC_SOURCE, sorted(ingest._CODEC_SOURCE)\n"
              "assert not ingest._CODECS\n")
    package_root = os.path.dirname(os.path.dirname(ingest.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
