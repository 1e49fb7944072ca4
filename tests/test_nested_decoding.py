"""Golden sweep of the nested decoders: every transfer-basis kind with every
basis field absent, valid, of a wrong type, null or beside a field of
another kind, the basis and its kind malformed, and every consultation
field likewise.

Each case replaces one nested attr of the compliant fixture and pins what
``load_instance`` gives: the code, the object, ``str(error)`` and every
violation of a LoadError, or the ``repr`` of the decoded value. The table,
``golden/nested_decoding.json``, was written by ``python
tests/test_nested_decoding.py`` from the loader whose decoders looped over
every basis field and built the basis by keyword.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from fixtures import compliant_document, document_bytes, find
from gdpr_engine import enums, load_instance
from gdpr_engine.ingest import LoadError
from gdpr_engine.model import BASIS_DEFAULTS, BASIS_FIELDS

TABLE = Path(__file__).with_name("golden") / "nested_decoding.json"
ABSENT = object()  # the attr or field is left out

VALID = {"additionalRequirements": ["only b", "only a"], "evidence": ["e2", "e1", "e2"],
         "information": ["TARGET_COUNTRIES", "CONTACT_DETAILS", "TARGET_COUNTRIES"],
         "approved": True, "legallyBinding": True, "authorized": True,
         "derogation": "NECESSARY_FOR_CONTRACT", "details": "why"}
WRONG = {name: "x" if isinstance(default, tuple) else
         "yes" if isinstance(default, bool) else 1 for name, default in BASIS_DEFAULTS}
CONSULTATION = {"requestedAt": "2023-02-01T00:00:00Z",
                "adviceAt": "2023-03-01T00:00:00Z", "extended": False}


def _with(base: dict, name: str, value) -> dict:
    out = dict(base)
    if value is ABSENT:
        out.pop(name, None)
    else:
        out[name] = value
    return out


def basis_cases():
    """(case name, basis value) of the sweep."""
    for kind in sorted(BASIS_FIELDS):
        own = [name for name, _ in BASIS_DEFAULTS if name in BASIS_FIELDS[kind]]
        foreign = next(name for name, _ in BASIS_DEFAULTS if name not in own)
        base = {"kind": kind}
        for name, default in BASIS_DEFAULTS:
            variants = {"absent": ABSENT, "valid": VALID[name], "wrong type": WRONG[name],
                        "null": None}
            if isinstance(default, tuple):
                variants["wrong entry"] = ["x", 2]
            for variant, value in variants.items():
                yield f"{kind} {name} {variant}", _with(base, name, value)
            if name in own:
                yield (f"{kind} {name} beside a field of another kind",
                       {**base, name: WRONG[name], foreign: VALID[foreign], "zeta": 1})
        yield f"{kind} all own fields valid", {**base, **{n: VALID[n] for n in own}}
        yield f"{kind} all own fields wrong", {**base, **{n: WRONG[n] for n in own}}
        yield f"{kind} own fields wrong in reverse order", {
            **base, **{n: WRONG[n] for n in reversed(own)}}
    for name, value in {"absent": ABSENT, "null": None, "a string": "IntraEU",
                        "a list": [{"kind": "IntraEU"}], "a number": 1,
                        "a boolean": True}.items():
        yield f"basis {name}", value
    for name, value in {"absent": ABSENT, "null": None, "a number": 1, "a list": ["BCR"],
                        "an object": {"kind": "BCR"}, "unknown": "Handshake",
                        "in another case": "bcr"}.items():
        yield f"kind {name}", _with({"approved": "yes", "zeta": 1}, "kind", value)


def consultation_cases():
    """(case name, consultation value) of the sweep."""
    for name, value in {"absent": ABSENT, "null": None, "a string": "x", "a list": [],
                        "empty": {}, "with unknown keys": {**CONSULTATION, "zeta": 1, "b": 2},
                        "all fields wrong": {"requestedAt": 1, "adviceAt": 2,
                                             "extended": "no", "zeta": 1}}.items():
        yield f"consultation {name}", value
    for name in CONSULTATION:
        variants = {"absent": ABSENT, "null": None, "wrong type": 1,
                    "valid": not CONSULTATION[name] if name == "extended"
                    else "2023-02-01T12:30:00+02:00"}
        if name != "extended":
            variants.update({"not a timestamp": "soon",
                             "out of range": "9999-12-31T23:59:59-05:00"})
        for variant, value in variants.items():
            yield f"consultation {name} {variant}", _with(CONSULTATION, name, value)
    yield "consultation fields wrong from the last", {
        **CONSULTATION, "adviceAt": "soon", "extended": 0}


CASES = {name: ("tr_eu", "basis", value) for name, value in basis_cases()}
CASES.update({name: ("dpia1", "consultation", value)
              for name, value in consultation_cases()})


def outcome(object_id: str, attr: str, value) -> dict:
    """What loading the fixture with ``value`` as the nested attr gives."""
    document = compliant_document()
    holder = find(document, object_id)["attrs"]
    if value is ABSENT:
        del holder[attr]
    else:
        holder[attr] = copy.deepcopy(value)
    try:
        graph = load_instance(document_bytes(document))
    except LoadError as error:
        return {"code": error.code, "object": error.object_id, "message": str(error),
                "violations": [[v.code, v.objectId, v.message] for v in error.violations]}
    return {"loaded": repr(getattr(graph.get(object_id), attr))}


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_the_table_holds_every_case(table):
    assert sorted(table) == sorted(CASES)
    # The sweep reaches every kind of outcome, not only errors.
    assert {tuple(sorted(entry)) for entry in table.values()} == {
        ("code", "message", "object", "violations"), ("loaded",)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_case_gives_the_golden_outcome(table, name):
    assert outcome(*CASES[name]) == table[name]


def test_every_basis_kind_is_a_transfer_basis_literal():
    assert set(BASIS_FIELDS) == enums.ENUMERATIONS[enums.TRANSFER_BASIS_KIND]


if __name__ == "__main__":
    TABLE.write_text(json.dumps({name: outcome(*case) for name, case in CASES.items()},
                                indent=1, sort_keys=True) + "\n", encoding="utf-8")
