"""Property tests of the canonical instance encoding.

Random valid graphs aim at what a hand-written JSON encoder can get wrong:
strings with quotes, backslashes, control characters, U+2028, non-ASCII and
astral characters, in ids, attrs and ref roles; generic-node attrs holding
nested dicts and lists, floats, big ints and non-ASCII keys; many-refs with
duplicate ids and single refs; and every transfer basis kind.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gdpr_engine import enums, graph_fingerprint, load_instance, serialize_instance
from gdpr_engine.ingest import canonical_json
from gdpr_engine.model import BASIS_FIELDS, GENERIC_CLASSES

TRICKY = '"\\\x00\x1f\x7f\u2028\u2029\u00e9\uffff\U0001F600/\nab'
CHARS = st.characters(blacklist_categories=("Cs",))


def text(min_size: int, max_size: int) -> st.SearchStrategy:
    return st.one_of(st.text(TRICKY, min_size=min_size, max_size=max_size),
                     st.text(CHARS, min_size=min_size, max_size=max_size))


TEXT = text(0, 8)
NAME = text(1, 6)
STAMP = st.sampled_from(["2023-01-05T00:00:00Z", "2023-02-01T08:30:00+02:00",
                         "1969-12-31T23:59:59.5Z"])
OPEN_VALUES = st.recursive(
    st.none() | st.booleans() | TEXT
    | st.integers(min_value=-2**80, max_value=2**80)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6)


def literals(name: str) -> st.SearchStrategy:
    return st.sampled_from(sorted(enums.ENUMERATIONS[name]))


def some(ids: list[str], min_size: int = 0) -> st.SearchStrategy:
    """A many-ref: ids drawn with repetition, so duplicates occur."""
    return st.lists(st.sampled_from(ids), min_size=min_size, max_size=4)


def one(ids: list[str]) -> st.SearchStrategy:
    """A single ref, as a bare id or a one-element list."""
    return st.sampled_from(ids).flatmap(lambda i: st.sampled_from([i, [i]]))


def basis(draw) -> dict:
    kind = draw(st.sampled_from(sorted(BASIS_FIELDS)))
    out = {"kind": kind}
    for name in sorted(BASIS_FIELDS[kind]):
        if not draw(st.booleans()):
            continue
        if name in ("additionalRequirements", "evidence"):
            out[name] = draw(st.lists(TEXT, max_size=3))
        elif name == "information":
            out[name] = draw(st.lists(
                literals(enums.TRANSFER_CONTRACT_INFORMATION), max_size=3))
        elif name == "derogation":
            out[name] = draw(literals(enums.TRANSFER_DEROGATION_TYPES))
        elif name == "details":
            out[name] = draw(TEXT)
        else:
            out[name] = draw(st.booleans())
    if kind == "Derogation":
        out.setdefault("derogation", "OTHER")
    return out


@st.composite
def documents(draw) -> dict:
    ids = draw(st.lists(NAME, min_size=12, max_size=12, unique=True))
    countries, subjects, processor, data, purpose, dpia, transfer = ids[:7]
    generic_ids = ids[7:]
    country_ids = [countries]
    objects = [
        {"id": countries, "class": "Country",
         "attrs": {"code": "LU", "isEUMemberState": True, "EULawApplies": True}},
        {"id": subjects, "class": "Data_Subject",
         "attrs": {"ageYears": draw(st.integers(0, 2**70))},
         "refs": {"residence": draw(one(country_ids))}},
        {"id": processor, "class": "Data_Processor",
         "attrs": {"kind": draw(literals(enums.ACTOR_TYPE)),
                   "contactDetails": draw(TEXT),
                   "instructions": draw(st.lists(TEXT, max_size=3))},
         "refs": {"countries": draw(some(country_ids, min_size=1))}},
        {"id": data, "class": "Personal_Data",
         "attrs": {"categories": draw(st.lists(literals(enums.DATA_CATEGORY),
                                               max_size=3)),
                   "source": draw(TEXT)},
         "refs": {"subjects": draw(some([subjects]))}},
        {"id": purpose, "class": "Purpose",
         "attrs": {"description": draw(TEXT), "legalBasis": "BY_CONSENT",
                   "obligationSource": draw(st.none() | TEXT)}},
        {"id": dpia, "class": "DPIA",
         "attrs": {"residualRisk": draw(literals(enums.RISK_SEVERITY)),
                   "motivations": draw(st.lists(literals(enums.DPIA_MOTIVATION),
                                                max_size=2)),
                   "consultation": {"requestedAt": draw(STAMP),
                                    "extended": draw(st.booleans()),
                                    **draw(st.fixed_dictionaries(
                                        {}, optional={"adviceAt": STAMP}))}}},
        {"id": transfer, "class": "Data_Transfer",
         "attrs": {"onward": draw(st.booleans()), "basis": basis(draw)},
         "refs": {"from": countries, "to": draw(one(country_ids))}},
    ]
    for object_id in generic_ids:
        refs = draw(st.dictionaries(NAME, st.one_of(one(ids), some(ids)),
                                    max_size=3))
        objects.append({"id": object_id,
                        "class": draw(st.sampled_from(sorted(GENERIC_CLASSES))),
                        "attrs": draw(st.dictionaries(TEXT, OPEN_VALUES, max_size=4)),
                        "refs": refs})
    return {"schemaVersion": "1",
            "objects": draw(st.permutations(objects))}


PROPERTY_SETTINGS = settings(max_examples=100)


@PROPERTY_SETTINGS
@given(documents(), st.booleans())
def test_serialization_is_canonical_stable_and_hashed_as_written(document,
                                                                 ascii_input):
    graph = load_instance(json.dumps(document, ensure_ascii=ascii_input)
                          .encode("utf-8"))
    text = serialize_instance(graph)

    assert text == json.dumps(json.loads(text), sort_keys=True,
                              separators=(",", ":"), ensure_ascii=False)

    again = serialize_instance(load_instance(text))
    assert again == text
    assert serialize_instance(load_instance(again.encode("utf-8"))) == text

    assert graph_fingerprint(graph) == \
        hashlib.sha256(text.encode("utf-8")).hexdigest()


@PROPERTY_SETTINGS
@given(OPEN_VALUES)
def test_canonical_json_is_what_json_dumps_prints(value):
    assert canonical_json(value) == json.dumps(value, sort_keys=True, separators=(",", ":"),
                                               ensure_ascii=False)


@pytest.mark.parametrize("value", [{"a": {1, 2}}, [b"bytes"], {1: "a", "b": 2}])
def test_canonical_json_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as refused:
        json.dumps(value, sort_keys=True)
    with pytest.raises(TypeError) as caught:
        canonical_json(value)
    assert str(caught.value) == str(refused.value)


def test_canonical_json_of_a_cyclic_value_raises():
    """The encoder keeps no record of the containers it is inside, so a
    cycle recurses until the interpreter's limit stops it."""
    looped: list = [1]
    looped.append(looped)
    nested = {"a": [{"b": None}]}
    nested["a"][0]["b"] = nested
    for value in (looped, nested):
        with pytest.raises(RecursionError):
            canonical_json(value)
    assert canonical_json({"b": [1, {"a": "\u00e9"}], "a": None}) \
        == '{"a":null,"b":[1,{"a":"\u00e9"}]}'
