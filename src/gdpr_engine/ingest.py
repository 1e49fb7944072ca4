"""Instance-document and profile-document ingestion.

Concrete syntax is JSON (UTF-8), one document per graph or profile:

    {"schemaVersion": "1", "objects": [{"id", "class", "attrs", "refs"}, ...]}
    {"schemaVersion": "1", "resolutions": [{"variation": "V1", "params": {...}}]}

Parsing is total: every byte sequence yields either a graph/resolution list
or a LoadError carrying a structured code; no partial graph escapes.
Canonical serialization orders objects by id and normalizes set-valued
fields, so load -> serialize -> load is the identity.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import re
from dataclasses import fields
from sys import intern
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

from . import model
from .enums import ENUMERATIONS, TRANSFER_BASIS_KIND
from .model import (
    BAD_LITERAL,
    BASIS_FIELDS,
    CLASS_ATTRS,
    CLASS_REFS,
    DANGLING_REF,
    DATACLASS_FOR,
    INVARIANT,
    NESTED_ATTRS,
    Consultation,
    GenericNode,
    InstanceGraph,
    Node,
    TransferBasis,
    validate_graph,
)
from .registry import ABSTRACT_CLASSES, UnknownClassError, canonical_class_name
from .timebase import TimestampError, TimestampRangeError, parse_minutes
from .variability import (
    Resolution,
    VARIATION_POINTS,
    VariabilityError,
    plain_data,
)

SYNTAX = "SYNTAX"
SCHEMA = "SCHEMA"
UNKNOWN_CLASS = "UNKNOWN_CLASS"
DUPLICATE_ID = "DUPLICATE_ID"
UNKNOWN_VARIATION = "UNKNOWN_VARIATION"

ERROR_CODES = (
    SYNTAX, SCHEMA, UNKNOWN_CLASS, DUPLICATE_ID,
    DANGLING_REF, BAD_LITERAL, INVARIANT, UNKNOWN_VARIATION,
)

SUPPORTED_SCHEMA_VERSION = "1"

# Plain string-list fields whose document order is meaningful.
_ORDERED_STR_LISTS = frozenset({"instructions"})


class LoadError(ValueError):
    """Structured ingestion failure."""

    def __init__(self, code: str, message: str, *, object_id: str | None = None,
                 line: int | None = None, column: int | None = None,
                 violations: Sequence[model.Violation] = ()):
        self.code = code
        self.object_id = object_id
        self.line = line
        self.column = column
        self.violations = tuple(violations)
        where = ""
        if line is not None:
            where = f" at line {line}, column {column}"
        if object_id:
            where += f" (object {object_id!r})"
        super().__init__(f"{code}{where}: {message}")


def _fail(code: str, message: str, **kw) -> "LoadError":
    raise LoadError(code, message, **kw)


# ---------------------------------------------------------------------------
# Instance documents
# ---------------------------------------------------------------------------

def load_instance(data: bytes | str, profile=None) -> InstanceGraph:
    """Parse an instance document into a reference-resolved, validated graph.

    Enumeration literals are checked against the base sets plus the
    extensions of ``profile`` when one is given.

    The document is decoded one object at a time: each raw object is dropped
    as soon as its node is built, and the text before the graph is built, so
    no JSON tree of the whole document is ever held. A document the stream
    cannot load is read again whole, which reports its first error. Loading
    creates no reference cycles, so cyclic garbage collection is paused
    meanwhile.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        text = _decode(data)
        from_str = isinstance(data, str)
        nodes = _stream_nodes(text, from_str)
        if nodes is None:
            nodes = _document_nodes(text, from_str)
        del text
        nodes = _with_unique_ids(nodes)

        graph = InstanceGraph(nodes)
        del nodes
        violations = validate_graph(graph, profile)
        if violations:
            first = violations[0]
            raise LoadError(first.code, first.message, object_id=first.objectId,
                            violations=violations)
        return graph
    finally:
        if enabled:
            gc.enable()


def _decode(data: bytes | str) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            _fail(SYNTAX, f"document is not UTF-8: {exc}")
    return data


def _reject_constant(literal: str) -> None:
    _fail(SYNTAX, f"{literal} is not a JSON number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        _fail(SYNTAX, "a number is too large for a finite double")
    return value


# RFC 8259 JSON only: NaN, Infinity and -Infinity, which json.loads accepts,
# and numbers that overflow a double raise LoadError(SYNTAX).
_DECODER = json.JSONDecoder(parse_constant=_reject_constant,
                            parse_float=_finite_float)


def _parse_json(text: str) -> dict:
    try:
        document = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        _fail(SYNTAX, exc.msg, line=exc.lineno, column=exc.colno)
    except RecursionError:
        _fail(SYNTAX, "document nests deeper than the parser allows")
    except LoadError:  # from the number hooks above
        raise
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        _fail(SYNTAX, "a number has more digits than the parser allows")
    if not isinstance(document, dict):
        _fail(SCHEMA, "document root must be an object")
    return document


_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _reject_lone_surrogates(text: str, document: dict, *, from_str: bool) -> None:
    """Reject a string holding a lone surrogate (U+D800-U+DFFF): UTF-8
    cannot encode it, so the canonical document could not be hashed.

    Bytes are decoded strictly and carry none, so only a \\uD800-\\uDFFF
    escape, or a raw surrogate in text passed as str (``from_str``), can
    bring one in. Only an escape needs the parsed strings: a paired escape
    decodes to one astral character and is valid.
    """
    found = None
    if _SURROGATE_ESCAPE.search(text):
        found = _SURROGATE.search(json.dumps(document, ensure_ascii=False))
    elif from_str and not text.isascii():
        found = _SURROGATE.search(text)
    if found is not None:
        _fail(SYNTAX, f"a string holds the lone surrogate "
                      f"U+{ord(found.group()):04X}, which UTF-8 cannot encode")


def _check_top_level(document: Mapping, allowed: AbstractSet[str],
                     required: str) -> None:
    unknown = sorted(set(document) - allowed)
    if unknown:
        _fail(SCHEMA, f"unknown top-level keys: {', '.join(unknown)}")
    version = document.get("schemaVersion", SUPPORTED_SCHEMA_VERSION)
    if version != SUPPORTED_SCHEMA_VERSION:
        _fail(SCHEMA, f"unsupported schemaVersion {version!r}")
    if required not in document:
        _fail(SCHEMA, f"missing top-level key {required!r}")


_INSTANCE_KEYS = frozenset({"schemaVersion", "objects"})
_SPACE = frozenset(" \t\n\r")  # JSON whitespace
_skip_space = json.decoder.WHITESPACE.match
_scan_key = json.decoder.scanstring  # the C string reader the scanner uses


def _stream_nodes(text: str, from_str: bool) -> list[Node] | None:
    """The nodes of an instance document, decoded one object at a time.

    Keys are read with the scanner's string reader and values with
    ``_DECODER.scan_once``, the scanner and number hooks that
    ``_DECODER.decode`` uses, so each element of ``objects`` is the dict a
    whole-document parse would hold. It is built into its node and dropped.

    Returns None, and never raises, for a document that might not load
    this way: a syntax error anywhere, a root that is not an object, a
    top-level key that is unknown or repeated, a wrong ``schemaVersion``,
    ``objects`` missing or not an array, a surrogate escape (or a raw
    surrogate in ``str`` input), or an object that does not build.
    ``_document_nodes`` then reads the text whole, so the error reported is
    the one a whole-document load finds first. Ids are not checked here:
    once every object has built, the first repeated id is that error, and
    ``_with_unique_ids`` finds it after the text is released.
    """
    if _SURROGATE_ESCAPE.search(text) or (
            from_str and not text.isascii() and _SURROGATE.search(text)):
        return None
    scan = _DECODER.scan_once
    nodes: list[Node] | None = None
    keys: set[str] = set()
    try:
        pos = _skip_space(text, 0).end()
        if text[pos:pos + 1] != "{":
            return None
        pos = _skip_space(text, pos + 1).end()
        while True:
            if text[pos:pos + 1] != '"':
                return None
            key, pos = _scan_key(text, pos + 1)
            if key in keys or key not in _INSTANCE_KEYS:
                return None
            keys.add(key)
            pos = _skip_space(text, pos).end()
            if text[pos:pos + 1] != ":":
                return None
            pos = _skip_space(text, pos + 1).end()
            if key == "schemaVersion":
                version, pos = scan(text, pos)
                if version != SUPPORTED_SCHEMA_VERSION:
                    return None
            else:
                if text[pos:pos + 1] != "[":
                    return None
                nodes = []
                pos = _skip_space(text, pos + 1).end()
                char = text[pos:pos + 1]
                while char != "]":
                    raw, pos = scan(text, pos)
                    nodes.append(_build_node(raw, len(nodes)))
                    # A separator costs a regex match only when it holds
                    # whitespace other than json.dumps' single space.
                    char = text[pos:pos + 1]
                    if char in _SPACE:
                        pos = _skip_space(text, pos).end()
                        char = text[pos:pos + 1]
                    if char == ",":
                        pos += 1
                        if text[pos:pos + 1] == " ":
                            pos += 1
                        if text[pos:pos + 1] in _SPACE:
                            pos = _skip_space(text, pos).end()
                    elif char != "]":
                        return None
                pos += 1
            pos = _skip_space(text, pos).end()
            char = text[pos:pos + 1]
            if char == "}":
                break
            if char != ",":
                return None
            pos = _skip_space(text, pos + 1).end()
    except (ValueError, StopIteration, RecursionError):
        # A JSONDecodeError, a number hook's LoadError, an integer past the
        # digit limit, no value where one belongs, nesting past the stack,
        # or an object that does not build.
        return None
    if nodes is None or _skip_space(text, pos + 1).end() != len(text):
        return None
    return nodes


def _document_nodes(text: str, from_str: bool) -> Iterator[Node]:
    """The nodes of an instance document parsed whole, built one by one as
    they are drawn, or the LoadError of its first fault.

    The checks run in the order that decides which error a document with
    several faults reports: syntax, a lone surrogate, the top-level keys,
    then each object in document order, where ``_with_unique_ids`` draws
    the nodes and checks each id before the next object is built. This path
    runs only for a document ``_stream_nodes`` declined, mostly to report
    its error; a document whose surrogate escapes are paired, or whose last
    repeated ``objects`` key holds valid objects, still loads here.
    """
    document = _parse_json(text)
    _reject_lone_surrogates(text, document, from_str=from_str)
    _check_top_level(document, _INSTANCE_KEYS, "objects")
    raw_objects = document["objects"]
    if not isinstance(raw_objects, list):
        _fail(SCHEMA, "objects must be a list")
    for position, raw in enumerate(raw_objects):
        yield _build_node(raw, position)


def _with_unique_ids(nodes: Iterable[Node]) -> list[Node]:
    """``nodes`` as a list, or DUPLICATE_ID at the first id seen twice."""
    out: list[Node] = []
    seen: set[str] = set()
    for node in nodes:
        if node.id in seen:
            _fail(DUPLICATE_ID, f"object id {node.id!r} declared twice",
                  object_id=node.id)
        seen.add(node.id)
        out.append(node)
    return out


_OBJECT_KEYS = frozenset({"id", "class", "attrs", "refs"})


def _unknown(names, allowed: frozenset[str]) -> str:
    """The names outside ``allowed``, sorted and comma-separated."""
    return ", ".join(sorted(names - allowed))


def _build_node(raw: object, position: int) -> Node:
    if not isinstance(raw, dict):
        _fail(SCHEMA, f"objects[{position}] is not an object")
    if not raw.keys() <= _OBJECT_KEYS:
        _fail(SCHEMA, f"objects[{position}]: unknown keys "
                      f"{_unknown(raw.keys(), _OBJECT_KEYS)}")
    object_id = raw.get("id")
    if not isinstance(object_id, str) or not object_id:
        _fail(SCHEMA, f"objects[{position}]: id must be a nonempty string")
    class_name = raw.get("class")
    if not isinstance(class_name, str):
        _fail(SCHEMA, "class must be a string", object_id=object_id)
    try:
        canonical = canonical_class_name(class_name)
    except UnknownClassError:
        raise LoadError(UNKNOWN_CLASS, f"unknown class {class_name!r}",
                        object_id=object_id) from None
    if canonical in ABSTRACT_CLASSES:
        _fail(UNKNOWN_CLASS, f"class {canonical} is abstract and cannot be "
                             "instantiated", object_id=object_id)

    attrs = raw.get("attrs", {})
    refs = raw.get("refs", {})
    if not isinstance(attrs, dict):
        _fail(SCHEMA, "attrs must be an object", object_id=object_id)
    if not isinstance(refs, dict):
        _fail(SCHEMA, "refs must be an object", object_id=object_id)

    plan = _DECODE_PLANS.get(canonical)
    if plan is None:
        # The scanner forgets its key memo between objects, so interning
        # keeps one copy of each open key, as a whole-document parse did.
        return GenericNode(id=object_id, cls=canonical,
                           attrs={intern(key): value for key, value in attrs.items()},
                           refs=_generic_refs(object_id, refs))
    return _build_typed(object_id, canonical, plan, attrs, refs)


def _generic_refs(object_id: str, refs: Mapping) -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    for role, value in refs.items():
        ids = value if isinstance(value, list) else [value]
        for target in ids:
            if not isinstance(target, str) or not target:
                _fail(SCHEMA, f"ref {role!r} must hold object ids",
                      object_id=object_id)
        out[intern(role)] = tuple(sorted(ids))
    return out


def _build_typed(object_id: str, cls: str, plan: tuple, attrs: dict,
                 refs: dict) -> Node:
    dataclass, attr_steps, ref_steps, nested_steps, attr_names, ref_names = plan
    if not attrs.keys() <= attr_names:
        _fail(SCHEMA, f"{cls} does not define attrs: "
                      f"{_unknown(attrs.keys(), attr_names)}", object_id=object_id)
    if not refs.keys() <= ref_names:
        _fail(SCHEMA, f"{cls} does not define refs: "
                      f"{_unknown(refs.keys(), ref_names)}", object_id=object_id)

    kwargs: dict[str, object] = {}
    for name, required, decode in attr_steps:
        value = attrs.get(name)
        if value is None:
            if required:
                _fail(SCHEMA, f"{cls}.{name} is required", object_id=object_id)
            continue
        kwargs[name] = decode(object_id, value)

    for name, field_name, required, many in ref_steps:
        value = refs.get(name)
        if value is None:
            if required:
                _fail(SCHEMA, f"{cls} ref {name!r} is required",
                      object_id=object_id)
            continue
        if many:
            ids = value if isinstance(value, list) else [value]
            for target in ids:
                if not isinstance(target, str) or not target:
                    _fail(SCHEMA, f"{cls} ref {name!r} must hold object ids",
                          object_id=object_id)
            kwargs[field_name] = tuple(sorted(ids))
        else:
            if isinstance(value, list):
                if len(value) != 1:
                    _fail(SCHEMA, f"{cls} ref {name!r} takes a single id",
                          object_id=object_id)
                value = value[0]
            if not isinstance(value, str) or not value:
                _fail(SCHEMA, f"{cls} ref {name!r} must hold an object id",
                      object_id=object_id)
            kwargs[field_name] = value

    for name, required, decode in nested_steps:
        if required or name in attrs:
            kwargs[name] = decode(object_id, attrs.get(name))

    return dataclass(id=object_id, cls=cls, **kwargs)


def _attr_decoder(cls: str, spec):
    """decode(object_id, value) for one attr: checks the value's type and
    returns the field value. The label is built once, here."""
    label = f"{cls}.{spec.name}"
    if spec.many or spec.kind == "strlist":
        ordered = spec.name in _ORDERED_STR_LISTS

        def decode(object_id: str, value: object):
            if not isinstance(value, list):
                _fail(SCHEMA, f"{label} must be a list", object_id=object_id)
            for item in value:
                if not isinstance(item, str):
                    _fail(SCHEMA, f"{label} entries must be strings",
                          object_id=object_id)
            return tuple(value) if ordered else tuple(sorted(set(value)))
    elif spec.kind == "bool":
        def decode(object_id: str, value: object):
            if not isinstance(value, bool):
                _fail(SCHEMA, f"{label} must be a boolean", object_id=object_id)
            return value
    elif spec.kind == "int":
        nonneg = spec.nonneg

        def decode(object_id: str, value: object):
            if not isinstance(value, int) or isinstance(value, bool):
                _fail(SCHEMA, f"{label} must be an integer", object_id=object_id)
            if nonneg and value < 0:
                _fail(SCHEMA, f"{label} must be non-negative", object_id=object_id)
            return value
    elif spec.kind == "ts":
        def decode(object_id: str, value: object):
            _check_timestamp(object_id, label, value)
            return value
    else:
        def decode(object_id: str, value: object):
            if not isinstance(value, str):
                _fail(SCHEMA, f"{label} must be a string", object_id=object_id)
            return value
    return decode


def _check_timestamp(object_id: str, label: str, value: object) -> None:
    try:
        parse_minutes(value)
    except TimestampRangeError as exc:
        _fail(SCHEMA, f"{label}: {exc}", object_id=object_id)
    except TimestampError:
        _fail(SCHEMA, f"{label} must be an ISO-8601 timestamp",
              object_id=object_id)


# (name, default) of each basis field but the kind, in declaration order. A
# tuple default means a list of strings, a bool one a boolean, any other a
# string.
_BASIS_SCHEMA = tuple((f.name, f.default) for f in fields(TransferBasis)
                      if f.name != "kind")


def _build_basis(object_id: str, raw: object) -> TransferBasis:
    if raw is None:
        _fail(SCHEMA, "Data_Transfer.basis is required", object_id=object_id)
    if not isinstance(raw, dict):
        _fail(SCHEMA, "basis must be an object", object_id=object_id)
    kind = raw.get("kind")
    if not isinstance(kind, str) or kind not in ENUMERATIONS[TRANSFER_BASIS_KIND]:
        _fail(BAD_LITERAL, f"basis kind {kind!r} is not a transfer basis",
              object_id=object_id)
    allowed = BASIS_FIELDS[kind]
    unknown = sorted(set(raw) - allowed - {"kind"})
    if unknown:
        _fail(SCHEMA, f"basis fields {', '.join(unknown)} do not belong to a "
                      f"{kind} basis (exactly one variant may be populated)",
              object_id=object_id)
    kwargs: dict[str, object] = {"kind": kind}
    for name, default in _BASIS_SCHEMA:
        if name not in raw:
            continue
        value = raw[name]
        if isinstance(default, tuple):
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                _fail(SCHEMA, f"basis.{name} must be a list of strings",
                      object_id=object_id)
            value = tuple(sorted(set(value))) if name == "information" else tuple(value)
        elif isinstance(default, bool):
            if not isinstance(value, bool):
                _fail(SCHEMA, f"basis.{name} must be a boolean", object_id=object_id)
        elif not isinstance(value, str):
            _fail(SCHEMA, f"basis.{name} must be a string", object_id=object_id)
        kwargs[name] = value
    return TransferBasis(**kwargs)


def _build_consultation(object_id: str, raw: object) -> Consultation:
    if not isinstance(raw, dict):
        _fail(SCHEMA, "consultation must be an object", object_id=object_id)
    unknown = sorted(set(raw) - {"requestedAt", "adviceAt", "extended"})
    if unknown:
        _fail(SCHEMA, f"consultation does not define: {', '.join(unknown)}",
              object_id=object_id)
    requested = raw.get("requestedAt")
    _check_timestamp(object_id, "consultation.requestedAt", requested)
    advice = raw.get("adviceAt")
    if advice is not None:
        _check_timestamp(object_id, "consultation.adviceAt", advice)
    extended = raw.get("extended", False)
    if not isinstance(extended, bool):
        _fail(SCHEMA, "consultation.extended must be a boolean",
              object_id=object_id)
    return Consultation(requestedAt=requested, adviceAt=advice, extended=extended)


# Nested attrs, decoded after the refs: (name, required, decoder) per class.
_NESTED_DECODERS = {"basis": _build_basis, "consultation": _build_consultation}
_NESTED_STEPS: dict[str, tuple[tuple[str, bool, object], ...]] = {
    cls: tuple((spec.name, spec.required, _NESTED_DECODERS[spec.name]) for spec in specs)
    for cls, specs in NESTED_ATTRS.items()}
_NESTED_NAMES: dict[str, frozenset[str]] = {
    cls: frozenset(spec.name for spec in specs) for cls, specs in NESTED_ATTRS.items()}

# Per typed class, built once: (dataclass, (name, required, decoder) per
# attr, (name, field name, required, many) per ref, the nested steps,
# allowed attr names, allowed ref names).
_DECODE_PLANS: dict[str, tuple] = {}
for _cls, _dataclass in DATACLASS_FOR.items():
    _attrs = CLASS_ATTRS.get(_cls, ())
    _refs = CLASS_REFS.get(_cls, ())
    _DECODE_PLANS[_cls] = (
        _dataclass,
        tuple((spec.name, spec.required, _attr_decoder(_cls, spec)) for spec in _attrs),
        tuple((spec.name, spec.field_name, spec.required, spec.many) for spec in _refs),
        _NESTED_STEPS.get(_cls, ()),
        frozenset(spec.name for spec in _attrs) | _NESTED_NAMES.get(_cls, frozenset()),
        frozenset(spec.name for spec in _refs),
    )
del _cls, _dataclass, _attrs, _refs


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

# Canonical JSON is what json.dumps(value, sort_keys=True,
# separators=(",", ":"), ensure_ascii=False) prints; ``canonical_json`` writes
# it for any JSON value. The graph's canonical document is the canonical JSON
# of its wire form, written object by object from per-class plans, so neither
# the wire dicts nor the whole text are built to hash it.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                  ensure_ascii=False).encode
_encode_str = json.encoder.encode_basestring  # json.dumps' ensure_ascii=False escaper
_JSON_BOOL = {True: "true", False: "false"}
_SCALAR_ENCODERS = {"bool": _JSON_BOOL.__getitem__, "int": int.__repr__}


def _encode_strs(values: Sequence[str]) -> str:
    return "[" + ",".join(map(_encode_str, values)) + "]"


def _attr_encoder(spec) -> object:
    if spec.many or spec.kind == "strlist":
        return _encode_strs
    return _SCALAR_ENCODERS.get(spec.kind, _encode_str)


def _plan(fields) -> tuple[tuple[str, str, object], ...]:
    """(member prefix, field, encoder) for each (wire name, field, encoder),
    sorted by wire name."""
    return tuple((_encode_str(wire) + ":", name, encode)
                 for wire, name, encode in sorted(fields))


def _nested_plan(sample, names) -> tuple[tuple[str, str, object], ...]:
    """The plan of ``names``; each encoder follows the type of the field's
    default in ``sample``."""
    def encoder(default):
        if isinstance(default, tuple):
            return _encode_strs
        return _JSON_BOOL.__getitem__ if isinstance(default, bool) else _encode_str
    return _plan((name, name, encoder(getattr(sample, name))) for name in names)


_BASIS_PLANS = {kind: _nested_plan(TransferBasis(kind), allowed | {"kind"})
                for kind, allowed in BASIS_FIELDS.items()}
_CONSULTATION_PLAN = _nested_plan(Consultation(""),
                                  ("requestedAt", "adviceAt", "extended"))


def _encode_nested(value, plan) -> str:
    """A basis or consultation object; None and empty lists are left out."""
    return "{" + ",".join([key + encode(field) for key, name, encode in plan
                           if (field := getattr(value, name)) is not None
                           and field != ()]) + "}"


def _encode_basis(basis: TransferBasis) -> str:
    return _encode_nested(basis, _BASIS_PLANS[basis.kind])


def _encode_consultation(consultation: Consultation) -> str:
    return _encode_nested(consultation, _CONSULTATION_PLAN)


_NESTED_ENCODERS = {"basis": _encode_basis, "consultation": _encode_consultation}


# Per typed class, built once: (attr plan, ref plan, the text between the
# attrs and the id). Attrs are left out when None, refs when empty.
_ENCODE_PLANS: dict[str, tuple[tuple, tuple, str]] = {}
for _cls in DATACLASS_FOR:
    _attrs = [(spec.name, spec.name, _attr_encoder(spec))
              for spec in CLASS_ATTRS.get(_cls, ())]
    _attrs += [(name, name, _NESTED_ENCODERS[name])
               for name in _NESTED_NAMES.get(_cls, ())]
    _refs = [(spec.name, spec.field_name, _encode_strs if spec.many else _encode_str)
             for spec in CLASS_REFS.get(_cls, ())]
    _ENCODE_PLANS[_cls] = (_plan(_attrs), _plan(_refs),
                           '},"class":' + _encode_str(_cls) + ',"id":')
del _cls, _attrs, _refs

_DOCUMENT_TAIL = '],"schemaVersion":' + _encode_str(SUPPORTED_SCHEMA_VERSION) + "}"


def _object_json(node: Node) -> str:
    if isinstance(node, GenericNode):
        refs = ",".join([
            _encode_str(role) + ":"
            + (_encode_str(ids[0]) if len(ids) == 1 else _encode_strs(ids))
            for role, ids in sorted(node.refs.items())])
        return ('{"attrs":' + canonical_json(node.attrs) + ',"class":'
                + _encode_str(node.cls) + ',"id":' + _encode_str(node.id)
                + ',"refs":{' + refs + "}}")
    attr_fields, ref_fields, class_member = _ENCODE_PLANS[node.cls]
    attrs = ",".join([key + encode(value) for key, name, encode in attr_fields
                      if (value := getattr(node, name)) is not None])
    refs = ",".join([key + encode(value) for key, name, encode in ref_fields
                     if (value := getattr(node, name))])
    return ('{"attrs":{' + attrs + class_member + _encode_str(node.id)
            + ',"refs":{' + refs + "}}")


def _canonical_chunks(graph: InstanceGraph) -> Iterator[str]:
    """The canonical document, one fragment per object."""
    yield '{"objects":['
    separator = ""
    for node in graph:
        yield separator + _object_json(node)
        separator = ","
    yield _DOCUMENT_TAIL


def serialize_instance(graph: InstanceGraph) -> str:
    """Canonical JSON: objects sorted by id, keys sorted, compact separators."""
    return "".join(_canonical_chunks(graph))


def graph_fingerprint(graph: InstanceGraph) -> str:
    """SHA-256 of the UTF-8 canonical document, hashed fragment by fragment."""
    digest = hashlib.sha256()
    for chunk in _canonical_chunks(graph):
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Profile documents
# ---------------------------------------------------------------------------

def load_profile(data: bytes | str) -> list[Resolution]:
    """Parse a specialization-profile document into schema-checked
    resolutions, in declaration order."""
    document = _parse_json(_decode(data))
    _check_top_level(document, {"schemaVersion", "resolutions"}, "resolutions")
    raw_list = document.get("resolutions")
    if not isinstance(raw_list, list):
        _fail(SCHEMA, "resolutions must be a list")

    out: list[Resolution] = []
    for position, raw in enumerate(raw_list):
        if not isinstance(raw, dict):
            _fail(SCHEMA, f"resolutions[{position}] is not an object")
        unknown = sorted(set(raw) - {"variation", "params"})
        if unknown:
            _fail(SCHEMA, f"resolutions[{position}]: unknown keys "
                          f"{', '.join(unknown)}")
        variation = raw.get("variation")
        if not isinstance(variation, str):
            _fail(SCHEMA, f"resolutions[{position}]: variation must be a string")
        vp = VARIATION_POINTS.get(variation)
        if vp is None:
            _fail(UNKNOWN_VARIATION, f"unknown variation id {variation!r}")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            _fail(SCHEMA, f"resolutions[{position}]: params must be an object")
        try:
            normalized = vp.schema(params)
        except VariabilityError as exc:
            raise LoadError(SCHEMA, str(exc)) from exc
        out.append(Resolution(variation, normalized))
    return out


def serialize_profile(resolutions: Sequence[Resolution]) -> str:
    return canonical_json({
        "schemaVersion": SUPPORTED_SCHEMA_VERSION,
        "resolutions": [
            {"variation": r.variationId, "params": plain_data(r.parameters)}
            for r in resolutions
        ],
    })
