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
import sys
from typing import AbstractSet, BinaryIO, Iterable, Iterator, Mapping, Sequence

from . import model
from .model import (
    BAD_LITERAL,
    BASIS_DEFAULTS,
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
from .records import MISSING
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
_FROZEN_AT_IMPORT = gc.get_freeze_count() if sys.version_info >= (3, 12) else 0  # 3.12's own


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

def load_instance(data: bytes | str | BinaryIO, profile=None) -> InstanceGraph:
    """Parse an instance document into a reference-resolved, validated graph.

    Enumeration literals are checked against the base sets plus the
    extensions of ``profile`` when one is given.

    A text of at most 256 KiB (``_SCAN_WHOLE``), whose JSON tree is small,
    is parsed whole, in one call, and so is a text that may hold a lone
    surrogate: one with a ``\\uD800``-``\\uDFFF`` escape, or a ``str`` with a
    raw surrogate (decoded bytes hold none). A longer one is decoded one
    object at a time, each raw object dropped once its node is built and
    the text before the graph is built, so no tree of the whole document is
    held; if the stream cannot load it, it is parsed whole, which reports
    its first error. Each path parses each distinct timestamp once, and the
    graph takes the minutes of those its nodes hold. Loading creates no
    reference cycles, so cyclic garbage collection is paused meanwhile. A
    successful load with the collector enabled and nothing frozen
    (``gc.freeze``; on 3.12+, nothing since the import) then moves every
    live object to the oldest generation.

    Each path keeps the strings its nodes hold through one table made for
    the load, so equal strings are one object. The input bytes, read here
    from ``data`` if it is a binary file, are let go once decoded, so they
    are freed before the scan (a temporary ``handle.read()`` only on 3.11+).
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        data = data.read() if hasattr(data, "read") else data
        text = _decode(data)
        surrogates = _SURROGATE_ESCAPE.search(text) is not None or (
            isinstance(data, str) and not text.isascii() and _SURROGATE.search(text) is not None)
        del data
        # A declined stream's minutes and strings are dropped with its nodes.
        streamed = _stream_nodes(text) if len(text) > _SCAN_WHOLE and not surrogates else None
        nodes, parsed = streamed or (None, {})
        if nodes is None:
            nodes = _with_unique_ids(_document_nodes(text, parsed, surrogates))
        del text
        try:
            graph = InstanceGraph(nodes, parsed=parsed)
        except ValueError:  # a repeated id: the stream leaves ids to the graph
            _with_unique_ids(nodes)  # names the first one in document order
            raise
        del nodes, parsed
        violations = validate_graph(graph, profile)
        if violations:
            first = violations[0]
            raise LoadError(first.code, first.message, object_id=first.objectId,
                            violations=violations)
        if enabled and gc.get_freeze_count() in (0, _FROZEN_AT_IMPORT):
            gc.freeze()  # then unfreeze: every live object joins the oldest generation
            gc.unfreeze()
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


MAX_INT_DIGITS = 640  # sign not counted; the interpreter's lowest limit but 0


def _bounded_int(literal: str) -> int:
    if len(literal) > MAX_INT_DIGITS and len(literal) - (literal[0] == "-") > MAX_INT_DIGITS:
        _fail(SYNTAX, "a number has more digits than the parser allows")
    return int(literal)


# RFC 8259 JSON only: NaN, Infinity and -Infinity, which json.loads accepts,
# and numbers past a double's range or MAX_INT_DIGITS raise LoadError(SYNTAX).
_DECODER = json.JSONDecoder(parse_constant=_reject_constant,
                            parse_float=_finite_float, parse_int=_bounded_int)


def _parse_json(text: str) -> dict:
    try:
        document = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        _fail(SYNTAX, exc.msg, line=exc.lineno, column=exc.colno)
    except RecursionError:
        _fail(SYNTAX, "document nests deeper than the parser allows")
    if not isinstance(document, dict):
        _fail(SCHEMA, "document root must be an object")
    return document


_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _reject_lone_surrogates(document: dict) -> None:
    """Reject a string holding a lone surrogate (U+D800-U+DFFF): UTF-8
    cannot encode it, so the canonical document could not be hashed. The
    parsed strings are judged, as a paired escape decodes to one astral
    character and is valid, and a value a repeated key shadows is gone."""
    found = _SURROGATE.search(json.dumps(document, ensure_ascii=False))
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
_SCAN_WHOLE = 256 * 1024  # the longest text whose objects are read in one call


def _stream_nodes(text: str) -> tuple[list[Node], dict[str, int]] | None:
    """The nodes of an instance document and the minutes of each timestamp
    they hold.

    Keys are read with the scanner's string reader and values with
    ``_DECODER.scan_once``, the scanner and number hooks that
    ``_DECODER.decode`` uses, so each element of ``objects`` is the dict a
    whole-document parse would hold, and ``_build_node`` builds its node.
    ``load_instance`` streams only a text longer than ``_SCAN_WHOLE``, whose
    JSON tree (about 5x the text) would cost memory, and that holds no lone
    surrogate: each object is dropped once built, so the load never holds
    more than one object's tree.

    Returns None, and never raises, for a document that might not load
    this way: a syntax error anywhere, a root that is not an object, a
    top-level key that is unknown or repeated, a wrong ``schemaVersion``,
    ``objects`` missing or not an array, or an object that does not build.
    ``_document_nodes`` then reads the text whole, so the error reported is
    the one a whole-document load finds first. Ids are not checked here:
    once every object has built, the first repeated id is that error, and
    ``_with_unique_ids`` names it when ``InstanceGraph`` finds a repeat.
    """
    scan = _DECODER.scan_once
    nodes: list[Node] | None = None
    parsed: dict[str, int] = {}
    keep = {}.setdefault  # the load's string table
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
                    nodes.append(_build_node(raw, len(nodes), parsed, keep))
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
        # A JSONDecodeError, a number hook's LoadError, no value where one
        # belongs, nesting past the stack, or an object that does not build.
        return None
    if nodes is None or _skip_space(text, pos + 1).end() != len(text):
        return None
    return nodes, parsed


def _document_nodes(text: str, parsed: dict[str, int], surrogates: bool) -> Iterator[Node]:
    """The nodes of an instance document parsed whole, built one by one as
    they are drawn, or the LoadError of its first fault. The minutes of
    their timestamps go to ``parsed``.

    The checks run in the order that decides which error a document with
    several faults reports: syntax, a lone surrogate (sought only when
    ``load_instance`` found the text may hold one), the top-level keys,
    then each object in document order, where ``_with_unique_ids`` draws
    the nodes and checks each id before the next object is built. This path
    reads every text of at most ``_SCAN_WHOLE`` characters or with a
    possible lone surrogate, and a longer one ``_stream_nodes`` declined,
    mostly to report its error; a document whose surrogate escapes are
    paired, or whose last repeated ``objects`` key holds valid objects,
    still loads here.
    """
    document = _parse_json(text)
    if surrogates:
        _reject_lone_surrogates(document)
    _check_top_level(document, _INSTANCE_KEYS, "objects")
    raw_objects = document["objects"]
    if not isinstance(raw_objects, list):
        _fail(SCHEMA, "objects must be a list")
    keep = {}.setdefault  # the load's string table
    for position, raw in enumerate(raw_objects):
        yield _build_node(raw, position, parsed, keep)


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


def _build_node(raw: object, position: int, parsed: dict[str, int], keep) -> Node:
    """The node of ``raw``, its strings kept by ``keep``, or its first LoadError:
    exact type tests (values come from the JSON scanner) in the order that
    decides which error a faulty object reports. A typed class named exactly
    skips the class-name lookup."""
    if type(raw) is not dict:
        _fail(SCHEMA, f"objects[{position}] is not an object")
    if not raw.keys() <= _OBJECT_KEYS:
        _fail(SCHEMA, f"objects[{position}]: unknown keys "
                      f"{_unknown(raw.keys(), _OBJECT_KEYS)}")
    object_id = raw.get("id")
    if type(object_id) is not str or not object_id:
        _fail(SCHEMA, f"objects[{position}]: id must be a nonempty string")
    cls = raw.get("class")
    if type(cls) is not str:
        _fail(SCHEMA, "class must be a string", object_id=object_id)
    if cls not in DATACLASS_FOR:
        try:
            cls = canonical_class_name(cls)
        except UnknownClassError:
            raise LoadError(UNKNOWN_CLASS, f"unknown class {cls!r}",
                            object_id=object_id) from None
        if cls in ABSTRACT_CLASSES:
            _fail(UNKNOWN_CLASS, f"class {cls} is abstract and cannot be "
                                 "instantiated", object_id=object_id)
    attrs = raw.get("attrs", {})
    if type(attrs) is not dict:
        _fail(SCHEMA, "attrs must be an object", object_id=object_id)
    refs = raw.get("refs", {})
    if type(refs) is not dict:
        _fail(SCHEMA, "refs must be an object", object_id=object_id)
    object_id = keep(object_id, object_id)
    if cls in DATACLASS_FOR:
        return _CODECS[cls][0](object_id, attrs, refs, parsed, keep)
    return GenericNode(
        id=object_id, cls=keep(cls, cls),
        attrs=ReadOnlyDict({keep(key, key): keep(value, value) if type(value) is str
                            else value for key, value in attrs.items()}),
        refs=_generic_refs(object_id, refs, keep))


def _generic_refs(object_id: str, refs: Mapping, keep) -> ReadOnlyDict:
    out: dict[str, tuple[str, ...]] = {}
    for role, value in refs.items():
        ids = value if isinstance(value, list) else [value]
        for target in ids:
            if not isinstance(target, str) or not target:
                _fail(SCHEMA, f"ref {role!r} must hold object ids",
                      object_id=object_id)
        out[keep(role, role)] = tuple(sorted(map(keep, ids, ids)))
    return ReadOnlyDict(out)


class ReadOnlyDict(dict):
    """The ``attrs`` or ``refs`` of a loaded generic node: a dict, which the
    C JSON encoder writes as any other, whose mutators raise TypeError."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a loaded node's attrs and refs are read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):  # else a dict subclass unpickles through __setitem__
        return type(self), (dict(self),)


def _parse_timestamp(object_id: str, label: str, value: object,
                     parsed: dict[str, int]) -> None:
    """Store the minutes of the timestamp ``value`` in ``parsed``, or fail."""
    try:
        parsed[value] = parse_minutes(value)
    except TimestampRangeError as exc:
        _fail(SCHEMA, f"{label}: {exc}", object_id=object_id)
    except TimestampError:
        _fail(SCHEMA, f"{label} must be an ISO-8601 timestamp",
              object_id=object_id)


# Per basis kind: the keys it admits, and each of its own fields with its
# default, in declaration order.
_BASIS_KINDS = {kind: (own | {"kind"}, tuple(row for row in BASIS_DEFAULTS if row[0] in own))
                for kind, own in BASIS_FIELDS.items()}


def decode_basis(object_id: str, raw: object, parsed: dict[str, int], keep) -> TransferBasis:
    """The ``basis`` of a Data_Transfer: a known kind, then only that kind's
    fields, each checked in declaration order and defaulting when absent.
    A tuple default means a list of strings (``information``'s a set of
    literals), a bool a boolean, any other a string."""
    if type(raw) is not dict:
        _fail(SCHEMA, "basis must be an object", object_id=object_id)
    kind = raw.get("kind")
    if type(kind) is not str or kind not in _BASIS_KINDS:
        _fail(BAD_LITERAL, f"basis kind {kind!r} is not a transfer basis", object_id=object_id)
    keys, own = _BASIS_KINDS[kind]
    if not raw.keys() <= keys:
        _fail(SCHEMA, f"basis fields {_unknown(raw.keys(), keys)} do not belong to a {kind} "
                      "basis (exactly one variant may be populated)", object_id=object_id)
    fields = {}
    for name, default in own:
        value = raw.get(name, MISSING)
        if value is MISSING:
            continue
        if type(default) is tuple:
            if type(value) is not list or not all(type(item) is str for item in value):
                _fail(SCHEMA, f"basis.{name} must be a list of strings", object_id=object_id)
            value = tuple(map(keep, value, value))
            if name == "information":
                value = tuple(sorted(set(value)))
        elif type(default) is bool:
            if value is not True and value is not False:
                _fail(SCHEMA, f"basis.{name} must be a boolean", object_id=object_id)
        elif type(value) is not str:
            _fail(SCHEMA, f"basis.{name} must be a string", object_id=object_id)
        else:
            value = keep(value, value)
        fields[name] = value
    return TransferBasis(keep(kind, kind), **fields)


_CONSULTATION_KEYS = frozenset(Consultation.__record_fields__)


def decode_consultation(object_id: str, raw: object, parsed: dict[str, int],
                        keep) -> Consultation:
    """The ``consultation`` of an assessment: ``requestedAt`` a timestamp,
    ``adviceAt`` one or null, ``extended`` a boolean, checked in that order."""
    if type(raw) is not dict:
        _fail(SCHEMA, "consultation must be an object", object_id=object_id)
    if not raw.keys() <= _CONSULTATION_KEYS:
        _fail(SCHEMA, "consultation does not define: "
                      + _unknown(raw.keys(), _CONSULTATION_KEYS), object_id=object_id)
    requested, advice = raw.get("requestedAt"), raw.get("adviceAt")
    if type(requested) is not str or requested not in parsed:
        _parse_timestamp(object_id, "consultation.requestedAt", requested, parsed)
    if advice is not None and (type(advice) is not str or advice not in parsed):
        _parse_timestamp(object_id, "consultation.adviceAt", advice, parsed)
    extended = raw.get("extended", False)
    if extended is not True and extended is not False:
        _fail(SCHEMA, "consultation.extended must be a boolean", object_id=object_id)
    return Consultation(keep(requested, requested),
                        advice if advice is None else keep(advice, advice), extended)


def _create(key: tuple[str, str], source: str, constants: Mapping[str, object],
            returns: str = "decode"):
    """``returns`` of ``source`` run as dataclasses._create_fn runs code: closed
    over ``constants``, reading other names from this module. Keeps ``source``."""
    _CODEC_SOURCE[key] = source
    body = source.replace("\n", "\n    ")  # ends in the indent
    factory = f"def create({', '.join(constants)}):\n    {body}return {returns}\n"
    namespace: dict[str, object] = {}
    exec(compile(factory, f"<{' '.join(key)}>", "exec"), globals(), namespace)
    return namespace["create"](**constants)


# The source of each generated codec, by (kind, wire class), for reading.
_CODEC_SOURCE: dict[tuple[str, str], str] = {}


class _Codecs(dict):
    """The (decoder, encoder) pair of each typed wire class, generated from
    the field table the first time the class is met, so an import builds
    none. Threads that race on a class both build the same pair, and either
    is kept."""

    def __missing__(self, cls: str) -> tuple:
        attrs = CLASS_ATTRS[cls] + NESTED_ATTRS.get(cls, ())
        node_class = DATACLASS_FOR[cls]
        constants = {"NODE": node_class, "ATTRS": frozenset(s.name for s in attrs),
                     "REFS": frozenset(s.name for s in CLASS_REFS[cls]),
                     **{"SET_" + name: getattr(node_class, name).__set__  # slot setters
                        for name in node_class.__record_fields__}}
        codecs = self[cls] = (_create(("decode", cls), _decoder_source(cls), constants),
                              _create(("encode", cls), _encoder_source(cls), {}, "encode"))
        return codecs


_CODECS = _Codecs()


# Per scalar attr kind: a condition true for a wrong value, and what it must be.
_ATTR_CHECKS = {"str": ("type({0}) is not str", "a string"),
                "bool": ("{0} is not True and {0} is not False", "a boolean"),
                "int": ("type({0}) is not int", "an integer")}


def _decoder_source(cls: str) -> str:
    """Source of ``decode(object_id, attrs, refs, parsed, keep)`` for the
    typed wire class ``cls``: it checks unknown attrs, unknown refs, each attr
    and ref in table order, then the nested attrs (by ``decode_basis`` or
    ``decode_consultation``), and writes each field's slot of a new node, as
    the node class's ``__init__`` would. A string is kept by ``keep`` (the
    load's ``table.setdefault``) once checked. Values come from the JSON
    scanner, so exact type tests stand for isinstance."""
    node_fields = DATACLASS_FOR[cls].__record_fields__
    assert not hasattr(DATACLASS_FOR[cls], "__post_init__"), cls
    defaults = {name: repr(spec.default) for name, spec in node_fields.items()}
    args = {"id": "object_id", "cls": repr(cls)}  # field -> its value's source
    lines = ["def decode(object_id, attrs, refs, parsed, keep):"]

    def add(depth: int, line: str) -> None:
        lines.append("    " * depth + line)

    def fail(depth: int, message: str) -> None:
        add(depth, f"_fail(SCHEMA, {message}, object_id=object_id)")

    def take(part: str, spec, value: str, label: str) -> None:
        """Read the field into ``value``; absent, it is required or defaults."""
        args[spec.field_name] = value
        add(1, f"{value} = {part}.get({spec.name!r})")
        add(1, f"if {value} is None:")
        if spec.required:
            fail(2, repr(f"{label} is required"))
        else:
            add(2, f"{value} = {defaults[spec.field_name]}")

    for part, allowed in (("attrs", "ATTRS"), ("refs", "REFS")):
        add(1, f"if not {part}.keys() <= {allowed}:")
        fail(2, f"{f'{cls} does not define {part}: '!r} + _unknown({part}.keys(), {allowed})")
    for spec in CLASS_ATTRS[cls]:
        value, label = "a_" + spec.name, f"{cls}.{spec.name}"
        take("attrs", spec, value, label)
        if spec.many or spec.kind == "strlist":
            add(1, f"elif type({value}) is not list:")
            fail(2, repr(f"{label} must be a list"))
            add(1, "else:")
            add(2, f"for n, item in enumerate({value}):")
            add(3, "if type(item) is not str:")
            fail(4, repr(f"{label} entries must be strings"))
            add(3, f"{value}[n] = keep(item, item)")  # the scanned list is dropped
            # A plain string list keeps its document order; an enum list is a set.
            kept = value if spec.kind == "strlist" else f"sorted(set({value}))"
            add(2, f"{value} = tuple({kept})")
        elif spec.kind == "ts":
            add(1, f"elif type({value}) is not str or {value} not in parsed:")
            add(2, f"_parse_timestamp(object_id, {label!r}, {value}, parsed)")
        else:
            wrong, what = _ATTR_CHECKS[spec.kind]
            add(1, f"elif {wrong.format(value)}:")
            fail(2, repr(f"{label} must be {what}"))
            if spec.nonneg:
                add(1, f"elif {value} < 0:")
                fail(2, repr(f"{label} must be non-negative"))
        if spec.kind in ("str", "ts") and not spec.many:  # optional, it may be None
            kept = f"{value} = keep({value}, {value})"
            add(1, kept if spec.required else f"if type({value}) is str: {kept}")
    for spec in CLASS_REFS[cls]:
        value, label = "r_" + spec.field_name, f"{cls} ref {spec.name!r}"
        take("refs", spec, value, label)
        add(1, "else:")
        if spec.many:
            add(2, f"if type({value}) is not list:")
            add(3, f"{value} = [{value}]")
            add(2, f"for n, item in enumerate({value}):")
            add(3, "if type(item) is not str or not item:")
            fail(4, repr(f"{label} must hold object ids"))
            add(3, f"{value}[n] = keep(item, item)")
            add(2, f"{value} = tuple(sorted({value}))")
        else:
            add(2, f"if type({value}) is list:")
            add(3, f"if len({value}) != 1:")
            fail(4, repr(f"{label} takes a single id"))
            add(3, f"{value} = {value}[0]")
            add(2, f"if type({value}) is not str or not {value}:")
            fail(3, repr(f"{label} must hold an object id"))
            add(2, f"{value} = keep({value}, {value})")
    for spec in NESTED_ATTRS.get(cls, ()):
        value, decode = "a_" + spec.name, f"decode_{spec.kind}(object_id, {{0}}, parsed, keep)"
        if spec.required:  # absent or null; any other value is its decoder's to check
            take("attrs", spec, value, f"{cls}.{spec.name}")
            add(1, f"{value} = {decode.format(value)}")
        else:
            args[spec.name] = value
            add(1, f"{value} = {decode.format(f'attrs[{spec.name!r}]')} "
                   f"if {spec.name!r} in attrs else {defaults[spec.name]}")
    add(1, "node = object.__new__(NODE)")
    for name in node_fields:
        add(1, f"SET_{name}(node, {args.get(name, defaults[name])})")
    add(1, "return node")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

# Canonical JSON is what json.dumps(value, sort_keys=True, separators=(",",
# ":"), ensure_ascii=False) prints; ``canonical_json`` writes it for any
# acyclic JSON value (a cycle raises RecursionError) with one C encoder, made
# as JSONEncoder.iterencode makes one afresh on every call. The graph's canonical
# document is the canonical JSON of its wire form, written object by object
# by per-class encoders, so neither the wire dicts nor the text are built.
_encode_str = json.encoder.encode_basestring  # json.dumps' ensure_ascii=False escaper
_JSON_BOOL = {True: "true", False: "false"}
_CANONICAL = json.encoder.c_make_encoder(None, json.JSONEncoder().default, _encode_str, None,
                                         ":", ",", True, False, True)


def canonical_json(value) -> str:
    return "".join(_CANONICAL(value, 0))


def _encode_strs(values: Sequence[str]) -> str:
    return "[" + ",".join(map(_encode_str, values)) + "]"


def _nested_plan(sample, names) -> tuple[tuple[str, str, object], ...]:
    """(member prefix, field, encoder) for each of ``names``, sorted; each
    encoder follows the type of the field's default in ``sample``."""
    def encoder(default):
        if isinstance(default, tuple):
            return _encode_strs
        return _JSON_BOOL.__getitem__ if isinstance(default, bool) else _encode_str
    return tuple((_encode_str(name) + ":", name, encoder(getattr(sample, name)))
                 for name in sorted(names))


_BASIS_PLANS = {kind: _nested_plan(TransferBasis(kind), allowed | {"kind"})
                for kind, allowed in BASIS_FIELDS.items()}
_CONSULTATION_PLAN = _nested_plan(Consultation(""), Consultation.__record_fields__)


def _encode_nested(value, plan) -> str:
    """A basis or consultation object; None and empty lists are left out."""
    return "{" + ",".join([key + encode(field) for key, name, encode in plan
                           if (field := getattr(value, name)) is not None
                           and field != ()]) + "}"


# The expression that writes an attr's value, by kind (a ``many`` one as a strlist).
_ATTR_ENCODINGS = {"bool": "_JSON_BOOL[value]", "int": "int.__repr__(value)",
                   "str": "_encode_str(value)", "ts": "_encode_str(value)",
                   "strlist": "_encode_strs(value)",
                   "basis": "_encode_nested(value, _BASIS_PLANS[value.kind])",
                   "consultation": "_encode_nested(value, _CONSULTATION_PLAN)"}


def _encoder_source(cls: str) -> str:
    """Source of ``encode(node)``, which writes the canonical text of a node
    of the typed wire class ``cls``: attrs and refs each sorted by wire
    name, an attr left out when None and a ref when empty."""
    attrs = [(spec.name, spec.name, _ATTR_ENCODINGS["strlist" if spec.many else spec.kind])
             for spec in CLASS_ATTRS[cls] + NESTED_ATTRS.get(cls, ())]
    refs = [(spec.name, spec.field_name, _ATTR_ENCODINGS["strlist" if spec.many else "str"])
            for spec in CLASS_REFS[cls]]
    lines = ["def encode(node):"]
    for part, members, kept in (("attrs", attrs, "(value := node.{0}) is not None"),
                                ("refs", refs, "value := node.{0}")):
        lines.append(f"    {part} = []")
        for wire, field_name, encoding in sorted(members):
            lines.append(f"    if {kept.format(field_name)}:")
            lines.append(f"        {part}.append({_encode_str(wire) + ':'!r} + {encoding})")
    head, middle, tail = '{"attrs":{', '},"class":' + _encode_str(cls) + ',"id":', ',"refs":{'
    lines.append(f"    return ({head!r} + ','.join(attrs) + {middle!r} + _encode_str(node.id)")
    lines.append(f"            + {tail!r} + ','.join(refs) + '}}}}')")
    return "\n".join(lines) + "\n"


_DOCUMENT_TAIL = '],"schemaVersion":' + _encode_str(SUPPORTED_SCHEMA_VERSION) + "}"


def _generic_json(node: GenericNode) -> str:
    refs = ",".join([
        _encode_str(role) + ":"
        + (_encode_str(ids[0]) if len(ids) == 1 else _encode_strs(ids))
        for role, ids in sorted(node.refs.items())])
    return ('{"attrs":' + canonical_json(node.attrs) + ',"class":'
            + _encode_str(node.cls) + ',"id":' + _encode_str(node.id)
            + ',"refs":{' + refs + "}}")


def _canonical_chunks(graph: InstanceGraph) -> Iterator[str]:
    """The canonical document, one fragment per object."""
    yield '{"objects":['
    separator = ""
    for node in graph:
        yield separator + (_generic_json(node) if type(node) is GenericNode
                           else _CODECS[node.cls][1](node))
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

_RESOLUTION_KEYS = frozenset({"variation", "params"})


def load_profile(data: bytes | str) -> list[Resolution]:
    """Parse a specialization-profile document into resolutions whose params
    are checked against their variation point's table and frozen, in
    declaration order; applying them checks nothing again."""
    document = _parse_json(_decode(data))
    _check_top_level(document, {"schemaVersion", "resolutions"}, "resolutions")
    raw_list = document.get("resolutions")
    if not isinstance(raw_list, list):
        _fail(SCHEMA, "resolutions must be a list")

    out: list[Resolution] = []
    for position, raw in enumerate(raw_list):
        if not isinstance(raw, dict):
            _fail(SCHEMA, f"resolutions[{position}] is not an object")
        if not raw.keys() <= _RESOLUTION_KEYS:
            _fail(SCHEMA, f"resolutions[{position}]: unknown keys "
                          f"{_unknown(raw.keys(), _RESOLUTION_KEYS)}")
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
            out.append(vp.resolve(params))
        except VariabilityError as exc:
            raise LoadError(SCHEMA, str(exc)) from exc
    return out


def serialize_profile(resolutions: Sequence[Resolution]) -> str:
    return canonical_json({
        "schemaVersion": SUPPORTED_SCHEMA_VERSION,
        "resolutions": [
            {"variation": r.variationId, "params": plain_data(r.parameters)}
            for r in resolutions
        ],
    })
