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

import hashlib
import json
from typing import Mapping, Sequence

from . import model
from .enums import ENUMERATIONS, TRANSFER_BASIS_KIND
from .model import (
    CLASS_ATTRS,
    CLASS_REFS,
    DATACLASS_FOR,
    GENERIC_CLASSES,
    Consultation,
    GenericNode,
    InstanceGraph,
    Node,
    TransferBasis,
    validate_graph,
)
from .registry import ABSTRACT_CLASSES, UnknownClassError, canonical_class_name
from .timebase import is_timestamp
from .variability import (
    Resolution,
    VARIATION_POINTS,
    VariabilityError,
)

SYNTAX = "SYNTAX"
SCHEMA = "SCHEMA"
UNKNOWN_CLASS = "UNKNOWN_CLASS"
DUPLICATE_ID = "DUPLICATE_ID"
DANGLING_REF = "DANGLING_REF"
BAD_LITERAL = "BAD_LITERAL"
INVARIANT = "INVARIANT"
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
    """
    document = _parse_json(data)
    _check_top_level(document, {"schemaVersion", "objects"}, "objects")
    raw_objects = document.get("objects")
    if not isinstance(raw_objects, list):
        _fail(SCHEMA, "objects must be a list")

    nodes: list[Node] = []
    seen: set[str] = set()
    for position, raw in enumerate(raw_objects):
        node = _build_node(raw, position)
        if node.id in seen:
            _fail(DUPLICATE_ID, f"object id {node.id!r} declared twice",
                  object_id=node.id)
        seen.add(node.id)
        nodes.append(node)

    graph = InstanceGraph(nodes)
    violations = validate_graph(graph, profile)
    if violations:
        first = violations[0]
        raise LoadError(first.code, first.message, object_id=first.objectId,
                        violations=violations)
    return graph


def _parse_json(data: bytes | str) -> dict:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            _fail(SYNTAX, f"document is not UTF-8: {exc}")
    try:
        document = json.loads(data)
    except json.JSONDecodeError as exc:
        _fail(SYNTAX, exc.msg, line=exc.lineno, column=exc.colno)
    if not isinstance(document, dict):
        _fail(SCHEMA, "document root must be an object")
    return document


def _check_top_level(document: Mapping, allowed: set[str], required: str) -> None:
    unknown = sorted(set(document) - allowed)
    if unknown:
        _fail(SCHEMA, f"unknown top-level keys: {', '.join(unknown)}")
    version = document.get("schemaVersion", SUPPORTED_SCHEMA_VERSION)
    if version != SUPPORTED_SCHEMA_VERSION:
        _fail(SCHEMA, f"unsupported schemaVersion {version!r}")
    if required not in document:
        _fail(SCHEMA, f"missing top-level key {required!r}")


def _build_node(raw: object, position: int) -> Node:
    if not isinstance(raw, dict):
        _fail(SCHEMA, f"objects[{position}] is not an object")
    unknown = sorted(set(raw) - {"id", "class", "attrs", "refs"})
    if unknown:
        _fail(SCHEMA, f"objects[{position}]: unknown keys {', '.join(unknown)}")
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

    if canonical in GENERIC_CLASSES:
        return GenericNode(id=object_id, cls=canonical, attrs=dict(attrs),
                           refs=_generic_refs(object_id, refs))
    return _build_typed(object_id, canonical, attrs, refs)


def _generic_refs(object_id: str, refs: Mapping) -> dict[str, tuple[str, ...]]:
    out: dict[str, tuple[str, ...]] = {}
    for role, value in refs.items():
        ids = value if isinstance(value, list) else [value]
        for target in ids:
            if not isinstance(target, str) or not target:
                _fail(SCHEMA, f"ref {role!r} must hold object ids",
                      object_id=object_id)
        out[role] = tuple(sorted(ids))
    return out


def _build_typed(object_id: str, cls: str, attrs: Mapping, refs: Mapping) -> Node:
    attr_specs, ref_specs, attr_names, ref_names = _TYPED_SPECS[cls]

    unknown = sorted(attrs.keys() - attr_names)
    if unknown:
        _fail(SCHEMA, f"{cls} does not define attrs: {', '.join(unknown)}",
              object_id=object_id)
    unknown = sorted(refs.keys() - ref_names)
    if unknown:
        _fail(SCHEMA, f"{cls} does not define refs: {', '.join(unknown)}",
              object_id=object_id)

    kwargs: dict[str, object] = {}
    for name, spec in attr_specs.items():
        if name not in attrs or attrs[name] is None:
            if spec.required:
                _fail(SCHEMA, f"{cls}.{name} is required", object_id=object_id)
            continue
        kwargs[name] = _coerce_attr(object_id, cls, spec, attrs[name])

    for name, spec in ref_specs.items():
        value = refs.get(name)
        if value is None:
            if spec.required:
                _fail(SCHEMA, f"{cls} ref {name!r} is required",
                      object_id=object_id)
            continue
        if spec.many:
            ids = value if isinstance(value, list) else [value]
            for target in ids:
                if not isinstance(target, str) or not target:
                    _fail(SCHEMA, f"{cls} ref {name!r} must hold object ids",
                          object_id=object_id)
            kwargs[spec.field_name] = tuple(sorted(ids))
        else:
            if isinstance(value, list):
                if len(value) != 1:
                    _fail(SCHEMA, f"{cls} ref {name!r} takes a single id",
                          object_id=object_id)
                value = value[0]
            if not isinstance(value, str) or not value:
                _fail(SCHEMA, f"{cls} ref {name!r} must hold an object id",
                      object_id=object_id)
            kwargs[spec.field_name] = value

    if cls == "Data_Transfer":
        kwargs["basis"] = _build_basis(object_id, attrs.get("basis"))
    if cls == "Data_Protection_Impact_Assessment" and "consultation" in attrs:
        kwargs["consultation"] = _build_consultation(object_id,
                                                     attrs["consultation"])

    return DATACLASS_FOR[cls](id=object_id, cls=cls, **kwargs)


_NESTED_ATTRS: dict[str, frozenset[str]] = {
    "Data_Transfer": frozenset({"basis"}),
    "Data_Protection_Impact_Assessment": frozenset({"consultation"}),
}

# Per typed class, built once: (attr specs by name, ref specs by name,
# allowed attr names including nested ones, allowed ref names).
_TYPED_SPECS: dict[str, tuple[dict, dict, frozenset[str], frozenset[str]]] = {}
for _cls in DATACLASS_FOR:
    _attrs = {spec.name: spec for spec in CLASS_ATTRS.get(_cls, ())}
    _refs = {spec.name: spec for spec in CLASS_REFS.get(_cls, ())}
    _TYPED_SPECS[_cls] = (_attrs, _refs,
                          frozenset(_attrs) | _NESTED_ATTRS.get(_cls, frozenset()),
                          frozenset(_refs))
del _cls, _attrs, _refs


def _coerce_attr(object_id: str, cls: str, spec, value: object):
    label = f"{cls}.{spec.name}"
    if spec.many or spec.kind == "strlist":
        if isinstance(value, str) or not isinstance(value, list):
            _fail(SCHEMA, f"{label} must be a list", object_id=object_id)
        for item in value:
            if not isinstance(item, str):
                _fail(SCHEMA, f"{label} entries must be strings",
                      object_id=object_id)
        if spec.name in _ORDERED_STR_LISTS:
            return tuple(value)
        return tuple(sorted(set(value)))
    if spec.kind == "bool":
        if not isinstance(value, bool):
            _fail(SCHEMA, f"{label} must be a boolean", object_id=object_id)
        return value
    if spec.kind == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            _fail(SCHEMA, f"{label} must be an integer", object_id=object_id)
        if spec.nonneg and value < 0:
            _fail(SCHEMA, f"{label} must be non-negative", object_id=object_id)
        return value
    if spec.kind == "ts":
        if not is_timestamp(value):
            _fail(SCHEMA, f"{label} must be an ISO-8601 timestamp",
                  object_id=object_id)
        return value
    if not isinstance(value, str):
        _fail(SCHEMA, f"{label} must be a string", object_id=object_id)
    return value


_BASIS_SHAPES: dict[str, set[str]] = {
    "IntraEU": set(),
    "AdequacyDecision": {"additionalRequirements", "evidence"},
    "BCR": {"information", "approved", "legallyBinding"},
    "StandardContractualClauses": {"approved"},
    "AdministrativeArrangement": {"authorized"},
    "CodeOfConductOrCertification": set(),
    "PublicBodyInstrument": {"authorized"},
    "Derogation": {"derogation", "details"},
}


def _build_basis(object_id: str, raw: object) -> TransferBasis:
    if raw is None:
        _fail(SCHEMA, "Data_Transfer.basis is required", object_id=object_id)
    if not isinstance(raw, dict):
        _fail(SCHEMA, "basis must be an object", object_id=object_id)
    kind = raw.get("kind")
    if kind not in ENUMERATIONS[TRANSFER_BASIS_KIND]:
        _fail(BAD_LITERAL, f"basis kind {kind!r} is not a transfer basis",
              object_id=object_id)
    allowed = _BASIS_SHAPES[kind]
    unknown = sorted(set(raw) - allowed - {"kind"})
    if unknown:
        _fail(SCHEMA, f"basis fields {', '.join(unknown)} do not belong to a "
                      f"{kind} basis (exactly one variant may be populated)",
              object_id=object_id)
    kwargs: dict[str, object] = {"kind": kind}
    for name in ("additionalRequirements", "evidence", "information"):
        if name in raw:
            value = raw[name]
            if isinstance(value, str) or not isinstance(value, list) \
                    or not all(isinstance(v, str) for v in value):
                _fail(SCHEMA, f"basis.{name} must be a list of strings",
                      object_id=object_id)
            kwargs[name] = (tuple(sorted(set(value))) if name == "information"
                            else tuple(value))
    for name in ("approved", "legallyBinding", "authorized"):
        if name in raw:
            if not isinstance(raw[name], bool):
                _fail(SCHEMA, f"basis.{name} must be a boolean",
                      object_id=object_id)
            kwargs[name] = raw[name]
    if "derogation" in raw:
        if not isinstance(raw["derogation"], str):
            _fail(SCHEMA, "basis.derogation must be a string", object_id=object_id)
        kwargs["derogation"] = raw["derogation"]
    if "details" in raw:
        if not isinstance(raw["details"], str):
            _fail(SCHEMA, "basis.details must be a string", object_id=object_id)
        kwargs["details"] = raw["details"]
    return TransferBasis(**kwargs)


def _build_consultation(object_id: str, raw: object) -> Consultation:
    if not isinstance(raw, dict):
        _fail(SCHEMA, "consultation must be an object", object_id=object_id)
    unknown = sorted(set(raw) - {"requestedAt", "adviceAt", "extended"})
    if unknown:
        _fail(SCHEMA, f"consultation does not define: {', '.join(unknown)}",
              object_id=object_id)
    requested = raw.get("requestedAt")
    if not is_timestamp(requested):
        _fail(SCHEMA, "consultation.requestedAt must be an ISO-8601 timestamp",
              object_id=object_id)
    advice = raw.get("adviceAt")
    if advice is not None and not is_timestamp(advice):
        _fail(SCHEMA, "consultation.adviceAt must be an ISO-8601 timestamp",
              object_id=object_id)
    extended = raw.get("extended", False)
    if not isinstance(extended, bool):
        _fail(SCHEMA, "consultation.extended must be a boolean",
              object_id=object_id)
    return Consultation(requestedAt=requested, adviceAt=advice, extended=extended)


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def node_to_object(node: Node) -> dict:
    """Wire representation of one object, with normalized field order."""
    if isinstance(node, GenericNode):
        refs = {role: (list(ids) if len(ids) != 1 else ids[0])
                for role, ids in sorted(node.refs.items())}
        return {"id": node.id, "class": node.cls,
                "attrs": dict(node.attrs), "refs": refs}

    attrs: dict[str, object] = {}
    for spec in CLASS_ATTRS.get(node.cls, ()):
        value = getattr(node, spec.name)
        if value is None:
            continue
        attrs[spec.name] = list(value) if isinstance(value, tuple) else value
    if isinstance(node, model.DataTransfer):
        attrs["basis"] = _basis_to_payload(node.basis)
    if isinstance(node, model.DPIA) and node.consultation is not None:
        consultation: dict[str, object] = {
            "requestedAt": node.consultation.requestedAt,
            "extended": node.consultation.extended,
        }
        if node.consultation.adviceAt is not None:
            consultation["adviceAt"] = node.consultation.adviceAt
        attrs["consultation"] = consultation

    refs: dict[str, object] = {}
    for spec in CLASS_REFS.get(node.cls, ()):
        value = getattr(node, spec.field_name)
        if spec.many:
            if value:
                refs[spec.name] = list(value)
        elif value:
            refs[spec.name] = value
    return {"id": node.id, "class": node.cls, "attrs": attrs, "refs": refs}


def _basis_to_payload(basis: TransferBasis) -> dict:
    out: dict[str, object] = {"kind": basis.kind}
    for name in sorted(_BASIS_SHAPES[basis.kind]):
        value = getattr(basis, name)
        if isinstance(value, tuple):
            if value:
                out[name] = list(value)
        elif value is not None:
            out[name] = value
    return out


def graph_to_document(graph: InstanceGraph) -> dict:
    return {
        "schemaVersion": SUPPORTED_SCHEMA_VERSION,
        "objects": [node_to_object(node) for node in graph],
    }


def serialize_instance(graph: InstanceGraph) -> str:
    """Canonical JSON: objects sorted by id, keys sorted, compact separators."""
    return json.dumps(graph_to_document(graph), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=False)


def graph_fingerprint(graph: InstanceGraph) -> str:
    blob = serialize_instance(graph).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Profile documents
# ---------------------------------------------------------------------------

def load_profile(data: bytes | str) -> list[Resolution]:
    """Parse a specialization-profile document into schema-checked
    resolutions, in declaration order."""
    document = _parse_json(data)
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
    payload = {
        "schemaVersion": SUPPORTED_SCHEMA_VERSION,
        "resolutions": [
            {"variation": r.variationId, "params": _plain_params(r.parameters)}
            for r in resolutions
        ],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def _plain_params(value):
    if isinstance(value, Mapping):
        return {k: _plain_params(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain_params(v) for v in value]
    return value
