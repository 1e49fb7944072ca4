"""Typed domain model and instance-graph container.

Every object carries its concrete model class name in ``cls`` and holds
references as object ids; traversal goes through the owning InstanceGraph.
Field names deliberately mirror the wire schema (camelCase) so instance
documents, in-memory objects, and findings all speak the same vocabulary.

The typed node classes are made with ``type()`` from one field table
(``CLASS_ATTRS``/``CLASS_REFS``/``NESTED_ATTRS``, defaults in ``AttrSpec``)
as frozen, slotted ``records.Record`` classes, not dataclasses; each compiles
its ``__init__`` when first constructed, which the loader does not call. Still,
``dataclasses.fields`` and ``replace`` work on them, loading ``dataclasses``
on first use, and assignment raises ``dataclasses.FrozenInstanceError``.
A ``GenericNode``'s ``attrs`` and ``refs`` are dicts; the loader builds them
as ``ingest.ReadOnlyDict``, which refuses changes.

Graphs are immutable after construction and safe for concurrent reads.
A graph proves its references when it is built: one walk records every
dangling or wrong-class reference, and nothing downstream checks a target
again. Structural checking is split in two: ``validate_graph`` returns
integrity violations as data (it never raises), while the ingestion layer
decides whether violations abort a load.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator, Mapping, Sequence

from . import enums
from .records import Field, Record, record_class
from .registry import ABSTRACT_CLASSES, TRACEABILITY
from .timebase import TimestampError, parse_minutes

DEFAULT_CHILD_AGE_LIMIT = 16

ACTOR_CLASSES = frozenset({
    "Data_Controller",
    "Data_Processor",
    "Joint_Controllers",
    "Representative",
    "Data_Protection_Officer",
    "Supervisory_Authority",
    "Certification_Body",
    "Recipient",
    "Third_Party",
    "Undertaking",
})
SUBJECT_CLASSES = frozenset({"Data_Subject", "Child_Data_Subject"})
MEASURE_CLASSES = frozenset({"Technical", "Organizational"})
CONSENT_GIVER_CLASSES = SUBJECT_CLASSES | {"Responsible_Parent"}


Node = record_class("Node", __name__, (("id", "str"), ("cls", "str")))
GenericNode = record_class("GenericNode", __name__, (
    ("attrs", "Mapping[str, object]", Field(default_factory=dict)),
    ("refs", "Mapping[str, tuple[str, ...]]", Field(default_factory=dict)),
), base=Node)

_BASIS_ROWS = (
    ("kind", "str"),
    ("additionalRequirements", "tuple[str, ...]", ()),   # AdequacyDecision
    ("evidence", "tuple[str, ...]", ()),                 # AdequacyDecision
    ("information", "tuple[str, ...]", ()),              # BCR
    ("approved", "bool", False),                         # BCR / SCC
    ("legallyBinding", "bool", False),                   # BCR
    ("authorized", "bool", False),                       # arrangement / instrument
    ("derogation", "str | None", None),                  # Derogation
    ("details", "str", ""),                              # Derogation
)
TransferBasis = record_class("TransferBasis", __name__, _BASIS_ROWS)

# (name, default) of each basis field but the kind, in declaration order: a
# tuple default means a list of strings, a bool a boolean, any other a string.
BASIS_DEFAULTS = tuple((name, default) for name, _, default in _BASIS_ROWS[1:])

Consultation = record_class("Consultation", __name__, (
    ("requestedAt", "str"), ("adviceAt", "str | None", None), ("extended", "bool", False)))


# ---------------------------------------------------------------------------
# Field specifications: one table declares every typed field and drives the
# node classes, parsing, serialization, enum checks and referential
# integrity, so they cannot drift apart.
# ---------------------------------------------------------------------------

# Python type of each scalar or nested attr kind. Unless a spec gives its
# default, a list defaults to (), an optional attr to None and any other
# attr to its type called with no arguments ("", False, 0); _DERIVED marks
# a spec that gives none.
_KIND_TYPES = {"str": str, "ts": str, "bool": bool, "int": int,
               "basis": TransferBasis, "consultation": Consultation}
_DERIVED = object()


class AttrSpec(Record):
    name: str
    kind: str               # "str" | "bool" | "int" | "ts" | "strlist" | nested
    required: bool = False
    optional: bool = False  # value may be absent/None
    enum: str | None = None
    many: bool = False      # list of enum literals / strings
    nonneg: bool = False
    default: object = _DERIVED

    def __post_init__(self) -> None:
        if self.default is _DERIVED:
            default = (() if self.many or self.kind == "strlist"
                       else None if self.optional else _KIND_TYPES[self.kind]())
            object.__setattr__(self, "default", default)

    @property
    def field_name(self) -> str:
        return self.name

    @property
    def annotation(self) -> object:
        if self.many or self.kind == "strlist":
            return tuple[str, ...]
        kind = _KIND_TYPES[self.kind]
        return kind | None if self.optional else kind


class RefSpec(Record):
    name: str
    targets: frozenset[str] | None   # None: any registered class
    many: bool = False
    required: bool = False
    py: str | None = None            # node field when it differs

    @property
    def field_name(self) -> str:
        return self.py or self.name

    @property
    def default(self) -> object:
        return () if self.many else "" if self.required else None

    @property
    def annotation(self) -> object:
        return tuple[str, ...] if self.many else str if self.required else str | None


_a = AttrSpec
_r = RefSpec

# Every actor class has these; the tables add the fields of the few
# actor classes that have more.
_ACTOR_BASE_ATTRS = (
    _a("kind", "str", required=True, enum=enums.ACTOR_TYPE, default="LEGAL_PERSON"),
    _a("contactDetails", "str"),
    _a("cooperatesWithSA", "bool", default=True),
)
_ACTOR_BASE_REFS = (_r("countries", frozenset({"Country"}), many=True),)

CLASS_ATTRS: dict[str, tuple[AttrSpec, ...]] = {
    "Country": (
        _a("code", "str", required=True),
        _a("isEUMemberState", "bool"),
        _a("EULawApplies", "bool"),
    ),
    "Data_Subject": (_a("ageYears", "int", required=True, nonneg=True),),
    "Child_Data_Subject": (_a("ageYears", "int", required=True, nonneg=True),),
    "Responsible_Parent": (),
    "Document": (_a("kind", "str", required=True), _a("valid", "bool")),
    "Personal_Data": (
        _a("categories", "str", many=True, enum=enums.DATA_CATEGORY),
        _a("identifiesSubject", "bool"),
        _a("collectedDirectlyFromSubject", "bool", default=True),
        _a("source", "str"),
    ),
    "Purpose": (
        _a("description", "str"),
        _a("legalBasis", "str", required=True, enum=enums.LAWFULNESS_SOURCES,
           default="NONE"),
        _a("obligationSource", "str", optional=True),
    ),
    "Consent": (
        _a("freelyGiven", "bool"),
        _a("specific", "bool"),
        _a("informed", "bool"),
        _a("unambiguous", "bool"),
        _a("affirmativeAction", "bool"),
        _a("withdrawable", "bool"),
        _a("distinguishable", "bool"),
        _a("explicit", "bool"),
        _a("withdrawnAt", "ts", optional=True),
    ),
    "Data_Processing": (
        _a("type", "str", required=True, enum=enums.PROCESSING_CONTEXT,
           default="OTHER"),
        _a("operations", "str", many=True, enum=enums.OPERATION_TYPE),
        _a("automatedDecisionMaking", "bool"),
        _a("largeScale", "bool"),
        _a("systematicMonitoring", "bool"),
        _a("specialCategoriesException", "str", optional=True,
           enum=enums.EXCEPTION_SPECIAL_DATA_CATEGORY),
        _a("informationProvided", "str", many=True, enum=enums.INFORMATION_TYPE),
        _a("informationExemption", "str", optional=True,
           enum=enums.INFORMATION_EXEMPTION),
        _a("rightsExempt", "bool"),
    ),
    "Right_Support": (
        _a("right", "str", required=True, enum=enums.RIGHT_KIND),
        _a("enabled", "bool"),
    ),
    "Right_Request": (
        _a("receivedAt", "ts", required=True),
        _a("respondedAt", "ts", optional=True),
        _a("granted", "bool"),
        _a("denialReason", "str", optional=True),
        _a("extensionNotified", "bool"),
        _a("identityVerified", "bool"),
        _a("free", "bool", default=True),
    ),
    "Technical": (
        _a("kind", "str", required=True, enum=enums.TECHNICAL_MEASURE_TYPE),
        _a("description", "str"),
        _a("lastReviewedAt", "ts", optional=True),
    ),
    "Organizational": (
        _a("kind", "str", required=True, enum=enums.ORGANIZATIONAL_MEASURE_TYPE),
        _a("description", "str"),
        _a("lastReviewedAt", "ts", optional=True),
    ),
    "Record_Activity": (
        _a("items", "str", many=True, enum=enums.RECORD_ITEM),
        _a("electronicForm", "bool", default=True),
    ),
    "Data_Protection_Impact_Assessment": (
        _a("motivations", "str", many=True, enum=enums.DPIA_MOTIVATION),
        _a("information", "str", many=True, enum=enums.DPIA_INFORMATION_TYPE),
        _a("residualRisk", "str", required=True, enum=enums.RISK_SEVERITY,
           default="LOW"),
    ),
    "Breach": (
        _a("risk", "str", required=True, enum=enums.RISK_SEVERITY, default="LOW"),
        _a("detectedAt", "ts", required=True),
        _a("recorded", "bool"),
        _a("saNotifiedAt", "ts", optional=True),
        _a("delayJustification", "str", optional=True),
        _a("subjectsCommunicatedAt", "ts", optional=True),
        _a("controllersInformedAt", "ts", optional=True),
    ),
    "Data_Transfer": (_a("onward", "bool"),),
    "Certification": (
        _a("bodyAccredited", "bool"),
        _a("issuedAt", "ts", required=True),
        _a("processTransparent", "bool"),
        _a("voluntary", "bool"),
    ),
    "Infringement": (
        _a("kind", "str", required=True, enum=enums.INFRINGEMENT_TYPE,
           default="OTHER"),
        _a("imposedFineEUR", "int", optional=True, nonneg=True),
    ),
    "Turnover_Context": (
        _a("worldwideAnnualTurnoverEUR", "int", required=True, nonneg=True),
    ),
    "Data_Processor": _ACTOR_BASE_ATTRS + (_a("instructions", "strlist"),),
    "Joint_Controllers": _ACTOR_BASE_ATTRS + (
        _a("arrangementTransparent", "bool"),
        _a("arrangementAvailableToSubjects", "bool"),
    ),
}

# Attrs holding a nested object, decoded after the refs. The node's decoder
# reports a required one absent or null; any other value goes to its decoder.
NESTED_ATTRS: dict[str, tuple[AttrSpec, ...]] = {
    "Data_Transfer": (
        _a("basis", "basis", required=True, default=TransferBasis("IntraEU")),
    ),
    "Data_Protection_Impact_Assessment": (
        _a("consultation", "consultation", optional=True),
    ),
}

CLASS_REFS: dict[str, tuple[RefSpec, ...]] = {
    "Country": (),
    "Data_Subject": (_r("residence", frozenset({"Country"}), required=True),),
    "Child_Data_Subject": (_r("residence", frozenset({"Country"}), required=True),),
    "Responsible_Parent": (
        _r("documents", frozenset({"Document"}), many=True),
        _r("responsibleFor", SUBJECT_CLASSES, many=True),
    ),
    "Document": (),
    "Personal_Data": (_r("subjects", SUBJECT_CLASSES, many=True),),
    "Purpose": (),
    "Consent": (
        _r("givenBy", CONSENT_GIVER_CLASSES, required=True),
        _r("givenFor", frozenset({"Purpose"}), many=True),
    ),
    "Data_Processing": (
        _r("personalData", frozenset({"Personal_Data"}), many=True),
        _r("purposes", frozenset({"Purpose"}), many=True),
        _r("consent", frozenset({"Consent"})),
        _r("controllers", ACTOR_CLASSES, many=True),
        _r("processors", ACTOR_CLASSES, many=True),
        _r("recipients", ACTOR_CLASSES, many=True),
        _r("securityMeasures", MEASURE_CLASSES, many=True),
        _r("supportedRights", frozenset({"Right_Support"}), many=True),
        _r("records", frozenset({"Record_Activity"}), many=True),
        _r("dpia", frozenset({"Data_Protection_Impact_Assessment"})),
        _r("transfers", frozenset({"Data_Transfer"}), many=True),
    ),
    "Right_Support": (_r("requests", frozenset({"Right_Request"}), many=True),),
    "Right_Request": (),
    "Technical": (),
    "Organizational": (),
    "Record_Activity": (_r("holder", ACTOR_CLASSES, required=True),),
    "Data_Protection_Impact_Assessment": (),
    "Breach": (
        _r("processing", frozenset({"Data_Processing"}), required=True),
        _r("detectedBy", ACTOR_CLASSES, required=True),
    ),
    "Data_Transfer": (
        _r("from", frozenset({"Country"}), required=True, py="fromCountry"),
        _r("to", frozenset({"Country"}), required=True, py="toCountry"),
    ),
    "Certification": (
        _r("holder", ACTOR_CLASSES, required=True),
        _r("issuedBy", frozenset({"Certification_Body"}), required=True),
    ),
    "Infringement": (
        _r("by", ACTOR_CLASSES),
        _r("turnover", frozenset({"Turnover_Context"})),
    ),
    "Turnover_Context": (),
    "Representative": _ACTOR_BASE_REFS + (_r("represents", ACTOR_CLASSES, many=True),),
    "Data_Protection_Officer": _ACTOR_BASE_REFS + (
        _r("designatedBy", ACTOR_CLASSES, many=True),
    ),
}
for _actor_cls in ACTOR_CLASSES:
    CLASS_ATTRS.setdefault(_actor_cls, _ACTOR_BASE_ATTRS)
    CLASS_REFS.setdefault(_actor_cls, _ACTOR_BASE_REFS)
del _actor_cls


# ---------------------------------------------------------------------------
# Node classes, generated from the field table
# ---------------------------------------------------------------------------

DATACLASS_FOR: dict[str, type[Node]] = {}


def _node_class(name: str, *wire_classes: str) -> type[Node]:
    """The frozen, slotted node class of ``wire_classes``: the union of their
    attr, nested and ref fields, in the order of the sorted class names."""
    specs: dict[str, AttrSpec | RefSpec] = {}
    for wire in sorted(wire_classes):
        for spec in CLASS_ATTRS[wire] + NESTED_ATTRS.get(wire, ()) + CLASS_REFS[wire]:
            specs.setdefault(spec.field_name, spec)
    node_class = record_class(name, __name__, [
        (field_name, spec.annotation, spec.default) for field_name, spec in specs.items()],
        base=Node)
    DATACLASS_FOR.update(dict.fromkeys(sorted(wire_classes), node_class))
    return node_class


Country = _node_class("Country", "Country")
DataSubject = _node_class("DataSubject", *SUBJECT_CLASSES)
ResponsibleParent = _node_class("ResponsibleParent", "Responsible_Parent")
Document = _node_class("Document", "Document")
PersonalData = _node_class("PersonalData", "Personal_Data")
Purpose = _node_class("Purpose", "Purpose")
Consent = _node_class("Consent", "Consent")
Actor = _node_class("Actor", *ACTOR_CLASSES)
RightSupport = _node_class("RightSupport", "Right_Support")
RightRequest = _node_class("RightRequest", "Right_Request")
SecurityMeasure = _node_class("SecurityMeasure", *MEASURE_CLASSES)
RecordActivity = _node_class("RecordActivity", "Record_Activity")
DPIA = _node_class("DPIA", "Data_Protection_Impact_Assessment")
Breach = _node_class("Breach", "Breach")
DataTransfer = _node_class("DataTransfer", "Data_Transfer")
Certification = _node_class("Certification", "Certification")
Infringement = _node_class("Infringement", "Infringement")
TurnoverContext = _node_class("TurnoverContext", "Turnover_Context")
DataProcessing = _node_class("DataProcessing", "Data_Processing")

# Classes with a typed node class; everything else in the registry is
# instantiated as a GenericNode with open attributes.
TYPED_CLASSES = frozenset(DATACLASS_FOR)

GENERIC_CLASSES = frozenset(
    name for name in TRACEABILITY
    if name not in TYPED_CLASSES and name not in ABSTRACT_CLASSES
)


# ---------------------------------------------------------------------------
# Graph container
# ---------------------------------------------------------------------------

class InstanceGraph:
    """Reference-resolved, id-sorted set of model objects. Immutable.

    Construction walks every reference once. It indexes the id-sorted rows
    of every class and class expansion and the referrers along the roles
    that rules navigate backwards, and records in ``ref_violations`` each
    reference that does not resolve to an allowed class and each required
    single reference that holds no id. It keeps the minutes of each distinct
    timestamp its nodes hold, and the latest instant: taken from ``parsed``
    (raw string -> minutes, which a load that parsed them hands over) when
    there, else parsed once here. A node whose Python class does not match
    its ``cls`` raises ``ValueError``. Lookups then return stored values.
    """

    __slots__ = ("_objects", "_rows", "_referrers", "_ref_violations",
                 "_minutes", "_latest")

    def __init__(self, objects: Sequence[Node], *,
                 parsed: Mapping[str, int] | None = None):
        ordered = sorted(objects, key=attrgetter("id"))
        self._objects: dict[str, Node] = {n.id: n for n in ordered}
        if "" in self._objects:
            raise ValueError("object ids must be non-empty")
        if len(self._objects) != len(ordered):
            raise ValueError("duplicate object ids in graph")
        get = self._objects.get
        rows: dict[str, list[Node]] = {}
        referrers: dict[tuple[str, str, str], list[Node]] = {}
        bad: list[Violation] = []
        minutes: dict[str, int | None] = {}
        known = {} if parsed is None else parsed
        for node in ordered:
            cls = node.cls
            node_class = DATACLASS_FOR.get(cls, GenericNode)
            if type(node) is not node_class:
                raise ValueError(f"object {node.id!r} of class {cls} must be a "
                                 f"{node_class.__name__}, not a {type(node).__name__}")
            rows.setdefault(cls, []).append(node)
            expansion = _EXPANSION_OF.get(cls)
            if expansion is not None and expansion != cls:
                rows.setdefault(expansion, []).append(node)
            for stamp in _TIMESTAMP_GETTERS.get(cls, ()):
                raw = stamp(node)
                if isinstance(raw, str) and raw not in minutes:
                    found = known.get(raw)
                    if found is None:
                        try:
                            found = parse_minutes(raw)
                        except TimestampError:
                            pass
                    minutes[raw] = found
            if node_class is GenericNode:
                # Generic refs must resolve; their targets are open.
                for name, ids in node.refs.items():
                    for target in ids:
                        if get(target) is None:
                            bad.append(_missing_target(node, name, target))
                    for target in set(ids):
                        referrers.setdefault((target, cls, name), []).append(node)
                continue
            for name, field_name, many, required, targets, backward in _REF_PLANS[cls]:
                ids = getattr(node, field_name)
                if not many:
                    if not ids:
                        if required:
                            bad.append(Violation(
                                DANGLING_REF, node.id,
                                f"required reference {name!r} holds no object id"))
                        continue
                    ids = (ids,)
                for target in ids:
                    got = get(target)
                    if got is None:
                        bad.append(_missing_target(node, name, target))
                    elif targets is not None and got.cls not in targets:
                        bad.append(Violation(
                            DANGLING_REF, node.id,
                            f"reference {name!r} resolves to {got.cls}, "
                            f"expected one of {sorted(targets)}"))
                if backward:
                    for target in set(ids):
                        referrers.setdefault((target, cls, name), []).append(node)
        self._rows = {name: tuple(nodes) for name, nodes in rows.items()}
        self._referrers = {key: tuple(nodes) for key, nodes in referrers.items()}
        self._ref_violations = tuple(bad)
        self._minutes = minutes
        self._latest = max([0, *(m for m in minutes.values() if m is not None)])

    @property
    def ref_violations(self) -> tuple[Violation, ...]:
        """One ``DANGLING_REF`` per missing or wrong-class target and per
        empty required single ref, by id."""
        return self._ref_violations

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._objects

    def __iter__(self) -> Iterator[Node]:
        return iter(self._objects.values())

    def get(self, object_id: str) -> Node | None:
        return self._objects.get(object_id)

    def __getitem__(self, object_id: str) -> Node:
        return self._objects[object_id]

    def of_class(self, class_name: str) -> tuple[Node, ...]:
        """Objects of ``class_name``, including model subclasses, by id."""
        return self._rows.get(class_name, ())

    def referrers(self, target_id: str, class_name: str,
                  role: str) -> tuple[Node, ...]:
        """Objects of ``class_name`` whose ``role`` references ``target_id``,
        by id. Indexed roles: every generic-node ref, plus
        ``Data_Protection_Officer.designatedBy`` and
        ``Representative.represents``."""
        return self._referrers.get((target_id, class_name, role), ())

    def resolve(self, ids: Sequence[str]) -> list[Node]:
        """The objects of ``ids`` in order, repeats kept, unknown ids
        skipped. ``filter(None, ...)`` drops only the None that ``get``
        gives an unknown id: no node class defines ``__bool__`` or
        ``__len__``, so every node is true."""
        return list(filter(None, map(self._objects.get, ids)))

    def minutes(self, raw: str | None) -> int | None:
        """The minutes of ``raw``, a timestamp some node of the graph holds;
        None when it is not one or does not parse."""
        return self._minutes.get(raw)

    def latest_minutes(self) -> int:
        """Latest timestamp in the graph, in minutes; 0 for a dateless graph
        or one whose timestamps all fall before 1970."""
        return self._latest


# Model class -> the broader class name under which ``of_class`` also
# lists its objects.
_EXPANSION_OF: dict[str, str] = {
    **dict.fromkeys(SUBJECT_CLASSES, "Data_Subject"),
    **dict.fromkeys(ACTOR_CLASSES, "Actor"),
    **dict.fromkeys(MEASURE_CLASSES, "Security_Measure"),
}

# Typed roles that rules navigate from target to referrer. Indexing every
# typed role would cost memory for lookups no rule makes.
_BACKWARD_ROLES: dict[str, tuple[str, ...]] = {
    "Data_Protection_Officer": ("designatedBy",),
    "Representative": ("represents",),
}

# Per typed class, built once: (name, field name, many, required, allowed
# target classes, indexed backwards) per ref.
_REF_PLANS: dict[str, tuple[tuple, ...]] = {
    cls: tuple((spec.name, spec.field_name, spec.many, spec.required,
                spec.targets, spec.name in _BACKWARD_ROLES.get(cls, ()))
               for spec in CLASS_REFS[cls])
    for cls in DATACLASS_FOR
}


def _missing_target(node: Node, name: str, target: str) -> Violation:
    return Violation(DANGLING_REF, node.id,
                     f"reference {name!r} to missing object {target!r}")


# Per typed class, built once: a getter of each timestamp field, nested ones
# included (None when the optional consultation is). InstanceGraph parses
# each distinct timestamp once.
_TIMESTAMP_GETTERS: dict[str, tuple] = {
    cls: tuple(attrgetter(spec.name) for spec in CLASS_ATTRS[cls] if spec.kind == "ts")
    for cls in DATACLASS_FOR
}
_TIMESTAMP_GETTERS["Data_Protection_Impact_Assessment"] += (
    lambda node: node.consultation and node.consultation.requestedAt,
    lambda node: node.consultation and node.consultation.adviceAt,
)


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------

DANGLING_REF = "DANGLING_REF"
BAD_LITERAL = "BAD_LITERAL"
INVARIANT = "INVARIANT"


class Violation(Record):
    code: str
    objectId: str
    message: str


# Per typed class, built once: (name, many, enumeration) per enum attr.
_ENUM_PLANS: dict[str, tuple[tuple, ...]] = {
    cls: tuple((spec.name, spec.many, spec.enum)
               for spec in CLASS_ATTRS[cls] if spec.enum is not None)
    for cls in DATACLASS_FOR
}
_CHECKED_ENUMS = frozenset(enum for checks in _ENUM_PLANS.values()
                           for _, _, enum in checks)


def validate_graph(
    graph: InstanceGraph,
    profile=None,
) -> list[Violation]:
    """Integrity violations of the graph: the references that construction
    found dangling or of a wrong class, enumeration literals outside the
    (possibly profile-extended) sets, and class invariant breaches.
    Deterministic and declaration-order independent.
    """
    extensions = profile.enumExtensions if profile is not None else None
    allowed = {enum: enums.literals(enum, extensions) for enum in _CHECKED_ENUMS}
    out: list[Violation] = list(graph.ref_violations)
    add = out.append

    for node in graph:
        enum_checks = _ENUM_PLANS.get(node.cls)
        if enum_checks is None:
            continue  # a generic node: its attrs are open

        # Enumeration membership.
        for name, many, enum in enum_checks:
            value = getattr(node, name, None)
            if value is None:
                continue
            literals = allowed[enum]
            for literal in (value if many else (value,)):
                if not (isinstance(literal, str) and literal in literals):
                    add(Violation(BAD_LITERAL, node.id,
                                  f"{name}: {literal!r} is not a literal of {enum}"))

        # Class invariants.
        invariants = _INVARIANTS.get(node.cls)
        if invariants is not None:
            invariants(graph, node, profile, add)

    out.sort(key=lambda v: (v.objectId, v.code, v.message))
    return out


# Class invariants: each check(graph, node, profile, add) passes its
# violations to ``add``; _INVARIANTS maps a class to its check.

def _country_invariants(graph, node, profile, add) -> None:
    if node.isEUMemberState and not node.EULawApplies:
        add(Violation(INVARIANT, node.id, "an EU member state is subject to EU law"))
    if not (len(node.code) == 2 and node.code.isalpha() and node.code.isupper()):
        add(Violation(INVARIANT, node.id,
                      f"country code {node.code!r} is not a two-letter ISO code"))


def _actor_invariants(graph, node, profile, add) -> None:
    if not node.countries:
        add(Violation(INVARIANT, node.id, f"{node.cls} must name at least one country"))


def _child_invariants(graph, node, profile, add) -> None:
    limit = DEFAULT_CHILD_AGE_LIMIT
    if profile is not None:
        limit = profile.minimum_age(graph, node, None)
    if node.ageYears >= limit:
        add(Violation(INVARIANT, node.id, f"child subject aged {node.ageYears} meets "
                                          f"the consent age limit of {limit}"))


def _personal_data_invariants(graph, node, profile, add) -> None:
    if node.identifiesSubject and not node.subjects:
        add(Violation(INVARIANT, node.id, "identifying data must reference its subjects"))


def _purpose_invariants(graph, node, profile, add) -> None:
    if node.legalBasis == "LEGAL_OBLIGATION" and not node.obligationSource:
        add(Violation(INVARIANT, node.id,
                      "a legal-obligation basis requires the obligation source"))


def _consent_invariants(graph, node, profile, add) -> None:
    if not node.givenFor:
        add(Violation(INVARIANT, node.id, "consent must cover at least one purpose"))


def _processing_invariants(graph, node, profile, add) -> None:
    if not node.purposes:
        add(Violation(INVARIANT, node.id, "processing must declare at least one purpose"))


def _request_invariants(graph, node, profile, add) -> None:
    responded = graph.minutes(node.respondedAt)
    received = graph.minutes(node.receivedAt)
    if responded is not None and received is not None and responded < received:
        add(Violation(INVARIANT, node.id, "response precedes the request"))
    if node.denialReason is not None and node.denialReason not in enums.DENIAL_REASONS:
        add(Violation(BAD_LITERAL, node.id,
                      f"denialReason: {node.denialReason!r} is not a known "
                      "denial or restriction reason"))


def _breach_invariants(graph, node, profile, add) -> None:
    detected = graph.minutes(node.detectedAt)
    if detected is not None:
        for label in ("saNotifiedAt", "subjectsCommunicatedAt", "controllersInformedAt"):
            later = graph.minutes(getattr(node, label))
            if later is not None and later < detected:
                add(Violation(INVARIANT, node.id, f"{label} precedes detection"))


def _turnover_invariants(graph, node, profile, add) -> None:
    if node.worldwideAnnualTurnoverEUR < 0:
        add(Violation(INVARIANT, node.id, "turnover must be non-negative"))


# Basis fields that may be populated per basis kind.
BASIS_FIELDS: dict[str, frozenset[str]] = {
    "IntraEU": frozenset(),
    "AdequacyDecision": frozenset({"additionalRequirements", "evidence"}),
    "BCR": frozenset({"information", "approved", "legallyBinding"}),
    "StandardContractualClauses": frozenset({"approved"}),
    "AdministrativeArrangement": frozenset({"authorized"}),
    "CodeOfConductOrCertification": frozenset(),
    "PublicBodyInstrument": frozenset({"authorized"}),
    "Derogation": frozenset({"derogation", "details"}),
}


def _basis_invariants(graph, node, profile, add) -> None:
    basis = node.basis
    if basis.kind not in BASIS_FIELDS:
        add(Violation(BAD_LITERAL, node.id,
                      f"basis kind {basis.kind!r} is not a transfer basis"))
        return
    allowed = BASIS_FIELDS[basis.kind]
    for name, default in BASIS_DEFAULTS:
        if name not in allowed and getattr(basis, name) != default:
            add(Violation(INVARIANT, node.id, f"basis field {name!r} does not "
                                              f"belong to a {basis.kind} basis"))
    if basis.kind == "Derogation":
        if basis.derogation is None:
            add(Violation(INVARIANT, node.id,
                          "a derogation basis must name its derogation"))
        elif basis.derogation not in enums.ENUMERATIONS[enums.TRANSFER_DEROGATION_TYPES]:
            add(Violation(BAD_LITERAL, node.id, f"derogation {basis.derogation!r} "
                                                "is not a transfer derogation"))
    for literal in basis.information:
        if literal not in enums.ENUMERATIONS[enums.TRANSFER_CONTRACT_INFORMATION]:
            add(Violation(BAD_LITERAL, node.id, f"basis information {literal!r} is not "
                                                "a transfer contract information item"))


_INVARIANTS = {
    "Country": _country_invariants, "Child_Data_Subject": _child_invariants,
    "Data_Controller": _actor_invariants, "Data_Processor": _actor_invariants,
    "Personal_Data": _personal_data_invariants, "Purpose": _purpose_invariants,
    "Consent": _consent_invariants, "Data_Processing": _processing_invariants,
    "Right_Request": _request_invariants, "Breach": _breach_invariants,
    "Data_Transfer": _basis_invariants, "Turnover_Context": _turnover_invariants,
}
