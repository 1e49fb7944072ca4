"""Tailoring: variation points, resolutions, and specialization profiles.

The generic rule set is cloned into a profile and then specialized by
resolving variation points. A resolution can implement a hook, add rules,
adapt rules through restriction descriptors, replace a rule, or extend an
enumeration. Every applied resolution leaves an audit entry per touched
artifact (model, constraints, glossary), and conflicts fail fast when the
profile is finalized, never silently last-writer-wins.

Hook implementations are declarative parameter tables, not executable
plugins, so profiles stay serializable and auditable.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple

from . import enums
from .model import DEFAULT_CHILD_AGE_LIMIT, Country, DataSubject, InstanceGraph
from .rules import (
    _V4_CATEGORIES,
    DEFAULT_HOOKS,
    RULE_CATALOG,
    RuleSpec,
    VARIATION_RULE_SPECS,
    rule_sort_key,
)

HOOK = "HookImplementation"
ADD = "RuleAddition"
ADAPT = "RuleAdaptation"
REPLACE = "RuleReplacement"
ENUM = "EnumExtension"

RESOLUTION_KINDS = (HOOK, ADD, ADAPT, REPLACE, ENUM)

V5_ADAPTABLE_RULES = ("C2",) + tuple(f"C{i}" for i in range(9, 23))

V17_RIGHTS = frozenset({
    "RIGHT_TO_ACCESS",
    "RIGHT_TO_RECTIFICATION",
    "RIGHT_TO_RESTRICTION",
    "RIGHT_TO_OBJECT",
})
V18_RIGHTS = V17_RIGHTS | {"NOTIFICATION", "RIGHT_TO_PORTABILITY"}

MIN_CHILD_AGE = 13


class VariabilityError(ValueError):
    """Base error of the tailoring step."""


class UnknownVariationError(VariabilityError):
    pass


class ResolutionParameterError(VariabilityError):
    pass


class DuplicateResolutionError(VariabilityError):
    pass


class ProfileFinalizedError(VariabilityError):
    """Mutation attempted on a finalized profile."""


class ProfileConsistencyError(VariabilityError):
    """Cross-resolution consistency violated at finalize."""


@dataclass(frozen=True)
class Resolution:
    variationId: str
    parameters: Mapping[str, object] = field(default_factory=dict)

    _checked = False  # made by VariationPoint.resolve: params checked and frozen


@dataclass(frozen=True)
class Adaptation:
    removedRights: frozenset[str] = frozenset()
    exemptProcessingTypes: frozenset[str] = frozenset()


@dataclass(frozen=True)
class AuditEntry:
    variationId: str
    artifact: str  # "model" | "constraints" | "glossary"
    action: str

    def to_payload(self) -> dict[str, str]:
        return {
            "variation": self.variationId,
            "artifact": self.artifact,
            "action": self.action,
        }


# ---------------------------------------------------------------------------
# Parameter tables
# ---------------------------------------------------------------------------

_ABSENT = object()  # default of a parameter that is left out when not given


class Param(NamedTuple):
    """One parameter of a variation point's table.

    ``kind(vid, key, param, value)`` checks a value and returns it frozen
    (tuples and read-only mappings). An absent key takes ``default``, checked
    like a given value, or stays absent when it is ``_ABSENT``. ``allowed``
    is a set of literals, or the name of an enumeration: its literals and
    those variation points add to it. A message replaces the kind's own.
    """

    kind: Callable[[str, str, "Param", object], object]
    default: object = _ABSENT
    allowed: frozenset[str] | str | None = None
    nonempty: bool = False
    table: Mapping[str, "Param"] | None = None  # the fields of each sub-table
    message: str = ""       # the value has the wrong shape
    key_message: str = ""   # a key of a map of sub-tables is not allowed
    item_message: str = ""  # an entry of a list or map is not an object


def _error(vid: str, text: str) -> ResolutionParameterError:
    return ResolutionParameterError(f"{vid}: {text}")


# JSON data holds dicts and lists; other Mappings and Sequences come from
# Python callers.
def _is_mapping(value: object) -> bool:
    return type(value) is dict or isinstance(value, Mapping)


def _is_list(value: object) -> bool:
    return type(value) is list or (
        not isinstance(value, str) and isinstance(value, Sequence))


def _literals(param: Param) -> frozenset[str] | None:
    allowed = param.allowed
    return _ENUM_LITERALS[allowed] if type(allowed) is str else allowed


def _check_table(vid: str, table: Mapping[str, Param], params: object,
                 message: str) -> Mapping[str, object]:
    """``params`` checked against ``table``, as a read-only mapping."""
    if not _is_mapping(params):
        raise _error(vid, message)
    if not params.keys() <= table.keys():
        unknown = sorted(map(str, params.keys() - table.keys()))
        raise _error(vid, f"unknown parameters {', '.join(unknown)}")
    out = {}
    for key, param in table.items():
        value = params.get(key, param.default)
        if value is not _ABSENT:
            out[key] = param.kind(vid, key, param, value)
    return MappingProxyType(out)


def _flag(vid: str, key: str, param: Param, value: object) -> bool:
    if type(value) is not bool:
        raise _error(vid, f"{key} must be a boolean")
    return value


def _names(vid: str, key: str, param: Param, value: object) -> tuple[str, ...]:
    if not _is_list(value):
        raise _error(vid, f"{key} must be a list")
    values = tuple(value)
    if param.nonempty and not values:
        raise _error(vid, f"{key} must be nonempty")
    allowed = _literals(param)
    for entry in values:
        if not isinstance(entry, str):
            raise _error(vid, f"{key} entries must be strings")
        if allowed is not None and entry not in allowed:
            raise _error(vid, f"{key} entry {entry!r} is not allowed")
    return values


def _choice(vid: str, key: str, param: Param, value: object) -> str:
    if not (isinstance(value, str) and value in _literals(param)):
        raise _error(vid, param.message.format(value=value))
    return value


def _integer(vid: str, key: str, param: Param, value: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise _error(vid, f"{key} must be an integer")
    return value


def _count(vid: str, key: str, param: Param, value: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise _error(vid, f"{key} must be a non-negative integer")
    return value


def _ages(vid: str, key: str, param: Param, value: object) -> Mapping[str, int]:
    """A map from two-letter country code, upper-cased, to an integer age."""
    if not _is_mapping(value):
        raise _error(vid, param.message)
    out = {}
    for code, age in value.items():
        if not (isinstance(code, str) and len(code) == 2 and code.isalpha()):
            raise _error(vid, f"{code!r} is not a two-letter country code")
        if not isinstance(age, int) or isinstance(age, bool):
            raise _error(vid, f"age for {code} must be an integer")
        if code.upper() in out:
            raise _error(vid, f"country code {code.upper()} is given more than once")
        out[code.upper()] = age
    return MappingProxyType(out)


def _tables(vid: str, key: str, param: Param, value: object) -> tuple[Mapping, ...]:
    """A nonempty list of sub-tables."""
    if not _is_list(value) or not value:
        raise _error(vid, f"{key} must be a nonempty list")
    return tuple(_check_table(vid, param.table, entry, param.item_message)
                 for entry in value)


def _table_map(vid: str, key: str, param: Param, value: object) -> Mapping:
    """A nonempty map from allowed keys to sub-tables."""
    if not _is_mapping(value) or not value:
        raise _error(vid, param.message)
    out = {}
    for name, entry in value.items():
        if name not in param.allowed:
            raise _error(vid, param.key_message.format(name))
        out[name] = _check_table(vid, param.table, entry, param.item_message.format(name))
    return MappingProxyType(out)


# ---------------------------------------------------------------------------
# Variation-point registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationPoint:
    id: str
    sourceArticle: int
    summary: str
    kinds: frozenset[str]
    params: Mapping[str, Param]
    hooks: tuple[str, ...] = ()           # overridable default hooks
    hookTargets: tuple[str, ...] = ()     # rules consuming those hooks
    addsRules: tuple[str, ...] = ()
    adaptsRules: tuple[str, ...] = ()
    replacesRules: tuple[str, ...] = ()
    enumExtensions: tuple[tuple[str, str], ...] = ()
    parameterHooks: tuple[str, ...] = ()  # hooks realized by rule parameters
    # What applying any resolution of this point records; V5's adaptation
    # entries, which depend on its params, come before these.
    audit: tuple[AuditEntry, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        targets = ", ".join(self.hookTargets) or "added rules"
        model = [f"added literal {literal} to {enum_name}"
                 for enum_name, literal in self.enumExtensions]
        model += [f"updated version of constraint {target}"
                  for _hook in self.hooks for target in self.hookTargets]
        model += [f"new constraint {rule_id}" for rule_id in self.addsRules]
        constraints = [f"implemented {hook} (used by {targets}) from the "
                       "resolution parameters" for hook in self.hooks]
        constraints += [f"removed constraint {rule_id}" for rule_id in self.replacesRules]
        constraints += [f"added constraint {rule_id}" for rule_id in self.addsRules]
        constraints += [f"implemented {hook} from the resolution parameters"
                        for hook in self.parameterHooks]
        object.__setattr__(self, "audit", (
            *(AuditEntry(self.id, "model", action) for action in model),
            *(AuditEntry(self.id, "constraints", action) for action in constraints),
            AuditEntry(self.id, "glossary",
                       f"added terminology introduced by {self.id} ({self.summary})")))

    def resolve(self, params: object) -> Resolution:
        """A resolution of this point whose params are checked against its
        table and frozen; ``None`` stands for no params."""
        resolution = Resolution(self.id, _check_table(
            self.id, self.params, {} if params is None else params,
            "parameters must be an object"))
        object.__setattr__(resolution, "_checked", True)
        return resolution


_INSTRUCTIONS = {"allowedWithoutInstructions": Param(_flag, False)}
_PROCESSING_TYPES = Param(_names, allowed=enums.PROCESSING_CONTEXT, nonempty=True)

VARIATION_POINTS: dict[str, VariationPoint] = {vp.id: vp for vp in (
    VariationPoint(
        "V1", 8, f"national minimum consent age between {MIN_CHILD_AGE} and "
                 f"{DEFAULT_CHILD_AGE_LIMIT}",
        frozenset({HOOK, ADD}), {
            "thresholds": Param(
                _ages, {}, message="thresholds must map country codes to ages"),
            "default": Param(_integer)},
        hooks=("V_getMinimumAgeForDS",), hookTargets=("C5",), addsRules=("V1",)),
    VariationPoint(
        "V2", 8, "documents accepted as proof of parental responsibility",
        frozenset({HOOK, ADD}),
        {"acceptedDocumentKinds": Param(_names, (), nonempty=True)},
        hooks=("V_checkParentDocuments",), hookTargets=("C5",), addsRules=("V2",)),
    VariationPoint(
        "V3", 9, "whether consent can lift the special-category prohibition",
        frozenset({HOOK}), {"canBeLifted": Param(_flag, True)},
        hooks=("V_prohibitionCanBeLiftedByConsent",), hookTargets=("C6",)),
    VariationPoint(
        "V4", 9, "further national conditions on genetic, biometric, and "
                 "health data",
        frozenset({ADD}), {
            "prohibited": Param(_flag, False),
            "requiredTechnicalMeasures": Param(_names, (), enums.TECHNICAL_MEASURE_TYPE),
            "restrictedCategories": Param(_names, allowed=_V4_CATEGORIES, nonempty=True)},
        addsRules=("V4",), parameterHooks=("V_verifyFurtherConditionsAndLimit",)),
    VariationPoint(
        "V5", 23, "legislative restriction of the principle and right rules",
        frozenset({ADAPT}), {"adaptations": Param(
            _table_map, None, frozenset(V5_ADAPTABLE_RULES), table={
                "removedRights": Param(_names, (), enums.RIGHT_KIND),
                "exemptProcessingTypes": Param(_names, (), enums.PROCESSING_CONTEXT)},
            message="adaptations must map rule ids to restriction descriptors",
            key_message="rule {} cannot be adapted (only C2 and C9-C22)",
            item_message="descriptor for {} must be an object")},
        adaptsRules=V5_ADAPTABLE_RULES),
    VariationPoint(
        "V6", 29, "processing without controller instructions where national "
                  "law requires it",
        frozenset({HOOK}), _INSTRUCTIONS,
        hooks=("V_processWithoutControllerInstructions",), hookTargets=("C22",)),
    VariationPoint(
        "V7", 32, "persons under authority bound to controller instructions",
        frozenset({HOOK, ADD}), _INSTRUCTIONS,
        hooks=("V_processWithoutControllerInstructions",), addsRules=("V7",)),
    VariationPoint(
        "V8", 36, "reconciliation of data protection with freedom of expression",
        frozenset({ADD, ENUM}), {"requiredForProcessingTypes": _PROCESSING_TYPES},
        addsRules=("V8",), parameterHooks=("V_ReconcileByLaw",),
        enumExtensions=((enums.DPIA_INFORMATION_TYPE, "RECONCILIATION_ASSESSMENT"),)),
    VariationPoint(
        "V9", 37, "bodies that must designate a data protection officer",
        frozenset({HOOK}),
        {"actorKinds": Param(_names, (), enums.ACTOR_TYPE, nonempty=True)},
        hooks=("V_bodiesMustDesignateDPO",), hookTargets=("C29",)),
    VariationPoint(
        "V10", 49, "national limits on transfers of specific data categories",
        frozenset({ADD}), {"limits": Param(_tables, None, table={
            "categories": Param(_names, (), enums.DATA_CATEGORY),
            "toCountries": Param(_names, ())},
            item_message="each limit must be an object")},
        addsRules=("V10",), parameterHooks=("V_verifyTransferLimits",)),
    VariationPoint(
        "V11", 80, "representative bodies may lodge complaints",
        frozenset({ADD}), {}, addsRules=("V11",)),
    VariationPoint(
        "V12", 83, "national fine regime for public authorities and bodies",
        frozenset({REPLACE}), {
            "finesApplyToPublicBodies": Param(_flag, True),
            "publicBodyFineCapEUR": Param(_count)},
        replacesRules=("C35",), addsRules=("V12_1", "V12_2")),
    VariationPoint(
        "V13", 84, "additional national penalties for infringements",
        frozenset({ADD}), {"penalties": Param(_tables, None, table={
            "infringementKind": Param(_choice, None, enums.INFRINGEMENT_TYPE,
                                      message="{value!r} is not an infringement kind"),
            "penaltyEUR": Param(_count, None)},
            item_message="each penalty must be an object")},
        addsRules=("V13",)),
    VariationPoint(
        "V14", 85, "prior authorization for public-interest processing",
        frozenset({ADD}), {"processingTypes": _PROCESSING_TYPES}, addsRules=("V14",)),
    VariationPoint(
        "V15", 87, "conditions for processing national identification numbers",
        frozenset({ADD, ENUM}), {
            "allowed": Param(_flag, True),
            "requiredTechnicalMeasures": Param(_names, (), enums.TECHNICAL_MEASURE_TYPE)},
        addsRules=("V15",), parameterHooks=("V_checkedIDProcessing",),
        enumExtensions=((enums.DATA_CATEGORY, "IDENTIFICATION"),)),
    VariationPoint(
        "V16", 88, "employment-context assessment recorded in impact assessments",
        frozenset({ENUM}), {},
        enumExtensions=((enums.DPIA_INFORMATION_TYPE, "EMPLOYMENT_ASSESSMENT"),)),
    VariationPoint(
        "V17", 89, "right derogations for research and statistics",
        frozenset({ADD}), {
            "derogatedRights": Param(_names, (), V17_RIGHTS, nonempty=True),
            "processingTypes": _PROCESSING_TYPES},
        addsRules=("V17",), parameterHooks=("V_checkDerrogationsFromRights",)),
    VariationPoint(
        "V18", 89, "right derogations for public-interest archiving",
        frozenset({ADD}),
        {"derogatedRights": Param(_names, (), V18_RIGHTS, nonempty=True)},
        addsRules=("V18",), parameterHooks=("V_checkDerrogationsFromRights",)),
    VariationPoint(
        "V19", 90, "supervisory powers over secrecy-bound controllers",
        frozenset({ADD}), {"protectedCategories": Param(_names, ())},
        addsRules=("V19",), parameterHooks=("V_checkDerrogationsFromRights",)),
    VariationPoint(
        "V20", 91, "church and religious data-protection regimes",
        frozenset({ADD, ENUM}), {}, addsRules=("V20",),
        enumExtensions=((enums.ACTOR_TYPE, "CHURCH_OR_RELIGIOUS_ORGANIZATION"),)),
)}

# The literals a parameter naming an enumeration allows: the enumeration's
# own and every literal a variation point adds to it.
_ENUM_LITERALS: dict[str, frozenset[str]] = dict(enums.ENUMERATIONS)
for _vp in VARIATION_POINTS.values():
    for _enum_name, _literal in _vp.enumExtensions:
        _ENUM_LITERALS[_enum_name] |= {_literal}
del _vp, _enum_name, _literal

# Catalog order of every rule a profile can hold, as a rank looked up per sort.
_RULE_RANK = {rule_id: rank for rank, rule_id in enumerate(
    sorted((*RULE_CATALOG, *VARIATION_RULE_SPECS), key=rule_sort_key))}
_DEFAULT_HOOKS = frozenset(DEFAULT_HOOKS)


# ---------------------------------------------------------------------------
# Specialization profile
# ---------------------------------------------------------------------------

class SpecializationProfile:
    """The generic rule set plus applied variation resolutions.

    A builder while being tailored: apply() checks each resolution's params
    against its variation point's table, unless the table already made it,
    keeps them frozen (read-only mappings and tuples) and records its
    effects. finalize() validates cross-resolution consistency and freezes
    the profile. Finalized profiles are immutable and safe to share across
    evaluator threads.
    """

    def __init__(self) -> None:
        self._rules: dict[str, RuleSpec] = dict(RULE_CATALOG)
        self._hooks: dict[str, Mapping | None] = dict.fromkeys(DEFAULT_HOOKS)
        self._enum_extensions: dict[str, frozenset[str]] = {}
        self._resolutions: dict[str, Resolution] = {}
        self._adaptations: dict[str, Adaptation] = {}
        self._audit: list[AuditEntry] = []
        self._finalized = False

    @property
    def finalized(self) -> bool:
        return self._finalized

    def __reduce__(self):
        # Read-only views do not pickle; applying the same resolutions again
        # rebuilds the same profile.
        resolutions = tuple(Resolution(r.variationId, plain_data(r.parameters))
                            for r in self._resolutions.values())
        return build_profile, (resolutions, self.finalized)

    # -- read API used by the engine ----------------------------------------

    def rules(self) -> list[RuleSpec]:
        rules = self._rules
        return [rules[rule_id] for rule_id in self.active_rule_ids()]

    def active_rule_ids(self) -> list[str]:
        return sorted(self._rules, key=_RULE_RANK.__getitem__)

    @property
    def adaptations(self) -> Mapping[str, Adaptation]:
        return self._adaptations

    @property
    def enumExtensions(self) -> Mapping[str, frozenset[str]]:
        return self._enum_extensions

    @property
    def resolutions(self) -> tuple[Resolution, ...]:
        return tuple(self._resolutions.values())

    def hook_params(self, name: str) -> Mapping | None:
        return self._hooks.get(name)

    @property
    def hooks(self) -> Mapping[str, Mapping | None]:
        return dict(self._hooks)

    def resolution_params(self, variation_id: str) -> Mapping | None:
        resolution = self._resolutions.get(variation_id)
        return None if resolution is None else resolution.parameters

    def minimum_age(self, graph: InstanceGraph, subject: DataSubject,
                    processing) -> int:
        params = self.hook_params("V_getMinimumAgeForDS")
        if params is None:
            return DEFAULT_CHILD_AGE_LIMIT
        country = graph.get(subject.residence)
        code = country.code if isinstance(country, Country) else None
        return params["thresholds"].get(code, params.get("default", DEFAULT_CHILD_AGE_LIMIT))

    # -- tailoring ------------------------------------------------------------

    def apply(self, resolution: Resolution) -> "SpecializationProfile":
        if self._finalized:
            raise ProfileFinalizedError("profile is finalized; clone to re-tailor")
        vp = VARIATION_POINTS.get(resolution.variationId)
        if vp is None:
            raise UnknownVariationError(
                f"unknown variation point {resolution.variationId!r}")
        if vp.id in self._resolutions:
            raise DuplicateResolutionError(
                f"{vp.id} has already been resolved in this profile")
        if not resolution._checked:
            resolution = vp.resolve(resolution.parameters)
        params = resolution.parameters
        for enum_name, literal in vp.enumExtensions:
            current = self._enum_extensions.get(enum_name, frozenset())
            self._enum_extensions[enum_name] = current | {literal}
        for hook in vp.hooks + vp.parameterHooks:
            self._hooks[hook] = params
        for rule_id in vp.replacesRules:
            del self._rules[rule_id]
        for rule_id in vp.addsRules:
            self._rules[rule_id] = VARIATION_RULE_SPECS[rule_id]
        if vp.adaptsRules:
            adapted = params["adaptations"]
            for rule_id, descriptor in adapted.items():
                self._adaptations[rule_id] = Adaptation(
                    frozenset(descriptor["removedRights"]),
                    frozenset(descriptor["exemptProcessingTypes"]))
            self._audit += [AuditEntry(vp.id, "model", f"adapted constraint {rule_id}")
                            for rule_id in adapted]
            self._audit += [AuditEntry(vp.id, "constraints",
                                       f"restricted constraint {rule_id} per the "
                                       "descriptor") for rule_id in adapted]
        self._audit += vp.audit
        self._resolutions[vp.id] = resolution
        return self

    def finalize(self) -> "SpecializationProfile":
        if self._finalized:
            return self

        v1 = self.resolution_params("V1")
        if v1 is not None:
            ages = list(v1["thresholds"].values())
            if "default" in v1:
                ages.append(v1["default"])
            for age in ages:
                if age < MIN_CHILD_AGE:
                    raise ProfileConsistencyError(
                        f"V1: age {age} is below {MIN_CHILD_AGE}, the lowest age "
                        "national law may set")
                if age > DEFAULT_CHILD_AGE_LIMIT:
                    raise ProfileConsistencyError(
                        f"V1: age {age} is above the generic limit of "
                        f"{DEFAULT_CHILD_AGE_LIMIT}")

        v6 = self.resolution_params("V6")
        v7 = self.resolution_params("V7")
        if v6 is not None and v7 is not None and \
                v6["allowedWithoutInstructions"] != v7["allowedWithoutInstructions"]:
            raise ProfileConsistencyError(
                "V6 and V7 disagree on processing without controller instructions")

        self._finalized = True
        self._adaptations = MappingProxyType(self._adaptations)
        self._enum_extensions = MappingProxyType(self._enum_extensions)
        return self

    # -- audit & identity ------------------------------------------------------

    def resolution_table(self) -> list[AuditEntry]:
        return list(self._audit)

    def resolution_table_payload(self) -> list[dict[str, str]]:
        return [entry.to_payload() for entry in self._audit]

    def fingerprint(self) -> str:
        state = {
            "rules": self.active_rule_ids(),
            "adaptations": {
                rule_id: {
                    "removedRights": sorted(desc.removedRights),
                    "exemptProcessingTypes": sorted(desc.exemptProcessingTypes),
                }
                for rule_id, desc in self._adaptations.items()
            },
            "hooks": {name: params for name, params in self._hooks.items()
                      if name in _DEFAULT_HOOKS},
            "enums": {
                name: sorted(values)
                for name, values in self._enum_extensions.items()
            },
            "parameters": {variation_id: resolution.parameters
                           for variation_id, resolution in self._resolutions.items()},
        }
        blob = _FINGERPRINT_ENCODER.encode(state)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# Params are frozen, so the only value JSON cannot encode is a read-only view;
# tuples encode as lists and sort_keys orders every mapping. The tables build
# params bottom-up from new containers, so none can hold itself.
_FINGERPRINT_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=dict, check_circular=False)


def plain_data(value):
    """``value`` with every mapping (a dict, or the read-only view that
    applied params use) as a key-sorted dict and every list or tuple as a
    list."""
    if isinstance(value, (dict, MappingProxyType)):
        return {k: plain_data(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [plain_data(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# Module-level operations
# ---------------------------------------------------------------------------

def default_profile() -> SpecializationProfile:
    """The generic rule set: 35 active rules, default hooks, no extensions."""
    return SpecializationProfile()


def apply_resolution(profile: SpecializationProfile,
                     resolution: Resolution) -> SpecializationProfile:
    return profile.apply(resolution)


def finalize_profile(profile: SpecializationProfile) -> SpecializationProfile:
    return profile.finalize()


def resolution_table(profile: SpecializationProfile) -> list[AuditEntry]:
    return profile.resolution_table()


def build_profile(resolutions: Sequence[Resolution],
                  finalize: bool = True) -> SpecializationProfile:
    """Convenience: clone the generic set, apply, and (optionally) finalize."""
    profile = default_profile()
    for resolution in resolutions:
        profile.apply(resolution)
    if finalize:
        profile.finalize()
    return profile
