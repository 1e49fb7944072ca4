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
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from . import enums
from .model import Country, DataSubject, InstanceGraph
from .rules import (
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
MAX_CHILD_AGE = 16


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
# Parameter schemas
# ---------------------------------------------------------------------------

def _require_mapping(variation_id: str, params: object) -> dict:
    if params is None:
        return {}
    if not isinstance(params, Mapping):
        raise ResolutionParameterError(
            f"{variation_id}: parameters must be an object")
    return dict(params)


def _reject_unknown(variation_id: str, params: Mapping, allowed: set[str]) -> None:
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ResolutionParameterError(
            f"{variation_id}: unknown parameters {', '.join(unknown)}")


def _str_list(variation_id: str, params: Mapping, key: str,
              allowed: frozenset[str] | None = None,
              nonempty: bool = False) -> tuple[str, ...]:
    raw = params.get(key, ())
    if isinstance(raw, str) or not isinstance(raw, Sequence):
        raise ResolutionParameterError(f"{variation_id}: {key} must be a list")
    values = tuple(raw)
    if nonempty and not values:
        raise ResolutionParameterError(f"{variation_id}: {key} must be nonempty")
    for value in values:
        if not isinstance(value, str):
            raise ResolutionParameterError(
                f"{variation_id}: {key} entries must be strings")
        if allowed is not None and value not in allowed:
            raise ResolutionParameterError(
                f"{variation_id}: {key} entry {value!r} is not allowed")
    return values


def _bool(variation_id: str, params: Mapping, key: str, default: bool) -> bool:
    value = params.get(key, default)
    if not isinstance(value, bool):
        raise ResolutionParameterError(f"{variation_id}: {key} must be a boolean")
    return value


def _schema_v1(params: Mapping) -> dict:
    _reject_unknown("V1", params, {"thresholds", "default"})
    thresholds = params.get("thresholds", {})
    if not isinstance(thresholds, Mapping):
        raise ResolutionParameterError("V1: thresholds must map country codes to ages")
    clean: dict[str, int] = {}
    for code, age in thresholds.items():
        if not (isinstance(code, str) and len(code) == 2 and code.isalpha()):
            raise ResolutionParameterError(
                f"V1: {code!r} is not a two-letter country code")
        if not isinstance(age, int) or isinstance(age, bool):
            raise ResolutionParameterError(f"V1: age for {code} must be an integer")
        clean[code.upper()] = age
    out: dict[str, object] = {"thresholds": clean}
    if "default" in params:
        default = params["default"]
        if not isinstance(default, int) or isinstance(default, bool):
            raise ResolutionParameterError("V1: default must be an integer")
        out["default"] = default
    return out


def _schema_v2(params: Mapping) -> dict:
    _reject_unknown("V2", params, {"acceptedDocumentKinds"})
    kinds = _str_list("V2", params, "acceptedDocumentKinds", nonempty=True)
    return {"acceptedDocumentKinds": kinds}


def _schema_v3(params: Mapping) -> dict:
    _reject_unknown("V3", params, {"canBeLifted"})
    return {"canBeLifted": _bool("V3", params, "canBeLifted", True)}


_V4_CATEGORIES = frozenset({"GENETIC", "BIOMETRIC", "HEALTH"})


def _schema_v4(params: Mapping) -> dict:
    _reject_unknown("V4", params,
                    {"restrictedCategories", "requiredTechnicalMeasures", "prohibited"})
    out: dict[str, object] = {
        "prohibited": _bool("V4", params, "prohibited", False),
        "requiredTechnicalMeasures": _str_list(
            "V4", params, "requiredTechnicalMeasures",
            enums.ENUMERATIONS[enums.TECHNICAL_MEASURE_TYPE]),
    }
    if "restrictedCategories" in params:
        out["restrictedCategories"] = _str_list(
            "V4", params, "restrictedCategories", _V4_CATEGORIES, nonempty=True)
    return out


def _schema_v5(params: Mapping) -> dict:
    _reject_unknown("V5", params, {"adaptations"})
    raw = params.get("adaptations")
    if not isinstance(raw, Mapping) or not raw:
        raise ResolutionParameterError(
            "V5: adaptations must map rule ids to restriction descriptors")
    clean: dict[str, dict] = {}
    for rule_id, descriptor in raw.items():
        if rule_id not in V5_ADAPTABLE_RULES:
            raise ResolutionParameterError(
                f"V5: rule {rule_id} cannot be adapted (only C2 and C9-C22)")
        if not isinstance(descriptor, Mapping):
            raise ResolutionParameterError(f"V5: descriptor for {rule_id} must be an object")
        _reject_unknown("V5", descriptor, {"removedRights", "exemptProcessingTypes"})
        clean[rule_id] = {
            "removedRights": _str_list(
                "V5", descriptor, "removedRights",
                enums.ENUMERATIONS[enums.RIGHT_KIND]),
            "exemptProcessingTypes": _str_list(
                "V5", descriptor, "exemptProcessingTypes",
                enums.ENUMERATIONS[enums.PROCESSING_CONTEXT]),
        }
    return {"adaptations": clean}


def _schema_instructions(variation_id: str) -> Callable[[Mapping], dict]:
    def schema(params: Mapping) -> dict:
        _reject_unknown(variation_id, params, {"allowedWithoutInstructions"})
        return {"allowedWithoutInstructions": _bool(
            variation_id, params, "allowedWithoutInstructions", False)}
    return schema


def _schema_v8(params: Mapping) -> dict:
    _reject_unknown("V8", params, {"requiredForProcessingTypes"})
    out: dict[str, object] = {}
    if "requiredForProcessingTypes" in params:
        out["requiredForProcessingTypes"] = _str_list(
            "V8", params, "requiredForProcessingTypes",
            enums.ENUMERATIONS[enums.PROCESSING_CONTEXT], nonempty=True)
    return out


def _schema_v9(params: Mapping) -> dict:
    _reject_unknown("V9", params, {"actorKinds"})
    allowed = enums.ENUMERATIONS[enums.ACTOR_TYPE] | {"CHURCH_OR_RELIGIOUS_ORGANIZATION"}
    return {"actorKinds": _str_list("V9", params, "actorKinds", allowed,
                                    nonempty=True)}


def _schema_v10(params: Mapping) -> dict:
    _reject_unknown("V10", params, {"limits"})
    raw = params.get("limits")
    if not isinstance(raw, Sequence) or isinstance(raw, str) or not raw:
        raise ResolutionParameterError("V10: limits must be a nonempty list")
    allowed_categories = enums.ENUMERATIONS[enums.DATA_CATEGORY] | {"IDENTIFICATION"}
    clean = []
    for limit in raw:
        if not isinstance(limit, Mapping):
            raise ResolutionParameterError("V10: each limit must be an object")
        _reject_unknown("V10", limit, {"categories", "toCountries"})
        clean.append({
            "categories": _str_list("V10", limit, "categories", allowed_categories),
            "toCountries": _str_list("V10", limit, "toCountries"),
        })
    return {"limits": tuple(clean)}


def _schema_empty(variation_id: str) -> Callable[[Mapping], dict]:
    def schema(params: Mapping) -> dict:
        _reject_unknown(variation_id, params, set())
        return {}
    return schema


def _schema_v12(params: Mapping) -> dict:
    _reject_unknown("V12", params, {"finesApplyToPublicBodies", "publicBodyFineCapEUR"})
    out: dict[str, object] = {
        "finesApplyToPublicBodies": _bool(
            "V12", params, "finesApplyToPublicBodies", True),
    }
    if "publicBodyFineCapEUR" in params:
        cap = params["publicBodyFineCapEUR"]
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
            raise ResolutionParameterError(
                "V12: publicBodyFineCapEUR must be a non-negative integer")
        out["publicBodyFineCapEUR"] = cap
    return out


def _schema_v13(params: Mapping) -> dict:
    _reject_unknown("V13", params, {"penalties"})
    raw = params.get("penalties")
    if not isinstance(raw, Sequence) or isinstance(raw, str) or not raw:
        raise ResolutionParameterError("V13: penalties must be a nonempty list")
    clean = []
    for entry in raw:
        if not isinstance(entry, Mapping):
            raise ResolutionParameterError("V13: each penalty must be an object")
        _reject_unknown("V13", entry, {"infringementKind", "penaltyEUR"})
        kind = entry.get("infringementKind")
        if kind not in enums.ENUMERATIONS[enums.INFRINGEMENT_TYPE]:
            raise ResolutionParameterError(
                f"V13: {kind!r} is not an infringement kind")
        amount = entry.get("penaltyEUR")
        if not isinstance(amount, int) or isinstance(amount, bool) or amount < 0:
            raise ResolutionParameterError(
                "V13: penaltyEUR must be a non-negative integer")
        clean.append({"infringementKind": kind, "penaltyEUR": amount})
    return {"penalties": tuple(clean)}


def _schema_v14(params: Mapping) -> dict:
    _reject_unknown("V14", params, {"processingTypes"})
    out: dict[str, object] = {}
    if "processingTypes" in params:
        out["processingTypes"] = _str_list(
            "V14", params, "processingTypes",
            enums.ENUMERATIONS[enums.PROCESSING_CONTEXT], nonempty=True)
    return out


def _schema_v15(params: Mapping) -> dict:
    _reject_unknown("V15", params, {"allowed", "requiredTechnicalMeasures"})
    return {
        "allowed": _bool("V15", params, "allowed", True),
        "requiredTechnicalMeasures": _str_list(
            "V15", params, "requiredTechnicalMeasures",
            enums.ENUMERATIONS[enums.TECHNICAL_MEASURE_TYPE]),
    }


def _schema_derogations(variation_id: str, rights: frozenset[str],
                        with_types: bool) -> Callable[[Mapping], dict]:
    def schema(params: Mapping) -> dict:
        allowed_keys = {"derogatedRights"}
        if with_types:
            allowed_keys.add("processingTypes")
        _reject_unknown(variation_id, params, allowed_keys)
        out: dict[str, object] = {
            "derogatedRights": _str_list(
                variation_id, params, "derogatedRights", rights, nonempty=True),
        }
        if with_types and "processingTypes" in params:
            out["processingTypes"] = _str_list(
                variation_id, params, "processingTypes",
                enums.ENUMERATIONS[enums.PROCESSING_CONTEXT], nonempty=True)
        return out
    return schema


def _schema_v19(params: Mapping) -> dict:
    _reject_unknown("V19", params, {"protectedCategories"})
    return {"protectedCategories": _str_list("V19", params, "protectedCategories")}


# ---------------------------------------------------------------------------
# Variation-point registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariationPoint:
    id: str
    sourceArticle: int
    summary: str
    kinds: frozenset[str]
    schema: Callable[[Mapping], dict]
    hooks: tuple[str, ...] = ()           # overridable default hooks
    hookTargets: tuple[str, ...] = ()     # rules consuming those hooks
    addsRules: tuple[str, ...] = ()
    adaptsRules: tuple[str, ...] = ()
    replacesRules: tuple[str, ...] = ()
    enumExtensions: tuple[tuple[str, str], ...] = ()
    parameterHooks: tuple[str, ...] = ()  # hooks realized by rule parameters


VARIATION_POINTS: dict[str, VariationPoint] = {vp.id: vp for vp in (
    VariationPoint(
        "V1", 8, "national minimum consent age between 13 and 16",
        frozenset({HOOK, ADD}), _schema_v1,
        hooks=("V_getMinimumAgeForDS",), hookTargets=("C5",),
        addsRules=("V1",)),
    VariationPoint(
        "V2", 8, "documents accepted as proof of parental responsibility",
        frozenset({HOOK, ADD}), _schema_v2,
        hooks=("V_checkParentDocuments",), hookTargets=("C5",),
        addsRules=("V2",)),
    VariationPoint(
        "V3", 9, "whether consent can lift the special-category prohibition",
        frozenset({HOOK}), _schema_v3,
        hooks=("V_prohibitionCanBeLiftedByConsent",), hookTargets=("C6",)),
    VariationPoint(
        "V4", 9, "further national conditions on genetic, biometric, and "
                 "health data",
        frozenset({ADD}), _schema_v4,
        addsRules=("V4",), parameterHooks=("V_verifyFurtherConditionsAndLimit",)),
    VariationPoint(
        "V5", 23, "legislative restriction of the principle and right rules",
        frozenset({ADAPT}), _schema_v5,
        adaptsRules=V5_ADAPTABLE_RULES),
    VariationPoint(
        "V6", 29, "processing without controller instructions where national "
                  "law requires it",
        frozenset({HOOK}), _schema_instructions("V6"),
        hooks=("V_processWithoutControllerInstructions",), hookTargets=("C22",)),
    VariationPoint(
        "V7", 32, "persons under authority bound to controller instructions",
        frozenset({HOOK, ADD}), _schema_instructions("V7"),
        hooks=("V_processWithoutControllerInstructions",),
        addsRules=("V7",)),
    VariationPoint(
        "V8", 36, "reconciliation of data protection with freedom of expression",
        frozenset({ADD, ENUM}), _schema_v8,
        addsRules=("V8",),
        enumExtensions=((enums.DPIA_INFORMATION_TYPE, "RECONCILIATION_ASSESSMENT"),),
        parameterHooks=("V_ReconcileByLaw",)),
    VariationPoint(
        "V9", 37, "bodies that must designate a data protection officer",
        frozenset({HOOK}), _schema_v9,
        hooks=("V_bodiesMustDesignateDPO",), hookTargets=("C29",)),
    VariationPoint(
        "V10", 49, "national limits on transfers of specific data categories",
        frozenset({ADD}), _schema_v10,
        addsRules=("V10",), parameterHooks=("V_verifyTransferLimits",)),
    VariationPoint(
        "V11", 80, "representative bodies may lodge complaints",
        frozenset({ADD}), _schema_empty("V11"),
        addsRules=("V11",)),
    VariationPoint(
        "V12", 83, "national fine regime for public authorities and bodies",
        frozenset({REPLACE}), _schema_v12,
        replacesRules=("C35",), addsRules=("V12_1", "V12_2")),
    VariationPoint(
        "V13", 84, "additional national penalties for infringements",
        frozenset({ADD}), _schema_v13,
        addsRules=("V13",)),
    VariationPoint(
        "V14", 85, "prior authorization for public-interest processing",
        frozenset({ADD}), _schema_v14,
        addsRules=("V14",)),
    VariationPoint(
        "V15", 87, "conditions for processing national identification numbers",
        frozenset({ADD, ENUM}), _schema_v15,
        addsRules=("V15",),
        enumExtensions=((enums.DATA_CATEGORY, "IDENTIFICATION"),),
        parameterHooks=("V_checkedIDProcessing",)),
    VariationPoint(
        "V16", 88, "employment-context assessment recorded in impact assessments",
        frozenset({ENUM}), _schema_empty("V16"),
        enumExtensions=((enums.DPIA_INFORMATION_TYPE, "EMPLOYMENT_ASSESSMENT"),)),
    VariationPoint(
        "V17", 89, "right derogations for research and statistics",
        frozenset({ADD}), _schema_derogations("V17", V17_RIGHTS, True),
        addsRules=("V17",), parameterHooks=("V_checkDerrogationsFromRights",)),
    VariationPoint(
        "V18", 89, "right derogations for public-interest archiving",
        frozenset({ADD}), _schema_derogations("V18", V18_RIGHTS, False),
        addsRules=("V18",), parameterHooks=("V_checkDerrogationsFromRights",)),
    VariationPoint(
        "V19", 90, "supervisory powers over secrecy-bound controllers",
        frozenset({ADD}), _schema_v19,
        addsRules=("V19",), parameterHooks=("V_checkDerrogationsFromRights",)),
    VariationPoint(
        "V20", 91, "church and religious data-protection regimes",
        frozenset({ADD, ENUM}), _schema_empty("V20"),
        addsRules=("V20",),
        enumExtensions=((enums.ACTOR_TYPE, "CHURCH_OR_RELIGIOUS_ORGANIZATION"),)),
)}


# ---------------------------------------------------------------------------
# Specialization profile
# ---------------------------------------------------------------------------

class SpecializationProfile:
    """The generic rule set plus applied variation resolutions.

    A builder while being tailored: apply() deep-freezes each resolution's
    params (read-only mappings and tuples) and records its effects.
    finalize() validates cross-resolution consistency and freezes the
    profile. Finalized profiles are immutable and safe to share across
    evaluator threads.
    """

    def __init__(self) -> None:
        self._rules: dict[str, RuleSpec] = dict(RULE_CATALOG)
        self._hooks: dict[str, Mapping | None] = {name: None for name in DEFAULT_HOOKS}
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
        return sorted(self._rules.values(), key=lambda s: rule_sort_key(s.id))

    def active_rule_ids(self) -> list[str]:
        return [spec.id for spec in self.rules()]

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

    def has_resolution(self, variation_id: str) -> bool:
        return variation_id in self._resolutions

    def resolution_params(self, variation_id: str) -> Mapping | None:
        resolution = self._resolutions.get(variation_id)
        return None if resolution is None else resolution.parameters

    def minimum_age(self, graph: InstanceGraph, subject: DataSubject,
                    processing) -> int:
        params = self.hook_params("V_getMinimumAgeForDS")
        if not params:
            return 16
        country = graph.get(subject.residence) if subject.residence else None
        code = country.code if isinstance(country, Country) else None
        return int(params.get("thresholds", {}).get(code, params.get("default", 16)))

    # -- tailoring ------------------------------------------------------------

    def apply(self, resolution: Resolution) -> "SpecializationProfile":
        if self._finalized:
            raise ProfileFinalizedError("profile is finalized; clone to re-tailor")
        vp = VARIATION_POINTS.get(resolution.variationId)
        if vp is None:
            raise UnknownVariationError(
                f"unknown variation point {resolution.variationId!r}")
        if self.has_resolution(vp.id):
            raise DuplicateResolutionError(
                f"{vp.id} has already been resolved in this profile")
        params = _frozen(vp.schema(_require_mapping(vp.id, resolution.parameters)))

        touched_model: list[str] = []
        touched_constraints: list[str] = []

        for enum_name, literal in vp.enumExtensions:
            if enum_name not in enums.EXTENSIBLE_ENUMERATIONS:
                raise ResolutionParameterError(
                    f"{vp.id}: enumeration {enum_name} is not extensible")
            current = self._enum_extensions.get(enum_name, frozenset())
            self._enum_extensions[enum_name] = current | {literal}
            touched_model.append(f"added literal {literal} to {enum_name}")

        for hook in vp.hooks:
            self._hooks[hook] = params
            targets = ", ".join(vp.hookTargets) if vp.hookTargets else "added rules"
            touched_constraints.append(
                f"implemented {hook} (used by {targets}) from the resolution "
                "parameters")
            for target in vp.hookTargets:
                touched_model.append(f"updated version of constraint {target}")

        for rule_id in vp.replacesRules:
            if rule_id not in self._rules:
                raise ProfileConsistencyError(
                    f"{vp.id}: cannot replace {rule_id}; it is not active")
            del self._rules[rule_id]
            touched_constraints.append(f"removed constraint {rule_id}")

        for rule_id in vp.addsRules:
            spec = VARIATION_RULE_SPECS[rule_id]
            self._rules[spec.id] = spec
            touched_model.append(f"new constraint {rule_id}")
            touched_constraints.append(f"added constraint {rule_id}")

        for hook in vp.parameterHooks:
            self._hooks[hook] = params
            touched_constraints.append(
                f"implemented {hook} from the resolution parameters")

        if vp.adaptsRules:
            for rule_id, descriptor in params["adaptations"].items():
                self._adaptations[rule_id] = Adaptation(
                    removedRights=frozenset(descriptor["removedRights"]),
                    exemptProcessingTypes=frozenset(
                        descriptor["exemptProcessingTypes"]),
                )
                touched_model.append(f"adapted constraint {rule_id}")
                touched_constraints.append(
                    f"restricted constraint {rule_id} per the descriptor")

        for action in touched_model:
            self._audit.append(AuditEntry(vp.id, "model", action))
        for action in touched_constraints:
            self._audit.append(AuditEntry(vp.id, "constraints", action))
        self._audit.append(AuditEntry(
            vp.id, "glossary",
            f"added terminology introduced by {vp.id} ({vp.summary})"))

        self._resolutions[vp.id] = Resolution(vp.id, params)
        return self

    def finalize(self) -> "SpecializationProfile":
        if self._finalized:
            return self

        v1 = self.resolution_params("V1")
        if v1:
            ages = list(v1.get("thresholds", {}).values())
            if "default" in v1:
                ages.append(v1["default"])
            for age in ages:
                if age < MIN_CHILD_AGE:
                    raise ProfileConsistencyError(
                        f"V1: age {age} is below 13, the lowest age national "
                        "law may set")
                if age > MAX_CHILD_AGE:
                    raise ProfileConsistencyError(
                        f"V1: age {age} is above the generic limit of 16")

        v6 = self.resolution_params("V6")
        v7 = self.resolution_params("V7")
        if v6 is not None and v7 is not None and \
                v6.get("allowedWithoutInstructions") != v7.get("allowedWithoutInstructions"):
            raise ProfileConsistencyError(
                "V6 and V7 disagree on processing without controller instructions")

        for rule_id in self._adaptations:
            if rule_id not in self._rules:
                raise ProfileConsistencyError(
                    f"V5 adapts {rule_id}, which another resolution removed")

        for spec in self._rules.values():
            for hook in spec.hooksUsed:
                if hook in DEFAULT_HOOKS:
                    continue  # has a built-in default
                vp = _VARIATION_FOR_PARAMETER_HOOK.get(hook)
                if vp is not None and spec.origin == "variation" \
                        and not self.has_resolution(vp):
                    raise ProfileConsistencyError(
                        f"rule {spec.id} needs {hook}, but {vp} is unresolved")

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
            "hooks": {
                name: plain_data(params)
                for name, params in self._hooks.items()
                if name in DEFAULT_HOOKS
            },
            "enums": {
                name: sorted(values)
                for name, values in self._enum_extensions.items()
            },
            "parameters": {
                variation_id: plain_data(resolution.parameters)
                for variation_id, resolution in self._resolutions.items()
            },
        }
        blob = json.dumps(state, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_VARIATION_FOR_PARAMETER_HOOK = {
    "V_verifyFurtherConditionsAndLimit": "V4",
    "V_ReconcileByLaw": "V8",
    "V_verifyTransferLimits": "V10",
    "V_checkedIDProcessing": "V15",
    "V_checkDerrogationsFromRights": None,  # shared by V17/V18/V19
}


def plain_data(value):
    """``value`` with every mapping (a dict, or the read-only view that
    applied params use) as a key-sorted dict and every list or tuple as a
    list."""
    if isinstance(value, (dict, MappingProxyType)):
        return {k: plain_data(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [plain_data(v) for v in value]
    return value


def _frozen(value):
    """``value`` with every dict as a read-only view and every list as a
    tuple, all the way down."""
    if isinstance(value, dict):
        return MappingProxyType({k: _frozen(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
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
