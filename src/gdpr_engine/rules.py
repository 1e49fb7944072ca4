"""Compliance rule catalog and evaluation engine.

Each rule is a pure predicate over (graph, profile, check date) producing a
four-valued verdict: Pass, Fail, NotApplicable, or Unknown. NotApplicable
encodes both conditional rules whose trigger is absent and the global
applicability gate: when the scope rule C1 does not hold, every other rule
reports NotApplicable. Unknown is produced only in strict-variability mode,
when a verdict depended on a variation hook that no resolution implemented.

Evaluation takes a graph whose references resolve: ``EvalContext`` refuses
any other with ``ValueError``, so rules navigate references without
checking their targets again. On such a graph, rules never mutate it, never
raise on odd data, and iterate objects in id order, so reports are
deterministic and independent of declaration order. Report assembly
preserves catalog order.
"""

from __future__ import annotations

import functools
import operator
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from . import enums, timebase
from .model import (
    DEFAULT_CHILD_AGE_LIMIT,
    Actor,
    Country,
    DataProcessing,
    DataSubject,
    DataTransfer,
    GenericNode,
    Infringement,
    InstanceGraph,
    Node,
    ResponsibleParent,
    RightRequest,
    RightSupport,
    SecurityMeasure,
    TurnoverContext,
)

PASS = "Pass"
FAIL = "Fail"
NOT_APPLICABLE = "NotApplicable"
UNKNOWN = "Unknown"

STATUSES = (PASS, FAIL, NOT_APPLICABLE, UNKNOWN)

PUBLIC_AUTHORITY_KINDS = frozenset({"OFFICIAL", "PUBLIC_ORGANIZATION"})

# Art. 30 record content per role. The trailing sets are "where possible"
# items: their absence is reported but does not fail the record.
CONTROLLER_RECORD_ITEMS = frozenset({
    "NAME_AND_CONTACT_DETAILS",
    "PROCESSING_PURPOSES",
    "DATA_SUBJECT_AND_DATA_CATEGORIES",
    "RECIPIENTS",
})
PROCESSOR_RECORD_ITEMS = frozenset({
    "NAME_AND_CONTACT_DETAILS",
    "PROCESSING_CATEGORIES",
})
RECORD_ITEMS_WHERE_POSSIBLE = {
    "controller": frozenset({"ERASURE_TIME_LIMITS", "SECURITY_MEASURES_DESCRIPTION"}),
    "processor": frozenset({"SECURITY_MEASURES_DESCRIPTION"}),
}

# Art. 35(7) minimal content of an impact assessment.
DPIA_MINIMAL_CONTENT = frozenset({
    "NECESSITY_ASSESSMENT",
    "PROPORTIONALITY_ASSESSMENT",
    "FREEDOMS_ASSESSMENT",
    "MEASURES_DESCRIPTION",
})

# Art. 32 capabilities expected among the declared measures.
SECURITY_TECHNICAL_KINDS = frozenset({
    "PSEUDONYMIZATION",
    "ENCRYPTION",
    "BACKUPS_RECOVERY",
})

# Art. 47(2) information a binding-corporate-rules basis must carry.
BCR_MANDATORY_INFORMATION = frozenset({
    "UNDERTAKING_STRUCTURE",
    "CONTACT_DETAILS",
    "DATA_CATEGORIES",
    "TYPE_PROCESSING_AFTER_TRANSFER",
    "PURPOSES_PROCESSING_AFTER_TRANSFER",
    "TYPE_DS_AFFECTED",
    "TARGET_COUNTRIES",
    "INTERNAL_COUNTRIES_BINDING_LAWS",
    "EXTERNAL_COUNTRIES_BINDING_LAWS",
    "APPLIED_GDPR_PRINCIPLES",
    "LIABILITY_SHARING",
    "HOW_DS_INFORMED",
    "DPO_TASKS",
    "COMPLIANCE_PROCEDURES",
    "REPORTING_MECHANISMS",
    "PERSONAL_TRAINING",
})

# Art. 83 fine tiers by infringement kind. Kinds absent from both sets
# cannot be classified and raise FineClassificationError.
FINE_TIER1_KINDS = frozenset({
    "OBLIGATION_VIOLATION",
    "CHILD_CONSENT_VIOLATION",
    "CERTIFICATION_OBLIGATION_VIOLATION",
    "INSUFFICIENT_SECURITY_MEASURES",
    "FALSE_DECLARATION",
})
FINE_TIER2_KINDS = frozenset({
    "PRINCIPLE_VIOLATION",
    "DS_RIGHT_VIOLATION",
    "UNAUTHORIZED_TRANSFER",
    "CROSS_BORDER_TRANSFER_VIOLATION",
    "FORBIDDEN_PROCESSING",
    "CORRECTIVE_ACTION_VIOLATION",
    "OTHER_LOCAL_LAW_VIOLATION",
})

# Art. 9(4) categories that V4's national conditions cover unless its
# resolution names fewer; also the categories V4's table allows.
_V4_CATEGORIES = frozenset({"GENETIC", "BIOMETRIC", "HEALTH"})

ALWAYS_APPLICABLE_RIGHTS = frozenset({
    "RIGHT_TO_BE_INFORMED",
    "RIGHT_TO_ACCESS",
    "RIGHT_TO_RECTIFICATION",
    "RIGHT_TO_ERASURE",
    "RIGHT_TO_RESTRICTION",
    "NOTIFICATION",
    "INFORMATION",
})


class UnknownRuleError(KeyError):
    """Evaluation of a rule id that is not active in the profile."""


class ProfileNotFinalizedError(RuntimeError):
    """Evaluation needs a finalized profile."""


class FineClassificationError(ValueError):
    """Infringement kind has no Art. 83 fine tier."""


@dataclass(frozen=True)
class Finding:
    objectId: str
    message: str

    def to_payload(self) -> dict:
        return {"object": self.objectId, "message": self.message}


@dataclass(frozen=True)
class RuleVerdict:
    ruleId: str
    status: str
    articles: tuple[int, ...]
    findings: tuple[Finding, ...] = ()
    hookDependencies: tuple[str, ...] = ()

    def to_payload(self) -> dict:
        return {
            "rule": self.ruleId,
            "status": self.status,
            "articles": list(self.articles),
            "findings": [f.to_payload() for f in self.findings],
            "hookDependencies": list(self.hookDependencies),
        }


@dataclass(frozen=True)
class RuleSpec:
    id: str
    articles: tuple[int, ...]
    summary: str
    predicate: Callable[["EvalContext"], tuple[str, list[Finding]]]
    origin: str = "generic"  # "generic" | "variation"


# ---------------------------------------------------------------------------
# Evaluation context
# ---------------------------------------------------------------------------

_MISSING = object()


def _memoized(compute):
    """``compute(ctx, p, *args)``, computed once per evaluation for each
    ``p.id`` and ``args``. The key is the id because a frozen node hashes
    every field. ``compute`` must return an immutable value and must not
    consult a hook, so that a stored fact is the fact and strict mode sees
    the same hook calls."""
    @functools.wraps(compute)
    def read(ctx, p, *args):
        memo = ctx._memos[compute]
        key = (p.id, *args) if args else p.id
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = memo[key] = compute(ctx, p, *args)
        return value
    return read


class EvalContext:
    """Per-evaluation view over (graph, profile, check date).

    Tracks which variation hooks were answered by their built-in default so
    strict mode can demote the affected verdicts to Unknown. The graph's
    references must resolve; a graph with any ``ref_violations`` raises
    ``ValueError`` naming the first. Each per-processing fact the rules
    share is computed on first read and stored, as a frozenset, tuple or
    read-only mapping, for the life of the context.
    """

    def __init__(self, graph: InstanceGraph, profile=None,
                 check_minutes: int | None = None, strict: bool = False):
        if graph.ref_violations:
            first = graph.ref_violations[0]
            raise ValueError(f"cannot evaluate a graph whose references do not "
                             f"resolve: {first.objectId}: {first.message}")
        self.graph = graph
        self.profile = profile
        self.check_minutes = (graph.latest_minutes()
                              if check_minutes is None else check_minutes)
        self.strict = strict
        self.defaulted_hooks: set[str] = set()
        self._scope: list[DataProcessing] | None = None
        self._memos: defaultdict[Callable, dict] = defaultdict(dict)
        # The profile reads that per-processing checks repeat, read once.
        self._adaptations = {} if profile is None else profile.adaptations
        research = self.resolution_params("V17")
        archiving = self.resolution_params("V18")
        self._research_derogations = frozenset(
            research["derogatedRights"] if research else ())
        self._research_types = research.get(
            "processingTypes", ("RESEARCH", "STATISTICAL_PURPOSES")) if research else ()
        self._archiving_derogations = frozenset(
            archiving["derogatedRights"] if archiving else ())

    # -- hooks --------------------------------------------------------------

    def hook(self, name: str, *args):
        params = None
        if self.profile is not None:
            params = self.profile.hook_params(name)
        if params is None:
            self.defaulted_hooks.add(name)
        return HOOK_IMPLS[name](self, params, *args)

    def resolution_params(self, variation_id: str) -> Mapping | None:
        if self.profile is None:
            return None
        return self.profile.resolution_params(variation_id)

    def begin_rule(self) -> None:
        self.defaulted_hooks = set()

    # -- graph shorthands -----------------------------------------------------

    def scope(self) -> list[DataProcessing]:
        """Processings the substantive rules quantify over: personal data is
        involved and the processing context is not out of material scope."""
        if self._scope is None:
            self._scope = [
                p for p in self.graph.of_class("Data_Processing")
                if p.personalData and p.type not in enums.EXEMPT_PROCESSING_CONTEXTS
            ]
        return self._scope

    # -- per-processing facts, each computed once per evaluation ------------

    @_memoized
    def bases(self, p: DataProcessing) -> frozenset[str]:
        return frozenset(pu.legalBasis for pu in self.graph.resolve(p.purposes))

    @_memoized
    def categories(self, p: DataProcessing) -> frozenset[str]:
        return frozenset(category for pd in self.graph.resolve(p.personalData)
                         for category in pd.categories)

    @_memoized
    def subjects(self, p: DataProcessing) -> tuple[DataSubject, ...]:
        return _by_id(subject for pd in self.graph.resolve(p.personalData)
                      for subject in self.graph.resolve(pd.subjects))

    def consent_based(self, p: DataProcessing) -> bool:
        return p.consent is not None or "BY_CONSENT" in self.bases(p)

    @_memoized
    def actors(self, p: DataProcessing) -> tuple[Actor, ...]:
        return _by_id(self.graph.resolve(p.controllers) + self.graph.resolve(p.processors))

    def euro_link(self, actor: Actor) -> bool:
        return any(_under_eu_law(c) for c in self.graph.resolve(actor.countries))

    @_memoized
    def measures(self, p: DataProcessing, cls: str) -> tuple[SecurityMeasure, ...]:
        return tuple(m for m in self.graph.resolve(p.securityMeasures) if m.cls == cls)

    @_memoized
    def identifiable(self, p: DataProcessing) -> bool:
        return any(pd.identifiesSubject for pd in self.graph.resolve(p.personalData))

    @_memoized
    def supports(self, p: DataProcessing) -> tuple[RightSupport, ...]:
        return tuple(self.graph.resolve(p.supportedRights))

    @_memoized
    def request_index(self, p: DataProcessing
                      ) -> Mapping[tuple[str, bool], tuple[RightRequest, ...]]:
        """(right, granted) -> the requests under ``p``'s supports of that
        right with that outcome, in support order, repeats kept."""
        index: dict[tuple[str, bool], list[RightRequest]] = {}
        for support in self.supports(p):
            for request in self.graph.resolve(support.requests):
                index.setdefault((support.right, request.granted), []).append(request)
        return MappingProxyType({key: tuple(requests) for key, requests in index.items()})

    def notification_for(self, p: DataProcessing, about: str) -> GenericNode | None:
        for node in self.graph.referrers(p.id, "Notification", "processing"):
            if node.attrs.get("about") == about:
                return node
        return None

    def dpo_designated_for(self, actor_id: str) -> bool:
        return bool(self.graph.referrers(actor_id, "Data_Protection_Officer",
                                         "designatedBy"))

    def representatives(self, actor: Actor) -> tuple[Actor, ...]:
        return self.graph.referrers(actor.id, "Representative", "represents")

    # -- profile-driven scoping ------------------------------------------------

    def adapted_out(self, rule_id: str, p: DataProcessing) -> bool:
        desc = self._adaptations.get(rule_id)
        return bool(desc and p.type in desc.exemptProcessingTypes)

    def right_removed(self, rule_id: str, right: str) -> bool:
        desc = self._adaptations.get(rule_id)
        return bool(desc and right in desc.removedRights)

    def right_derogated(self, p: DataProcessing, right: str) -> bool:
        """Art. 89/90 national derogations lifted via V17/V18 resolutions."""
        return (right in self._research_derogations and p.type in self._research_types
                or right in self._archiving_derogations and "ARCHIVING" in p.operations)

    def portability_applies(self, p: DataProcessing) -> bool:
        """Art. 20(1): consent or a contract, over data the subject provided."""
        return bool(self.bases(p) & {"BY_CONSENT", "PERFORMANCE_OF_CONTRACT"}) and any(
            pd.collectedDirectlyFromSubject for pd in self.graph.resolve(p.personalData))

    def objection_applies(self, p: DataProcessing) -> bool:
        """Art. 21: consent, a legitimate or public interest, or profiling."""
        return bool(self.bases(p) & {"BY_CONSENT", "LEGITIMATE_INTEREST", "PUBLIC_INTEREST"}) \
            or "PROFILING" in p.operations

    @_memoized
    def rights_applicable(self, p: DataProcessing) -> frozenset[str]:
        rights = set(ALWAYS_APPLICABLE_RIGHTS)
        if self.portability_applies(p):
            rights.add("RIGHT_TO_PORTABILITY")
        if self.objection_applies(p):
            rights.add("RIGHT_TO_OBJECT")
        if p.automatedDecisionMaking:
            rights.add("RIGHT_TO_NOT_BE_PART_OF_A_DECISION")
        return frozenset(r for r in rights
                         if not self.right_removed("C9", r)
                         and not self.right_derogated(p, r))


def _by_id(nodes: Iterable[Node]) -> tuple[Node, ...]:
    """``nodes`` without repeats, in id order."""
    seen = {node.id: node for node in nodes}
    return tuple(seen[i] for i in sorted(seen))


def _under_eu_law(country: Country | None) -> bool:
    """A member state, or a country where EU law applies."""
    return country is not None and (country.isEUMemberState or country.EULawApplies)


# ---------------------------------------------------------------------------
# Variation hooks (defaults encode the generic rule set)
# ---------------------------------------------------------------------------

def _hook_minimum_age(ctx: EvalContext, params, subject: DataSubject,
                      processing: DataProcessing | None) -> int:
    if params is None:
        return DEFAULT_CHILD_AGE_LIMIT
    return ctx.profile.minimum_age(ctx.graph, subject, processing)


def _hook_parent_documents(ctx: EvalContext, params,
                           parent: ResponsibleParent) -> bool:
    accepted = None if params is None else params["acceptedDocumentKinds"]
    for doc in ctx.graph.resolve(parent.documents):
        if doc.valid and (accepted is None or doc.kind in accepted):
            return True
    return False


def _hook_prohibition_liftable(ctx: EvalContext, params,
                               processing: DataProcessing) -> bool:
    return params is None or params["canBeLifted"]


def _hook_without_instructions(ctx: EvalContext, params, processor: Actor,
                               processing: DataProcessing) -> bool:
    return params is not None and params["allowedWithoutInstructions"]


def _hook_bodies_must_designate_dpo(ctx: EvalContext, params, actor: Actor) -> bool:
    return params is not None and actor.kind in params["actorKinds"]


HOOK_IMPLS: dict[str, Callable] = {
    "V_getMinimumAgeForDS": _hook_minimum_age,
    "V_checkParentDocuments": _hook_parent_documents,
    "V_prohibitionCanBeLiftedByConsent": _hook_prohibition_liftable,
    "V_processWithoutControllerInstructions": _hook_without_instructions,
    "V_bodiesMustDesignateDPO": _hook_bodies_must_designate_dpo,
}

DEFAULT_HOOKS = tuple(sorted(HOOK_IMPLS))


# ---------------------------------------------------------------------------
# Rule registration
# ---------------------------------------------------------------------------

RULE_CATALOG: dict[str, RuleSpec] = {}
VARIATION_RULE_SPECS: dict[str, RuleSpec] = {}


def _register(table: dict[str, RuleSpec], rule_id: str, articles: tuple[int, ...],
              summary: str, origin: str = "generic"):
    def wrap(fn):
        table[rule_id] = RuleSpec(
            id=rule_id,
            articles=articles,
            summary=summary,
            predicate=fn,
            origin=origin,
        )
        return fn
    return wrap


def rule(rule_id, articles, summary):
    return _register(RULE_CATALOG, rule_id, articles, summary)


def variation_rule(rule_id, articles, summary):
    return _register(VARIATION_RULE_SPECS, rule_id, articles, summary, origin="variation")


def _status(instances: Sequence, failures: list[Finding],
            notes: list[Finding] | None = None) -> tuple[str, list[Finding]]:
    if not instances:
        return NOT_APPLICABLE, []
    findings = sorted(failures + (notes or []),
                      key=operator.attrgetter("objectId", "message"))
    return (FAIL if failures else PASS), findings


# ---------------------------------------------------------------------------
# Chapter I: applicability gate
# ---------------------------------------------------------------------------

@rule("C1", (2, 3), "material and territorial applicability of the regulation")
def _c1(ctx: EvalContext) -> tuple[str, list[Finding]]:
    selected = [p for p in ctx.graph.of_class("Data_Processing") if p.personalData]
    if not selected:
        return NOT_APPLICABLE, [Finding("", "no processing involves personal data")]

    territorial = False
    for p in selected:
        if any(ctx.euro_link(a) for a in ctx.actors(p)):
            territorial = True
            break
        if p.type in ("OFFERING_GOODS_OR_SERVICES", "EU_BEHAVIOUR_MONITORING_OR_PROFILING"):
            if any(_under_eu_law(ctx.graph.get(s.residence)) for s in ctx.subjects(p)):
                territorial = True
                break
    if not territorial:
        return NOT_APPLICABLE, [Finding(
            "", "no involved organization operates in the EU and no processing "
                "targets EU-resident subjects")]

    if all(p.type in enums.EXEMPT_PROCESSING_CONTEXTS for p in selected):
        return NOT_APPLICABLE, [Finding(
            "", "every processing of personal data falls in an out-of-scope "
                "context (security, household, or criminal investigation)")]
    return PASS, []


def check_applicability(graph: InstanceGraph, profile=None,
                        check_date: str | None = None) -> RuleVerdict:
    """Standalone evaluation of the applicability gate."""
    return evaluate_rule("C1", graph, profile, check_date=check_date)


# ---------------------------------------------------------------------------
# Chapter II: principles
# ---------------------------------------------------------------------------

@rule("C2", (5,), "each processing demonstrates adherence to the principles")
def _c2(ctx: EvalContext) -> tuple[str, list[Finding]]:
    scope = [p for p in ctx.scope() if not ctx.adapted_out("C2", p)]
    failures = [
        Finding(p.id, "no demonstration of principle compliance is recorded")
        for p in scope
        if not ctx.graph.referrers(p.id, "Demonstration", "processing")
    ]
    return _status(scope, failures)


@rule("C3", (6,), "lawfulness evidence for obligation-based and re-purposed processing")
def _c3(ctx: EvalContext) -> tuple[str, list[Finding]]:
    triggered = []
    failures: list[Finding] = []
    for p in ctx.scope():
        for purpose in ctx.graph.resolve(p.purposes):
            if purpose.legalBasis == "LEGAL_OBLIGATION":
                triggered.append(purpose)
                if not purpose.obligationSource:
                    failures.append(Finding(
                        purpose.id, "legal-obligation basis without its obligation source"))
            elif purpose.legalBasis == "NONE":
                triggered.append(purpose)
                evidence = "Lawfulness_Evidence"
                if not (ctx.graph.referrers(purpose.id, evidence, "purpose")
                        or ctx.graph.referrers(p.id, evidence, "processing")):
                    failures.append(Finding(
                        purpose.id,
                        "processing outside the original collection purpose "
                        "lacks recorded lawfulness evidence"))
    return _status(triggered, failures)


_CONSENT_QUALITY_FLAGS = (
    "freelyGiven", "specific", "informed", "unambiguous",
    "affirmativeAction", "withdrawable", "distinguishable",
)


@rule("C4", (7,), "every recorded consent satisfies all consent conditions")
def _c4(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    for p in ctx.scope():
        consent = ctx.graph.get(p.consent)
        if consent is None and "BY_CONSENT" in ctx.bases(p):
            instances.append(p)
            failures.append(Finding(
                p.id, "consent-based processing records no consent agreement"))
        elif consent is not None:
            instances.append(consent)
            missing = [f for f in _CONSENT_QUALITY_FLAGS if not getattr(consent, f)]
            if missing:
                failures.append(Finding(
                    consent.id,
                    "consent conditions not met: " + ", ".join(sorted(missing))))
    return _status(instances, failures)


@rule("C5", (8,), "age conditions for consent, with the parental fallback")
def _c5(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances = [p for p in ctx.scope() if ctx.consent_based(p)]
    failures: list[Finding] = []
    for p in instances:
        consent = ctx.graph.get(p.consent)
        if consent is None:
            continue  # absence of the agreement itself is C4's finding
        giver = ctx.graph.get(consent.givenBy)
        for subject in ctx.subjects(p):
            minimum = ctx.hook("V_getMinimumAgeForDS", subject, p)
            if subject.ageYears >= minimum:
                continue
            if subject.cls != "Child_Data_Subject":
                failures.append(Finding(
                    subject.id,
                    f"subject aged {subject.ageYears} is below the consent age "
                    f"of {minimum} and is not modeled as a child subject"))
                continue
            if not isinstance(giver, ResponsibleParent):
                failures.append(Finding(
                    subject.id,
                    f"consent for a child aged {subject.ageYears} was not "
                    "given by a responsible parent"))
                continue
            if giver.responsibleFor and subject.id not in giver.responsibleFor:
                failures.append(Finding(
                    subject.id,
                    "consenting parent does not hold responsibility for this subject"))
                continue
            if not ctx.hook("V_checkParentDocuments", giver):
                failures.append(Finding(
                    giver.id,
                    "responsible parent holds no accepted valid document"))
    return _status(instances, failures)


def check_child_consent(graph: InstanceGraph, profile,
                        check_date: str | None = None,
                        strict: bool = False) -> RuleVerdict:
    """Standalone evaluation of the child-consent rule."""
    return evaluate_rule("C5", graph, profile, check_date=check_date, strict=strict)


@rule("C6", (9,), "special data categories processed only under a lifting condition")
def _c6(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances = [p for p in ctx.scope()
                 if ctx.categories(p) & enums.SPECIAL_DATA_CATEGORIES]
    failures: list[Finding] = []
    for p in instances:
        exception = p.specialCategoriesException or "NONE"
        if exception == "NONE":
            failures.append(Finding(
                p.id, "special-category processing declares no lifting condition"))
        elif exception == "CONSENT_PERMITTED_BY_EU":
            if not ctx.hook("V_prohibitionCanBeLiftedByConsent", p):
                failures.append(Finding(
                    p.id, "the prohibition cannot be lifted by consent here"))
                continue
            consent = ctx.graph.get(p.consent)
            if consent is None or not consent.explicit:
                failures.append(Finding(
                    p.id, "special-category processing lacks explicit consent"))
    return _status(instances, failures)


@rule("C7", (10,), "criminal-conviction data only under official authority or law")
def _c7(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    for p in ctx.scope():
        if "JUDICIAL" not in ctx.categories(p):
            continue
        instances.append(p)
        official = any(a.kind == "OFFICIAL" for a in ctx.graph.resolve(p.controllers))
        authorized = "LEGAL_OBLIGATION" in ctx.bases(p)
        if not (official or authorized):
            failures.append(Finding(
                p.id, "criminal-conviction data processed without official "
                      "authority or a legal authorization"))
    for node in ctx.graph.of_class("Filing_System"):
        if not node.attrs.get("criminalRegister"):
            continue
        instances.append(node)
        holders = [ctx.graph.get(i) for i in node.refs.get("holder", ())]
        if not any(isinstance(h, Actor) and h.kind == "OFFICIAL" for h in holders):
            failures.append(Finding(
                node.id, "a register of criminal convictions is not kept "
                         "under official authority"))
    return _status(instances, failures)


@rule("C8", (11,), "the non-identifiability exemption is claimed truthfully")
def _c8(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances = [p for p in ctx.scope() if p.rightsExempt]
    failures: list[Finding] = []
    for p in instances:
        if ctx.identifiable(p):
            failures.append(Finding(
                p.id, "claims the non-identifiability exemption from subject "
                      "rights while its data identifies subjects"))
    return _status(instances, failures)


# ---------------------------------------------------------------------------
# Chapter III: data subject rights
# ---------------------------------------------------------------------------

def _rights_scope(ctx: EvalContext, rule_id: str,
                  right: str | None = None) -> list[DataProcessing]:
    """In-scope processings whose subjects hold rights under ``rule_id``:
    identifying, not adapted out, and ``right`` not derogated."""
    return [
        p for p in ctx.scope()
        if ctx.identifiable(p)
        and not ctx.adapted_out(rule_id, p)
        and not (right and ctx.right_derogated(p, right))
    ]


@rule("C9", (12,), "rights are supported and requests handled on time, "
                   "verified, reasoned, and free of charge")
def _c9(ctx: EvalContext) -> tuple[str, list[Finding]]:
    scope = _rights_scope(ctx, "C9")
    failures: list[Finding] = []
    for p in scope:
        enabled = {s.right for s in ctx.supports(p) if s.enabled}
        for right in sorted(ctx.rights_applicable(p)):
            if right not in enabled:
                failures.append(Finding(
                    p.id, f"applicable right {right} is not supported"))
        for (right, _granted), requests in ctx.request_index(p).items():
            for request in requests:
                failures.extend(_request_findings(ctx, right, request))
    return _status(scope, failures)


def _request_findings(ctx: EvalContext, right: str,
                      request: RightRequest) -> list[Finding]:
    out: list[Finding] = []
    received = ctx.graph.minutes(request.receivedAt)
    responded = ctx.graph.minutes(request.respondedAt)
    if received is not None:
        deadline = received + timebase.REQUEST_RESPONSE_MINUTES
        if request.extensionNotified:
            deadline += timebase.REQUEST_EXTENSION_MINUTES
        if responded is not None:
            if responded > deadline:
                out.append(Finding(
                    request.id,
                    f"request under {right} answered after the "
                    "one-month window (and any notified extension)"))
        elif ctx.check_minutes > deadline:
            out.append(Finding(
                request.id,
                f"request under {right} is still unanswered after "
                "the response window"))
    if responded is not None and not request.identityVerified:
        out.append(Finding(
            request.id, "request handled without verifying the subject's identity"))
    if not request.granted and request.denialReason is None:
        out.append(Finding(
            request.id, "request denied without a stated reason"))
    if request.granted and not request.free:
        out.append(Finding(
            request.id, "granted request was charged a fee"))
    return out


_C10_BASE_ITEMS = frozenset({
    "CONTACT_DETAILS",
    "PURPOSE_AND_LAWFULNESS",
    "STORAGE_DURATION",
    "DS_RIGHT",
    "RIGHT_TO_LODGE_COMPLAINT",
})


def _notice_items(ctx: EvalContext, p: DataProcessing, direct: bool) -> set[str]:
    required = set(_C10_BASE_ITEMS)
    if not direct:
        required.add("DATA_CATEGORIES")
    if any(ctx.dpo_designated_for(a.id) for a in ctx.actors(p)):
        required.add("DPO_DETAILS")
    if p.recipients:
        required.add("RECIPIENTS")
    if p.transfers:
        required.add("TRANSFER_THIRD_COUNTRIES")
    if p.consent:
        required.add("CONSENT_WITHDRAWAL")
    if direct and "PERFORMANCE_OF_CONTRACT" in ctx.bases(p):
        required.add("STATUTORY_CONTRACTUAL_REQUIREMENT")
    if p.automatedDecisionMaking:
        required.add("AUTOMATED_DECISION")
    if "NONE" in ctx.bases(p):
        required.add("FURTHER_PROCESSING")
    return required


def _notice_rule(ctx: EvalContext, rule_id: str, direct: bool,
                 exemptions: frozenset[str]) -> tuple[str, list[Finding]]:
    scope = []
    failures: list[Finding] = []
    for p in ctx.scope():
        if ctx.adapted_out(rule_id, p):
            continue
        collected = [pd.collectedDirectlyFromSubject for pd in ctx.graph.resolve(p.personalData)]
        if direct and not any(collected):
            continue
        if not direct and all(collected):
            continue
        if p.informationExemption in exemptions:
            continue
        scope.append(p)
        missing = _notice_items(ctx, p, direct) - set(p.informationProvided)
        if missing:
            failures.append(Finding(
                p.id, "information not provided to subjects: "
                      + ", ".join(sorted(missing))))
    return _status(scope, failures)


@rule("C10", (13,), "notice content when data is collected from the subject")
def _c10(ctx: EvalContext) -> tuple[str, list[Finding]]:
    return _notice_rule(ctx, "C10", True, frozenset({"ALREADY_INFORMED"}))


@rule("C11", (14,), "notice content when data is not collected from the subject")
def _c11(ctx: EvalContext) -> tuple[str, list[Finding]]:
    return _notice_rule(ctx, "C11", False,
                        enums.ENUMERATIONS[enums.INFORMATION_EXEMPTION])


@rule("C12", (15,), "content that must back the right of access")
def _c12(ctx: EvalContext) -> tuple[str, list[Finding]]:
    scope = _rights_scope(ctx, "C12", "RIGHT_TO_ACCESS")
    failures: list[Finding] = []
    for p in scope:
        required = {
            "PURPOSE_AND_LAWFULNESS",
            "RECIPIENTS",
            "STORAGE_DURATION",
            "DS_RIGHT",
            "RIGHT_TO_LODGE_COMPLAINT",
            "RIGHT_TO_RECEIVE_COPY",
        }
        if any(not pd.collectedDirectlyFromSubject for pd in ctx.graph.resolve(p.personalData)):
            required.add("DATA_SOURCE")
        if p.automatedDecisionMaking:
            required.add("AUTOMATED_DECISION")
        if p.transfers:
            required.add("TRANSFER_THIRD_COUNTRIES")
        missing = required - set(p.informationProvided)
        if missing:
            failures.append(Finding(
                p.id, "access-right content unavailable: " + ", ".join(sorted(missing))))
    return _status(scope, failures)


def _requests(ctx: EvalContext, p: DataProcessing, right: str,
              granted: bool) -> tuple[RightRequest, ...]:
    """The granted (or denied) requests under ``p``'s supports of ``right``."""
    return ctx.request_index(p).get((right, granted), ())


def _notify_recipients(ctx: EvalContext, p: DataProcessing, about: str,
                       failures: list[Finding]) -> None:
    if not p.recipients:
        return
    note = ctx.notification_for(p, about)
    if note is None:
        failures.append(Finding(
            p.id, f"recipients were not notified of the {about.lower()}"))
    elif not note.attrs.get("dsInformed"):
        failures.append(Finding(
            note.id, "the subject was not told about the notified recipients"))


@rule("C13", (16,), "rectifications propagate to recipients and the subject")
def _c13(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    for p in _rights_scope(ctx, "C13", "RIGHT_TO_RECTIFICATION"):
        granted = _requests(ctx, p, "RIGHT_TO_RECTIFICATION", True)
        if not granted:
            continue
        instances.extend(granted)
        _notify_recipients(ctx, p, "RECTIFICATION", failures)
    return _status(instances, failures)


@rule("C14", (17,), "erasure requests honored or denied on an admitted ground")
def _c14(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    allowed = enums.ENUMERATIONS[enums.DENIAL_ERASURE_REASON]
    for p in _rights_scope(ctx, "C14"):
        for request in _requests(ctx, p, "RIGHT_TO_ERASURE", False):
            instances.append(request)
            if request.denialReason not in allowed:
                failures.append(Finding(
                    request.id, "erasure denied without an admitted ground"))
        granted = _requests(ctx, p, "RIGHT_TO_ERASURE", True)
        if granted:
            instances.extend(granted)
            _notify_recipients(ctx, p, "ERASURE", failures)
    return _status(instances, failures)


@rule("C15", (18,), "restriction requests reasoned and notified")
def _c15(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    for p in _rights_scope(ctx, "C15", "RIGHT_TO_RESTRICTION"):
        for request in _requests(ctx, p, "RIGHT_TO_RESTRICTION", False):
            instances.append(request)
            if request.denialReason is None:
                failures.append(Finding(
                    request.id, "restriction denied without a stated reason"))
        granted = _requests(ctx, p, "RIGHT_TO_RESTRICTION", True)
        if granted:
            instances.extend(granted)
            _notify_recipients(ctx, p, "RESTRICTION", failures)
    return _status(instances, failures)


@rule("C16", (20,), "portability honored when its preconditions hold")
def _c16(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    for p in _rights_scope(ctx, "C16", "RIGHT_TO_PORTABILITY"):
        instances.extend(_requests(ctx, p, "RIGHT_TO_PORTABILITY", True))
        denied = _requests(ctx, p, "RIGHT_TO_PORTABILITY", False)
        if not denied:
            continue
        instances.extend(denied)
        eligible = "PUBLIC_INTEREST" not in ctx.bases(p) and ctx.portability_applies(p)
        for request in denied:
            if eligible and request.identityVerified:
                failures.append(Finding(
                    request.id, "portability request denied although every "
                                "precondition holds"))
            elif request.denialReason is None:
                failures.append(Finding(
                    request.id, "portability denied without telling the "
                                "subject why"))
    return _status(instances, failures)


@rule("C17", (21,), "objections honored or overridden for a stated ground")
def _c17(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    for p in _rights_scope(ctx, "C17", "RIGHT_TO_OBJECT"):
        if not ctx.objection_applies(p):
            continue
        for request in _requests(ctx, p, "RIGHT_TO_OBJECT", False):
            instances.append(request)
            if request.denialReason is None:
                failures.append(Finding(
                    request.id, "objection rejected without demonstrating an "
                                "overriding ground"))
        instances.extend(_requests(ctx, p, "RIGHT_TO_OBJECT", True))
    return _status(instances, failures)


@rule("C18", (22,), "solely automated decisions only under an allowed exception")
def _c18(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances = [p for p in _rights_scope(ctx, "C18") if p.automatedDecisionMaking]
    failures: list[Finding] = []
    for p in instances:
        consent = ctx.graph.get(p.consent)
        explicit_consent = consent is not None and consent.explicit
        special = bool(ctx.categories(p) & enums.SPECIAL_DATA_CATEGORIES)
        if special:
            if not (explicit_consent or p.specialCategoriesException == "PUBLIC_SERVICE"):
                failures.append(Finding(
                    p.id, "automated decisions over special categories without "
                          "explicit consent or a substantial-public-interest basis"))
            continue
        bases = ctx.bases(p)
        supported = any(s.right == "RIGHT_TO_NOT_BE_PART_OF_A_DECISION" and s.enabled
                        for s in ctx.supports(p))
        allowed = (
            supported
            or "PERFORMANCE_OF_CONTRACT" in bases
            or "LEGAL_OBLIGATION" in bases
            or explicit_consent
        )
        if not allowed:
            failures.append(Finding(
                p.id, "solely automated decision-making with no exception and "
                      "no supported opt-out right"))
    return _status(instances, failures)


# ---------------------------------------------------------------------------
# Chapter IV: controller and processor obligations
# ---------------------------------------------------------------------------

@rule("C19", (24, 25), "technical and organizational measures, by design")
def _c19(ctx: EvalContext) -> tuple[str, list[Finding]]:
    scope = ctx.scope()
    failures: list[Finding] = []
    notes: list[Finding] = []
    for p in scope:
        technical = ctx.measures(p, "Technical")
        organizational = ctx.measures(p, "Organizational")
        if not technical:
            failures.append(Finding(p.id, "no technical measure is in place"))
        if not organizational:
            failures.append(Finding(p.id, "no organizational measure is in place"))
        for measure in technical + organizational:
            if measure.lastReviewedAt is None:
                notes.append(Finding(
                    measure.id, "measure has no recorded review date"))
        if technical and not any(m.kind == "DATA_PROTECTION" for m in technical):
            notes.append(Finding(
                p.id, "no measure declared for protection by design and default"))
    return _status(scope, failures, notes)


@rule("C20", (26,), "joint controllers settle and publish their arrangement")
def _c20(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    for p in ctx.scope():
        for actor in ctx.graph.resolve(p.controllers):
            if actor.cls != "Joint_Controllers":
                continue
            instances.append(actor)
            if not actor.arrangementTransparent:
                failures.append(Finding(
                    actor.id, "joint controllers have not determined their "
                              "respective responsibilities transparently"))
            if not actor.arrangementAvailableToSubjects:
                failures.append(Finding(
                    actor.id, "the responsibility arrangement is not available "
                              "to data subjects"))
    return _status(instances, failures)


@rule("C21", (27,), "non-EU controllers and processors designate an EU representative")
def _c21(ctx: EvalContext) -> tuple[str, list[Finding]]:
    duties: list[Actor] = []
    for p in ctx.scope():
        special = bool(ctx.categories(p) & enums.SPECIAL_DATA_CATEGORIES)
        if not (p.largeScale or special or p.systematicMonitoring):
            continue  # occasional, low-risk processing is exempt
        for actor in ctx.actors(p):
            if not actor.countries or ctx.euro_link(actor):
                continue
            if actor.kind in PUBLIC_AUTHORITY_KINDS:
                continue
            duties.append(actor)
    instances = _by_id(duties)
    failures = [
        Finding(actor.id, "operates outside the EU without a representative "
                          "established in a member state")
        for actor in instances if not _represented_in_eu(ctx, actor)
    ]
    return _status(instances, failures)


def _represented_in_eu(ctx: EvalContext, actor: Actor) -> bool:
    return any(c.isEUMemberState for rep in ctx.representatives(actor)
               for c in ctx.graph.resolve(rep.countries))


@rule("C22", (28, 29), "processors act on documented instructions with safeguards")
def _c22(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    for p in ctx.scope():
        if ctx.adapted_out("C22", p):
            continue
        processors = ctx.graph.resolve(p.processors)
        if not processors:
            continue
        instances.extend(processors)
        technical = ctx.measures(p, "Technical")
        organizational = ctx.measures(p, "Organizational")
        for processor in processors:
            if not processor.instructions and not ctx.hook(
                    "V_processWithoutControllerInstructions", processor, p):
                failures.append(Finding(
                    processor.id, "processor acts without documented controller "
                                  "instructions"))
            if not technical or not organizational:
                failures.append(Finding(
                    processor.id, "processor-side technical and organizational "
                                  "safeguards are incomplete"))
    return _status(instances, failures)


@rule("C23", (30,), "records of processing activities complete per role")
def _c23(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    notes: list[Finding] = []
    for p in ctx.scope():
        roles = [(a, "controller") for a in ctx.graph.resolve(p.controllers)]
        roles += [(a, "processor") for a in ctx.graph.resolve(p.processors)]
        records = ctx.graph.resolve(p.records)
        for actor, role in roles:
            instances.append(actor)
            held = [r for r in records if r.holder == actor.id]
            if not held:
                failures.append(Finding(
                    actor.id, f"no record of processing activities held as {role} "
                              f"for processing {p.id}"))
                continue
            required = set(CONTROLLER_RECORD_ITEMS if role == "controller"
                           else PROCESSOR_RECORD_ITEMS)
            if p.transfers:
                required.add("THIRD_COUNTRY_TRANSFERS")
            best = max(held, key=lambda r: (len(set(r.items) & required), r.id))
            missing = required - set(best.items)
            if missing:
                failures.append(Finding(
                    best.id, "record is missing required content: "
                             + ", ".join(sorted(missing))))
            if not best.electronicForm:
                failures.append(Finding(
                    best.id, "record is not maintained in electronic form"))
            for item in sorted(RECORD_ITEMS_WHERE_POSSIBLE[role] - set(best.items)):
                notes.append(Finding(
                    best.id, f"optional record content absent: {item}"))
    return _status(instances, failures, notes)


@rule("C24", (31,), "cooperation with the supervisory authority on request")
def _c24(ctx: EvalContext) -> tuple[str, list[Finding]]:
    actors: list[Actor] = []
    for p in ctx.scope():
        for actor in ctx.actors(p):
            actors.append(actor)
            actors += ctx.representatives(actor)
    instances = _by_id(actors)
    failures = [
        Finding(a.id, "refuses cooperation with the supervisory authority")
        for a in instances if not a.cooperatesWithSA
    ]
    return _status(instances, failures)


@rule("C25", (32,), "state-of-the-art security capabilities are in place")
def _c25(ctx: EvalContext) -> tuple[str, list[Finding]]:
    scope = ctx.scope()
    failures: list[Finding] = []
    for p in scope:
        technical_kinds = {m.kind for m in ctx.measures(p, "Technical")}
        organizational_kinds = {m.kind for m in ctx.measures(p, "Organizational")}
        missing = sorted(SECURITY_TECHNICAL_KINDS - technical_kinds)
        if missing:
            failures.append(Finding(
                p.id, "security capabilities missing: " + ", ".join(missing)))
        if "RUN_THE_CHECKING" not in technical_kinds \
                and "AUDIT" not in organizational_kinds:
            failures.append(Finding(
                p.id, "no process for regularly testing the measures"))
    return _status(scope, failures)


@rule("C26", (33, 34), "breach handling escalates with the associated risk")
def _c26(ctx: EvalContext) -> tuple[str, list[Finding]]:
    breaches = ctx.graph.of_class("Breach")
    failures: list[Finding] = []
    for breach in breaches:
        if not breach.recorded:
            failures.append(Finding(breach.id, "breach is not recorded"))
        detected = ctx.graph.minutes(breach.detectedAt)
        if breach.risk in ("MEDIUM", "HIGH") and detected is not None:
            notified = ctx.graph.minutes(breach.saNotifiedAt)
            deadline = detected + timebase.BREACH_NOTIFICATION_MINUTES
            if notified is None:
                if ctx.check_minutes > deadline and not breach.delayJustification:
                    failures.append(Finding(
                        breach.id, "supervisory authority not notified within "
                                   "72 hours and no justification recorded"))
            elif notified > deadline and not breach.delayJustification:
                failures.append(Finding(
                    breach.id, "notification exceeded the 72-hour window "
                               "without justification"))
        if breach.risk == "HIGH" and breach.subjectsCommunicatedAt is None:
            failures.append(Finding(
                breach.id, "high-risk breach not communicated to the subjects"))
        detector = ctx.graph.get(breach.detectedBy)
        if detector is not None and detector.cls == "Data_Processor" \
                and breach.controllersInformedAt is None:
            failures.append(Finding(
                breach.id, "processor-detected breach: controllers were not "
                           "informed"))
    return _status(breaches, failures)


@rule("C27", (35,), "impact assessment present when mandated, with minimal content")
def _c27(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    for p in ctx.scope():
        special = bool(ctx.categories(p) & enums.SPECIAL_DATA_CATEGORIES)
        mandatory = (
            (p.automatedDecisionMaking and "PROFILING" in p.operations)
            or (p.largeScale and special)
            or (p.largeScale and p.systematicMonitoring)
        )
        dpia = ctx.graph.get(p.dpia)
        if not mandatory and dpia is None:
            continue
        instances.append(p)
        if mandatory and dpia is None:
            failures.append(Finding(
                p.id, "high-risk processing without an impact assessment"))
        if dpia is not None:
            missing = DPIA_MINIMAL_CONTENT - set(dpia.information)
            if missing:
                failures.append(Finding(
                    dpia.id, "impact assessment lacks minimal content: "
                             + ", ".join(sorted(missing))))
    return _status(instances, failures)


@rule("C28", (36,), "prior consultation for residual high risk, advice on time")
def _c28(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    for p in ctx.scope():
        dpia = ctx.graph.get(p.dpia)
        if dpia is None:
            continue
        consultation = dpia.consultation
        if dpia.residualRisk == "HIGH":
            instances.append(dpia)
            if consultation is None:
                failures.append(Finding(
                    dpia.id, "residual risk is high but the supervisory "
                             "authority was not consulted before processing"))
        elif consultation is not None:
            instances.append(dpia)
        if consultation is None:
            continue
        requested = ctx.graph.minutes(consultation.requestedAt)
        advice = ctx.graph.minutes(consultation.adviceAt)
        if requested is None:
            continue
        deadline = requested + timebase.CONSULTATION_ADVICE_MINUTES
        if consultation.extended:
            deadline += timebase.CONSULTATION_EXTENSION_MINUTES
        if advice is not None:
            if advice > deadline:
                failures.append(Finding(
                    dpia.id, "written advice arrived after the eight-week window "
                             "(and any notified six-week extension)"))
        elif ctx.check_minutes > deadline:
            failures.append(Finding(
                dpia.id, "consultation is still unanswered after the advice window"))
    return _status(instances, failures)


@rule("C29", (37, 38), "a data protection officer is designated when mandated")
def _c29(ctx: EvalContext) -> tuple[str, list[Finding]]:
    duties: list[Actor] = []
    for p in ctx.scope():
        special_or_criminal = bool(
            ctx.categories(p) & (enums.SPECIAL_DATA_CATEGORIES | {"JUDICIAL"}))
        for actor in ctx.actors(p):
            must = (
                actor.kind in PUBLIC_AUTHORITY_KINDS
                or (p.largeScale and p.systematicMonitoring)
                or (p.largeScale and special_or_criminal)
            )
            if not must:
                must = ctx.hook("V_bodiesMustDesignateDPO", actor)
            if must:
                duties.append(actor)
    instances = _by_id(duties)
    failures = [
        Finding(actor.id, "no data protection officer is designated")
        for actor in instances if not ctx.dpo_designated_for(actor.id)
    ]
    return _status(instances, failures)


@rule("C30", (42,), "certifications are voluntary, transparent, accredited, "
                    "and at most three years old")
def _c30(ctx: EvalContext) -> tuple[str, list[Finding]]:
    certifications = ctx.graph.of_class("Certification")
    failures: list[Finding] = []
    for cert in certifications:
        if not cert.voluntary:
            failures.append(Finding(cert.id, "certification is not voluntary"))
        if not cert.processTransparent:
            failures.append(Finding(
                cert.id, "certification process is not transparent"))
        if not cert.bodyAccredited:
            failures.append(Finding(
                cert.id, "issuing body is not accredited"))
        issued = ctx.graph.minutes(cert.issuedAt)
        if issued is not None and \
                ctx.check_minutes - issued > timebase.CERTIFICATION_VALIDITY_MINUTES:
            failures.append(Finding(
                cert.id, "certification is older than its three-year validity"))
    return _status(certifications, failures)


# ---------------------------------------------------------------------------
# Chapter V and sanctions
# ---------------------------------------------------------------------------

def _transfer_pairs(ctx: EvalContext) -> list[tuple[DataProcessing, DataTransfer]]:
    return [(p, transfer) for p in ctx.scope()
            for transfer in ctx.graph.resolve(p.transfers)]


# Transfer bases valid only with a flag set: (the flag, the finding without it).
_BASIS_FLAGS = {
    "BCR": ("approved", "binding corporate rules are not approved"),
    "StandardContractualClauses": ("approved", "standard contractual clauses are not approved"),
    "AdministrativeArrangement": ("authorized", "administrative arrangement lacks authorization"),
    "PublicBodyInstrument": ("authorized", "public-body instrument lacks authorization"),
}


def _transfer_findings(ctx: EvalContext, p: DataProcessing,
                       transfer: DataTransfer) -> list[Finding]:
    basis = transfer.basis
    out: list[Finding] = []
    if basis.kind in _BASIS_FLAGS:
        flag, message = _BASIS_FLAGS[basis.kind]
        if not getattr(basis, flag):
            out.append(Finding(transfer.id, message))
    elif basis.kind == "IntraEU":
        if not _under_eu_law(ctx.graph.get(transfer.toCountry)):
            out.append(Finding(
                transfer.id, "declared intra-EU but the destination is outside "
                             "EU law"))
    elif basis.kind == "Derogation":
        if basis.derogation in ("SUPPORTED_BY_CONSENT", "NECESSARY_FOR_CONTRACT"):
            if any(a.kind in PUBLIC_AUTHORITY_KINDS for a in ctx.graph.resolve(p.controllers)):
                out.append(Finding(
                    transfer.id, f"derogation {basis.derogation} is not open to "
                                 "public authorities"))
        elif basis.derogation == "OTHER":
            if not basis.details:
                out.append(Finding(
                    transfer.id, "residual derogation without the documented "
                                 "supervisory-authority authorization"))
    # AdequacyDecision and CodeOfConductOrCertification carry no extra flags.
    return out


@rule("C31", (44, 45, 46, 49, 50), "every cross-border transfer rests on a "
                                   "valid legal ground")
def _c31(ctx: EvalContext) -> tuple[str, list[Finding]]:
    pairs = _transfer_pairs(ctx)
    failures: list[Finding] = []
    for p, transfer in pairs:
        failures.extend(_transfer_findings(ctx, p, transfer))
    return _status(pairs, failures)


def check_transfer_legality(graph: InstanceGraph, profile,
                            check_date: str | None = None,
                            strict: bool = False) -> RuleVerdict:
    """Standalone evaluation of the transfer-legality rule."""
    return evaluate_rule("C31", graph, profile, check_date=check_date, strict=strict)


@rule("C32", (45,), "partial adequacy decisions come with satisfaction evidence")
def _c32(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    for _p, transfer in _transfer_pairs(ctx):
        basis = transfer.basis
        if basis.kind != "AdequacyDecision" or not basis.additionalRequirements:
            continue
        instances.append(transfer)
        if not basis.evidence:
            failures.append(Finding(
                transfer.id, "additional adequacy requirements without evidence "
                             "of their satisfaction"))
    return _status(instances, failures)


@rule("C33", (48,), "third-country judgments honored only under an "
                    "international agreement")
def _c33(ctx: EvalContext) -> tuple[str, list[Finding]]:
    judgments = ctx.graph.of_class("Judgment")
    failures: list[Finding] = []
    for node in judgments:
        if node.attrs.get("recognized") and not node.attrs.get(
                "basedOnInternationalAgreement"):
            failures.append(Finding(
                node.id, "third-country judgment recognized without an "
                         "international agreement such as a mutual legal "
                         "assistance treaty"))
    return _status(judgments, failures)


@rule("C34", (47,), "binding corporate rules are binding and complete")
def _c34(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    for _p, transfer in _transfer_pairs(ctx):
        basis = transfer.basis
        if basis.kind != "BCR":
            continue
        instances.append(transfer)
        if not basis.legallyBinding:
            failures.append(Finding(
                transfer.id, "corporate rules are not legally binding on every "
                             "member"))
        missing = BCR_MANDATORY_INFORMATION - set(basis.information)
        if missing:
            failures.append(Finding(
                transfer.id, "corporate rules are missing mandatory information: "
                             + ", ".join(sorted(missing))))
    return _status(instances, failures)


def compute_max_fine(kind: str | Infringement,
                     turnover_cents: int | TurnoverContext) -> int:
    """Maximum administrative fine in euro cents for an infringement kind.

    Tier one applies the 10M-or-2% ceiling, tier two 20M-or-4%. Accepts the
    domain objects directly or the raw (kind, turnover-in-cents) pair.
    """
    if isinstance(kind, Infringement):
        kind = kind.kind
    if isinstance(turnover_cents, TurnoverContext):
        turnover_cents = turnover_cents.worldwideAnnualTurnoverEUR * 100
    if turnover_cents < 0:
        raise ValueError("turnover must be non-negative")
    if kind in FINE_TIER1_KINDS:
        return timebase.max_fine_cents(
            timebase.FINE_TIER1_FLOOR_CENTS,
            timebase.FINE_TIER1_TURNOVER_PERCENT, turnover_cents)
    if kind in FINE_TIER2_KINDS:
        return timebase.max_fine_cents(
            timebase.FINE_TIER2_FLOOR_CENTS,
            timebase.FINE_TIER2_TURNOVER_PERCENT, turnover_cents)
    raise FineClassificationError(
        f"infringement kind {kind!r} has no administrative-fine tier")


def _turnover_cents_for(ctx: EvalContext, infringement: Infringement) -> int:
    if infringement.turnover:
        node = ctx.graph.get(infringement.turnover)
    else:
        contexts = ctx.graph.of_class("Turnover_Context")
        node = contexts[0] if len(contexts) == 1 else None
    return node.worldwideAnnualTurnoverEUR * 100 if node is not None else 0


def _fine_findings(ctx: EvalContext, infringement: Infringement,
                   cap_cents: int | None = None) -> tuple[list[Finding], list[Finding]]:
    """(failures, notes) for one recorded infringement."""
    try:
        ceiling = compute_max_fine(infringement.kind,
                                   _turnover_cents_for(ctx, infringement))
    except FineClassificationError:
        return [], [Finding(
            infringement.id,
            f"kind {infringement.kind} is outside both administrative-fine tiers")]
    if cap_cents is not None:
        ceiling = min(ceiling, cap_cents)
    notes = [Finding(
        infringement.id,
        f"maximum administrative fine: {ceiling // 100} EUR")]
    failures: list[Finding] = []
    if infringement.imposedFineEUR is not None \
            and infringement.imposedFineEUR * 100 > ceiling:
        failures.append(Finding(
            infringement.id,
            f"recorded fine of {infringement.imposedFineEUR} EUR exceeds the "
            f"maximum of {ceiling // 100} EUR"))
    return failures, notes


def _fine_rule(ctx: EvalContext, public: bool | None = None,
               findings=_fine_findings) -> tuple[str, list[Finding]]:
    """``findings`` of every recorded infringement, or only of those by a
    public authority (``public`` true) or by anyone else (false)."""
    instances: list[Infringement] = []
    failures: list[Finding] = []
    notes: list[Finding] = []
    for infringement in ctx.graph.of_class("Infringement"):
        if public is not None:
            actor = ctx.graph.get(infringement.by)
            if public != (actor is not None and actor.kind in PUBLIC_AUTHORITY_KINDS):
                continue
        instances.append(infringement)
        bad, info = findings(ctx, infringement)
        failures.extend(bad)
        notes.extend(info)
    return _status(instances, failures, notes)


@rule("C35", (83,), "administrative fines stay within the two statutory ceilings")
def _c35(ctx: EvalContext) -> tuple[str, list[Finding]]:
    return _fine_rule(ctx)


# ---------------------------------------------------------------------------
# Variation-point rules (activated by resolutions)
# ---------------------------------------------------------------------------

@variation_rule("V1", (8,), "national minimum consent age per residence country")
def _v1(ctx: EvalContext) -> tuple[str, list[Finding]]:
    return _c5(ctx)


@variation_rule("V2", (8,), "parental responsibility proven by accepted documents")
def _v2(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    for p in ctx.scope():
        consent = ctx.graph.get(p.consent)
        if consent is None:
            continue
        giver = ctx.graph.get(consent.givenBy)
        if not isinstance(giver, ResponsibleParent):
            continue
        instances.append(giver)
        if not ctx.hook("V_checkParentDocuments", giver):
            failures.append(Finding(
                giver.id, "no valid document of an accepted kind proves "
                          "parental responsibility"))
    return _status(instances, failures)


def _missing_measures(ctx: EvalContext, p: DataProcessing,
                      required: Sequence[str]) -> list[str]:
    """The ``required`` technical-measure kinds ``p`` lacks, sorted."""
    return sorted(set(required).difference(
        m.kind for m in ctx.measures(p, "Technical")))


@variation_rule("V4", (9,), "national conditions on genetic, biometric, and "
                            "health data")
def _v4(ctx: EvalContext) -> tuple[str, list[Finding]]:
    params = ctx.resolution_params("V4")
    restricted = frozenset(params.get("restrictedCategories", _V4_CATEGORIES))
    instances = [p for p in ctx.scope() if ctx.categories(p) & restricted]
    failures: list[Finding] = []
    for p in instances:
        if params["prohibited"]:
            hit = sorted(ctx.categories(p) & restricted)
            failures.append(Finding(
                p.id, "processing of " + ", ".join(hit)
                      + " is prohibited by national law"))
            continue
        missing = _missing_measures(ctx, p, params["requiredTechnicalMeasures"])
        if missing:
            failures.append(Finding(
                p.id, "national conditions unmet, measures missing: "
                      + ", ".join(missing)))
    return _status(instances, failures)


@variation_rule("V7", (32,), "persons under authority process only on instructions")
def _v7(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances: list = []
    failures: list[Finding] = []
    for p in ctx.scope():
        for processor in ctx.graph.resolve(p.processors):
            instances.append(processor)
            if not processor.instructions and not ctx.hook(
                    "V_processWithoutControllerInstructions", processor, p):
                failures.append(Finding(
                    processor.id, "person acting under authority processes "
                                  "without controller instructions"))
    return _status(instances, failures)


@variation_rule("V8", (36,), "impact assessments document the reconciliation "
                             "with freedom of expression")
def _v8(ctx: EvalContext) -> tuple[str, list[Finding]]:
    wanted_types = ctx.resolution_params("V8").get("requiredForProcessingTypes")
    instances: list = []
    failures: list[Finding] = []
    for p in ctx.scope():
        if wanted_types and p.type not in wanted_types:
            continue
        dpia = ctx.graph.get(p.dpia)
        if dpia is None:
            continue
        instances.append(dpia)
        if "RECONCILIATION_ASSESSMENT" not in dpia.information:
            failures.append(Finding(
                dpia.id, "no reconciliation assessment with the freedom of "
                         "expression and information"))
    return _status(instances, failures)


@variation_rule("V10", (49,), "national limits on transfers of specific categories")
def _v10(ctx: EvalContext) -> tuple[str, list[Finding]]:
    limits = ctx.resolution_params("V10")["limits"]
    instances: list = []
    failures: list[Finding] = []
    for p, transfer in _transfer_pairs(ctx):
        if transfer.basis.kind in ("IntraEU", "AdequacyDecision"):
            continue
        to = ctx.graph.get(transfer.toCountry)
        code = to.code if to is not None else None
        instances.append(transfer)
        for limit in limits:
            categories = set(limit["categories"])
            countries = limit["toCountries"]
            if categories and not (ctx.categories(p) & categories):
                continue
            if countries and code not in countries:
                continue
            failures.append(Finding(
                transfer.id, "transfer exceeds a national limit on "
                             + ", ".join(sorted(categories or {"all categories"}))))
            break
    return _status(instances, failures)


@variation_rule("V11", (80,), "complaints lodged by representative bodies")
def _v11(ctx: EvalContext) -> tuple[str, list[Finding]]:
    complaints = [n for n in ctx.graph.of_class("Complaint")
                  if n.attrs.get("lodgedByBody")]
    failures = [
        Finding(n.id, "the lodging body does not meet the national mandate "
                      "conditions")
        for n in complaints if not n.attrs.get("bodyAuthorized")
    ]
    return _status(complaints, failures)


@variation_rule("V12_1", (83,), "fine ceilings for private organizations")
def _v12_1(ctx: EvalContext) -> tuple[str, list[Finding]]:
    return _fine_rule(ctx, public=False)


def _no_public_fine(ctx: EvalContext, infringement: Infringement
                    ) -> tuple[list[Finding], list[Finding]]:
    """(failures, notes) where fines do not apply to public bodies."""
    if infringement.imposedFineEUR:
        return [Finding(infringement.id, "administrative fines do not apply to "
                                         "public bodies in this member state")], []
    return [], [Finding(infringement.id, "no administrative fine applicable to a "
                                         "public body")]


@variation_rule("V12_2", (83,), "national fine regime for public authorities")
def _v12_2(ctx: EvalContext) -> tuple[str, list[Finding]]:
    params = ctx.resolution_params("V12")
    if not params["finesApplyToPublicBodies"]:
        return _fine_rule(ctx, public=True, findings=_no_public_fine)
    cap = params.get("publicBodyFineCapEUR")
    cap_cents = None if cap is None else cap * 100
    return _fine_rule(ctx, public=True,
                      findings=lambda ctx, i: _fine_findings(ctx, i, cap_cents))


@variation_rule("V13", (84,), "additional national penalties by infringement kind")
def _v13(ctx: EvalContext) -> tuple[str, list[Finding]]:
    penalties = {entry["infringementKind"]: entry["penaltyEUR"]
                 for entry in ctx.resolution_params("V13")["penalties"]}
    instances: list = []
    notes: list[Finding] = []
    for infringement in ctx.graph.of_class("Infringement"):
        if infringement.kind in penalties:
            instances.append(infringement)
            notes.append(Finding(
                infringement.id,
                f"national penalty applicable up to "
                f"{penalties[infringement.kind]} EUR"))
    return _status(instances, [], notes)


@variation_rule("V14", (85,), "prior authorization for public-interest processing")
def _v14(ctx: EvalContext) -> tuple[str, list[Finding]]:
    wanted = set(ctx.resolution_params("V14").get(
        "processingTypes", ("PUBLIC_INTEREST", "PUBLIC_HEALTH")))
    instances = [p for p in ctx.scope() if p.type in wanted]
    failures: list[Finding] = []
    for p in instances:
        granted = any(n.attrs.get("granted")
                      for n in ctx.graph.referrers(p.id, "Authorization", "processing"))
        if not granted:
            failures.append(Finding(
                p.id, "no prior supervisory-authority authorization on record"))
    return _status(instances, failures)


@variation_rule("V15", (87,), "conditions on processing national identifiers")
def _v15(ctx: EvalContext) -> tuple[str, list[Finding]]:
    params = ctx.resolution_params("V15")
    instances = [p for p in ctx.scope() if "IDENTIFICATION" in ctx.categories(p)]
    failures: list[Finding] = []
    for p in instances:
        if not params["allowed"]:
            failures.append(Finding(
                p.id, "processing of national identifiers is not permitted"))
            continue
        missing = _missing_measures(ctx, p, params["requiredTechnicalMeasures"])
        if missing:
            failures.append(Finding(
                p.id, "identifier processing lacks required measures: "
                      + ", ".join(missing)))
    return _status(instances, failures)


def _derogation_note_rule(ctx: EvalContext, variation_id: str,
                          instances: list[DataProcessing]) -> tuple[str, list[Finding]]:
    rights = ", ".join(sorted(ctx.resolution_params(variation_id)["derogatedRights"]))
    notes = [Finding(p.id, "national derogation applied to: " + rights)
             for p in instances]
    return _status(instances, [], notes)


@variation_rule("V17", (89,), "right derogations for research and statistics")
def _v17(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances = [p for p in ctx.scope() if p.type in ctx._research_types]
    return _derogation_note_rule(ctx, "V17", instances)


@variation_rule("V18", (89,), "right derogations for public-interest archiving")
def _v18(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances = [p for p in ctx.scope() if "ARCHIVING" in p.operations]
    return _derogation_note_rule(ctx, "V18", instances)


@variation_rule("V19", (90,), "supervisory powers against secrecy-bound "
                              "controllers stay within national limits")
def _v19(ctx: EvalContext) -> tuple[str, list[Finding]]:
    tasks = [n for n in ctx.graph.of_class("Investigation_Task")
             if n.attrs.get("involvesSecretData")]
    failures = [
        Finding(n.id, "investigation reaches data under professional secrecy "
                      "without respecting the national limits")
        for n in tasks if not n.attrs.get("secrecyRespected")
    ]
    return _status(tasks, failures)


@variation_rule("V20", (91,), "church data-protection regimes aligned with the "
                              "regulation")
def _v20(ctx: EvalContext) -> tuple[str, list[Finding]]:
    instances = _by_id(actor for p in ctx.scope() for actor in ctx.actors(p)
                       if actor.kind == "CHURCH_OR_RELIGIOUS_ORGANIZATION")
    failures: list[Finding] = []
    for actor in instances:
        aligned = any(n.attrs.get("alignedWithGDPR")
                      for n in ctx.graph.referrers(actor.id, "Code_Of_Conduct", "holder"))
        if not aligned:
            failures.append(Finding(
                actor.id, "comprehensive church rules are not brought in line "
                          "with the regulation"))
    return _status(instances, failures)


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def _run_rule(spec: RuleSpec, ctx: EvalContext) -> RuleVerdict:
    ctx.begin_rule()
    status, findings = spec.predicate(ctx)
    defaulted = tuple(sorted(ctx.defaulted_hooks))
    if ctx.strict and defaulted:
        # Any verdict shaped by a defaulted hook is uncertain, including
        # NotApplicable: a resolution could have made the rule bite.
        findings = [Finding("", f"verdict depends on unresolved hook {name}")
                    for name in defaulted]
        status = UNKNOWN
    return RuleVerdict(
        ruleId=spec.id,
        status=status,
        articles=spec.articles,
        findings=tuple(findings),
        hookDependencies=defaulted,
    )


def _run_gated(specs: Sequence[RuleSpec], ctx: EvalContext) -> list[RuleVerdict]:
    """Verdicts of ``specs`` in order. Once C1 reports NotApplicable, every
    later rule reports it too, without running."""
    verdicts: list[RuleVerdict] = []
    gate_closed = False
    for spec in specs:
        if gate_closed:
            verdicts.append(RuleVerdict(spec.id, NOT_APPLICABLE, spec.articles))
            continue
        verdict = _run_rule(spec, ctx)
        gate_closed = spec.id == "C1" and verdict.status == NOT_APPLICABLE
        verdicts.append(verdict)
    return verdicts


def _context(graph: InstanceGraph, profile, check_date: str | None,
             strict: bool) -> EvalContext:
    if profile is not None and not profile.finalized:
        raise ProfileNotFinalizedError("profile must be finalized before evaluation")
    minutes = None if check_date is None else timebase.parse_minutes(check_date)
    return EvalContext(graph, profile, minutes, strict)


def evaluate_rule(rule_id: str, graph: InstanceGraph, profile,
                  check_date: str | None = None,
                  strict: bool = False) -> RuleVerdict:
    """Evaluate one active rule; the C1 gate is applied first."""
    specs = _active_specs(profile)
    if rule_id not in specs:
        raise UnknownRuleError(rule_id)
    gated = [specs["C1"]] if rule_id == "C1" else [specs["C1"], specs[rule_id]]
    return _run_gated(gated, _context(graph, profile, check_date, strict))[-1]


def _active_specs(profile) -> dict[str, RuleSpec]:
    if profile is None:
        return dict(RULE_CATALOG)
    return {spec.id: spec for spec in profile.rules()}


@dataclass(frozen=True)
class ComplianceReport:
    verdicts: tuple[RuleVerdict, ...]
    profileFingerprint: str
    graphFingerprint: str
    checkDate: str
    summary: Mapping[str, int]
    audit: tuple[Mapping[str, str], ...] = ()

    def counts(self) -> dict[str, int]:
        return dict(self.summary)

    def to_payload(self) -> dict:
        return {
            "schemaVersion": "1",
            "checkDate": self.checkDate,
            "graphFingerprint": self.graphFingerprint,
            "profileFingerprint": self.profileFingerprint,
            "verdicts": [v.to_payload() for v in self.verdicts],
            "summary": dict(self.summary),
            "audit": [dict(entry) for entry in self.audit],
        }


def evaluate_all(graph: InstanceGraph, profile,
                 check_date: str | None = None,
                 strict: bool = False) -> ComplianceReport:
    """One verdict per active rule, in catalog order, deterministically."""
    if profile is None:
        raise ProfileNotFinalizedError("a finalized profile is required")
    ctx = _context(graph, profile, check_date, strict)
    # profile.rules() is in catalog order, so the C1 gate runs first.
    verdicts = _run_gated(profile.rules(), ctx)

    summary = {status: 0 for status in STATUSES}
    for verdict in verdicts:
        summary[verdict.status] += 1

    from .ingest import graph_fingerprint  # local import avoids a cycle

    return ComplianceReport(
        verdicts=tuple(verdicts),
        profileFingerprint=profile.fingerprint(),
        graphFingerprint=graph_fingerprint(graph),
        checkDate=_minutes_to_iso(ctx.check_minutes),
        summary=summary,
        audit=tuple(profile.resolution_table_payload()),
    )


def _minutes_to_iso(minutes: int) -> str:
    from datetime import datetime, timezone

    stamp = datetime.fromtimestamp(minutes * 60, tz=timezone.utc)
    # isoformat pads the year to four digits on every platform; strftime's
    # %Y does not on glibc.
    return stamp.replace(tzinfo=None).isoformat(timespec="seconds") + "Z"
