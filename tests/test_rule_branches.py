"""One row per rule branch that neither the golden reports nor the per-rule
tests reach: a fixture edit, the rule, and its exact status and findings.

Each row starts from the compliant document, applies its edit, loads the
result under its profile and evaluates one rule (or the standalone gate).
The expected findings are (object id, message) pairs in report order.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, NamedTuple

import pytest

from conftest import load_doc
from fixtures import compliant_document, drop, find, obj
from gdpr_engine.model import InstanceGraph
from gdpr_engine.rules import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    ProfileNotFinalizedError,
    check_applicability,
    check_child_consent,
    check_transfer_legality,
    evaluate_all,
    evaluate_rule,
)
from gdpr_engine.variability import V17_RIGHTS, V18_RIGHTS, Resolution, build_profile

LATE = "2024-06-01T00:00:00Z"  # long after every deadline the fixture opens


class Row(NamedTuple):
    name: str
    edit: Callable[[dict], None]
    rule: str | Callable  # a rule id, or a call (graph, profile) -> verdict
    status: str
    findings: tuple[tuple[str, str], ...] = ()
    resolutions: tuple[tuple[str, dict], ...] = ()
    check_date: str | None = None
    rebuild: Callable[[InstanceGraph], InstanceGraph] | None = None


def _attrs(object_id: str, **values) -> Callable[[dict], None]:
    def edit(d: dict) -> None:
        find(d, object_id)["attrs"].update(values)
    return edit


def _refs(object_id: str, **values) -> Callable[[dict], None]:
    def edit(d: dict) -> None:
        find(d, object_id)["refs"].update(values)
    return edit


def _both(*edits: Callable[[dict], None]) -> Callable[[dict], None]:
    def edit(d: dict) -> None:
        for one in edits:
            one(d)
    return edit


def _unchanged(d: dict) -> None:
    pass


def _request(request_id: str, support_id: str, **attrs) -> Callable[[dict], None]:
    """A request answered in time under ``support_id``, with ``attrs`` on top."""
    def edit(d: dict) -> None:
        find(d, support_id)["refs"]["requests"] = [request_id]
        d["objects"].append(obj(request_id, "Right_Request", {
            "receivedAt": "2023-01-18T09:00:00Z",
            "respondedAt": "2023-01-28T09:00:00Z",
            "identityVerified": True, "free": True, **attrs}))
    return edit


def _drop_dpia(d: dict) -> None:
    del find(d, "p1")["refs"]["dpia"]
    drop(d, "dpia1")


def _legal_obligation_without_source(graph: InstanceGraph) -> InstanceGraph:
    # Load rejects this purpose as an invariant violation, so it is built
    # into a graph directly.
    purpose = dataclasses.replace(graph["purp1"], legalBasis="LEGAL_OBLIGATION",
                                  obligationSource=None)
    return InstanceGraph([purpose if n.id == "purp1" else n for n in graph])


RESEARCH = _attrs("p1", type="RESEARCH")
ARCHIVING = _attrs("p1", operations=["COLLECTING", "STORING", "ARCHIVING"])
PUBLIC_CONTROLLER = _attrs("ctrl", kind="OFFICIAL")

ROWS = (
    # -- the C1 gate -------------------------------------------------------
    Row("gate-fails-other-rule-not-applicable",
        _attrs("p1", type="PERSONAL_OR_HOUSEHOLD_ACTIVITY"), "C2", NOT_APPLICABLE),
    Row("check-applicability-without-profile", _unchanged,
        lambda graph, profile: check_applicability(graph), PASS),
    Row("check-applicability-without-profile-gate-fails",
        _attrs("p1", type="PERSONAL_OR_HOUSEHOLD_ACTIVITY"),
        lambda graph, profile: check_applicability(graph), NOT_APPLICABLE,
        (("", "every processing of personal data falls in an out-of-scope "
              "context (security, household, or criminal investigation)"),)),
    Row("evaluate-rule-without-profile", _unchanged,
        lambda graph, profile: evaluate_rule("C2", graph, None), PASS),
    # -- Chapter II --------------------------------------------------------
    Row("c3-legal-obligation-without-source", _unchanged, "C3", FAIL,
        (("purp1", "legal-obligation basis without its obligation source"),),
        rebuild=_legal_obligation_without_source),
    Row("c5-parent-not-responsible-for-subject",
        _refs("parent", responsibleFor=["alice"]), "C5", FAIL,
        (("bobby", "consenting parent does not hold responsibility for this "
                   "subject"),)),
    Row("c5-consent-based-without-consent-object",
        _both(lambda d: find(d, "p1")["refs"].pop("consent"),
              lambda d: drop(d, "cons1")), "C5", PASS),
    Row("c7-filing-system-without-criminal-register",
        lambda d: d["objects"].append(obj("fs1", "Filing_System",
                                          {"criminalRegister": False},
                                          {"holder": ["ctrl"]})),
        "C7", NOT_APPLICABLE),
    # -- Chapter III -------------------------------------------------------
    Row("c10-contract-basis-requires-statutory-requirement",
        _attrs("purp1", legalBasis="PERFORMANCE_OF_CONTRACT"), "C10", FAIL,
        (("p1", "information not provided to subjects: "
                "STATUTORY_CONTRACTUAL_REQUIREMENT"),)),
    Row("c10-adapted-out", _unchanged, "C10", NOT_APPLICABLE,
        resolutions=(("V5", {"adaptations": {"C10": {
            "exemptProcessingTypes": ["OFFERING_GOODS_OR_SERVICES"]}}}),)),
    Row("c12-access-derogated-for-research",
        _both(RESEARCH, _attrs("p1", informationProvided=["CONTACT_DETAILS"])),
        "C12", NOT_APPLICABLE,
        resolutions=(("V17", {"derogatedRights": ["RIGHT_TO_ACCESS"]}),)),
    Row("c13-rectification-derogated-for-research",
        _both(RESEARCH, lambda d: drop(d, "note_rect")), "C13", NOT_APPLICABLE,
        resolutions=(("V17", {"derogatedRights": ["RIGHT_TO_RECTIFICATION"]}),)),
    Row("c13-no-granted-rectification",
        _attrs("req_rect", granted=False, denialReason="OTHER"),
        "C13", NOT_APPLICABLE),
    Row("c13-no-recipients-nothing-to-notify",
        _both(_refs("p1", recipients=[]), lambda d: drop(d, "note_rect")),
        "C13", PASS),
    Row("c14-erasure-not-derogable",
        _both(RESEARCH, ARCHIVING, _attrs("req_erase", denialReason="OTHER")), "C14", FAIL,
        (("req_erase", "erasure denied without an admitted ground"),),
        resolutions=(("V17", {"derogatedRights": sorted(V17_RIGHTS)}),
                     ("V18", {"derogatedRights": sorted(V18_RIGHTS)}))),
    Row("c15-restriction-derogated-for-archiving",
        _both(ARCHIVING, _request("req_restrict", "rs_restrict", granted=False)),
        "C15", NOT_APPLICABLE,
        resolutions=(("V18", {"derogatedRights": ["RIGHT_TO_RESTRICTION"]}),)),
    Row("c16-portability-denied-without-reason",
        _request("req_port", "rs_port", granted=False, identityVerified=False),
        "C16", FAIL,
        (("req_port", "portability denied without telling the subject why"),)),
    Row("c16-portability-derogated-for-archiving",
        _both(ARCHIVING, _request("req_port", "rs_port", granted=False,
                                  denialReason="OTHER")),
        "C16", NOT_APPLICABLE,
        resolutions=(("V18", {"derogatedRights": ["RIGHT_TO_PORTABILITY"]}),)),
    Row("c17-objection-derogated-for-research",
        _both(RESEARCH, _request("req_obj", "rs_object", granted=False)),
        "C17", NOT_APPLICABLE,
        resolutions=(("V17", {"derogatedRights": ["RIGHT_TO_OBJECT"]}),)),
    Row("c17-right-to-object-not-applicable",
        _both(_attrs("purp1", legalBasis="PERFORMANCE_OF_CONTRACT"),
              _request("req_obj", "rs_object", granted=False)),
        "C17", NOT_APPLICABLE),
    # -- Chapter IV --------------------------------------------------------
    Row("c19-no-technical-measure",
        _refs("p1", securityMeasures=["o_audit", "o_policy"]), "C19", FAIL,
        (("p1", "no technical measure is in place"),)),
    Row("c19-by-design-note",
        _refs("p1", securityMeasures=["t_pseudo", "t_enc", "t_backup",
                                      "o_audit", "o_policy"]), "C19", PASS,
        (("p1", "no measure declared for protection by design and default"),)),
    Row("c20-arrangement-not-transparent",
        _both(lambda d: d["objects"].append(obj(
                  "joint", "Joint_Controllers",
                  {"kind": "ENTERPRISE", "arrangementTransparent": False,
                   "arrangementAvailableToSubjects": True},
                  {"countries": ["LU"]})),
              lambda d: find(d, "p1")["refs"]["controllers"].append("joint")),
        "C20", FAIL,
        (("joint", "joint controllers have not determined their respective "
                   "responsibilities transparently"),)),
    Row("c21-public-authority-exempt",
        _both(_refs("ctrl", countries=["US"]), PUBLIC_CONTROLLER,
              _attrs("p1", largeScale=True)), "C21", NOT_APPLICABLE),
    Row("c22-adapted-out", _attrs("proc", instructions=[]), "C22", NOT_APPLICABLE,
        resolutions=(("V5", {"adaptations": {"C22": {
            "exemptProcessingTypes": ["OFFERING_GOODS_OR_SERVICES"]}}}),)),
    Row("c22-no-processors", _refs("p1", processors=[]), "C22", NOT_APPLICABLE),
    Row("c23-optional-content-note",
        _attrs("rec_ctrl", items=["NAME_AND_CONTACT_DETAILS", "PROCESSING_PURPOSES",
                                  "DATA_SUBJECT_AND_DATA_CATEGORIES", "RECIPIENTS",
                                  "THIRD_COUNTRY_TRANSFERS",
                                  "SECURITY_MEASURES_DESCRIPTION"]),
        "C23", PASS,
        (("rec_ctrl", "optional record content absent: ERASURE_TIME_LIMITS"),)),
    Row("c24-representative-counted",
        lambda d: d["objects"].append(obj(
            "rep1", "Representative", {"kind": "LEGAL_PERSON", "cooperatesWithSA": False},
            {"countries": ["LU"], "represents": ["ctrl"]})),
        "C24", FAIL,
        (("rep1", "refuses cooperation with the supervisory authority"),)),
    Row("c26-unrecorded-breach-missed-window",
        _both(_attrs("breach1", recorded=False),
              lambda d: find(d, "breach1")["attrs"].pop("saNotifiedAt")),
        "C26", FAIL,
        (("breach1", "breach is not recorded"),
         ("breach1", "supervisory authority not notified within 72 hours and no "
                     "justification recorded")),
        check_date=LATE),
    Row("c27-no-dpia-not-mandatory", _drop_dpia, "C27", NOT_APPLICABLE),
    Row("c28-no-dpia", _drop_dpia, "C28", NOT_APPLICABLE),
    Row("c28-still-unanswered",
        lambda d: find(d, "dpia1")["attrs"]["consultation"].pop("adviceAt"),
        "C28", FAIL,
        (("dpia1", "consultation is still unanswered after the advice window"),),
        check_date=LATE),
    Row("c30-not-voluntary-not-transparent",
        _attrs("cert1", voluntary=False, processTransparent=False), "C30", FAIL,
        (("cert1", "certification is not voluntary"),
         ("cert1", "certification process is not transparent"))),
    # -- Chapter V and sanctions -------------------------------------------
    Row("c31-scc-not-approved-public-instrument-not-authorized",
        _both(_attrs("tr_us", basis={"kind": "StandardContractualClauses",
                                     "approved": False}),
              _attrs("tr_ca", basis={"kind": "PublicBodyInstrument",
                                     "authorized": False})),
        "C31", FAIL,
        (("tr_ca", "public-body instrument lacks authorization"),
         ("tr_us", "standard contractual clauses are not approved"))),
    Row("c35-single-turnover-context-fallback",
        _both(_attrs("tc1", worldwideAnnualTurnoverEUR=1_000_000_000),
              lambda d: find(d, "inf1")["refs"].pop("turnover")),
        "C35", PASS, (("inf1", "maximum administrative fine: 20000000 EUR"),)),
    Row("c35-ambiguous-turnover-context",
        _both(_attrs("tc1", worldwideAnnualTurnoverEUR=1_000_000_000),
              lambda d: find(d, "inf1")["refs"].pop("turnover"),
              lambda d: d["objects"].append(obj(
                  "tc2", "Turnover_Context",
                  {"worldwideAnnualTurnoverEUR": 2_000_000_000}))),
        "C35", PASS, (("inf1", "maximum administrative fine: 10000000 EUR"),)),
    # -- variation rules ---------------------------------------------------
    Row("v2-consent-not-given-by-parent",
        _refs("cons1", givenBy="alice"), "V2", NOT_APPLICABLE,
        resolutions=(("V2", {"acceptedDocumentKinds": ["PASSPORT"]}),)),
    Row("v4-prohibited",
        _attrs("pd1", categories=["HEALTH", "OTHER_PERSONAL_DATA"]), "V4", FAIL,
        (("p1", "processing of HEALTH is prohibited by national law"),),
        resolutions=(("V4", {"prohibited": True}),)),
    Row("v4-measures-missing",
        _attrs("pd1", categories=["GENETIC", "BIOMETRIC"]), "V4", FAIL,
        (("p1", "national conditions unmet, measures missing: ACCESS_CONTROL, "
                "AUTHENTIFICATION"),),
        resolutions=(("V4", {"requiredTechnicalMeasures": [
            "AUTHENTIFICATION", "ACCESS_CONTROL", "ENCRYPTION"]}),)),
    Row("v8-other-processing-types", _unchanged, "V8", NOT_APPLICABLE,
        resolutions=(("V8", {"requiredForProcessingTypes": ["RESEARCH"]}),)),
    Row("v8-no-dpia", _drop_dpia, "V8", NOT_APPLICABLE, resolutions=(("V8", {}),)),
    Row("v10-limit-to-other-countries", _unchanged, "V10", PASS,
        resolutions=(("V10", {"limits": [{"toCountries": ["CN"]}]}),)),
    Row("v12-2-no-fine-note",
        _both(PUBLIC_CONTROLLER, lambda d: find(d, "inf1")["attrs"].pop("imposedFineEUR")),
        "V12_2", PASS,
        (("inf1", "no administrative fine applicable to a public body"),),
        resolutions=(("V12", {"finesApplyToPublicBodies": False}),)),
    Row("v15-measures-missing",
        _attrs("pd1", categories=["IDENTIFICATION"]), "V15", FAIL,
        (("p1", "identifier processing lacks required measures: ACCESS_CONTROL"),),
        resolutions=(("V15", {"requiredTechnicalMeasures": [
            "ACCESS_CONTROL", "ENCRYPTION"]}),)),
)


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_rule_branch(row: Row):
    profile = build_profile([Resolution(vid, params) for vid, params in row.resolutions])
    document = compliant_document()
    row.edit(document)
    graph = load_doc(document, profile)
    if row.rebuild is not None:
        graph = row.rebuild(graph)
    if callable(row.rule):
        verdict = row.rule(graph, profile)
    else:
        verdict = evaluate_rule(row.rule, graph, profile, check_date=row.check_date)
    assert verdict.status == row.status
    assert [(f.objectId, f.message) for f in verdict.findings] == list(row.findings)


def test_row_names_are_distinct():
    assert len({row.name for row in ROWS}) == len(ROWS)


def test_evaluate_all_without_a_profile_is_refused(compliant_graph):
    with pytest.raises(ProfileNotFinalizedError, match="a finalized profile is required"):
        evaluate_all(compliant_graph, None)


UNFINALIZED_CALLS = {
    "evaluate_rule": lambda graph, profile: evaluate_rule("C5", graph, profile),
    "check_applicability": check_applicability,
    "check_child_consent": check_child_consent,
    "check_transfer_legality": check_transfer_legality,
}


@pytest.mark.parametrize("call", list(UNFINALIZED_CALLS.values()), ids=list(UNFINALIZED_CALLS))
def test_single_rule_evaluation_refuses_an_unfinalized_profile(compliant_graph, call):
    # finalize() would reject this profile: 5 is below 13, the lowest national age.
    profile = build_profile([Resolution("V1", {"thresholds": {"AT": 5}})], finalize=False)
    with pytest.raises(ProfileNotFinalizedError,
                       match="^profile must be finalized before evaluation$"):
        call(compliant_graph, profile)
