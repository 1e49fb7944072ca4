"""Rule semantics: applicability gate, statutory windows, fines, verdicts."""

from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

import pytest

from conftest import load_doc
from fixtures import compliant_document, document_bytes, failing_variants, find, obj
from gdpr_engine import (
    check_applicability,
    check_child_consent,
    check_transfer_legality,
    compute_max_fine,
    evaluate_all,
    evaluate_rule,
    load_instance,
)
from gdpr_engine.model import Actor, GenericNode
from gdpr_engine.rules import (
    EvalContext,
    FAIL,
    FineClassificationError,
    NOT_APPLICABLE,
    PASS,
    RULE_CATALOG,
    UNKNOWN,
    UnknownRuleError,
    _represented_in_eu,
)
from gdpr_engine.variability import Resolution, build_profile

EUR = 100  # cents


def iso(stamp: datetime) -> str:
    return stamp.strftime("%Y-%m-%dT%H:%M:%SZ")


T0 = datetime(2023, 1, 10, 9, 0, tzinfo=timezone.utc)


# ---------------------------------------------------------------------------
# C1 applicability gate
# ---------------------------------------------------------------------------

def minimal_processing_doc(processing_type: str, controller_country: str) -> dict:
    return {"schemaVersion": "1", "objects": [
        obj("LU", "Country", {"code": "LU", "isEUMemberState": True,
                              "EULawApplies": True}),
        obj("US", "Country", {"code": "US"}),
        obj("ctrl", "Data_Controller", {"kind": "ENTERPRISE"},
            {"countries": [controller_country]}),
        obj("alice", "Data_Subject", {"ageYears": 33}, {"residence": "US"}),
        obj("pd", "Personal_Data",
            {"categories": ["OTHER_PERSONAL_DATA"], "identifiesSubject": True},
            {"subjects": ["alice"]}),
        obj("purp", "Purpose", {"legalBasis": "LEGITIMATE_INTEREST"}),
        obj("p", "Data_Processing", {"type": processing_type},
            {"personalData": ["pd"], "purposes": ["purp"],
             "controllers": ["ctrl"]}),
    ]}


def test_c1_passes_for_eu_controller_processing_identified_data():
    graph = load_doc(minimal_processing_doc("OTHER", "LU"))
    assert check_applicability(graph).status == PASS


def test_c1_not_applicable_without_any_processing():
    graph = load_doc({"schemaVersion": "1", "objects": []})
    verdict = check_applicability(graph)
    assert verdict.status == NOT_APPLICABLE
    assert verdict.findings


def test_c1_not_applicable_for_us_household_processing():
    graph = load_doc(minimal_processing_doc("PERSONAL_OR_HOUSEHOLD_ACTIVITY", "US"))
    verdict = check_applicability(graph)
    assert verdict.status == NOT_APPLICABLE
    assert verdict.findings


def test_c1_extraterritorial_reach_through_targeting():
    document = minimal_processing_doc("OFFERING_GOODS_OR_SERVICES", "US")
    find(document, "alice")["refs"]["residence"] = "LU"
    assert check_applicability(load_doc(document)).status == PASS


def test_gate_propagation(generic_profile, fail_documents):
    graph = load_doc(fail_documents["C1"])
    report = evaluate_all(graph, generic_profile)
    assert all(v.status == NOT_APPLICABLE for v in report.verdicts)


# ---------------------------------------------------------------------------
# C5 child consent
# ---------------------------------------------------------------------------

def consent_doc(age: int, subject_class: str = "Data_Subject",
                giver: str | None = None, residence: str = "LU") -> dict:
    document = {"schemaVersion": "1", "objects": [
        obj("LU", "Country", {"code": "LU", "isEUMemberState": True,
                              "EULawApplies": True}),
        obj("AT", "Country", {"code": "AT", "isEUMemberState": True,
                              "EULawApplies": True}),
        obj("ctrl", "Data_Controller", {"kind": "ENTERPRISE"},
            {"countries": ["LU"]}),
        obj("sub", subject_class, {"ageYears": age}, {"residence": residence}),
        obj("parent", "Responsible_Parent", {},
            {"documents": ["doc"], "responsibleFor": ["sub"]}),
        obj("doc", "Document", {"kind": "ID_CARD", "valid": True}),
        obj("pd", "Personal_Data",
            {"categories": ["OTHER_PERSONAL_DATA"], "identifiesSubject": True},
            {"subjects": ["sub"]}),
        obj("purp", "Purpose", {"legalBasis": "BY_CONSENT"}),
        obj("cons", "Consent",
            {"freelyGiven": True, "specific": True, "informed": True,
             "unambiguous": True, "affirmativeAction": True,
             "withdrawable": True, "distinguishable": True},
            {"givenBy": giver or "sub", "givenFor": ["purp"]}),
        obj("p", "Data_Processing", {"type": "OFFERING_GOODS_OR_SERVICES"},
            {"personalData": ["pd"], "purposes": ["purp"], "consent": "cons",
             "controllers": ["ctrl"]}),
    ]}
    return document


def test_c5_adult_consent_passes(generic_profile):
    graph = load_doc(consent_doc(17), generic_profile)
    assert check_child_consent(graph, generic_profile).status == PASS


def test_c5_underage_self_consent_fails_citing_article_8(generic_profile):
    graph = load_doc(consent_doc(15), generic_profile)
    verdict = check_child_consent(graph, generic_profile)
    assert verdict.status == FAIL
    assert verdict.articles == (8,)
    assert verdict.findings


def test_c5_child_with_parent_and_valid_document_passes(generic_profile):
    graph = load_doc(consent_doc(9, "Child_Data_Subject", giver="parent"),
                     generic_profile)
    assert check_child_consent(graph, generic_profile).status == PASS


def test_c5_national_threshold_lowers_the_age(generic_profile):
    profile = build_profile([Resolution("V1", {"thresholds": {"LU": 16, "AT": 14}})])
    document = consent_doc(14, residence="AT")
    graph = load_doc(document, profile)
    assert check_child_consent(graph, profile).status == PASS
    generic_graph = load_doc(document, generic_profile)
    assert check_child_consent(generic_graph, generic_profile).status == FAIL


def test_c5_not_applicable_without_consent_processing(generic_profile):
    document = consent_doc(30)
    find(document, "purp")["attrs"]["legalBasis"] = "LEGITIMATE_INTEREST"
    drop_refs = find(document, "p")["refs"]
    del drop_refs["consent"]
    document["objects"] = [o for o in document["objects"] if o["id"] != "cons"]
    graph = load_doc(document, generic_profile)
    assert check_child_consent(graph, generic_profile).status == NOT_APPLICABLE


# ---------------------------------------------------------------------------
# C31/C32 transfers
# ---------------------------------------------------------------------------

def test_intra_eu_transfer_passes(generic_profile, compliant_graph):
    verdict = check_transfer_legality(compliant_graph, generic_profile)
    assert verdict.status == PASS


def test_adequacy_with_evidence_passes_and_without_fails(generic_profile,
                                                         compliant_doc):
    graph = load_doc(compliant_doc, generic_profile)
    assert evaluate_rule("C32", graph, generic_profile).status == PASS

    find(compliant_doc, "tr_ca")["attrs"]["basis"]["evidence"] = []
    graph = load_doc(compliant_doc, generic_profile)
    verdict = evaluate_rule("C32", graph, generic_profile)
    assert verdict.status == FAIL
    assert verdict.articles == (45,)


def test_unapproved_bcr_transfer_fails(generic_profile, compliant_doc):
    find(compliant_doc, "tr_us")["attrs"]["basis"]["approved"] = False
    graph = load_doc(compliant_doc, generic_profile)
    verdict = check_transfer_legality(graph, generic_profile)
    assert verdict.status == FAIL
    assert verdict.articles == (44, 45, 46, 49, 50)
    assert any(f.objectId == "tr_us" for f in verdict.findings)


def test_intra_eu_basis_must_stay_inside_the_union(generic_profile,
                                                   compliant_doc):
    find(compliant_doc, "tr_eu")["refs"]["to"] = "US"
    graph = load_doc(compliant_doc, generic_profile)
    verdict = check_transfer_legality(graph, generic_profile)
    assert verdict.status == FAIL


def test_consent_derogation_closed_to_public_authorities(generic_profile,
                                                         compliant_doc):
    find(compliant_doc, "tr_us")["attrs"]["basis"] = {
        "kind": "Derogation", "derogation": "SUPPORTED_BY_CONSENT"}
    find(compliant_doc, "ctrl")["attrs"]["kind"] = "PUBLIC_ORGANIZATION"
    graph = load_doc(compliant_doc, generic_profile)
    assert check_transfer_legality(graph, generic_profile).status == FAIL


# ---------------------------------------------------------------------------
# C35 fines
# ---------------------------------------------------------------------------

def test_fine_tier2_floor_dominates_small_turnover():
    # 4% of 100M EUR is 4M, below the 20M floor
    assert compute_max_fine("DS_RIGHT_VIOLATION", 100_000_000 * EUR) \
        == 20_000_000 * EUR


def test_fine_tier1_turnover_share_beats_the_floor():
    # 2% of 1B EUR is 20M, above the 10M floor
    assert compute_max_fine("OBLIGATION_VIOLATION", 1_000_000_000 * EUR) \
        == 20_000_000 * EUR


def test_fine_zero_turnover_falls_back_to_the_floor():
    assert compute_max_fine("PRINCIPLE_VIOLATION", 0) == 20_000_000 * EUR


def test_fine_unknown_kind_is_a_classification_error():
    with pytest.raises(FineClassificationError):
        compute_max_fine("OTHER", 0)
    with pytest.raises(FineClassificationError):
        compute_max_fine("NOT_A_KIND", 0)


def test_fine_accepts_the_domain_objects():
    from gdpr_engine.model import Infringement, TurnoverContext

    infringement = Infringement(id="i", cls="Infringement",
                                kind="DS_RIGHT_VIOLATION")
    turnover = TurnoverContext(id="t", cls="Turnover_Context",
                               worldwideAnnualTurnoverEUR=100_000_000)
    assert compute_max_fine(infringement, turnover) == 20_000_000 * EUR


def test_fine_dominance_and_monotonicity():
    rng = random.Random(11)
    previous_t1 = previous_t2 = 0
    turnovers = sorted(rng.randrange(0, 10**13) for _ in range(200))
    for turnover in turnovers:
        tier1 = compute_max_fine("OBLIGATION_VIOLATION", turnover)
        tier2 = compute_max_fine("PRINCIPLE_VIOLATION", turnover)
        assert tier2 >= tier1
        assert tier1 >= previous_t1 and tier2 >= previous_t2
        previous_t1, previous_t2 = tier1, tier2


def test_c35_flags_fines_above_the_ceiling(generic_profile, compliant_doc):
    find(compliant_doc, "inf1")["attrs"]["imposedFineEUR"] = 25_000_000
    graph = load_doc(compliant_doc, generic_profile)
    verdict = evaluate_rule("C35", graph, generic_profile)
    assert verdict.status == FAIL
    assert verdict.articles == (83,)


# ---------------------------------------------------------------------------
# evaluate_rule / evaluate_all
# ---------------------------------------------------------------------------

def test_consent_flag_failure_cites_article_7(generic_profile, compliant_doc):
    find(compliant_doc, "cons1")["attrs"]["informed"] = False
    graph = load_doc(compliant_doc, generic_profile)
    verdict = evaluate_rule("C4", graph, generic_profile)
    assert verdict.status == FAIL
    assert verdict.articles == (7,)
    assert "informed" in verdict.findings[0].message


def certification_doc(issued: datetime) -> dict:
    document = compliant_document()
    find(document, "cert1")["attrs"]["issuedAt"] = iso(issued)
    return document


@pytest.mark.parametrize("age_days, expected", [
    (1000, PASS),
    (1095, PASS),   # exactly three years
    (1096, FAIL),
    (1200, FAIL),
])
def test_certification_three_year_validity(generic_profile, age_days, expected):
    check = datetime(2026, 6, 1, tzinfo=timezone.utc)
    issued = check - timedelta(days=age_days)
    graph = load_doc(certification_doc(issued), generic_profile)
    verdict = evaluate_rule("C30", graph, generic_profile, check_date=iso(check))
    assert verdict.status == expected


def test_breach_notified_after_72_hours_fails_without_justification(
        generic_profile, compliant_doc):
    find(compliant_doc, "breach1")["attrs"]["saNotifiedAt"] = \
        "2023-03-04T08:00:00Z"  # 80 hours after detection
    graph = load_doc(compliant_doc, generic_profile)
    verdict = evaluate_rule("C26", graph, generic_profile)
    assert verdict.status == FAIL
    assert verdict.articles == (33, 34)


def test_breach_72_hour_boundary_is_exact(generic_profile, compliant_doc):
    attrs = find(compliant_doc, "breach1")["attrs"]
    attrs["detectedAt"] = "2023-03-01T00:00:00Z"
    attrs["saNotifiedAt"] = "2023-03-04T00:00:00Z"  # exactly 72 hours
    graph = load_doc(compliant_doc, generic_profile)
    assert evaluate_rule("C26", graph, generic_profile).status == PASS

    attrs["saNotifiedAt"] = "2023-03-04T00:01:00Z"
    graph = load_doc(compliant_doc, generic_profile)
    assert evaluate_rule("C26", graph, generic_profile).status == FAIL


def test_breach_delay_is_tolerated_with_justification(generic_profile,
                                                      compliant_doc):
    attrs = find(compliant_doc, "breach1")["attrs"]
    attrs["saNotifiedAt"] = "2023-03-05T00:00:00Z"
    attrs["delayJustification"] = "forensics required before notification"
    graph = load_doc(compliant_doc, generic_profile)
    assert evaluate_rule("C26", graph, generic_profile).status == PASS


@pytest.mark.parametrize("delta_minutes, extended, expected", [
    (30 * 24 * 60, False, PASS),         # exactly one month
    (30 * 24 * 60 + 1, False, FAIL),
    (90 * 24 * 60, True, PASS),          # one month plus two further months
    (90 * 24 * 60 + 1, True, FAIL),
])
def test_request_response_window(generic_profile, compliant_doc,
                                 delta_minutes, extended, expected):
    attrs = find(compliant_doc, "req_access")["attrs"]
    received = T0
    attrs["receivedAt"] = iso(received)
    attrs["respondedAt"] = iso(received + timedelta(minutes=delta_minutes))
    attrs["extensionNotified"] = extended
    graph = load_doc(compliant_doc, generic_profile)
    assert evaluate_rule("C9", graph, generic_profile).status == expected


@pytest.mark.parametrize("delta_minutes, extended, expected", [
    (56 * 24 * 60, False, PASS),         # exactly eight weeks
    (56 * 24 * 60 + 1, False, FAIL),
    (98 * 24 * 60, True, PASS),          # eight weeks plus six weeks
    (98 * 24 * 60 + 1, True, FAIL),
])
def test_consultation_advice_window(generic_profile, compliant_doc,
                                    delta_minutes, extended, expected):
    consultation = find(compliant_doc, "dpia1")["attrs"]["consultation"]
    requested = T0
    consultation["requestedAt"] = iso(requested)
    consultation["adviceAt"] = iso(requested + timedelta(minutes=delta_minutes))
    consultation["extended"] = extended
    graph = load_doc(compliant_doc, generic_profile)
    assert evaluate_rule("C28", graph, generic_profile).status == expected


def test_unknown_rule_id_rejected(generic_profile, compliant_graph):
    with pytest.raises(UnknownRuleError):
        evaluate_rule("C99", compliant_graph, generic_profile)


def test_deactivated_rule_rejected(compliant_graph):
    profile = build_profile([Resolution("V12", {})])
    graph = load_instance(document_bytes(compliant_document()), profile)
    with pytest.raises(UnknownRuleError):
        evaluate_rule("C35", graph, profile)
    assert evaluate_rule("V12_1", graph, profile).status in (PASS, FAIL)


def test_evaluate_all_on_empty_graph(generic_profile):
    graph = load_doc({"schemaVersion": "1", "objects": []})
    report = evaluate_all(graph, generic_profile)
    assert len(report.verdicts) == 35
    assert all(v.status == NOT_APPLICABLE for v in report.verdicts)


def test_evaluate_all_compliant_fixture_has_zero_failures(generic_profile,
                                                          compliant_graph):
    report = evaluate_all(compliant_graph, generic_profile)
    assert report.counts()[FAIL] == 0


def test_evaluate_all_is_reproducible(generic_profile, compliant_graph):
    import json

    first = evaluate_all(compliant_graph, generic_profile)
    second = evaluate_all(compliant_graph, generic_profile)
    assert json.dumps(first.to_payload(), sort_keys=True) \
        == json.dumps(second.to_payload(), sort_keys=True)


def test_verdict_articles_match_the_catalog(generic_profile, compliant_graph):
    report = evaluate_all(compliant_graph, generic_profile)
    for verdict in report.verdicts:
        assert verdict.articles == RULE_CATALOG[verdict.ruleId].articles


def test_every_failure_carries_findings(generic_profile, fail_documents):
    for name, document in fail_documents.items():
        graph = load_instance(document_bytes(document), generic_profile)
        report = evaluate_all(graph, generic_profile)
        for verdict in report.verdicts:
            if verdict.status == FAIL:
                assert verdict.findings, (name, verdict.ruleId)


def test_strict_mode_reports_unknown_for_defaulted_hooks(generic_profile,
                                                         compliant_graph):
    verdict = evaluate_rule("C5", compliant_graph, generic_profile, strict=True)
    assert verdict.status == UNKNOWN
    assert "V_getMinimumAgeForDS" in verdict.hookDependencies
    assert any("V_getMinimumAgeForDS" in f.message for f in verdict.findings)


def test_strict_mode_calms_down_once_hooks_are_resolved():
    profile = build_profile([
        Resolution("V1", {"thresholds": {"LU": 16}}),
        Resolution("V2", {"acceptedDocumentKinds": ["PASSPORT", "ID_CARD"]}),
    ])
    graph = load_instance(document_bytes(compliant_document()), profile)
    verdict = evaluate_rule("C5", graph, profile, strict=True)
    assert verdict.status == PASS
    assert verdict.hookDependencies == ()


# ---------------------------------------------------------------------------
# Graph index: the indexed lookups answer as a scan of the whole graph does
# ---------------------------------------------------------------------------

# (class, role) pairs along which the rules look up evidence.
EVIDENCE_ROLES = (
    ("Demonstration", "processing"),
    ("Lawfulness_Evidence", "purpose"),
    ("Lawfulness_Evidence", "processing"),
    ("Notification", "processing"),
    ("Authorization", "processing"),
    ("Code_Of_Conduct", "holder"),
)


def represented_document() -> dict:
    """Non-EU controller and processor with representatives in and out of
    the EU; evidence nodes reference several objects, some twice."""
    document = compliant_document()
    find(document, "ctrl")["refs"]["countries"] = ["US"]
    find(document, "proc")["refs"]["countries"] = ["CA"]
    document["objects"] += [
        obj("rep_us", "Representative", {"kind": "LEGAL_PERSON"},
            {"countries": ["US"], "represents": ["ctrl", "proc", "ctrl"]}),
        obj("rep_lu", "Representative", {"kind": "LEGAL_PERSON"},
            {"countries": ["LU"], "represents": ["ctrl"]}),
        obj("dpo2", "Data_Protection_Officer", {"kind": "NATURAL_PERSON"},
            {"countries": ["LU"], "designatedBy": ["recip"]}),
        obj("note_erase", "Notification", {"about": "ERASURE"},
            {"processing": ["p1", "p1"], "recipients": ["recip"]}),
        obj("law1", "Lawfulness_Evidence", {},
            {"purpose": "purp1", "processing": ["p1"]}),
        obj("coc1", "Code_Of_Conduct", {"alignedWithGDPR": True},
            {"holder": ["ctrl", "rep_lu"]}),
        obj("auth1", "Authorization", {"granted": True}, {"processing": "p1"}),
    ]
    return document


def index_documents() -> dict[str, dict]:
    return {"ok": compliant_document(), "represented": represented_document(),
            **failing_variants()}


def scan_evidence(graph, class_name: str, role: str, target_id: str) -> list:
    return [n for n in graph if n.cls == class_name
            and isinstance(n, GenericNode) and target_id in n.refs.get(role, ())]


def test_indexed_lookups_match_a_scan_of_the_graph(generic_profile):
    for name, document in index_documents().items():
        graph = load_instance(document_bytes(document), generic_profile)
        ctx = EvalContext(graph, generic_profile)
        for target in graph:
            for class_name, role in EVIDENCE_ROLES:
                assert list(graph.referrers(target.id, class_name, role)) \
                    == scan_evidence(graph, class_name, role, target.id), \
                    (name, target.id, class_name, role)
            assert ctx.dpo_designated_for(target.id) == any(
                n.cls == "Data_Protection_Officer" and target.id in n.designatedBy
                for n in graph), (name, target.id)
            if isinstance(target, Actor):
                assert _represented_in_eu(ctx, target) == any(
                    n.cls == "Representative" and target.id in n.represents
                    and any(graph[c].isEUMemberState for c in n.countries)
                    for n in graph), (name, target.id)
        for p in graph.processings():
            for about in ("RECTIFICATION", "ERASURE", "RESTRICTION"):
                scanned = [n for n in scan_evidence(graph, "Notification",
                                                    "processing", p.id)
                           if n.attrs.get("about") == about]
                assert ctx.notification_for(p, about) \
                    == (scanned[0] if scanned else None), (name, p.id, about)


def test_represented_document_exercises_every_indexed_lookup(generic_profile):
    graph = load_instance(document_bytes(represented_document()), generic_profile)
    ctx = EvalContext(graph, generic_profile)
    assert _represented_in_eu(ctx, graph["ctrl"])
    assert not _represented_in_eu(ctx, graph["proc"])
    assert ctx.dpo_designated_for("recip")
    assert ctx.notification_for(graph["p1"], "ERASURE").id == "note_erase"
    assert [n.id for n in graph.referrers("ctrl", "Code_Of_Conduct",
                                          "holder")] == ["coc1"]
