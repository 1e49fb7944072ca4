"""Structural model and graph-validation behavior."""

from __future__ import annotations

import os
import pickle
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields
from functools import partial

import pytest

import gdpr_engine
from fixtures import compliant_document, document_bytes
from gdpr_engine import ingest, model, rules, timebase
from gdpr_engine.model import (
    DATACLASS_FOR,
    Actor,
    Breach,
    Consent,
    Country,
    DataProcessing,
    DataSubject,
    DataTransfer,
    GenericNode,
    InstanceGraph,
    PersonalData,
    Purpose,
    SecurityMeasure,
    TransferBasis,
    validate_graph,
)
from gdpr_engine.rules import check_applicability, evaluate_all, evaluate_rule
from gdpr_engine.variability import Resolution, build_profile


def graph_of(*nodes) -> InstanceGraph:
    return InstanceGraph(list(nodes))


LU = Country(id="LU", cls="Country", code="LU", isEUMemberState=True,
             EULawApplies=True)
US = Country(id="US", cls="Country", code="US")


def test_empty_graph_is_structurally_valid():
    assert validate_graph(graph_of()) == []


def test_consent_without_purposes_breaches_its_invariant():
    subject = DataSubject(id="s", cls="Data_Subject", ageYears=30, residence="LU")
    consent = Consent(id="c", cls="Consent", givenBy="s", givenFor=())
    violations = validate_graph(graph_of(LU, subject, consent))
    assert len(violations) == 1
    violation = violations[0]
    assert violation.objectId == "c"
    assert violation.code == "INVARIANT"
    assert "purpose" in violation.message


def test_processing_with_missing_purpose_is_a_dangling_reference():
    processing = DataProcessing(id="p", cls="Data_Processing",
                                purposes=("ghost",), type="OTHER")
    violations = validate_graph(graph_of(processing))
    assert any(v.code == "DANGLING_REF" and "ghost" in v.message
               for v in violations)


def test_reference_to_wrong_class_is_reported():
    purpose = Purpose(id="purp", cls="Purpose", legalBasis="BY_CONSENT")
    processing = DataProcessing(id="p", cls="Data_Processing",
                                purposes=("purp",), consent="purp", type="OTHER")
    violations = validate_graph(graph_of(purpose, processing))
    assert any(v.code == "DANGLING_REF" and "consent" in v.message
               for v in violations)


_UNRESOLVED_GRAPHS = {
    "dangling": (
        [DataProcessing(id="p", cls="Data_Processing", purposes=("ghost",),
                        type="OTHER")],
        "p: reference 'purposes' to missing object 'ghost'"),
    "wrong class": (
        [Purpose(id="purp", cls="Purpose", legalBasis="BY_CONSENT"),
         DataProcessing(id="p", cls="Data_Processing", purposes=("purp",),
                        consent="purp", type="OTHER")],
        "p: reference 'consent' resolves to Purpose, expected one of ['Consent']"),
    "missing required ref": (
        [DataSubject(id="s", cls="Data_Subject", ageYears=1)],
        "s: required reference 'residence' holds no object id"),
}


@pytest.mark.parametrize("evaluate", [
    evaluate_all, partial(evaluate_rule, "C4"), check_applicability,
], ids=["evaluate_all", "evaluate_rule", "check_applicability"])
@pytest.mark.parametrize("case", list(_UNRESOLVED_GRAPHS))
def test_evaluation_refuses_a_graph_whose_references_do_not_resolve(case,
                                                                   evaluate):
    nodes, named = _UNRESOLVED_GRAPHS[case]
    with pytest.raises(ValueError, match=re.escape(named)):
        evaluate(graph_of(*nodes), build_profile([]))


def test_every_empty_required_single_ref_is_a_violation():
    """The loader rejects such an object; a hand-built graph records it."""
    breach = Breach(id="b", cls="Breach", detectedAt="2023-01-01T00:00:00Z")
    violations = validate_graph(graph_of(breach))
    assert [(v.code, v.objectId, v.message) for v in violations] == [
        ("DANGLING_REF", "b", "required reference 'detectedBy' holds no object id"),
        ("DANGLING_REF", "b", "required reference 'processing' holds no object id"),
    ]
    # Optional single refs may stay empty.
    assert graph_of(DataProcessing(id="p", cls="Data_Processing",
                                   type="OTHER")).ref_violations == ()


@pytest.mark.parametrize("node", [
    GenericNode(id="g", cls="Data_Processing"),
    Purpose(id="purp", cls="Consent"),
], ids=["generic node of a typed class", "typed node of another class"])
def test_graph_refuses_a_node_whose_python_class_does_not_match_its_class(node):
    with pytest.raises(ValueError, match="must be a"):
        InstanceGraph([node])


def test_validation_is_declaration_order_independent():
    nodes = [
        LU,
        US,
        DataSubject(id="s", cls="Data_Subject", ageYears=20, residence="LU"),
        PersonalData(id="pd", cls="Personal_Data", identifiesSubject=True),
        Consent(id="c", cls="Consent", givenBy="s", givenFor=()),
        Purpose(id="purp", cls="Purpose", legalBasis="LEGAL_OBLIGATION"),
    ]
    rng = random.Random(7)
    baseline = validate_graph(InstanceGraph(nodes))
    assert baseline  # several violations by construction
    for _ in range(25):
        shuffled = nodes[:]
        rng.shuffle(shuffled)
        assert validate_graph(InstanceGraph(shuffled)) == baseline


def test_country_and_actor_invariants():
    bad_country = Country(id="XX", cls="Country", code="XX",
                          isEUMemberState=True, EULawApplies=False)
    controller = Actor(id="a", cls="Data_Controller", kind="ENTERPRISE",
                       countries=())
    violations = validate_graph(graph_of(bad_country, controller))
    messages = " | ".join(v.message for v in violations)
    assert "EU law" in messages
    assert "at least one country" in messages


def test_child_age_limit_follows_the_profile_threshold():
    child = DataSubject(id="kid", cls="Child_Data_Subject", ageYears=15,
                        residence="AT")
    austria = Country(id="AT", cls="Country", code="AT", isEUMemberState=True,
                      EULawApplies=True)
    generic = build_profile([])
    assert validate_graph(graph_of(austria, child), generic) == []

    lowered = build_profile([Resolution("V1", {"thresholds": {"AT": 14}})])
    violations = validate_graph(graph_of(austria, child), lowered)
    assert any(v.objectId == "kid" and "age limit of 14" in v.message
               for v in violations)


def test_breach_timestamps_cannot_precede_detection():
    controller = Actor(id="a", cls="Data_Controller", kind="ENTERPRISE",
                       countries=("LU",))
    purpose = Purpose(id="purp", cls="Purpose", legalBasis="BY_CONSENT")
    processing = DataProcessing(id="p", cls="Data_Processing",
                                purposes=("purp",), type="OTHER")
    breach = Breach(id="b", cls="Breach", processing="p", detectedBy="a",
                    risk="LOW", detectedAt="2023-05-10T00:00:00Z",
                    saNotifiedAt="2023-05-09T00:00:00Z", recorded=True)
    violations = validate_graph(graph_of(LU, controller, purpose, processing,
                                         breach))
    assert any(v.objectId == "b" and "precedes detection" in v.message
               for v in violations)


def test_transfer_basis_allows_exactly_one_variant():
    transfer = DataTransfer(
        id="t", cls="Data_Transfer", fromCountry="LU", toCountry="US",
        basis=TransferBasis(kind="IntraEU", approved=True))
    violations = validate_graph(graph_of(LU, US, transfer))
    assert any(v.objectId == "t" and "does not belong" in v.message
               for v in violations)


def basis_transfer(**basis) -> DataTransfer:
    return DataTransfer(id="x", cls="Data_Transfer", fromCountry="LU",
                        toCountry="US", basis=TransferBasis(**basis))


EARLY, LATE = "2023-05-09T00:00:00Z", "2023-05-10T00:00:00Z"
LOWERED = [Resolution("V1", {"thresholds": {"LU": 14}})]

# (case, node "x", resolutions of the profile or None, exact violations):
# one row per INVARIANT or BAD_LITERAL branch of the class invariants, and
# rows for classes and subclasses that have none.
INVARIANT_TABLE = [
    ("eu member outside eu law",
     Country(id="x", cls="Country", code="DE", isEUMemberState=True), None,
     [("INVARIANT", "an EU member state is subject to EU law")]),
    ("country code", Country(id="x", cls="Country", code="lux"), None,
     [("INVARIANT", "country code 'lux' is not a two-letter ISO code")]),
    ("controller without country",
     Actor(id="x", cls="Data_Controller", kind="ENTERPRISE"), None,
     [("INVARIANT", "Data_Controller must name at least one country")]),
    ("processor without country",
     Actor(id="x", cls="Data_Processor", kind="ENTERPRISE"), None,
     [("INVARIANT", "Data_Processor must name at least one country")]),
    ("recipient without country",
     Actor(id="x", cls="Recipient", kind="ENTERPRISE"), None, []),
    ("child at the default limit",
     DataSubject(id="x", cls="Child_Data_Subject", ageYears=16, residence="LU"),
     None, [("INVARIANT", "child subject aged 16 meets the consent age limit of 16")]),
    ("child below the default limit",
     DataSubject(id="x", cls="Child_Data_Subject", ageYears=15, residence="LU"),
     [], []),
    ("child at a profile limit",
     DataSubject(id="x", cls="Child_Data_Subject", ageYears=15, residence="LU"),
     LOWERED, [("INVARIANT", "child subject aged 15 meets the consent age limit of 14")]),
    ("adult subject past the limit",
     DataSubject(id="x", cls="Data_Subject", ageYears=15, residence="LU"),
     LOWERED, []),
    ("identifying data without subjects",
     PersonalData(id="x", cls="Personal_Data", identifiesSubject=True), None,
     [("INVARIANT", "identifying data must reference its subjects")]),
    ("legal obligation without source",
     Purpose(id="x", cls="Purpose", legalBasis="LEGAL_OBLIGATION"), None,
     [("INVARIANT", "a legal-obligation basis requires the obligation source")]),
    ("consent without purpose", Consent(id="x", cls="Consent", givenBy="s"), None,
     [("INVARIANT", "consent must cover at least one purpose")]),
    ("processing without purpose",
     DataProcessing(id="x", cls="Data_Processing", type="OTHER"), None,
     [("INVARIANT", "processing must declare at least one purpose")]),
    ("response before request",
     model.RightRequest(id="x", cls="Right_Request", receivedAt=LATE,
                        respondedAt=EARLY), None,
     [("INVARIANT", "response precedes the request")]),
    ("unknown denial reason",
     model.RightRequest(id="x", cls="Right_Request", receivedAt=EARLY,
                        respondedAt=LATE, denialReason="BORED"), None,
     [("BAD_LITERAL", "denialReason: 'BORED' is not a known denial or "
                      "restriction reason")]),
    ("breach steps before detection",
     Breach(id="x", cls="Breach", processing="p", detectedBy="a", detectedAt=LATE,
            saNotifiedAt=EARLY, subjectsCommunicatedAt=EARLY,
            controllersInformedAt=EARLY), None,
     [("INVARIANT", "controllersInformedAt precedes detection"),
      ("INVARIANT", "saNotifiedAt precedes detection"),
      ("INVARIANT", "subjectsCommunicatedAt precedes detection")]),
    ("basis kind", basis_transfer(kind="Bogus"), None,
     [("BAD_LITERAL", "basis kind 'Bogus' is not a transfer basis")]),
    ("basis field of another kind",
     basis_transfer(kind="IntraEU", approved=True, details="why"), None,
     [("INVARIANT", "basis field 'approved' does not belong to a IntraEU basis"),
      ("INVARIANT", "basis field 'details' does not belong to a IntraEU basis")]),
    ("derogation not named", basis_transfer(kind="Derogation"), None,
     [("INVARIANT", "a derogation basis must name its derogation")]),
    ("unknown derogation", basis_transfer(kind="Derogation", derogation="WHIM"),
     None, [("BAD_LITERAL", "derogation 'WHIM' is not a transfer derogation")]),
    ("unknown contract information",
     basis_transfer(kind="BCR", information=("NOPE",)), None,
     [("BAD_LITERAL", "basis information 'NOPE' is not a transfer contract "
                      "information item")]),
    ("negative turnover",
     model.TurnoverContext(id="x", cls="Turnover_Context",
                           worldwideAnnualTurnoverEUR=-1), None,
     [("INVARIANT", "turnover must be non-negative")]),
    ("right support", model.RightSupport(id="x", cls="Right_Support",
                                         right="RIGHT_TO_ACCESS"), None, []),
    ("security measure", SecurityMeasure(id="x", cls="Technical",
                                         kind="ACCESS_CONTROL"), None, []),
]


@pytest.mark.parametrize("case, node, resolutions, expected", INVARIANT_TABLE,
                         ids=[row[0] for row in INVARIANT_TABLE])
def test_each_class_invariant_gives_its_exact_violations(case, node, resolutions,
                                                         expected):
    """The node "x" among valid neighbours gives exactly ``expected``."""
    neighbours = [
        LU, US,
        Actor(id="a", cls="Data_Controller", kind="ENTERPRISE", countries=("LU",)),
        Purpose(id="purp", cls="Purpose", legalBasis="BY_CONSENT"),
        DataProcessing(id="p", cls="Data_Processing", purposes=("purp",), type="OTHER"),
        DataSubject(id="s", cls="Data_Subject", ageYears=30, residence="LU"),
    ]
    profile = None if resolutions is None else build_profile(resolutions)
    assert validate_graph(graph_of(*neighbours), profile) == []
    got = validate_graph(graph_of(*neighbours, node), profile)
    assert [(v.code, v.objectId, v.message) for v in got] == \
        [(code, "x", message) for code, message in expected]


def test_of_class_expands_model_subclasses():
    child = DataSubject(id="kid", cls="Child_Data_Subject", ageYears=9,
                        residence="LU")
    adult = DataSubject(id="ad", cls="Data_Subject", ageYears=40,
                        residence="LU")
    graph = graph_of(LU, child, adult)
    assert [n.id for n in graph.of_class("Data_Subject")] == ["ad", "kid"]
    assert [n.id for n in graph.of_class("Child_Data_Subject")] == ["kid"]


def test_of_class_expansions_are_id_sorted_across_subclasses():
    nodes = [
        DataSubject(id="s3", cls="Child_Data_Subject", ageYears=9, residence="LU"),
        DataSubject(id="s1", cls="Data_Subject", ageYears=40, residence="LU"),
        DataSubject(id="s2", cls="Child_Data_Subject", ageYears=8, residence="LU"),
        Actor(id="a4", cls="Representative", countries=("LU",)),
        Actor(id="a1", cls="Data_Processor", countries=("LU",)),
        Actor(id="a3", cls="Data_Controller", countries=("LU",)),
        Actor(id="a2", cls="Recipient"),
        SecurityMeasure(id="m2", cls="Technical", kind="ENCRYPTION"),
        SecurityMeasure(id="m3", cls="Organizational", kind="AUDIT"),
        SecurityMeasure(id="m1", cls="Organizational", kind="AUDIT"),
    ]
    graph = InstanceGraph(list(reversed(nodes)))
    for expansion, prefix in (("Data_Subject", "s"), ("Actor", "a"),
                              ("Security_Measure", "m")):
        expected = sorted(n.id for n in nodes if n.id.startswith(prefix))
        assert [n.id for n in graph.of_class(expansion)] == expected
    assert [n.id for n in graph.of_class("Organizational")] == ["m1", "m3"]
    assert [n.id for n in graph.of_class("Child_Data_Subject")] == ["s2", "s3"]
    assert graph.of_class("Breach") == ()


def test_referrers_returns_id_sorted_nodes_of_the_class_and_role():
    nodes = [
        LU,
        GenericNode(id="n2", cls="Notification",
                    refs={"processing": ("p", "p")}),
        GenericNode(id="n1", cls="Notification",
                    refs={"processing": ("p",), "recipients": ("r",)}),
        GenericNode(id="d1", cls="Demonstration", refs={"processing": ("p",)}),
        Actor(id="dpo2", cls="Data_Protection_Officer", designatedBy=("c",)),
        Actor(id="dpo1", cls="Data_Protection_Officer",
              designatedBy=("c", "c", "q")),
        Actor(id="rep", cls="Representative", countries=("LU",),
              represents=("c",)),
    ]
    graph = graph_of(*nodes)

    def ids(found):
        return [n.id for n in found]

    assert ids(graph.referrers("p", "Notification", "processing")) == ["n1", "n2"]
    assert ids(graph.referrers("p", "Demonstration", "processing")) == ["d1"]
    assert ids(graph.referrers("r", "Notification", "recipients")) == ["n1"]
    assert ids(graph.referrers("c", "Data_Protection_Officer",
                               "designatedBy")) == ["dpo1", "dpo2"]
    assert ids(graph.referrers("q", "Data_Protection_Officer",
                               "designatedBy")) == ["dpo1"]
    assert ids(graph.referrers("c", "Representative", "represents")) == ["rep"]
    # Wrong role, wrong class, unknown target: nothing.
    assert graph.referrers("r", "Notification", "processing") == ()
    assert graph.referrers("p", "Judgment", "processing") == ()
    assert graph.referrers("ghost", "Notification", "processing") == ()
    assert graph.referrers("c", "Actor", "represents") == ()


def test_latest_timestamp_scan():
    controller = Actor(id="a", cls="Data_Controller", kind="ENTERPRISE",
                       countries=("LU",))
    purpose = Purpose(id="purp", cls="Purpose", legalBasis="BY_CONSENT")
    processing = DataProcessing(id="p", cls="Data_Processing",
                                purposes=("purp",), type="OTHER")
    breach = Breach(id="b", cls="Breach", processing="p", detectedBy="a",
                    risk="LOW", detectedAt="2023-05-10T00:00:00Z", recorded=True)
    graph = graph_of(LU, controller, purpose, processing, breach)
    from gdpr_engine.timebase import parse_minutes
    assert graph.latest_minutes() == parse_minutes("2023-05-10T00:00:00Z")
    assert graph_of(LU).latest_minutes() == 0


def test_each_distinct_timestamp_is_parsed_once(monkeypatch):
    """The graph parses each distinct timestamp when it is built, the
    consultation's included; the invariants, ``latest_minutes`` and the
    rules then read the stored minutes."""
    graph = ingest.load_instance(document_bytes(compliant_document()))
    dpia = graph["dpia1"]
    assert graph.minutes(dpia.consultation.requestedAt) == \
        timebase.parse_minutes(dpia.consultation.requestedAt)
    assert graph.minutes(None) is None
    assert graph.minutes("2023-01-01T00:00:00Z" + " not in the graph") is None

    parsed = []

    def counted(raw):
        parsed.append(raw)
        return timebase.parse_minutes(raw)

    monkeypatch.setattr(model, "parse_minutes", counted)
    rebuilt = InstanceGraph(list(graph))
    assert sorted(parsed) == sorted(set(parsed))
    assert dpia.consultation.requestedAt in parsed
    latest = rebuilt.latest_minutes()
    assert latest == max(map(timebase.parse_minutes, parsed))

    def refuse(raw):
        raise AssertionError(f"{raw!r} parsed again")

    monkeypatch.setattr(model, "parse_minutes", refuse)
    monkeypatch.setattr(rules.timebase, "parse_minutes", refuse)
    assert validate_graph(rebuilt) == []
    assert rebuilt.latest_minutes() == latest
    evaluate_all(rebuilt, build_profile([]))


def test_graph_takes_handed_minutes_only_for_timestamps_it_holds(monkeypatch):
    """Minutes handed over in ``parsed`` are used for the strings the nodes
    hold; a string no node holds is ignored, and the rest are parsed."""
    held, later = "2023-05-10T00:00:00Z", "2023-05-11T00:00:00Z"
    stale = "2031-01-01T00:00:00Z"
    breach = Breach(id="b", cls="Breach", processing="p", detectedBy="a",
                    risk="LOW", detectedAt=held, saNotifiedAt=later)
    parsed = {held: timebase.parse_minutes(held), stale: timebase.parse_minutes(stale)}
    calls = []

    def counted(raw):
        calls.append(raw)
        return timebase.parse_minutes(raw)

    monkeypatch.setattr(model, "parse_minutes", counted)
    graph = InstanceGraph([LU, breach], parsed=parsed)
    assert calls == [later]
    assert graph.minutes(held) == parsed[held]
    assert graph.minutes(stale) is None
    assert graph.latest_minutes() == timebase.parse_minutes(later)


def test_unparsable_timestamps_of_a_hand_built_graph_read_as_none():
    breach = Breach(id="b", cls="Breach", processing="p", detectedBy="a",
                    risk="LOW", detectedAt="yesterday",
                    saNotifiedAt="2023-05-10T00:00:00Z")
    graph = graph_of(LU, breach)
    assert graph.minutes("yesterday") is None
    assert graph.latest_minutes() == graph.minutes("2023-05-10T00:00:00Z") > 0
    assert [v.message for v in validate_graph(graph) if v.code == "INVARIANT"] == []


def test_duplicate_ids_rejected_by_the_container():
    with pytest.raises(ValueError):
        graph_of(LU, Country(id="LU", cls="Country", code="LU"))


# ---------------------------------------------------------------------------
# Node classes: field names and defaults, slots, hash-seed independence
# ---------------------------------------------------------------------------

_ACTORS = ("Certification_Body", "Data_Controller", "Data_Processor",
           "Data_Protection_Officer", "Joint_Controllers", "Recipient",
           "Representative", "Supervisory_Authority", "Third_Party",
           "Undertaking")

# Every field but id and cls of a node built with only id and cls, by name,
# per group of wire classes sharing a node class.
NODE_SCHEMA = {
    ("Breach",): [
        ("controllersInformedAt", None), ("delayJustification", None),
        ("detectedAt", ""), ("detectedBy", ""), ("processing", ""),
        ("recorded", False), ("risk", "LOW"), ("saNotifiedAt", None),
        ("subjectsCommunicatedAt", None)],
    ("Certification",): [
        ("bodyAccredited", False), ("holder", ""), ("issuedAt", ""),
        ("issuedBy", ""), ("processTransparent", False), ("voluntary", False)],
    _ACTORS: [
        ("arrangementAvailableToSubjects", False),
        ("arrangementTransparent", False), ("contactDetails", ""),
        ("cooperatesWithSA", True), ("countries", ()), ("designatedBy", ()),
        ("instructions", ()), ("kind", "LEGAL_PERSON"), ("represents", ())],
    ("Child_Data_Subject", "Data_Subject"): [("ageYears", 0), ("residence", "")],
    ("Consent",): [
        ("affirmativeAction", False), ("distinguishable", False),
        ("explicit", False), ("freelyGiven", False), ("givenBy", ""),
        ("givenFor", ()), ("informed", False), ("specific", False),
        ("unambiguous", False), ("withdrawable", False), ("withdrawnAt", None)],
    ("Country",): [("EULawApplies", False), ("code", ""), ("isEUMemberState", False)],
    ("Data_Processing",): [
        ("automatedDecisionMaking", False), ("consent", None),
        ("controllers", ()), ("dpia", None), ("informationExemption", None),
        ("informationProvided", ()), ("largeScale", False), ("operations", ()),
        ("personalData", ()), ("processors", ()), ("purposes", ()),
        ("recipients", ()), ("records", ()), ("rightsExempt", False),
        ("securityMeasures", ()), ("specialCategoriesException", None),
        ("supportedRights", ()), ("systematicMonitoring", False),
        ("transfers", ()), ("type", "OTHER")],
    ("Data_Protection_Impact_Assessment",): [
        ("consultation", None), ("information", ()), ("motivations", ()),
        ("residualRisk", "LOW")],
    ("Data_Transfer",): [
        ("basis", TransferBasis("IntraEU")), ("fromCountry", ""),
        ("onward", False), ("toCountry", "")],
    ("Document",): [("kind", ""), ("valid", False)],
    ("Infringement",): [
        ("by", None), ("imposedFineEUR", None), ("kind", "OTHER"),
        ("turnover", None)],
    ("Organizational", "Technical"): [
        ("description", ""), ("kind", ""), ("lastReviewedAt", None)],
    ("Personal_Data",): [
        ("categories", ()), ("collectedDirectlyFromSubject", True),
        ("identifiesSubject", False), ("source", ""), ("subjects", ())],
    ("Purpose",): [
        ("description", ""), ("legalBasis", "NONE"), ("obligationSource", None)],
    ("Record_Activity",): [("electronicForm", True), ("holder", ""), ("items", ())],
    ("Responsible_Parent",): [("documents", ()), ("responsibleFor", ())],
    ("Right_Request",): [
        ("denialReason", None), ("extensionNotified", False), ("free", True),
        ("granted", False), ("identityVerified", False), ("receivedAt", ""),
        ("respondedAt", None)],
    ("Right_Support",): [("enabled", False), ("requests", ()), ("right", "")],
    ("Turnover_Context",): [("worldwideAnnualTurnoverEUR", 0)],
}


def test_every_typed_class_keeps_its_field_names_and_defaults():
    assert sorted(w for group in NODE_SCHEMA for w in group) == sorted(DATACLASS_FOR)
    for group, expected in NODE_SCHEMA.items():
        for wire in group:
            node = DATACLASS_FOR[wire](id="x", cls=wire)
            got = sorted((f.name, getattr(node, f.name)) for f in fields(node))
            assert got == sorted(expected + [("cls", wire), ("id", "x")]), wire


def test_nodes_are_slotted_frozen_and_pickle():
    nodes = [cls(id="x", cls=wire) for wire, cls in DATACLASS_FOR.items()]
    nodes.append(GenericNode(id="g", cls="Notification", attrs={"a": 1},
                             refs={"processing": ("p",)}))
    for node in nodes:
        assert not hasattr(node, "__dict__"), node.cls
        with pytest.raises(FrozenInstanceError):
            node.id = "y"
        with pytest.raises(FrozenInstanceError):
            node.undeclared = 1
        with pytest.raises(FrozenInstanceError):
            del node.id
        assert not hasattr(node, "undeclared")
        assert pickle.loads(pickle.dumps(node)) == node


def test_node_field_order_does_not_follow_the_hash_seed():
    source_root = os.path.dirname(os.path.dirname(gdpr_engine.__file__))
    script = ("from dataclasses import fields\n"
              "from gdpr_engine.model import Actor\n"
              "print([f.name for f in fields(Actor)])")
    orders = [
        subprocess.run([sys.executable, "-c", script], capture_output=True,
                       text=True, check=True,
                       env={"PATH": "/usr/bin:/bin", "PYTHONPATH": source_root,
                            "PYTHONHASHSEED": seed}).stdout
        for seed in ("0", "1")
    ]
    assert orders[0] == orders[1]
    assert "kind" in orders[0]
