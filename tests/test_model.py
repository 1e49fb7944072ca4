"""Structural model and graph-validation behavior."""

from __future__ import annotations

import random

import pytest

from gdpr_engine.model import (
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


def test_duplicate_ids_rejected_by_the_container():
    with pytest.raises(ValueError):
        graph_of(LU, Country(id="LU", cls="Country", code="LU"))
