"""Tailoring: profiles, resolutions, audit trail, consistency checks."""

from __future__ import annotations

import dataclasses
import json
import pickle
from pathlib import Path
from types import MappingProxyType

import pytest

from fixtures import compliant_document, document_bytes, find, obj
from gdpr_engine import cli, enums, evaluate_all, evaluate_rule, load_instance, rules
from gdpr_engine.ingest import SCHEMA, LoadError, load_profile
from gdpr_engine.rules import DEFAULT_HOOKS, FAIL, NOT_APPLICABLE, PASS, VARIATION_RULE_SPECS
from gdpr_engine.variability import (
    ADAPT,
    ADD,
    DuplicateResolutionError,
    ENUM,
    HOOK,
    ProfileConsistencyError,
    ProfileFinalizedError,
    REPLACE,
    Resolution,
    ResolutionParameterError,
    SpecializationProfile,
    UnknownVariationError,
    VARIATION_POINTS,
    VariationPoint,
    apply_resolution,
    build_profile,
    default_profile,
    finalize_profile,
    resolution_table,
)


def test_default_profile_has_35_rules_and_default_hooks():
    profile = default_profile()
    assert len(profile.active_rule_ids()) == 35
    assert profile.active_rule_ids()[0] == "C1"
    assert profile.hook_params("V_getMinimumAgeForDS") is None
    assert resolution_table(profile) == []


def test_default_profiles_share_a_fingerprint():
    assert default_profile().fingerprint() == default_profile().fingerprint()


def test_default_minimum_age_is_16():
    from gdpr_engine.model import DataSubject, InstanceGraph

    profile = default_profile()
    subject = DataSubject(id="s", cls="Data_Subject", ageYears=10, residence="")
    assert profile.minimum_age(InstanceGraph([subject]), subject, None) == 16


def test_twenty_variation_points_registered():
    assert sorted(VARIATION_POINTS) == [f"V{i}" for i in range(1, 21)] \
        or len(VARIATION_POINTS) == 20
    assert set(VARIATION_POINTS) == {f"V{i}" for i in range(1, 21)}


def test_v12_replacement_yields_36_rules():
    profile = build_profile([Resolution("V12", {})])
    ids = profile.active_rule_ids()
    assert len(ids) == 36
    assert "C35" not in ids
    assert "V12_1" in ids and "V12_2" in ids


def test_v16_extends_the_enum_without_touching_rules():
    profile = build_profile([Resolution("V16", {})])
    assert profile.enumExtensions["DPIA_Information_Type"] \
        == frozenset({"EMPLOYMENT_ASSESSMENT"})
    assert len(profile.active_rule_ids()) == 35


def test_rule_count_ledger():
    cases = [
        ([], 35),
        ([Resolution("V12", {})], 36),                        # 35 - 1 + 2
        ([Resolution("V11", {}),
          Resolution("V4", {"requiredTechnicalMeasures": ["ENCRYPTION"]})], 37),
        ([Resolution("V12", {}),
          Resolution("V13", {"penalties": [
              {"infringementKind": "OBLIGATION_VIOLATION",
               "penaltyEUR": 50_000}]})], 37),
    ]
    for resolutions, expected in cases:
        assert len(build_profile(resolutions).active_rule_ids()) == expected


def test_unknown_variation_rejected():
    with pytest.raises(UnknownVariationError):
        build_profile([Resolution("V99", {})])


def test_duplicate_resolution_rejected():
    with pytest.raises(DuplicateResolutionError):
        build_profile([Resolution("V16", {}), Resolution("V16", {})])


def test_threshold_below_13_rejected_at_finalize():
    profile = default_profile()
    apply_resolution(profile, Resolution("V1", {"thresholds": {"AT": 12}}))
    with pytest.raises(ProfileConsistencyError, match="below 13"):
        finalize_profile(profile)


def test_threshold_above_16_rejected_at_finalize():
    with pytest.raises(ProfileConsistencyError, match="above"):
        build_profile([Resolution("V1", {"thresholds": {"AT": 17}})])


def test_boundary_threshold_13_is_accepted():
    profile = build_profile([Resolution("V1", {"thresholds": {"AT": 13}})])
    assert profile.finalized


def test_v6_v7_conflict_detected_at_finalize():
    profile = default_profile()
    apply_resolution(profile, Resolution(
        "V6", {"allowedWithoutInstructions": True}))
    apply_resolution(profile, Resolution(
        "V7", {"allowedWithoutInstructions": False}))
    with pytest.raises(ProfileConsistencyError, match="V6 and V7"):
        finalize_profile(profile)


def test_finalized_profile_rejects_further_mutation():
    profile = build_profile([])
    with pytest.raises(ProfileFinalizedError):
        apply_resolution(profile, Resolution("V16", {}))


_TAILORED = [
    Resolution("V1", {"thresholds": {"AT": 14}, "default": 16}),
    Resolution("V5", {"adaptations": {"C9": {"removedRights": ["RIGHT_TO_OBJECT"]}}}),
    Resolution("V10", {"limits": [{"categories": ["HEALTH"], "toCountries": ["US"]}]}),
    Resolution("V16", {}),
]


def test_finalized_profile_params_are_deep_frozen():
    profile = build_profile(_TAILORED)
    v1 = profile.hook_params("V_getMinimumAgeForDS")
    assert v1 is profile.resolution_params("V1")
    with pytest.raises(TypeError):
        v1["default"] = 13
    with pytest.raises(TypeError):
        v1["thresholds"]["AT"] = 13
    limits = profile.resolution_params("V10")["limits"]
    with pytest.raises(TypeError):
        limits[0]["toCountries"] = ("CN",)
    with pytest.raises(AttributeError):
        limits[0]["categories"].append("GENETIC")
    with pytest.raises(TypeError):
        profile.resolutions[0].parameters["default"] = 13
    with pytest.raises(TypeError):
        profile.adaptations["C2"] = profile.adaptations["C9"]
    with pytest.raises(TypeError):
        profile.enumExtensions["Actor_Type"] = frozenset({"X"})
    with pytest.raises(AttributeError):
        profile.finalized = False
    assert v1["thresholds"]["AT"] == 14
    # The frozen params still re-apply, and the profile still pickles.
    assert build_profile(profile.resolutions).fingerprint() == profile.fingerprint()
    for original in (profile, default_profile().apply(_TAILORED[0])):
        copy = pickle.loads(pickle.dumps(original))
        assert (copy.finalized, copy.fingerprint(), copy.resolution_table()) \
            == (original.finalized, original.fingerprint(),
                original.resolution_table())


def test_a_check_computes_the_profile_fingerprint_once(monkeypatch):
    calls = []
    fingerprint = SpecializationProfile.fingerprint

    def counted(self):
        calls.append(self)
        return fingerprint(self)

    monkeypatch.setattr(SpecializationProfile, "fingerprint", counted)
    profile = build_profile(_TAILORED)
    graph = load_instance(document_bytes(compliant_document()), profile)
    assert calls == []
    report = evaluate_all(graph, profile)
    assert calls == [profile]
    assert report.profileFingerprint == fingerprint(profile)


@pytest.mark.parametrize("variation, params, message", [
    ("V2", {}, "acceptedDocumentKinds"),
    ("V9", {"actorKinds": []}, "nonempty"),
    ("V13", {"penalties": [{"infringementKind": "NOPE", "penaltyEUR": 1}]},
     "infringement kind"),
    ("V17", {"derogatedRights": ["NOTIFICATION"]}, "not allowed"),
    ("V1", {"thresholds": {"AUT": 14}}, "two-letter"),
    ("V16", {"bogus": 1}, "unknown parameters"),
    ("V5", {"adaptations": {"C35": {}}}, "cannot be adapted"),
])
def test_parameter_schema_violations(variation, params, message):
    with pytest.raises(ResolutionParameterError, match=message):
        build_profile([Resolution(variation, params)])


FULL_PROFILE = Path(__file__).resolve().parents[1] / "checkbench" / "profiles" / "full.json"


def test_a_full_profile_check_checks_each_resolution_once_and_sorts_by_lookup(
        monkeypatch, tmp_path, capsys):
    resolved = []
    resolve = VariationPoint.resolve

    def counted_resolve(vp, params):
        resolved.append(vp.id)
        return resolve(vp, params)

    monkeypatch.setattr(VariationPoint, "resolve", counted_resolve)
    instance = tmp_path / "instance.json"
    instance.write_bytes(document_bytes(compliant_document()))
    argv = ["check", "--profile", str(FULL_PROFILE), "--instance", str(instance),
            "--format", "machine"]
    assert cli.main(argv) in (0, 1)
    assert json.loads(capsys.readouterr().out)["verdicts"]
    assert sorted(resolved) == sorted(f"V{i}" for i in range(1, 21))


def test_only_resolutions_the_table_made_skip_the_check():
    loaded = load_profile(b'{"resolutions": [{"variation": "V2", "params": '
                          b'{"acceptedDocumentKinds": ["PASSPORT"]}}]}')
    assert loaded == [Resolution("V2", {"acceptedDocumentKinds": ("PASSPORT",)})]
    assert build_profile(loaded).resolutions == tuple(loaded)
    emptied = dataclasses.replace(loaded[0], parameters=MappingProxyType(
        {"acceptedDocumentKinds": ()}))
    for resolution in (emptied, Resolution("V2", emptied.parameters)):
        with pytest.raises(ResolutionParameterError, match="must be nonempty"):
            build_profile([resolution])


def test_an_unhashable_infringement_kind_is_a_schema_error():
    document = {"resolutions": [{"variation": "V13", "params": {"penalties": [
        {"infringementKind": ["PRINCIPLE_VIOLATION"], "penaltyEUR": 1}]}}]}
    with pytest.raises(LoadError) as excinfo:
        load_profile(json.dumps(document).encode())
    assert excinfo.value.code == SCHEMA
    assert str(excinfo.value) == \
        "SCHEMA: V13: ['PRINCIPLE_VIOLATION'] is not an infringement kind"


def test_declared_effects_are_consistent():
    for vp in VARIATION_POINTS.values():
        for enum_name, _literal in vp.enumExtensions:
            assert enum_name in enums.EXTENSIBLE_ENUMERATIONS, vp.id
        # A rule a point adds needs only built-in hooks and the point's own,
        # so a profile holding the rule has every hook it reads.
        for rule_id in vp.addsRules:
            needed = VARIATION_RULE_SPECS[rule_id].hooksUsed
            assert needed <= {*DEFAULT_HOOKS, *vp.parameterHooks}, (vp.id, rule_id)
    # A replaced rule is a generic one that only one point replaces, so it is
    # still active when that point applies; an adapted rule is generic and
    # never replaced, so it is still active when the profile is finalized.
    replaced = [rule_id for vp in VARIATION_POINTS.values() for rule_id in vp.replacesRules]
    assert len(replaced) == len(set(replaced))
    assert set(replaced) <= rules.RULE_CATALOG.keys()
    for vp in VARIATION_POINTS.values():
        assert set(vp.adaptsRules) <= rules.RULE_CATALOG.keys() - set(replaced), vp.id


def test_resolution_table_mirrors_the_applied_actions():
    profile = build_profile([
        Resolution("V3", {"canBeLifted": False}),
        Resolution("V4", {"requiredTechnicalMeasures": ["ENCRYPTION"]}),
    ])
    entries = resolution_table(profile)
    assert len(entries) >= 4
    text = " | ".join(f"{e.variationId} {e.artifact} {e.action}" for e in entries)
    assert "updated version of constraint C6" in text
    assert "new constraint V4" in text
    assert {e.artifact for e in entries} == {"model", "constraints", "glossary"}
    # entries survive a serialization round trip unchanged
    payload = profile.resolution_table_payload()
    assert json.loads(json.dumps(payload)) == payload


def test_resolution_kinds_follow_the_catalog():
    expected = {
        "V1": {HOOK, ADD}, "V2": {HOOK, ADD}, "V3": {HOOK}, "V4": {ADD},
        "V5": {ADAPT}, "V6": {HOOK}, "V7": {HOOK, ADD}, "V8": {ADD, ENUM},
        "V9": {HOOK}, "V10": {ADD}, "V11": {ADD}, "V12": {REPLACE},
        "V13": {ADD}, "V14": {ADD}, "V15": {ADD, ENUM}, "V16": {ENUM},
        "V17": {ADD}, "V18": {ADD}, "V19": {ADD}, "V20": {ADD, ENUM},
    }
    for variation_id, kinds in expected.items():
        assert VARIATION_POINTS[variation_id].kinds == frozenset(kinds), variation_id


def test_commutativity_of_disjoint_resolutions():
    pairs = [
        (Resolution("V16", {}), Resolution("V20", {})),
        (Resolution("V3", {"canBeLifted": False}),
         Resolution("V13", {"penalties": [
             {"infringementKind": "PRINCIPLE_VIOLATION", "penaltyEUR": 9}]})),
        (Resolution("V1", {"thresholds": {"AT": 14}}), Resolution("V11", {})),
    ]
    for first, second in pairs:
        forward = build_profile([first, second]).fingerprint()
        backward = build_profile([second, first]).fingerprint()
        assert forward == backward


def test_noop_specialization_equals_the_generic_profile(generic_profile):
    noop = build_profile([])
    graph = load_instance(document_bytes(compliant_document()), generic_profile)
    generic_report = evaluate_all(graph, generic_profile).to_payload()
    noop_report = evaluate_all(graph, noop).to_payload()
    assert generic_report == noop_report


def test_every_active_rule_hook_is_known_to_the_profile():
    profiles = [
        build_profile([]),
        build_profile([Resolution("V12", {})]),
        build_profile([
            Resolution("V4", {"requiredTechnicalMeasures": ["ENCRYPTION"]}),
            Resolution("V8", {}),
            Resolution("V10", {"limits": [{"categories": ["HEALTH"],
                                           "toCountries": ["US"]}]}),
            Resolution("V15", {}),
            Resolution("V17", {"derogatedRights": ["RIGHT_TO_ACCESS"]}),
        ]),
    ]
    for profile in profiles:
        known = set(profile.hooks)
        for spec in profile.rules():
            assert spec.hooksUsed <= known, (spec.id, spec.hooksUsed - known)


def test_v3_blocks_the_consent_route_for_special_data(generic_profile):
    document = compliant_document()
    find(document, "pd1")["attrs"]["categories"] = ["HEALTH"]
    find(document, "p1")["attrs"]["specialCategoriesException"] = \
        "CONSENT_PERMITTED_BY_EU"

    graph = load_instance(document_bytes(document), generic_profile)
    assert evaluate_rule("C6", graph, generic_profile).status == PASS

    blocking = build_profile([Resolution("V3", {"canBeLifted": False})])
    graph = load_instance(document_bytes(document), blocking)
    assert evaluate_rule("C6", graph, blocking).status == FAIL


def test_v5_adaptation_narrows_rule_scope():
    profile = build_profile([Resolution("V5", {"adaptations": {
        "C9": {"removedRights": ["RIGHT_TO_PORTABILITY"],
               "exemptProcessingTypes": ["RESEARCH"]}}})])
    document = compliant_document()
    # drop the portability support: the generic profile would fail C9
    find(document, "p1")["refs"]["supportedRights"].remove("rs_port")
    graph = load_instance(document_bytes(document), profile)
    assert evaluate_rule("C9", graph, profile).status == PASS

    generic = default_profile().finalize()
    graph = load_instance(document_bytes(document), generic)
    assert evaluate_rule("C9", graph, generic).status == FAIL


def test_v10_limits_block_matching_transfers():
    profile = build_profile([Resolution("V10", {"limits": [
        {"categories": ["HEALTH"], "toCountries": ["US"]}]})])
    document = compliant_document()
    find(document, "pd1")["attrs"]["categories"] = ["HEALTH"]
    find(document, "p1")["attrs"]["specialCategoriesException"] = \
        "CONSENT_PERMITTED_BY_EU"
    graph = load_instance(document_bytes(document), profile)
    verdict = evaluate_rule("V10", graph, profile)
    assert verdict.status == FAIL
    assert any(f.objectId == "tr_us" for f in verdict.findings)


def test_v14_requires_prior_authorization():
    profile = build_profile([Resolution("V14", {})])
    document = compliant_document()
    find(document, "p1")["attrs"]["type"] = "PUBLIC_INTEREST"
    graph = load_instance(document_bytes(document), profile)
    assert evaluate_rule("V14", graph, profile).status == FAIL

    document["objects"].append(obj(
        "auth1", "Authorization", {"granted": True}, {"processing": ["p1"]}))
    graph = load_instance(document_bytes(document), profile)
    assert evaluate_rule("V14", graph, profile).status == PASS


def test_v20_church_actors_need_aligned_rules():
    profile = build_profile([Resolution("V20", {})])
    document = compliant_document()
    find(document, "ctrl")["attrs"]["kind"] = "CHURCH_OR_RELIGIOUS_ORGANIZATION"
    graph = load_instance(document_bytes(document), profile)
    assert evaluate_rule("V20", graph, profile).status == FAIL

    document["objects"].append(obj(
        "coc1", "Code_Of_Conduct", {"alignedWithGDPR": True}, {"holder": ["ctrl"]}))
    graph = load_instance(document_bytes(document), profile)
    assert evaluate_rule("V20", graph, profile).status == PASS


def test_v8_requires_the_reconciliation_assessment():
    profile = build_profile([Resolution("V8", {})])
    document = compliant_document()
    graph = load_instance(document_bytes(document), profile)
    assert evaluate_rule("V8", graph, profile).status == FAIL

    find(document, "dpia1")["attrs"]["information"].append(
        "RECONCILIATION_ASSESSMENT")
    graph = load_instance(document_bytes(document), profile)
    assert evaluate_rule("V8", graph, profile).status == PASS


def test_v15_gates_the_identification_literal():
    document = compliant_document()
    find(document, "pd1")["attrs"]["categories"] = ["IDENTIFICATION"]
    profile = build_profile([Resolution("V15", {"requiredTechnicalMeasures":
                                                ["ENCRYPTION"]})])
    graph = load_instance(document_bytes(document), profile)
    assert evaluate_rule("V15", graph, profile).status == PASS

    forbidding = build_profile([Resolution("V15", {"allowed": False})])
    graph = load_instance(document_bytes(document), forbidding)
    assert evaluate_rule("V15", graph, forbidding).status == FAIL


def test_v12_public_body_fine_cap():
    document = compliant_document()
    find(document, "ctrl")["attrs"]["kind"] = "PUBLIC_ORGANIZATION"
    find(document, "inf1")["attrs"]["imposedFineEUR"] = 100_000

    capped = build_profile([Resolution("V12", {"publicBodyFineCapEUR": 50_000})])
    graph = load_instance(document_bytes(document), capped)
    assert evaluate_rule("V12_2", graph, capped).status == FAIL
    assert evaluate_rule("V12_1", graph, capped).status == NOT_APPLICABLE

    exempting = build_profile([Resolution("V12",
                                          {"finesApplyToPublicBodies": False})])
    graph = load_instance(document_bytes(document), exempting)
    assert evaluate_rule("V12_2", graph, exempting).status == FAIL
