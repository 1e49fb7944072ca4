"""Instance-document builders shared by the test modules.

The baseline document models one EU retailer whose processing satisfies
every rule of the generic profile; per-rule failing variants are derived
from it by small mutations. Everything is built as plain JSON payloads and
goes through the real ingestion path.
"""

from __future__ import annotations

import copy
import json
from typing import Callable

BCR_INFORMATION = [
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
]


def obj(object_id: str, cls: str, attrs: dict | None = None,
        refs: dict | None = None) -> dict:
    return {"id": object_id, "class": cls,
            "attrs": attrs or {}, "refs": refs or {}}


def country(object_id: str, code: str, eu: bool) -> dict:
    return obj(object_id, "Country",
               {"code": code, "isEUMemberState": eu, "EULawApplies": eu})


def measure(object_id: str, cls: str, kind: str) -> dict:
    return obj(object_id, cls, {
        "kind": kind,
        "description": kind.replace("_", " ").lower(),
        "lastReviewedAt": "2023-01-05T00:00:00Z",
    })


def right_support(object_id: str, right: str, requests: list[str] | None = None,
                  enabled: bool = True) -> dict:
    return obj(object_id, "Right_Support", {"right": right, "enabled": enabled},
               {"requests": requests or []})


def compliant_document() -> dict:
    """One retailer in Luxembourg; passes or is exempt from every rule."""
    objects = [
        country("LU", "LU", True),
        country("DE", "DE", True),
        country("CA", "CA", False),
        country("US", "US", False),

        obj("ctrl", "Data_Controller",
            {"kind": "ENTERPRISE", "contactDetails": "privacy desk, Esch"},
            {"countries": ["LU"]}),
        obj("proc", "Data_Processor",
            {"kind": "ENTERPRISE", "contactDetails": "ops desk",
             "instructions": ["process orders per the processing agreement"]},
            {"countries": ["LU"]}),
        obj("recip", "Recipient", {"kind": "LEGAL_PERSON"},
            {"countries": ["LU"]}),
        obj("certbody", "Certification_Body", {"kind": "LEGAL_PERSON"},
            {"countries": ["LU"]}),
        obj("dpo", "Data_Protection_Officer",
            {"kind": "NATURAL_PERSON", "contactDetails": "dpo@example.test"},
            {"countries": ["LU"], "designatedBy": ["ctrl", "proc"]}),

        obj("alice", "Data_Subject", {"ageYears": 34}, {"residence": "LU"}),
        obj("bobby", "Child_Data_Subject", {"ageYears": 9}, {"residence": "LU"}),
        obj("parent", "Responsible_Parent", {},
            {"documents": ["doc1"], "responsibleFor": ["bobby"]}),
        obj("doc1", "Document", {"kind": "PASSPORT", "valid": True}),

        obj("pd1", "Personal_Data",
            {"categories": ["OTHER_PERSONAL_DATA"], "identifiesSubject": True,
             "collectedDirectlyFromSubject": True, "source": "web shop"},
            {"subjects": ["alice", "bobby"]}),
        obj("purp1", "Purpose",
            {"description": "order fulfilment", "legalBasis": "BY_CONSENT"}),
        obj("cons1", "Consent",
            {"freelyGiven": True, "specific": True, "informed": True,
             "unambiguous": True, "affirmativeAction": True,
             "withdrawable": True, "distinguishable": True, "explicit": True},
            {"givenBy": "parent", "givenFor": ["purp1"]}),

        measure("t_pseudo", "Technical", "PSEUDONYMIZATION"),
        measure("t_enc", "Technical", "ENCRYPTION"),
        measure("t_backup", "Technical", "BACKUPS_RECOVERY"),
        measure("t_dataprot", "Technical", "DATA_PROTECTION"),
        measure("o_audit", "Organizational", "AUDIT"),
        measure("o_policy", "Organizational", "PROTECTION_POLICY"),

        right_support("rs_inform", "RIGHT_TO_BE_INFORMED"),
        right_support("rs_access", "RIGHT_TO_ACCESS", ["req_access"]),
        right_support("rs_rect", "RIGHT_TO_RECTIFICATION", ["req_rect"]),
        right_support("rs_erase", "RIGHT_TO_ERASURE", ["req_erase"]),
        right_support("rs_restrict", "RIGHT_TO_RESTRICTION"),
        right_support("rs_notif", "NOTIFICATION"),
        right_support("rs_info", "INFORMATION"),
        right_support("rs_port", "RIGHT_TO_PORTABILITY"),
        right_support("rs_object", "RIGHT_TO_OBJECT"),

        obj("req_access", "Right_Request",
            {"receivedAt": "2023-01-10T09:00:00Z",
             "respondedAt": "2023-01-20T09:00:00Z", "granted": True,
             "identityVerified": True, "free": True}),
        obj("req_rect", "Right_Request",
            {"receivedAt": "2023-01-12T09:00:00Z",
             "respondedAt": "2023-01-25T09:00:00Z", "granted": True,
             "identityVerified": True, "free": True}),
        obj("req_erase", "Right_Request",
            {"receivedAt": "2023-01-15T09:00:00Z",
             "respondedAt": "2023-02-01T09:00:00Z", "granted": False,
             "denialReason": "COMPLIANCE_LEGAL_OBLIGATION",
             "identityVerified": True, "free": True}),

        obj("rec_ctrl", "Record_Activity",
            {"items": ["NAME_AND_CONTACT_DETAILS", "PROCESSING_PURPOSES",
                       "DATA_SUBJECT_AND_DATA_CATEGORIES", "RECIPIENTS",
                       "THIRD_COUNTRY_TRANSFERS", "ERASURE_TIME_LIMITS",
                       "SECURITY_MEASURES_DESCRIPTION"],
             "electronicForm": True},
            {"holder": "ctrl"}),
        obj("rec_proc", "Record_Activity",
            {"items": ["NAME_AND_CONTACT_DETAILS", "PROCESSING_CATEGORIES",
                       "THIRD_COUNTRY_TRANSFERS", "SECURITY_MEASURES_DESCRIPTION"],
             "electronicForm": True},
            {"holder": "proc"}),

        obj("dpia1", "DPIA",
            {"motivations": ["INVOLVES_DATA_TRANSFER_OUTSIDE_EU"],
             "information": ["NECESSITY_ASSESSMENT", "PROPORTIONALITY_ASSESSMENT",
                             "FREEDOMS_ASSESSMENT", "MEASURES_DESCRIPTION",
                             "RISK_ASSESSMENT"],
             "residualRisk": "LOW",
             "consultation": {"requestedAt": "2023-02-01T00:00:00Z",
                              "adviceAt": "2023-03-01T00:00:00Z",
                              "extended": False}}),

        obj("tr_eu", "Data_Transfer", {"basis": {"kind": "IntraEU"}},
            {"from": "LU", "to": "DE"}),
        obj("tr_ca", "Data_Transfer",
            {"basis": {"kind": "AdequacyDecision",
                       "additionalRequirements": ["commercial organizations only"],
                       "evidence": ["importer is a commercial organization"]}},
            {"from": "LU", "to": "CA"}),
        obj("tr_us", "Data_Transfer",
            {"basis": {"kind": "BCR", "approved": True, "legallyBinding": True,
                       "information": BCR_INFORMATION}},
            {"from": "LU", "to": "US"}),

        obj("p1", "Data_Processing",
            {"type": "OFFERING_GOODS_OR_SERVICES",
             "operations": ["COLLECTING", "STORING"],
             "automatedDecisionMaking": False,
             "largeScale": False,
             "systematicMonitoring": False,
             "informationProvided": [
                 "CONTACT_DETAILS", "PURPOSE_AND_LAWFULNESS", "STORAGE_DURATION",
                 "DS_RIGHT", "RIGHT_TO_LODGE_COMPLAINT", "DPO_DETAILS",
                 "RECIPIENTS", "TRANSFER_THIRD_COUNTRIES", "CONSENT_WITHDRAWAL",
                 "RIGHT_TO_RECEIVE_COPY"]},
            {"personalData": ["pd1"], "purposes": ["purp1"], "consent": "cons1",
             "controllers": ["ctrl"], "processors": ["proc"],
             "recipients": ["recip"],
             "securityMeasures": ["t_pseudo", "t_enc", "t_backup", "t_dataprot",
                                  "o_audit", "o_policy"],
             "supportedRights": ["rs_inform", "rs_access", "rs_rect", "rs_erase",
                                 "rs_restrict", "rs_notif", "rs_info",
                                 "rs_port", "rs_object"],
             "records": ["rec_ctrl", "rec_proc"],
             "dpia": "dpia1",
             "transfers": ["tr_eu", "tr_ca", "tr_us"]}),

        obj("demo1", "Demonstration",
            {"note": "principle demonstration on file"}, {"processing": ["p1"]}),
        obj("note_rect", "Notification",
            {"about": "RECTIFICATION", "dsInformed": True},
            {"processing": ["p1"], "recipients": ["recip"]}),

        obj("breach1", "Breach",
            {"risk": "MEDIUM", "detectedAt": "2023-03-01T00:00:00Z",
             "recorded": True, "saNotifiedAt": "2023-03-02T00:00:00Z",
             "controllersInformedAt": "2023-03-01T02:00:00Z"},
            {"processing": "p1", "detectedBy": "proc"}),

        obj("cert1", "Certification",
            {"bodyAccredited": True, "issuedAt": "2023-01-01T00:00:00Z",
             "processTransparent": True, "voluntary": True},
            {"holder": "ctrl", "issuedBy": "certbody"}),

        obj("tc1", "Turnover_Context", {"worldwideAnnualTurnoverEUR": 50_000_000}),
        obj("inf1", "Infringement",
            {"kind": "OBLIGATION_VIOLATION", "imposedFineEUR": 5_000},
            {"by": "ctrl", "turnover": "tc1"}),
    ]
    return {"schemaVersion": "1", "objects": objects}


def document_bytes(document: dict) -> bytes:
    return json.dumps(document).encode("utf-8")


def find(document: dict, object_id: str) -> dict:
    for entry in document["objects"]:
        if entry["id"] == object_id:
            return entry
    raise KeyError(object_id)


def drop(document: dict, object_id: str) -> None:
    document["objects"] = [e for e in document["objects"] if e["id"] != object_id]


def prefixed(o: dict, prefix: str) -> dict:
    """Object ``o`` with ``prefix`` before its id and every id it references."""
    refs = {role: ([prefix + t for t in value] if isinstance(value, list)
                   else prefix + value)
            for role, value in o.get("refs", {}).items()}
    return {"id": prefix + o["id"], "class": o["class"],
            "attrs": o.get("attrs", {}), "refs": refs}


def variant(base: dict, mutate: Callable[[dict], None]) -> dict:
    doc = copy.deepcopy(base)
    mutate(doc)
    return doc


# ---------------------------------------------------------------------------
# Per-rule failing variants (each returns a full document)
# ---------------------------------------------------------------------------

def _set(document: dict, object_id: str, attr: str, value) -> None:
    find(document, object_id)["attrs"][attr] = value


def failing_variants() -> dict[str, dict]:
    """rule id -> document whose evaluation fails exactly that rule's check.

    C1 is the applicability gate and cannot fail; its entry is a document
    on which it reports NotApplicable with an explanation instead.
    """
    base = compliant_document()
    out: dict[str, dict] = {}

    def register(rule_id: str, mutate: Callable[[dict], None]) -> None:
        out[rule_id] = variant(base, mutate)

    # C1: gate, exercised through its NotApplicable branch.
    register("C1", lambda d: _set(d, "p1", "type", "PERSONAL_OR_HOUSEHOLD_ACTIVITY"))
    register("C2", lambda d: drop(d, "demo1"))

    def c3(d: dict) -> None:
        _set(d, "purp1", "legalBasis", "NONE")
    register("C3", c3)

    register("C4", lambda d: _set(d, "cons1", "informed", False))

    def c5(d: dict) -> None:
        # child consent signed by the child herself
        find(d, "cons1")["refs"]["givenBy"] = "bobby"
    register("C5", c5)

    register("C6", lambda d: _set(d, "pd1", "categories",
                                  ["HEALTH", "OTHER_PERSONAL_DATA"]))

    def c7(d: dict) -> None:
        _set(d, "pd1", "categories", ["JUDICIAL", "OTHER_PERSONAL_DATA"])
        _set(d, "pd1", "identifiesSubject", True)
        # consent-based enterprise processing; no official authority involved
    register("C7", c7)

    register("C8", lambda d: _set(d, "p1", "rightsExempt", True))

    def c9(d: dict) -> None:
        find(d, "rs_access")["attrs"]["enabled"] = False
    register("C9", c9)

    register("C10", lambda d: _set(d, "p1", "informationProvided",
                                   ["CONTACT_DETAILS"]))

    def c11(d: dict) -> None:
        _set(d, "pd1", "collectedDirectlyFromSubject", False)
        # direct-collection notice list now misses the indirect-only items
    register("C11", c11)

    def c12(d: dict) -> None:
        provided = find(d, "p1")["attrs"]["informationProvided"]
        provided.remove("RIGHT_TO_RECEIVE_COPY")
    register("C12", c12)

    def c13(d: dict) -> None:
        drop(d, "note_rect")
    register("C13", c13)

    def c14(d: dict) -> None:
        find(d, "req_erase")["attrs"]["denialReason"] = "OTHER"
    register("C14", c14)

    def c15(d: dict) -> None:
        find(d, "rs_restrict")["refs"]["requests"] = ["req_restrict"]
        d["objects"].append(obj(
            "req_restrict", "Right_Request",
            {"receivedAt": "2023-01-18T09:00:00Z",
             "respondedAt": "2023-01-30T09:00:00Z", "granted": False,
             "identityVerified": True, "free": True}))
    register("C15", c15)

    def c16(d: dict) -> None:
        find(d, "rs_port")["refs"]["requests"] = ["req_port"]
        d["objects"].append(obj(
            "req_port", "Right_Request",
            {"receivedAt": "2023-01-18T09:00:00Z",
             "respondedAt": "2023-01-28T09:00:00Z", "granted": False,
             "denialReason": "OTHER", "identityVerified": True, "free": True}))
    register("C16", c16)

    def c17(d: dict) -> None:
        find(d, "rs_object")["refs"]["requests"] = ["req_obj"]
        d["objects"].append(obj(
            "req_obj", "Right_Request",
            {"receivedAt": "2023-01-18T09:00:00Z",
             "respondedAt": "2023-01-28T09:00:00Z", "granted": False,
             "identityVerified": True, "free": True}))
    register("C17", c17)

    def c18(d: dict) -> None:
        _set(d, "p1", "automatedDecisionMaking", True)
        _set(d, "cons1", "explicit", False)
        # consent basis only; the opt-out right is not among the supports
        d["objects"] = [e for e in d["objects"] if e["id"] != "rs_object"]
        find(d, "p1")["refs"]["supportedRights"].remove("rs_object")
        find(d, "p1")["attrs"]["informationProvided"].append("AUTOMATED_DECISION")
    register("C18", c18)

    def c19(d: dict) -> None:
        find(d, "p1")["refs"]["securityMeasures"] = ["t_pseudo", "t_enc",
                                                     "t_backup", "t_dataprot"]
        # no organizational measure left
    register("C19", c19)

    def c20(d: dict) -> None:
        d["objects"].append(obj(
            "joint", "Joint_Controllers",
            {"kind": "ENTERPRISE", "arrangementTransparent": True,
             "arrangementAvailableToSubjects": False},
            {"countries": ["LU"]}))
        find(d, "p1")["refs"]["controllers"].append("joint")
    register("C20", c20)

    def c21(d: dict) -> None:
        find(d, "ctrl")["refs"]["countries"] = ["US"]
        _set(d, "p1", "largeScale", True)
        _set(d, "p1", "type", "EU_BEHAVIOUR_MONITORING_OR_PROFILING")
    register("C21", c21)

    def c22(d: dict) -> None:
        _set(d, "proc", "instructions", [])
    register("C22", c22)

    def c23(d: dict) -> None:
        items = find(d, "rec_ctrl")["attrs"]["items"]
        items.remove("RECIPIENTS")
    register("C23", c23)

    def c24(d: dict) -> None:
        _set(d, "ctrl", "cooperatesWithSA", False)
    register("C24", c24)

    def c25(d: dict) -> None:
        for measure_id in ("t_enc",):
            drop(d, measure_id)
            find(d, "p1")["refs"]["securityMeasures"].remove(measure_id)
    register("C25", c25)

    def c26(d: dict) -> None:
        _set(d, "breach1", "saNotifiedAt", "2023-03-04T08:00:00Z")  # 80 hours
    register("C26", c26)

    def c27(d: dict) -> None:
        info = find(d, "dpia1")["attrs"]["information"]
        info.remove("PROPORTIONALITY_ASSESSMENT")
    register("C27", c27)

    def c28(d: dict) -> None:
        _set(d, "dpia1", "residualRisk", "HIGH")
        attrs = find(d, "dpia1")["attrs"]
        del attrs["consultation"]
    register("C28", c28)

    def c29(d: dict) -> None:
        _set(d, "ctrl", "kind", "PUBLIC_ORGANIZATION")
        drop(d, "dpo")
    register("C29", c29)

    def c30(d: dict) -> None:
        _set(d, "cert1", "bodyAccredited", False)
    register("C30", c30)

    def c31(d: dict) -> None:
        find(d, "tr_us")["attrs"]["basis"]["approved"] = False
    register("C31", c31)

    def c32(d: dict) -> None:
        find(d, "tr_ca")["attrs"]["basis"]["evidence"] = []
    register("C32", c32)

    def c33(d: dict) -> None:
        d["objects"].append(obj(
            "judg1", "Judgment",
            {"recognized": True, "basedOnInternationalAgreement": False},
            {"processing": ["p1"]}))
    register("C33", c33)

    def c34(d: dict) -> None:
        basis = find(d, "tr_us")["attrs"]["basis"]
        basis["information"] = [i for i in basis["information"]
                                if i != "LIABILITY_SHARING"]
    register("C34", c34)

    def c35(d: dict) -> None:
        _set(d, "inf1", "imposedFineEUR", 25_000_000)  # above max(10M, 2% of 50M)
    register("C35", c35)

    return out


# ---------------------------------------------------------------------------
# Lone surrogates: UTF-8 cannot encode U+D800-U+DFFF on their own, and
# document_bytes writes each as a JSON \uXXXX escape.
# ---------------------------------------------------------------------------

def _surrogate_in_id(d: dict) -> None:
    find(d, "demo1")["id"] = "demo\udfff1"


def _surrogate_in_attr_value(d: dict) -> None:
    _set(d, "ctrl", "contactDetails", "desk \ud800")


def _surrogate_in_generic_attr_key(d: dict) -> None:
    find(d, "demo1")["attrs"]["n\udc00te"] = "x"


def _surrogate_in_generic_ref_role(d: dict) -> None:
    refs = find(d, "demo1")["refs"]
    refs["processing\ud800"] = refs.pop("processing")


LONE_SURROGATE_MUTATIONS: dict[str, Callable[[dict], None]] = {
    "id": _surrogate_in_id,
    "attr value": _surrogate_in_attr_value,
    "generic attr key": _surrogate_in_generic_attr_key,
    "generic ref role": _surrogate_in_generic_ref_role,
}
