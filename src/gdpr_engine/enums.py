"""Enumeration literal sets of the conceptual model.

Literals are plain uppercase strings rather than Python enums because the
tailoring step may extend an enumeration with new literals (national-law
variations); membership is always checked against the base set plus the
extensions carried by the active specialization profile.
"""

from __future__ import annotations

from typing import Mapping

ACTOR_TYPE = "Actor_Type"
RESTRICTION_RIGHT_REASON = "Restriction_Right_Reason"
PROCESSING_CONTEXT = "Processing_Context"
DATA_CATEGORY = "Data_Category"
OPERATION_TYPE = "Operation_Type"
TECHNICAL_MEASURE_TYPE = "Technical_Measure_Type"
ORGANIZATIONAL_MEASURE_TYPE = "Organizational_Measure_Type"
DENIAL_ERASURE_REASON = "Denial_Erasure_Reason"
LAWFULNESS_SOURCES = "Lawfulness_Sources"
INFORMATION_TYPE = "Information_Type"
DPIA_INFORMATION_TYPE = "DPIA_Information_Type"
EXCEPTION_SPECIAL_DATA_CATEGORY = "Exception_Special_Data_Category"
ERASURE_RIGHT_REASON = "Erasure_Right_Reason"
RISK_SEVERITY = "Risk_Severity"
DPIA_MOTIVATION = "DPIA_Motivation"
TRANSFER_CONTRACT_INFORMATION = "Transfer_Contract_Information"
TRANSFER_DEROGATION_TYPES = "Transfer_Derogation_Types"
SA_CORRECTIVE_ACTION_TYPE = "SA_Corrective_Action_Type"
INVESTIGATION_TYPE = "Investigation_Type"
INFRINGEMENT_TYPE = "Infringement_Type"
RIGHT_KIND = "Right_Kind"
RECORD_ITEM = "Record_Item"
INFORMATION_EXEMPTION = "Information_Exemption"
TRANSFER_BASIS_KIND = "Transfer_Basis_Kind"

ENUMERATIONS: dict[str, frozenset[str]] = {
    ACTOR_TYPE: frozenset({
        "NATURAL_PERSON",
        "LEGAL_PERSON",
        "NON_PROFIT_ORGANIZATION",
        "OFFICIAL",
        "PUBLIC_ORGANIZATION",
        "ENTERPRISE",
        "INTERNATIONAL_ORGANIZATION",
        "INFORMATION_SOCIETY_SERVICE",
    }),
    RESTRICTION_RIGHT_REASON: frozenset({
        "CONTESTED_ACCURACY",
        "DS_OBJECTS",
        "UNLAWFUL_PROCESSING",
        "DATA_NO_NECESSARY",
        "OTHER",
    }),
    PROCESSING_CONTEXT: frozenset({
        "EMPLOYMENT",
        "VITAL_INTERESTS",
        "MEMBERSHIP_ORGANIZATION",
        "LEGAL_AND_CRIMINAL_INVESTIGATION",
        "PUBLIC_INTEREST",
        "PREVENTIVE_MEDICINE",
        "PUBLIC_HEALTH",
        "RESEARCH",
        "STATISTICAL_PURPOSES",
        "EU_FOREIGN_AND_SECURITY_POLICY",
        "PERSONAL_OR_HOUSEHOLD_ACTIVITY",
        "PREVENTION_THREATS_TO_PUBLIC_SECURITY",
        "OFFERING_GOODS_OR_SERVICES",
        "EU_BEHAVIOUR_MONITORING_OR_PROFILING",
        "BEHAVIOUR_MONITORING_OR_PROFILING",
        "EU_SECURITY_ACTIVITY",
        "OTHER",
    }),
    DATA_CATEGORY: frozenset({
        "RACIAL_OR_ETHNIC",
        "RELIGIOUS_OR_PHILOSOPHICAL_BELIEVES",
        "POLITICAL_OPINION",
        "HEALTH",
        "SEX_LIFE",
        "GENETIC",
        "BIOMETRIC",
        "JUDICIAL",
        "OTHER_PERSONAL_DATA",
    }),
    OPERATION_TYPE: frozenset({
        "COLLECTING",
        "PROFILING",
        "ARCHIVING",
        "RECORDING",
        "ORGANIZING",
        "STRUCTURING",
        "STORING",
        "ALTERING",
        "RETRIEVING",
        "CONSULTING",
        "USING",
        "TRANSMITTING",
        "RESTRICTING",
        "ERASING",
        "DESTROYING",
        "OTHER",
    }),
    TECHNICAL_MEASURE_TYPE: frozenset({
        "ACCESS_CONTROL",
        "DATA_PROTECTION",
        "AUTHENTIFICATION",
        "PSEUDONYMIZATION",
        "ENCRYPTION",
        "TRANSMISSION_CONTROL",
        "PASSWORD_POLICES",
        "BACKUPS_RECOVERY",
        "RUN_THE_CHECKING",
        "OTHER",
    }),
    ORGANIZATIONAL_MEASURE_TYPE: frozenset({
        "AUDIT",
        "STAFF_TRAINING",
        "DEDICATED_PERSONAL",
        "PROTECTION_POLICY",
        "STUDY_STATE_OF_ART",
        "STUDY_COMPETITION",
        "OTHER",
    }),
    DENIAL_ERASURE_REASON: frozenset({
        "FREEDOM_EXPRESSION_INFORMATION",
        "COMPLIANCE_LEGAL_OBLIGATION",
        "PUBLIC_INTEREST",
        "ARCHIVING_PURPOSES",
        "DEFENSE_LEGAL_CLAIMS",
    }),
    LAWFULNESS_SOURCES: frozenset({
        "BY_CONSENT",
        "PERFORMANCE_OF_CONTRACT",
        "LEGAL_OBLIGATION",
        "PROTECT_VITAL_INTERESTS",
        "PUBLIC_INTEREST",
        "LEGITIMATE_INTEREST",
        "NONE",
    }),
    INFORMATION_TYPE: frozenset({
        "CONTACT_DETAILS",
        "DPO_DETAILS",
        "PURPOSE_AND_LAWFULNESS",
        "DATA_CATEGORIES",
        "RECIPIENTS",
        "TRANSFER_THIRD_COUNTRIES",
        "STORAGE_DURATION",
        "DS_RIGHT",
        "CONSENT_WITHDRAWAL",
        "RIGHT_TO_LODGE_COMPLAINT",
        "DATA_SOURCE",
        "STATUTORY_CONTRACTUAL_REQUIREMENT",
        "AUTOMATED_DECISION",
        "FURTHER_PROCESSING",
        "RIGHT_TO_RECEIVE_COPY",
    }),
    DPIA_INFORMATION_TYPE: frozenset({
        "NECESSITY_ASSESSMENT",
        "PROPORTIONALITY_ASSESSMENT",
        "MEASURES_DESCRIPTION",
        "GDPR_PRINCIPLE_ASSESSMENT",
        "DS_RIGHTS_ASSESSMENT",
        "FREEDOMS_ASSESSMENT",
        "OBLIGATION_ASSESSMENT",
        "RISK_ASSESSMENT",
        "OTHER",
    }),
    EXCEPTION_SPECIAL_DATA_CATEGORY: frozenset({
        "CONSENT_PERMITTED_BY_EU",
        "LEGAL_OBLIGATION",
        "PROTECT_VITAL_INTERESTS",
        "LEGITIMATE_ACTIVITIES",
        "MADE_PUBLIC_BY_SUBJECT",
        "ESTABLISHMENT_EXERCISE_OR_DEFENSE_LEGAL_CLAIMS",
        "PUBLIC_SERVICE",
        "PREVENTIVE_OR_OCCUPATIONAL_MEDICINE",
        "HEALTH_CARE",
        "HISTORICAL_RESEARCH_OR_STATISTICAL",
        "NONE",
    }),
    ERASURE_RIGHT_REASON: frozenset({
        "DATA_NO_LONGER_NECESSARY",
        "CONSENT_WITHDRAWAL",
        "DS_OBJECTS",
        "UNLAWFUL_PROCESSING",
        "LEGAL_OBLIGATION",
    }),
    RISK_SEVERITY: frozenset({"LOW", "MEDIUM", "HIGH"}),
    DPIA_MOTIVATION: frozenset({
        "PROFILING",
        "SIGNIFICANT_LEGAL_IMPACT",
        "INVOLVES_SPECIAL_OR_CRIMINAL_DATA",
        "SYSTEMATIC_MONITORING",
        "INVOLVES_DATABASE_MERGE",
        "LARGE_SCALE_PROCESSING",
        "INVOLVES_NEW_TECHNOLOGIES",
        "CONCERNS_VULNERABLE_INDIVIDUALS",
        "DIFFICULT_TO_EXERCISE_RIGHTS",
        "INVOLVES_DATA_TRANSFER_OUTSIDE_EU",
        "HIGH_RISK",
        "IMPOSED_BY_SUPERVISORY_AUTHORITY",
        "OTHER",
    }),
    TRANSFER_CONTRACT_INFORMATION: frozenset({
        "DPO_TASKS",
        "DPO_CONTACT",
        "COMPLIANCE_PROCEDURES",
        "REPORTING_MECHANISMS",
        "PERSONAL_TRAINING",
        "UNDERTAKING_STRUCTURE",
        "CONTACT_DETAILS",
        "COMMON_ACTIVITIES",
        "SPECIFIC_ACTIVITIES",
        "TRANSFERS_SEQUENCE",
        "DATA_CATEGORIES",
        "TYPE_PROCESSING_AFTER_TRANSFER",
        "PURPOSES_PROCESSING_AFTER_TRANSFER",
        "TYPE_DS_AFFECTED",
        "TARGET_COUNTRIES",
        "INTERNAL_COUNTRIES_BINDING_LAWS",
        "EXTERNAL_COUNTRIES_BINDING_LAWS",
        "APPLIED_GDPR_PRINCIPLES",
        "SECURITY_MEASURES",
        "ONWARD_TRANSFER_REQUIREMENTS",
        "LIABILITY_SHARING",
        "HOW_DS_INFORMED",
        "OTHER",
    }),
    TRANSFER_DEROGATION_TYPES: frozenset({
        "SUPPORTED_BY_CONSENT",
        "NECESSARY_FOR_CONTRACT",
        "PUBLIC_INTEREST",
        "EXERCISE_OR_DEFENCE_OF_LEGAL_CLAIMS",
        "PROTECT_DS_VITAL_INTERESTS",
        "PUBLIC_CONSULTATION",
        "OTHER",
    }),
    SA_CORRECTIVE_ACTION_TYPE: frozenset({
        "WARNING",
        "REPRIMAND",
        "REQUEST_TECHNICAL_UPDATE",
        "REQUEST_ORGANIZATIONAL_UPDATE",
        "CERTIFICATION_WITHDRAWAL",
        "PROCESSING_SUSPENSION",
        "PROCESSING_BAN",
        "ADMINISTRATIVE_FINES",
        "OTHER",
    }),
    INVESTIGATION_TYPE: frozenset({
        "ONE_SITE_INSPECTION",
        "FILE_INSPECTION",
        "DATA_PROTECTION_AUDIT",
        "OTHER",
    }),
    INFRINGEMENT_TYPE: frozenset({
        "PRINCIPLE_VIOLATION",
        "DS_RIGHT_VIOLATION",
        "OBLIGATION_VIOLATION",
        "FALSE_DECLARATION",
        "UNAUTHORIZED_TRANSFER",
        "FORBIDDEN_PROCESSING",
        "OTHER_INTERNATIONAL_LAW_VIOLATION",
        "INSUFFICIENT_SECURITY_MEASURES",
        "CORRECTIVE_ACTION_VIOLATION",
        "CHILD_CONSENT_VIOLATION",
        "CERTIFICATION_OBLIGATION_VIOLATION",
        "CROSS_BORDER_TRANSFER_VIOLATION",
        "OTHER_LOCAL_LAW_VIOLATION",
        "OTHER",
    }),
    # One literal per concrete class of the data-subject rights package.
    RIGHT_KIND: frozenset({
        "NOTIFICATION",
        "RIGHT_TO_PORTABILITY",
        "RIGHT_TO_ACCESS",
        "RIGHT_TO_BE_INFORMED",
        "RIGHT_TO_ERASURE",
        "RIGHT_TO_NOT_BE_PART_OF_A_DECISION",
        "RIGHT_TO_OBJECT",
        "RIGHT_TO_RESTRICTION",
        "RIGHT_TO_RECTIFICATION",
        "INFORMATION",
    }),
    # Closed content vocabulary for Art. 30 records of processing activities.
    RECORD_ITEM: frozenset({
        "NAME_AND_CONTACT_DETAILS",
        "PROCESSING_PURPOSES",
        "DATA_SUBJECT_AND_DATA_CATEGORIES",
        "RECIPIENTS",
        "THIRD_COUNTRY_TRANSFERS",
        "ERASURE_TIME_LIMITS",
        "SECURITY_MEASURES_DESCRIPTION",
        "PROCESSING_CATEGORIES",
    }),
    # Grounds under which Art. 13/14 notice duties are lifted.
    INFORMATION_EXEMPTION: frozenset({
        "ALREADY_INFORMED",
        "DISPROPORTIONATE_EFFORT",
        "COLLECTION_FORESEEN_BY_LAW",
        "PROFESSIONAL_SECRECY",
    }),
    # Legal grounds a cross-border transfer can declare (exactly one each).
    TRANSFER_BASIS_KIND: frozenset({
        "IntraEU",
        "AdequacyDecision",
        "BCR",
        "StandardContractualClauses",
        "AdministrativeArrangement",
        "CodeOfConductOrCertification",
        "PublicBodyInstrument",
        "Derogation",
    }),
}

# Enumerations a specialization profile is allowed to extend.
EXTENSIBLE_ENUMERATIONS = frozenset({
    DPIA_INFORMATION_TYPE,
    DATA_CATEGORY,
    ACTOR_TYPE,
})

# Art. 9 special categories: every base data category except the residual one.
SPECIAL_DATA_CATEGORIES = ENUMERATIONS[DATA_CATEGORY] - {"OTHER_PERSONAL_DATA"}

# Processing contexts outside the material scope of the regulation (Arts. 2-3).
EXEMPT_PROCESSING_CONTEXTS = frozenset({
    "EU_SECURITY_ACTIVITY",
    "PERSONAL_OR_HOUSEHOLD_ACTIVITY",
    "LEGAL_AND_CRIMINAL_INVESTIGATION",
})

# Literal pools accepted for a denied right request's stated reason.
DENIAL_REASONS = (
    ENUMERATIONS[DENIAL_ERASURE_REASON] | ENUMERATIONS[RESTRICTION_RIGHT_REASON]
)


def literals(enum_name: str, extensions: Mapping[str, frozenset[str]] | None = None) -> frozenset[str]:
    """Literal set of ``enum_name``, including any profile extensions."""
    base = ENUMERATIONS[enum_name]
    if extensions and enum_name in extensions:
        return base | extensions[enum_name]
    return base

