"""Every error a specialization profile can raise, with its exact type and
message: one row per place that raises it.

Each parameter row runs through ``build_profile([Resolution(...)])`` and,
when its params are JSON data, through ``load_profile``, which reports the
same text as ``LoadError(SCHEMA)``.
"""

from __future__ import annotations

import json
from collections import OrderedDict, UserDict
from types import MappingProxyType

import pytest

from gdpr_engine.ingest import (
    SCHEMA,
    SYNTAX,
    UNKNOWN_VARIATION,
    LoadError,
    load_profile,
)
from gdpr_engine.variability import (
    DuplicateResolutionError,
    ProfileConsistencyError,
    ProfileFinalizedError,
    Resolution,
    ResolutionParameterError,
    UnknownVariationError,
    build_profile,
    default_profile,
)

# (variation, params, message): ResolutionParameterError from build_profile,
# LoadError(SCHEMA) with the same text from load_profile.
PARAMETER_ERRORS = [
    # unknown parameters, sorted
    ("V16", {"bogus": 1, "another": 2}, "V16: unknown parameters another, bogus"),
    ("V11", {"x": None}, "V11: unknown parameters x"),
    ("V20", {"x": 1}, "V20: unknown parameters x"),
    # a key that is not a string is named as text, sorted with the rest
    ("V16", {1: 2, "a": 3}, "V16: unknown parameters 1, a"),
    ("V10", {"limits": [{2: 1, "categories": []}]}, "V10: unknown parameters 2"),
    ("V5", {"adaptations": {"C9": {}}, 2: 1}, "V5: unknown parameters 2"),
    # booleans
    ("V3", {"canBeLifted": "no"}, "V3: canBeLifted must be a boolean"),
    ("V3", {"canBeLifted": 1}, "V3: canBeLifted must be a boolean"),
    ("V3", {"canBeLifted": None}, "V3: canBeLifted must be a boolean"),
    # string lists
    ("V2", {"acceptedDocumentKinds": "PASSPORT"},
     "V2: acceptedDocumentKinds must be a list"),
    ("V2", {"acceptedDocumentKinds": {"PASSPORT": 1}},
     "V2: acceptedDocumentKinds must be a list"),
    ("V2", {"acceptedDocumentKinds": None}, "V2: acceptedDocumentKinds must be a list"),
    ("V2", {}, "V2: acceptedDocumentKinds must be nonempty"),
    ("V2", {"acceptedDocumentKinds": []}, "V2: acceptedDocumentKinds must be nonempty"),
    ("V2", {"acceptedDocumentKinds": ["PASSPORT", 1]},
     "V2: acceptedDocumentKinds entries must be strings"),
    ("V2", {"acceptedDocumentKinds": "", "x": 1}, "V2: unknown parameters x"),
    # V1
    ("V1", {"age": 14}, "V1: unknown parameters age"),
    ("V1", {"thresholds": [["AT", 14]]}, "V1: thresholds must map country codes to ages"),
    ("V1", {"thresholds": None}, "V1: thresholds must map country codes to ages"),
    ("V1", {"thresholds": {"AUT": 14}}, "V1: 'AUT' is not a two-letter country code"),
    ("V1", {"thresholds": {"A1": 14}}, "V1: 'A1' is not a two-letter country code"),
    ("V1", {"thresholds": {"AT": 14, "LU": "14"}}, "V1: age for LU must be an integer"),
    ("V1", {"thresholds": {"at": True}}, "V1: age for at must be an integer"),
    ("V1", {"thresholds": {"AT": 14.0}}, "V1: age for AT must be an integer"),
    # a code given twice, in any case, is refused rather than overwritten
    ("V1", {"thresholds": {"at": 14, "AT": 15}},
     "V1: country code AT is given more than once"),
    ("V1", {"thresholds": {"LU": 16, "Lu": 16}},
     "V1: country code LU is given more than once"),
    ("V1", {"default": 16.0}, "V1: default must be an integer"),
    ("V1", {"default": False}, "V1: default must be an integer"),
    ("V1", {"default": None}, "V1: default must be an integer"),
    # V4
    ("V4", {"restricted": []}, "V4: unknown parameters restricted"),
    ("V4", {"prohibited": "yes"}, "V4: prohibited must be a boolean"),
    ("V4", {"requiredTechnicalMeasures": ["TELEPATHY"]},
     "V4: requiredTechnicalMeasures entry 'TELEPATHY' is not allowed"),
    ("V4", {"requiredTechnicalMeasures": "ENCRYPTION"},
     "V4: requiredTechnicalMeasures must be a list"),
    ("V4", {"restrictedCategories": []}, "V4: restrictedCategories must be nonempty"),
    ("V4", {"restrictedCategories": ["SEXUAL_LIFE"]},
     "V4: restrictedCategories entry 'SEXUAL_LIFE' is not allowed"),
    ("V4", {"restrictedCategories": ["HEALTH"], "prohibited": 0},
     "V4: prohibited must be a boolean"),
    # V5
    ("V5", {}, "V5: adaptations must map rule ids to restriction descriptors"),
    ("V5", {"adaptations": {}}, "V5: adaptations must map rule ids to restriction descriptors"),
    ("V5", {"adaptations": ["C9"]},
     "V5: adaptations must map rule ids to restriction descriptors"),
    ("V5", {"adaptations": {"C9": {}}, "x": 1}, "V5: unknown parameters x"),
    ("V5", {"adaptations": {"C35": {}}}, "V5: rule C35 cannot be adapted (only C2 and C9-C22)"),
    ("V5", {"adaptations": {"C1": {}}}, "V5: rule C1 cannot be adapted (only C2 and C9-C22)"),
    ("V5", {"adaptations": {"C9": ["RIGHT_TO_OBJECT"]}}, "V5: descriptor for C9 must be an object"),
    ("V5", {"adaptations": {"C9": None}}, "V5: descriptor for C9 must be an object"),
    ("V5", {"adaptations": {"C9": {"rights": [], "alsoBad": 1}}},
     "V5: unknown parameters alsoBad, rights"),
    ("V5", {"adaptations": {"C9": {"removedRights": ["RIGHT_TO_FLY"]}}},
     "V5: removedRights entry 'RIGHT_TO_FLY' is not allowed"),
    ("V5", {"adaptations": {"C9": {"removedRights": "RIGHT_TO_OBJECT"}}},
     "V5: removedRights must be a list"),
    ("V5", {"adaptations": {"C2": {"exemptProcessingTypes": ["NAPPING"]}}},
     "V5: exemptProcessingTypes entry 'NAPPING' is not allowed"),
    ("V5", {"adaptations": {"C2": {"exemptProcessingTypes": [None]}}},
     "V5: exemptProcessingTypes entries must be strings"),
    ("V5", {"adaptations": {"C9": {}, "C23": {}}},
     "V5: rule C23 cannot be adapted (only C2 and C9-C22)"),
    # V6, V7
    ("V6", {"allowedWithoutInstructions": "true"},
     "V6: allowedWithoutInstructions must be a boolean"),
    ("V6", {"allowed": True}, "V6: unknown parameters allowed"),
    ("V7", {"allowedWithoutInstructions": 0},
     "V7: allowedWithoutInstructions must be a boolean"),
    ("V7", {"allowed": True}, "V7: unknown parameters allowed"),
    # V8
    ("V8", {"processingTypes": []}, "V8: unknown parameters processingTypes"),
    ("V8", {"requiredForProcessingTypes": []},
     "V8: requiredForProcessingTypes must be nonempty"),
    ("V8", {"requiredForProcessingTypes": ["NAPPING"]},
     "V8: requiredForProcessingTypes entry 'NAPPING' is not allowed"),
    # V9
    ("V9", {}, "V9: actorKinds must be nonempty"),
    ("V9", {"actorKinds": []}, "V9: actorKinds must be nonempty"),
    ("V9", {"actorKinds": ["GUILD"]}, "V9: actorKinds entry 'GUILD' is not allowed"),
    ("V9", {"actorKinds": "OFFICIAL"}, "V9: actorKinds must be a list"),
    ("V9", {"kinds": ["OFFICIAL"]}, "V9: unknown parameters kinds"),
    # V10
    ("V10", {}, "V10: limits must be a nonempty list"),
    ("V10", {"limits": []}, "V10: limits must be a nonempty list"),
    ("V10", {"limits": "US"}, "V10: limits must be a nonempty list"),
    ("V10", {"limits": {"categories": []}}, "V10: limits must be a nonempty list"),
    ("V10", {"limits": [], "x": 1}, "V10: unknown parameters x"),
    ("V10", {"limits": [["HEALTH"]]}, "V10: each limit must be an object"),
    ("V10", {"limits": [{"categories": []}, 1]}, "V10: each limit must be an object"),
    ("V10", {"limits": [{"bogus": 1}]}, "V10: unknown parameters bogus"),
    ("V10", {"limits": [{"categories": ["GOSSIP"]}]},
     "V10: categories entry 'GOSSIP' is not allowed"),
    ("V10", {"limits": [{"categories": ["HEALTH"], "toCountries": "US"}]},
     "V10: toCountries must be a list"),
    ("V10", {"limits": [{"toCountries": [1]}]}, "V10: toCountries entries must be strings"),
    # V12
    ("V12", {"fineCap": 1}, "V12: unknown parameters fineCap"),
    ("V12", {"finesApplyToPublicBodies": "no"},
     "V12: finesApplyToPublicBodies must be a boolean"),
    ("V12", {"publicBodyFineCapEUR": -1},
     "V12: publicBodyFineCapEUR must be a non-negative integer"),
    ("V12", {"publicBodyFineCapEUR": True},
     "V12: publicBodyFineCapEUR must be a non-negative integer"),
    ("V12", {"publicBodyFineCapEUR": 1.5},
     "V12: publicBodyFineCapEUR must be a non-negative integer"),
    ("V12", {"publicBodyFineCapEUR": None},
     "V12: publicBodyFineCapEUR must be a non-negative integer"),
    # V13
    ("V13", {}, "V13: penalties must be a nonempty list"),
    ("V13", {"penalties": []}, "V13: penalties must be a nonempty list"),
    ("V13", {"penalties": "OBLIGATION_VIOLATION"}, "V13: penalties must be a nonempty list"),
    ("V13", {"penalties": [], "x": 1}, "V13: unknown parameters x"),
    ("V13", {"penalties": [1]}, "V13: each penalty must be an object"),
    ("V13", {"penalties": [{"infringementKind": "OBLIGATION_VIOLATION",
                            "penaltyEUR": 1, "note": ""}]},
     "V13: unknown parameters note"),
    ("V13", {"penalties": [{"penaltyEUR": 1}]}, "V13: None is not an infringement kind"),
    ("V13", {"penalties": [{"infringementKind": "NOPE", "penaltyEUR": 1}]},
     "V13: 'NOPE' is not an infringement kind"),
    ("V13", {"penalties": [{"infringementKind": "OBLIGATION_VIOLATION"}]},
     "V13: penaltyEUR must be a non-negative integer"),
    ("V13", {"penalties": [{"infringementKind": "OBLIGATION_VIOLATION",
                            "penaltyEUR": -5}]},
     "V13: penaltyEUR must be a non-negative integer"),
    ("V13", {"penalties": [{"infringementKind": "OBLIGATION_VIOLATION",
                            "penaltyEUR": False}]},
     "V13: penaltyEUR must be a non-negative integer"),
    ("V13", {"penalties": [{"infringementKind": "OBLIGATION_VIOLATION",
                            "penaltyEUR": "5"}]},
     "V13: penaltyEUR must be a non-negative integer"),
    # V14
    ("V14", {"types": []}, "V14: unknown parameters types"),
    ("V14", {"processingTypes": []}, "V14: processingTypes must be nonempty"),
    ("V14", {"processingTypes": ["NAPPING"]},
     "V14: processingTypes entry 'NAPPING' is not allowed"),
    # V15
    ("V15", {"forbidden": True}, "V15: unknown parameters forbidden"),
    ("V15", {"allowed": "yes"}, "V15: allowed must be a boolean"),
    ("V15", {"requiredTechnicalMeasures": ["TELEPATHY"]},
     "V15: requiredTechnicalMeasures entry 'TELEPATHY' is not allowed"),
    # V17, V18
    ("V17", {}, "V17: derogatedRights must be nonempty"),
    ("V17", {"derogatedRights": ["NOTIFICATION"]},
     "V17: derogatedRights entry 'NOTIFICATION' is not allowed"),
    ("V17", {"derogatedRights": ["RIGHT_TO_ACCESS"], "processingTypes": []},
     "V17: processingTypes must be nonempty"),
    ("V17", {"derogatedRights": ["RIGHT_TO_ACCESS"], "processingTypes": ["NAPPING"]},
     "V17: processingTypes entry 'NAPPING' is not allowed"),
    ("V17", {"derogatedRights": ["RIGHT_TO_ACCESS"], "x": 1}, "V17: unknown parameters x"),
    ("V18", {"derogatedRights": ["RIGHT_TO_ACCESS"], "processingTypes": ["RESEARCH"]},
     "V18: unknown parameters processingTypes"),
    ("V18", {"derogatedRights": []}, "V18: derogatedRights must be nonempty"),
    ("V18", {"derogatedRights": ["RIGHT_TO_ERASURE"]},
     "V18: derogatedRights entry 'RIGHT_TO_ERASURE' is not allowed"),
    # V19
    ("V19", {"protectedCategories": "HEALTH"}, "V19: protectedCategories must be a list"),
    ("V19", {"protectedCategories": [1]}, "V19: protectedCategories entries must be strings"),
    ("V19", {"categories": []}, "V19: unknown parameters categories"),
]


@pytest.mark.parametrize("variation, params, message", PARAMETER_ERRORS)
def test_parameter_error_messages(variation, params, message):
    with pytest.raises(ResolutionParameterError) as excinfo:
        build_profile([Resolution(variation, params)])
    assert type(excinfo.value) is ResolutionParameterError
    assert str(excinfo.value) == message

    document = {"resolutions": [{"variation": variation, "params": params}]}
    with pytest.raises(LoadError) as excinfo:
        load_profile(json.dumps(document).encode())
    assert excinfo.value.code == SCHEMA
    assert str(excinfo.value) == f"SCHEMA: {message}"


# Errors only build_profile raises: params that are not JSON data, and the
# checks that span resolutions. load_profile accepts the JSON rows.
PROFILE_ERRORS = [
    ([Resolution("V3", [("canBeLifted", False)])], ResolutionParameterError,
     "V3: parameters must be an object"),
    ([Resolution("V16", "{}")], ResolutionParameterError,
     "V16: parameters must be an object"),
    ([Resolution("V99", {})], UnknownVariationError, "unknown variation point 'V99'"),
    ([Resolution("v1", {})], UnknownVariationError, "unknown variation point 'v1'"),
    ([Resolution("V16", {}), Resolution("V16", {})], DuplicateResolutionError,
     "V16 has already been resolved in this profile"),
    ([Resolution("V1", {"thresholds": {"AT": 12}})], ProfileConsistencyError,
     "V1: age 12 is below 13, the lowest age national law may set"),
    ([Resolution("V1", {"thresholds": {"AT": 14}, "default": 17})],
     ProfileConsistencyError, "V1: age 17 is above the generic limit of 16"),
    ([Resolution("V1", {"default": -1})], ProfileConsistencyError,
     "V1: age -1 is below 13, the lowest age national law may set"),
    ([Resolution("V6", {"allowedWithoutInstructions": True}), Resolution("V7", {})],
     ProfileConsistencyError,
     "V6 and V7 disagree on processing without controller instructions"),
]


@pytest.mark.parametrize("resolutions, error, message", PROFILE_ERRORS)
def test_profile_error_messages(resolutions, error, message):
    with pytest.raises(error) as excinfo:
        build_profile(resolutions)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message
    if error is ProfileConsistencyError:
        document = {"resolutions": [{"variation": r.variationId, "params": r.parameters}
                                    for r in resolutions]}
        loaded = load_profile(json.dumps(document).encode())
        with pytest.raises(error, match=f"^{message}$"):
            build_profile(loaded)


def test_a_finalized_profile_refuses_a_resolution():
    profile = default_profile().finalize()
    with pytest.raises(ProfileFinalizedError) as excinfo:
        profile.apply(Resolution("V16", {}))
    assert str(excinfo.value) == "profile is finalized; clone to re-tailor"


# (document, code, message) for the document-level checks of load_profile.
DOCUMENT_ERRORS = [
    ('{"resolutions": [', SYNTAX,
     "SYNTAX at line 1, column 18: Expecting value"),
    ('[]', SCHEMA, "SCHEMA: document root must be an object"),
    ('{"resolutions": [], "extra": 1}', SCHEMA, "SCHEMA: unknown top-level keys: extra"),
    ('{"schemaVersion": "2", "resolutions": []}', SCHEMA,
     "SCHEMA: unsupported schemaVersion '2'"),
    ('{}', SCHEMA, "SCHEMA: missing top-level key 'resolutions'"),
    ('{"resolutions": {}}', SCHEMA, "SCHEMA: resolutions must be a list"),
    ('{"resolutions": [["V1"]]}', SCHEMA, "SCHEMA: resolutions[0] is not an object"),
    ('{"resolutions": [{"variation": "V16"}, {"variation": "V11", "x": 1, "a": 2}]}',
     SCHEMA, "SCHEMA: resolutions[1]: unknown keys a, x"),
    ('{"resolutions": [{"params": {}}]}', SCHEMA,
     "SCHEMA: resolutions[0]: variation must be a string"),
    ('{"resolutions": [{"variation": 1}]}', SCHEMA,
     "SCHEMA: resolutions[0]: variation must be a string"),
    ('{"resolutions": [{"variation": "V99"}]}', UNKNOWN_VARIATION,
     "UNKNOWN_VARIATION: unknown variation id 'V99'"),
    ('{"resolutions": [{"variation": "V16", "params": []}]}', SCHEMA,
     "SCHEMA: resolutions[0]: params must be an object"),
    ('{"resolutions": [{"variation": "V16", "params": null}]}', SCHEMA,
     "SCHEMA: resolutions[0]: params must be an object"),
]


@pytest.mark.parametrize("document, code, message", DOCUMENT_ERRORS)
def test_profile_document_error_messages(document, code, message):
    with pytest.raises(LoadError) as excinfo:
        load_profile(document.encode())
    assert excinfo.value.code == code
    assert str(excinfo.value) == message


class _Params(UserDict):
    """A Mapping that is not a dict."""


@pytest.mark.parametrize("variation, json_params, python_params", [
    ("V1", {"thresholds": {"at": 14}, "default": 16},
     _Params(thresholds=MappingProxyType({"at": 14}), default=16)),
    ("V5", {"adaptations": {"C9": {"removedRights": ["RIGHT_TO_OBJECT"]}}},
     MappingProxyType({"adaptations": _Params(
         C9=OrderedDict(removedRights=("RIGHT_TO_OBJECT",)))})),
    ("V10", {"limits": [{"categories": ["IDENTIFICATION"], "toCountries": ["US"]}]},
     {"limits": (MappingProxyType({"categories": ("IDENTIFICATION",),
                                   "toCountries": ("US",)}),)}),
    ("V9", {"actorKinds": ["CHURCH_OR_RELIGIOUS_ORGANIZATION"]},
     {"actorKinds": ("CHURCH_OR_RELIGIOUS_ORGANIZATION",)}),
    ("V16", {}, None),
])
def test_python_mappings_and_tuples_are_accepted(variation, json_params, python_params):
    document = {"resolutions": [{"variation": variation, "params": json_params}]}
    loaded = load_profile(json.dumps(document).encode())
    from_python = build_profile([Resolution(variation, python_params)])
    from_json = build_profile(loaded)
    assert from_python.fingerprint() == from_json.fingerprint()
    assert from_python.resolutions == from_json.resolutions
