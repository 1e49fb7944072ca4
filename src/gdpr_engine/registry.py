"""Conceptual-model class registry and article traceability.

One entry per class of the nine model packages, keyed by the canonical
underscore name, with the GDPR articles the class traces to. Citations are
strings: plain article numbers, or a chapter / working-party reference for
the few classes that trace to something other than a single article.
Classes created purely to structure the model carry an empty citation list.
"""

from __future__ import annotations


class UnknownClassError(KeyError):
    """Lookup of a class name that is not part of the model registry."""


_A = tuple  # terse alias for the citation tuples below

# package name -> {class -> (citations, abstract?)}
PACKAGES: dict[str, dict[str, tuple[tuple[str, ...], bool]]] = {
    "Principles": {
        "Accuracy": (_A(("5",)), False),
        "Data_Minimization": (_A(("5",)), False),
        "Demonstration": (_A(("5", "25")), False),
        "Fairness_And_Transparency": (_A(("5",)), False),
        "Integrity_And_Confidentiality": (_A(("5",)), False),
        "Lawfulness": (_A(("5",)), False),
        "Lawfulness_Evidence": (_A(("5",)), False),
        "Lawfulness_Source": (_A(("6",)), False),
        "Obligation_Source": (_A(("6",)), False),
        "Principle": (_A(()), True),
        "Purpose_Limitation": (_A(("5",)), False),
        "Storage_Limitation": (_A(("5",)), False),
    },
    "Data_Processing": {
        "Consent": (_A(("4", "7", "8")), False),
        "Data_Processing": (_A(("4",)), False),
        "Filing_System": (_A(("2", "4")), False),
        "Hardware": (_A(()), False),
        "Human": (_A(()), False),
        "Personal_Data": (_A(("4", "9", "10")), False),
        "Purpose": (_A(("5", "13", "14", "15")), False),
        "System": (_A(()), False),
    },
    "Data_Subjects": {
        "Child_Data_Subject": (_A(("8",)), False),
        "Data_Subject": (_A(("4",)), False),
        "Natural_Person": (_A(()), True),
        "Responsible_Parent": (_A(("8",)), False),
        "Document": (_A(("8",)), False),
    },
    "Main_Actors": {
        "Accreditation_Body": (_A(("43",)), False),
        "Processing_Activity_Record": (_A(()), False),
        "Actor": (_A(()), True),
        "Certification_Body": (_A(("43",)), False),
        "Communication": (_A(("31", "33", "57", "58")), False),
        "Contract_Agreement": (_A(("28",)), False),
        "Controller": (_A(()), True),
        "Country": (_A(("3",)), False),
        "Court": (_A(("78", "79", "81")), False),
        "Data_Processor": (_A(("4", "28", "29")), False),
        "Data_Protection_Officer": (_A(("37", "38", "39")), False),
        "EU_Data_Protection": (_A(("68", "69", "70", "71", "72", "73", "74", "75", "76")), False),
        "Group_Of_Undertakings": (_A(("4", "47")), False),
        "Joint_Controllers": (_A(("4", "26")), False),
        "Legal_Authority": (_A(()), True),
        "Main_Intervenant": (_A(()), True),
        "Obligation": (_A(("24", "25", "26", "27", "28", "29", "30", "31")), False),
        "Processor": (_A(()), True),
        "Recipient": (_A(("Chapter 5",)), False),
        "Representative": (_A(("4", "27", "80")), False),
        "Supervisory_Authority": (_A(("4", "51", "52", "53", "54", "55", "56", "57", "58", "59")), False),
        "Third_Party": (_A(("4", "44")), False),
        "Undertaking": (_A(("4", "47")), False),
        "Data_Controller": (_A(("4", "24")), False),
    },
    "Data_Subject_Rights": {
        "Notification": (_A(("19",)), False),
        "Right": (_A(()), True),
        "Right_To_Portability": (_A(("20",)), False),
        "Right_To_Access": (_A(("15",)), False),
        "Right_To_Be_Informed": (_A(("13", "14")), False),
        "Right_To_Erasure": (_A(("17",)), False),
        "Right_To_Not_Be_Part_Of_A_Decision": (_A(("22",)), False),
        "Right_To_Object": (_A(("21",)), False),
        "Right_To_Restriction": (_A(("18",)), False),
        "Right_To_Rectification": (_A(("16",)), False),
        "Information": (_A(("13", "14", "15")), False),
    },
    "Compliance": {
        "Breach": (_A(("4", "33", "34")), False),
        "Certification": (_A(("42",)), False),
        "Code_Of_Conduct": (_A(("40",)), False),
        "Conduct_Rule": (_A(("40",)), False),
        "Consultation": (_A(("36",)), False),
        "Data_Protection_Impact_Assessment": (_A(("35",)), False),
        "DPIA_Information": (_A(("35",)), False),
        "DPIA_Motivation": (_A(("35",)), False),
        "Organizational": (_A(("24", "28", "32")), False),
        "Record_Activity": (_A(("30",)), False),
        "Risk": (_A(("32",)), False),
        "Security_Measure": (_A(()), True),
        "Technical": (_A(("24", "28", "32")), False),
        "View": (_A(("35",)), False),
    },
    "Data_Transfer": {
        "Adequacy_Decision": (_A(("45",)), False),
        "Adequacy_Evidence": (_A(("45",)), False),
        "Administrative_Arrangement": (_A(("46",)), False),
        "Authorization": (_A(("46",)), False),
        "Binding_Corporate_Rules": (_A(("47",)), False),
        "Clause": (_A(("46", "47")), False),
        "Commitment": (_A(("46", "49")), False),
        "Contact_Based": (_A(()), True),
        "Contact_Information": (_A(("46", "47")), False),
        "Cross_Boarder_Processing": (_A(()), True),
        "Data_Transfer": (_A(("44",)), False),
        "International_Binding": (_A(("49",)), False),
        "Legal_Basis": (_A(()), True),
        "Local_Processing": (_A(()), False),
        "Standard_Contractual_Clauses": (_A(("46",)), False),
        "Transfer_Derogation": (_A(("49",)), False),
        "In_House_Processing": (_A(("WP 244", "29")), False),
    },
    "Administration": {
        "Dispute": (_A(("78", "79", "81")), False),
        "Complaint": (_A(("4", "77")), False),
        "Communication_Trace": (_A(("77",)), False),
        "Report": (_A(("59",)), False),
        "Corrective_Action": (_A(("58",)), False),
        "Infringement": (_A(("83",)), False),
        "Investigation_Task": (_A(("57",)), False),
    },
    # Container classes this engine adds so rule evidence can be expressed
    # as first-class objects; normative for this artifact only.
    "Artifact": {
        "Right_Support": (_A(()), False),
        "Right_Request": (_A(()), False),
        "Judgment": (_A(("48",)), False),
        "Turnover_Context": (_A(("83",)), False),
    },
}

TRACEABILITY: dict[str, tuple[str, ...]] = {}
ABSTRACT_CLASSES: frozenset[str]
_abstract: set[str] = set()
for _package, _classes in PACKAGES.items():
    for _name, (_articles, _is_abstract) in _classes.items():
        TRACEABILITY[_name] = tuple(_articles)
        if _is_abstract:
            _abstract.add(_name)
ABSTRACT_CLASSES = frozenset(_abstract)
del _abstract, _package, _classes, _name, _articles, _is_abstract

# Secondary spellings accepted on lookup and in instance documents.
NAME_ALIASES: dict[str, str] = {
    "DPIA": "Data_Protection_Impact_Assessment",
    "BCR": "Binding_Corporate_Rules",
}


def _fold(name: str) -> str:
    return "".join(ch for ch in name.lower() if ch.isalnum())


_FOLDED: dict[str, str] = {}
for _name in TRACEABILITY:
    _FOLDED.setdefault(_fold(_name), _name)
for _alias, _target in NAME_ALIASES.items():
    _FOLDED.setdefault(_fold(_alias), _target)
del _name, _alias, _target


def canonical_class_name(name: str) -> str:
    """Resolve spacing/underscore/case variants of a class name.

    Raises UnknownClassError when the name is not in the registry.
    """
    if name in TRACEABILITY:
        return name
    if name in NAME_ALIASES:
        return NAME_ALIASES[name]
    folded = _FOLDED.get(_fold(name)) if isinstance(name, str) else None
    if folded is None:
        raise UnknownClassError(name)
    return folded


def trace_articles(class_name: str) -> list[str]:
    """GDPR citations recorded for a model class (empty list: no mapping)."""
    return list(TRACEABILITY[canonical_class_name(class_name)])


def format_citations(citations: list[str] | tuple[str, ...]) -> str:
    """Render citations the way the traceability tables read.

    >>> format_citations(["33", "34"])
    'Articles 33 and 34'
    """
    plain = [c for c in citations if c.isdigit()]
    other = [c for c in citations if not c.isdigit()]
    parts: list[str] = []
    if plain:
        if len(plain) == 1:
            parts.append(f"Article {plain[0]}")
        elif len(plain) == 2:
            parts.append(f"Articles {plain[0]} and {plain[1]}")
        else:
            parts.append("Articles " + ", ".join(plain[:-1]) + f", and {plain[-1]}")
    parts.extend(other)
    if not parts:
        return "no article mapping"
    return "; ".join(parts)
