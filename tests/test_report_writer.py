"""The machine report's writer: ``check --format machine`` prints
``canonical_json(report.to_payload())`` and a newline, byte for byte, while
each rule's constant verdicts and each variation point's declared audit
entries are written from text built once, never encoded per check."""

from __future__ import annotations

import copy
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import BENCHMARK_PROFILES, compliant_document, document_bytes, failing_variants
from gdpr_engine import cli, ingest
from gdpr_engine.ingest import canonical_json
from gdpr_engine.rules import (NOT_APPLICABLE, PASS, RULE_CATALOG, VARIATION_RULE_SPECS,
                               ComplianceReport, Finding, RuleVerdict)
from gdpr_engine.variability import VARIATION_POINTS

FULL_PROFILE = next(path for path in BENCHMARK_PROFILES if path.stem == "full")
CHECK_DATE = "2023-06-01T00:00:00Z"

CONSTANT_VERDICTS = [verdict.to_payload()
                     for spec in (*RULE_CATALOG.values(), *VARIATION_RULE_SPECS.values())
                     for verdict in spec.constants.values()]
DECLARED_AUDIT = [entry.to_payload() for vp in VARIATION_POINTS.values() for entry in vp.audit]
CONSTANTS = [verdict for spec in (*RULE_CATALOG.values(), *VARIATION_RULE_SPECS.values())
             for verdict in spec.constants.values()]


def _check(tmp_path, capsys, document: dict, options: list[str]) -> str:
    """The machine report of one in-process check."""
    path = tmp_path / "instance.json"
    path.write_bytes(document_bytes(document))
    cli.main(["check", "--instance", str(path), "--format", "machine", *options])
    return capsys.readouterr().out


@pytest.fixture()
def payloads(monkeypatch) -> list[dict]:
    """Each payload that ``ComplianceReport.to_payload`` returns."""
    kept = []
    to_payload = ComplianceReport.to_payload

    def keep(report):
        kept.append(to_payload(report))
        return kept[-1]

    monkeypatch.setattr(ComplianceReport, "to_payload", keep)
    return kept


@pytest.mark.parametrize("dated", [False, True], ids=["latest date", "check date"])
@pytest.mark.parametrize("strict", [False, True], ids=["lax", "strict"])
@pytest.mark.parametrize("profile", [None, *BENCHMARK_PROFILES],
                         ids=lambda path: "default" if path is None else path.stem)
def test_machine_report_is_the_canonical_json_of_the_payload(profile, strict, dated,
                                                             payloads, tmp_path, capsys):
    documents = {"compliant": compliant_document(), **failing_variants()}
    assert len(documents) == 36
    options = (["--profile", str(profile)] * (profile is not None)
               + ["--strict-variability"] * strict + ["--check-date", CHECK_DATE] * dated)
    for name, document in documents.items():
        out = _check(tmp_path, capsys, document, options)
        assert out.encode("utf-8") == (canonical_json(payloads[-1]) + "\n").encode("utf-8"), name
    assert len(payloads) == 36


def test_no_constant_part_reaches_the_encoder(monkeypatch, tmp_path, capsys):
    """Every value the canonical encoder is given during a check, through
    any module's name for it, holds no constant verdict and no declared
    audit entry, though the report holds many of each."""
    encoded = []

    def spy(value):
        encoded.append(copy.deepcopy(value))
        return canonical_json(value)

    for module in (cli, ingest):
        monkeypatch.setattr(module, "canonical_json", spy)
    out = _check(tmp_path, capsys, compliant_document(),
                 ["--profile", str(FULL_PROFILE), "--strict-variability",
                  "--check-date", CHECK_DATE])
    report = json.loads(out)
    constants = [part for part in report["verdicts"] if part in CONSTANT_VERDICTS]
    declared = [part for part in report["audit"] if part in DECLARED_AUDIT]
    assert len(constants) == 46 and len(declared) == 75

    def parts(value):
        yield value
        children = value.values() if isinstance(value, dict) else \
            value if isinstance(value, list) else ()
        for child in children:
            yield from parts(child)

    assert encoded
    for value in encoded:
        for part in parts(value):
            assert part not in CONSTANT_VERDICTS and part not in DECLARED_AUDIT, part


@pytest.fixture(scope="module")
def report() -> ComplianceReport:
    """The compliant fixture's report under the full profile, strict:
    constant verdicts, verdicts with findings and declared audit entries."""
    from gdpr_engine import build_profile, evaluate_all, load_instance, load_profile

    profile = build_profile(load_profile(FULL_PROFILE.read_bytes()))
    graph = load_instance(document_bytes(compliant_document()), profile)
    return evaluate_all(graph, profile, check_date=CHECK_DATE, strict=True)


def _write(report, monkeypatch) -> tuple[str, list]:
    """What the writer prints for ``report``, and each value it encodes."""
    encoded = []

    def spy(value):
        encoded.append(value)
        return canonical_json(value)

    monkeypatch.setattr(cli, "canonical_json", spy)
    text = cli.report_json(report)
    monkeypatch.undo()
    assert text == canonical_json(report.to_payload())
    return text, encoded


def _is_constant(verdict) -> bool:
    return any(verdict is constant for constant in CONSTANTS)


def test_the_report_holds_constants_and_other_verdicts(report):
    constants = [v for v in report.verdicts if _is_constant(v)]
    assert len(constants) == 46 and len(report.verdicts) > len(constants)


# Verdicts that equal a rule's constant verdict, or nearly, but are not it.
LOOK_ALIKES = {
    "a copy": copy.copy,
    "a deep copy": copy.deepcopy,
    "the same values": lambda v: RuleVerdict(v.ruleId, v.status, v.articles),
    "articles as floats": lambda v: RuleVerdict(v.ruleId, v.status,
                                                tuple(float(a) for a in v.articles)),
    "articles as a list": lambda v: RuleVerdict(v.ruleId, v.status, list(v.articles)),
    "other articles": lambda v: RuleVerdict(v.ruleId, v.status, (5, 99)),
    "a finding with non-ASCII text": lambda v: RuleVerdict(
        v.ruleId, v.status, v.articles, (Finding("bürger \U0001F600", 'é "quoted"'),)),
    "only a hook dependency": lambda v: RuleVerdict(v.ruleId, v.status, v.articles, (),
                                                    ("V_getMinimumAgeForDS",)),
    "another rule's id": lambda v: RuleVerdict("C2" if v.ruleId != "C2" else "C3",
                                               v.status, v.articles),
    "the other status": lambda v: RuleVerdict(
        v.ruleId, NOT_APPLICABLE if v.status == PASS else PASS, v.articles),
}


@pytest.mark.parametrize("name", list(LOOK_ALIKES))
def test_verdicts_that_are_not_the_constant_object_are_encoded(name, report, monkeypatch):
    mutate = LOOK_ALIKES[name]
    verdicts = tuple(mutate(v) if _is_constant(v) else v for v in report.verdicts)
    odd = report.__class__(verdicts, report.profileFingerprint, report.graphFingerprint,
                           report.checkDate, report.summary, report.audit)
    _, encoded = _write(odd, monkeypatch)
    for verdict in verdicts:
        assert verdict.to_payload() in encoded, verdict


def test_an_unpickled_report_is_encoded_whole(report, monkeypatch):
    copied = pickle.loads(pickle.dumps(report))
    assert copied == report and not any(map(_is_constant, copied.verdicts))
    text, encoded = _write(copied, monkeypatch)
    assert text == cli.report_json(report)
    assert [v.to_payload() for v in copied.verdicts] == \
        [part for part in encoded if "rule" in part]


# Audit entries of a hand-built report that are not declared entries.
ODD_AUDIT = {
    "an undeclared action": {**DECLARED_AUDIT[0], "action": "rewrote constraint C2"},
    "an extra key": {**DECLARED_AUDIT[0], "note": "x"},
    "a missing key": {k: v for k, v in DECLARED_AUDIT[0].items() if k != "artifact"},
    "a non-ASCII variation id": {**DECLARED_AUDIT[0], "variation": "V1é"},
    "an action that is a list": {**DECLARED_AUDIT[0], "action": ["x"]},
    "a variation that is a dict": {**DECLARED_AUDIT[0], "variation": {"id": "V3"}},
    "an artifact that is a number": {**DECLARED_AUDIT[0], "artifact": 7},
    "no keys": {},
}


@pytest.mark.parametrize("name", list(ODD_AUDIT))
def test_a_hand_built_report_with_odd_audit_entries_is_encoded(name, monkeypatch):
    entry = ODD_AUDIT[name]
    odd = ComplianceReport((CONSTANTS[0],), "p", "g", CHECK_DATE, {PASS: 1.0, "ü": [None]},
                           (entry, DECLARED_AUDIT[0]))
    _, encoded = _write(odd, monkeypatch)
    assert entry in encoded and DECLARED_AUDIT[0] not in encoded


# Values of the right type for each verdict field, most unlike a constant's.
VERDICT_VALUES = {
    "ruleId": st.sampled_from(["C2", "V15", "", "é"]),
    "status": st.sampled_from([PASS, NOT_APPLICABLE, "Fail", "é"]),
    "articles": st.sampled_from([(), (5,), (5.0,), (True,), (5, 99)]),
    "findings": st.sampled_from([(Finding("", "m"),), (Finding("ü", "é \"q\""),)]),
    "hookDependencies": st.sampled_from([("V_getMinimumAgeForDS",), ("é",)]),
}


@st.composite
def verdicts(draw):
    """A rule's constant verdict, an equal copy of one, or one with a field
    set to another value."""
    constant = draw(st.sampled_from(CONSTANTS))
    kind = draw(st.sampled_from(["constant", "copy", "mutated"]))
    if kind == "constant":
        return constant
    if kind == "copy":
        return copy.copy(constant)
    fields = {name: getattr(constant, name) for name in VERDICT_VALUES}
    name = draw(st.sampled_from(sorted(fields)))
    fields[name] = draw(VERDICT_VALUES[name])
    return RuleVerdict(**fields)


ODD_VALUES = st.sampled_from([None, True, 7, 7.0, "", "é", [], [5.0], ["x"], {},
                              {"object": "ü", "message": "m"}])


@st.composite
def audit_entries(draw):
    """A declared audit entry, maybe with one key dropped, added or set to
    an odd value."""
    entry = dict(draw(st.sampled_from(DECLARED_AUDIT)))
    key = draw(st.sampled_from(sorted(entry)))
    edit = draw(st.sampled_from(["none", "drop", "add", "set"]))
    if edit == "drop":
        del entry[key]
    elif edit == "add":
        entry["extra"] = draw(ODD_VALUES)
    elif edit == "set":
        entry[key] = draw(ODD_VALUES)
    return entry


@settings(max_examples=200)
@given(verdicts=st.lists(verdicts(), max_size=8), audit=st.lists(audit_entries(), max_size=6))
def test_any_report_is_written_as_the_canonical_json_of_its_payload(verdicts, audit):
    report = ComplianceReport(tuple(verdicts), "p", "g", CHECK_DATE,
                              {PASS: len(verdicts)}, tuple(audit))
    assert cli.report_json(report) == canonical_json(report.to_payload())
