"""The machine report's writer: ``check --format machine`` prints
``canonical_json(report.to_payload())`` and a newline, byte for byte, while
each rule's constant verdicts and each variation point's declared audit
entries are written from text built once, never encoded per check."""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import BENCHMARK_PROFILES, compliant_document, document_bytes, failing_variants
from gdpr_engine import cli, ingest
from gdpr_engine.ingest import canonical_json, report_json
from gdpr_engine.rules import RULE_CATALOG, VARIATION_RULE_SPECS, ComplianceReport
from gdpr_engine.variability import VARIATION_POINTS

FULL_PROFILE = next(path for path in BENCHMARK_PROFILES if path.stem == "full")
CHECK_DATE = "2023-06-01T00:00:00Z"

CONSTANT_VERDICTS = [verdict.to_payload()
                     for spec in (*RULE_CATALOG.values(), *VARIATION_RULE_SPECS.values())
                     for verdict in spec.constants.values()]
DECLARED_AUDIT = [entry.to_payload() for vp in VARIATION_POINTS.values() for entry in vp.audit]


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
def report_payload():
    """The payload of the compliant fixture's report under the full profile,
    strict: constant verdicts, verdicts with findings and declared audit
    entries."""
    from gdpr_engine import build_profile, evaluate_all, load_instance, load_profile

    profile = build_profile(load_profile(FULL_PROFILE.read_bytes()))
    graph = load_instance(document_bytes(compliant_document()), profile)
    return evaluate_all(graph, profile, check_date=CHECK_DATE, strict=True).to_payload()


def _set(key, value):
    return lambda part: part.__setitem__(key, value)


# Parts that look like a constant verdict or a declared audit entry and are not.
LOOK_ALIKES = {
    "verdict with other articles": ("verdicts", _set("articles", [5, 99])),
    "verdict with its articles as floats":
        ("verdicts", lambda v: v.__setitem__("articles", [float(a) for a in v["articles"]])),
    "verdict with its articles as a tuple":
        ("verdicts", lambda v: v.__setitem__("articles", tuple(v["articles"]))),
    "verdict with an extra key": ("verdicts", _set("note", "x")),
    "verdict without hookDependencies": ("verdicts", lambda v: v.pop("hookDependencies")),
    "verdict with only a hook dependency":
        ("verdicts", _set("hookDependencies", ["V_getMinimumAgeForDS"])),
    "verdict with a non-ASCII finding id":
        ("verdicts", _set("findings", [{"object": "bürger \U0001F600",
                                        "message": "é \"quoted\""}])),
    "verdict with a rule id that is a list": ("verdicts", _set("rule", ["C2"])),
    "verdict with its findings as a tuple": ("verdicts", _set("findings", ())),
    "audit entry with an undeclared action": ("audit", _set("action", "rewrote constraint C2")),
    "audit entry with an extra key": ("audit", _set("note", "x")),
    "audit entry with a non-ASCII variation id": ("audit", _set("variation", "V1é")),
    "audit entry with an action that is a list": ("audit", _set("action", ["x"])),
}


@pytest.mark.parametrize("name", list(LOOK_ALIKES))
def test_look_alike_parts_are_encoded(name, report_payload):
    key, mutate = LOOK_ALIKES[name]
    payload = copy.deepcopy(report_payload)
    for part in payload[key]:
        mutate(part)
    assert report_json(payload) == canonical_json(payload)


@pytest.mark.parametrize("change", [
    lambda p: p.__setitem__("extra", 1),
    lambda p: p.pop("summary"),
    lambda p: p.__setitem__("verdicts", tuple(p["verdicts"])),
    lambda p: p.__setitem__("audit", "none"),
    lambda p: p.__setitem__("summary", {"Pass": 1.0, "ü": [None, True]}),
], ids=["extra key", "missing key", "verdicts as a tuple", "audit as a string",
        "odd summary"])
def test_a_payload_of_another_shape_is_encoded(change, report_payload):
    payload = copy.deepcopy(report_payload)
    change(payload)
    assert report_json(payload) == canonical_json(payload)


ODD_VALUES = st.sampled_from([None, True, 7, 7.0, "", "é", [], (), [5.0], [True], ["x"],
                              {}, {"object": "ü", "message": "m"}])


@st.composite
def look_alike(draw):
    """A constant verdict or declared audit entry, maybe with one key
    dropped, added or set to an odd value."""
    part = copy.deepcopy(draw(st.sampled_from(CONSTANT_VERDICTS + DECLARED_AUDIT)))
    edit = draw(st.sampled_from(["none", "drop", "add", "set"]))
    key = draw(st.sampled_from(sorted(part)))
    if edit == "drop":
        del part[key]
    elif edit == "add":
        part["extra"] = draw(ODD_VALUES)
    elif edit == "set":
        part[key] = draw(ODD_VALUES)
    return part


@settings(max_examples=200)
@given(verdicts=st.lists(look_alike(), max_size=6), audit=st.lists(look_alike(), max_size=6))
def test_any_report_shaped_payload_is_written_as_its_canonical_json(verdicts, audit):
    payload = {"schemaVersion": "1", "checkDate": "2023-06-01T00:00:00Z",
               "graphFingerprint": "g", "profileFingerprint": "p",
               "summary": {"Pass": len(verdicts)}, "verdicts": verdicts, "audit": audit}
    assert report_json(payload) == canonical_json(payload)
