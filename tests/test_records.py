"""The record classes keep their contract: construction, fields, defaults,
repr, hashing, the ``dataclasses`` protocol, frozenness, pickling and copying.

``golden/records.json`` holds, for each of the engine's 34 record classes,
what ``dataclasses.fields`` gives (name, type, default, init, repr, compare,
kw_only), ``__match_args__``, the ``repr`` of a sample instance, whether it
hashes and has a ``__dict__``, and the ``repr`` of ``dataclasses.replace``
and ``dataclasses.asdict`` of it. It was written by ``python
tests/test_records.py`` from the engine whose records were dataclasses.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gdpr_engine
from fixtures import compliant_document, document_bytes
from gdpr_engine import model, rules, variability

TABLE = Path(__file__).with_name("golden") / "records.json"


def samples() -> dict[str, object]:
    """One instance of each record class, by class name. Every frozenset
    holds one item, so no repr follows the hash seed."""
    finding = rules.Finding("p1", "a message")
    verdict = rules.RuleVerdict("C2", "Fail", (5, 6), (finding,), ("V_hook",))
    out = {node_class.__name__: node_class(id="x", cls=min(
        wire for wire, other in model.DATACLASS_FOR.items() if other is node_class))
        for node_class in model.DATACLASS_FOR.values()}
    out.update({
        "Node": model.Node("n1", "Country"),
        "GenericNode": model.GenericNode("g1", "Notification", {"about": "ERASURE"},
                                         {"processing": ("p1",)}),
        "TransferBasis": model.TransferBasis("BCR", information=("CONTACT_DETAILS",),
                                             approved=True),
        "Consultation": model.Consultation("2023-01-01T00:00:00Z", extended=True),
        "AttrSpec": model.AttrSpec("kind", "str", required=True, enum="Actor_Type"),
        "RefSpec": model.RefSpec("to", frozenset({"Country"}), required=True, py="toCountry"),
        "Violation": model.Violation(model.DANGLING_REF, "p1", "a message"),
        "Finding": finding,
        "RuleVerdict": verdict,
        "RuleSpec": rules.RuleSpec("C99", (5,), "a summary", len, constants={"Pass": verdict}),
        "ComplianceReport": rules.ComplianceReport(
            (verdict,), "pf", "gf", "2023-06-01T00:00:00Z", {"Fail": 1},
            ({"variation": "V1", "artifact": "model", "action": "added"},)),
        "Resolution": variability.Resolution("V1", {"thresholds": {"AT": 14}}),
        "Adaptation": variability.Adaptation(frozenset({"RIGHT_TO_OBJECT"})),
        "AuditEntry": variability.AuditEntry("V1", "model", "added"),
        "VariationPoint": variability.VariationPoint(
            "V99", 8, "a summary", {}, hooks=("V_hook",), hookTargets=("C5",),
            addsRules=("V99",), enumExtensions=(("Actor_Type", "OFFICIAL"),)),
    })
    assert len(out) == 34
    return out


def _default(f: dataclasses.Field) -> str | None:
    if f.default_factory is not dataclasses.MISSING:
        return "factory " + f.default_factory.__qualname__
    if f.default is dataclasses.MISSING:
        return None
    return "a sentinel" if type(f.default) is object else repr(f.default)


def _hashes(value: object) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def contract(sample: object) -> dict:
    """What the golden table holds for the class of ``sample``."""
    return {
        "fields": [[f.name, repr(f.type), _default(f), f.init, f.repr, f.compare, f.kw_only]
                   for f in dataclasses.fields(sample)],
        "match_args": list(type(sample).__match_args__),
        "repr": repr(sample),
        "hashes": _hashes(sample),
        "dict": hasattr(sample, "__dict__"),
        "replace": repr(dataclasses.replace(sample)),
        "asdict": repr(dataclasses.asdict(sample)),
    }


SAMPLES = samples()


@pytest.fixture(scope="module")
def table() -> dict:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_the_table_holds_every_record_class(table):
    assert sorted(table) == sorted(SAMPLES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_each_record_class_keeps_its_golden_contract(table, name):
    sample = SAMPLES[name]
    assert type(sample).__qualname__ == type(sample).__name__ == name
    assert contract(sample) == table[name]
    if not table[name]["dict"]:
        assert not hasattr(sample, "__dict__")


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_each_record_is_frozen_and_equal_only_to_its_own_class(name):
    sample = SAMPLES[name]
    first = dataclasses.fields(sample)[0].name
    other_class = type(name, (type(sample),), {"__slots__": ()})
    other = object.__new__(other_class)
    for f in dataclasses.fields(sample):
        object.__setattr__(other, f.name, getattr(sample, f.name))
    assert sample != other and other != sample
    assert sample == dataclasses.replace(sample)
    for refused in (lambda: setattr(sample, first, getattr(sample, first)),
                    lambda: delattr(sample, first),
                    lambda: setattr(sample, "undeclared", 1),
                    lambda: delattr(sample, "undeclared")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            refused()
    assert not hasattr(sample, "undeclared")


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_each_record_pickles_and_copies(name):
    sample = SAMPLES[name]
    copies = [copy.copy(sample), copy.deepcopy(sample)]
    copies += [pickle.loads(pickle.dumps(sample, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for made in copies:
        assert type(made) is type(sample)
        assert made == sample and repr(made) == repr(sample)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_each_record_rebuilds_by_keyword_from_its_init_fields(name):
    sample = SAMPLES[name]
    given = {f.name: getattr(sample, f.name) for f in dataclasses.fields(sample) if f.init}
    rebuilt = type(sample)(**given)
    assert rebuilt == sample and repr(rebuilt) == repr(sample)


@pytest.mark.parametrize("build", [
    lambda: model.Violation(model.DANGLING_REF, "p1"),
    lambda: model.Actor(cls="Data_Controller"),
    lambda: rules.RuleSpec("C99", (5,), "a summary", len),
    lambda: rules.Finding("p1", "a message", severity="high"),
    lambda: model.TransferBasis("BCR", approval=True),
    lambda: rules.RuleSpec("C99", (5,), "a summary", len, "generic", {}),
    lambda: variability.VariationPoint("V99", 8, "a summary", {}, audit=()),
], ids=["missing argument", "missing keyword", "missing keyword-only argument",
        "unknown keyword", "unknown field", "keyword-only argument by position",
        "init=False field as an argument"])
def test_a_record_refuses_arguments_its_fields_do_not_take(build):
    with pytest.raises(TypeError, match=r"^[A-Z][A-Za-z]+\.__init__\(\) "):
        build()


# Imports the CLI, runs one machine-format check, then lists which of the
# modules that ``dataclasses`` loads are loaded, and the fields of Actor.
GATE = """\
import sys
from gdpr_engine.cli import main
code = main(["check", "--instance", sys.argv[1], "--profile", sys.argv[2],
             "--format", "machine"])
loaded = sorted({"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(sys.modules))
import dataclasses, json
from gdpr_engine.model import Actor
print(json.dumps([code, loaded, [f.name for f in dataclasses.fields(Actor)]]), file=sys.stderr)
"""


def test_a_check_imports_no_dataclasses(tmp_path):
    instance = tmp_path / "instance.json"
    instance.write_bytes(document_bytes(compliant_document()))
    root = Path(gdpr_engine.__file__).parents[2]
    result = subprocess.run(
        [sys.executable, "-c", GATE, str(instance),
         str(root / "checkbench" / "profiles" / "full.json")],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    report = json.loads(result.stdout)
    code, loaded, names = json.loads(result.stderr)
    assert (code, loaded) == (1 if report["summary"]["Fail"] else 0, [])
    assert names == [f.name for f in dataclasses.fields(model.Actor)]
    assert names[:4] == ["id", "cls", "kind", "contactDetails"]


if __name__ == "__main__":
    TABLE.write_text(json.dumps({name: contract(sample) for name, sample in SAMPLES.items()},
                                indent=1, sort_keys=True) + "\n", encoding="utf-8")
