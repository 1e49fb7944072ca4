"""The per-processing facts that ``EvalContext`` computes once per evaluation
equal a fresh scan of the graph, are read back as the same object, and
cannot be changed by a rule.

A differential oracle: every fact the rules share is recomputed here as a
plain walk over ``graph[id]``, on the fixture, its 35 variants and a seeded
landscape of replicas, under the generic and the full profile.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from types import MappingProxyType

import pytest

from fixtures import compliant_document, failing_variants, find, prefixed
from gdpr_engine import load_instance
from gdpr_engine.ingest import load_profile
from gdpr_engine.rules import ALWAYS_APPLICABLE_RIGHTS, EvalContext
from gdpr_engine.variability import build_profile, default_profile

FULL_PROFILE = Path(__file__).resolve().parents[1] / "checkbench" / "profiles" / "full.json"


def landscape(seed: int, replicas: int) -> dict:
    """``replicas`` prefixed draws of the fixture and its variants, shuffled."""
    rng = random.Random(seed)
    documents = [compliant_document(), *failing_variants().values()]
    objects = [prefixed(o, f"r{i}.") for i in range(replicas)
               for o in rng.choice(documents)["objects"]]
    rng.shuffle(objects)
    return {"schemaVersion": "1", "objects": objects}


def repeated_refs() -> dict:
    """The fixture with a support listed twice and a request listed twice."""
    document = compliant_document()
    processing = find(document, "p1")["refs"]
    processing["supportedRights"] = [*processing["supportedRights"], "rs_access"]
    find(document, "rs_erase")["refs"]["requests"] *= 2
    return document


DOCUMENTS = {"fixture": compliant_document(), **failing_variants(),
             "repeated refs": repeated_refs(),
             "landscape": landscape(seed=7, replicas=20)}

PROFILES = {
    "generic": default_profile().finalize(),
    "full": build_profile(load_profile(FULL_PROFILE.read_bytes())),
}


def by_id(nodes) -> tuple:
    return tuple(sorted({node.id: node for node in nodes}.values(),
                        key=lambda node: node.id))


def expected_facts(ctx: EvalContext, p) -> dict:
    """Each fact of ``p``, scanned afresh."""
    graph = ctx.graph
    personal_data = [graph[i] for i in p.personalData]
    bases = frozenset(graph[i].legalBasis for i in p.purposes)
    supports = tuple(graph[i] for i in p.supportedRights)
    requests: dict = {}
    for support in supports:
        for i in support.requests:
            request = graph[i]
            requests.setdefault((support.right, request.granted), []).append(request)
    rights = set(ALWAYS_APPLICABLE_RIGHTS)
    if bases & {"BY_CONSENT", "PERFORMANCE_OF_CONTRACT"} and any(
            pd.collectedDirectlyFromSubject for pd in personal_data):
        rights.add("RIGHT_TO_PORTABILITY")
    if bases & {"BY_CONSENT", "LEGITIMATE_INTEREST", "PUBLIC_INTEREST"} \
            or "PROFILING" in p.operations:
        rights.add("RIGHT_TO_OBJECT")
    if p.automatedDecisionMaking:
        rights.add("RIGHT_TO_NOT_BE_PART_OF_A_DECISION")
    removed = ctx.profile.adaptations.get("C9")
    return {
        "bases": bases,
        "categories": frozenset(c for pd in personal_data for c in pd.categories),
        "subjects": by_id(graph[s] for pd in personal_data for s in pd.subjects),
        "actors": by_id(graph[i] for i in (*p.controllers, *p.processors)),
        "identifiable": any(pd.identifiesSubject for pd in personal_data),
        "rights_applicable": frozenset(
            r for r in rights
            if not (removed and r in removed.removedRights)
            and not ctx.right_derogated(p, r)),
        "supports": supports,
        "request_index": {key: tuple(found) for key, found in requests.items()},
        **{f"measures {cls}": tuple(m for m in (graph[i] for i in p.securityMeasures)
                                    if m.cls == cls)
           for cls in ("Technical", "Organizational")},
    }


def read_fact(ctx: EvalContext, name: str, p):
    if name.startswith("measures "):
        return ctx.measures(p, name.split()[1])
    return getattr(ctx, name)(p)


@pytest.mark.parametrize("profile_name", list(PROFILES))
@pytest.mark.parametrize("document_name", list(DOCUMENTS))
def test_each_memoized_fact_equals_a_fresh_scan(document_name, profile_name):
    profile = PROFILES[profile_name]
    graph = load_instance(json.dumps(DOCUMENTS[document_name]).encode(), profile)
    ctx = EvalContext(graph, profile)
    for p in ctx.scope():
        for name, expected in expected_facts(ctx, p).items():
            got = read_fact(ctx, name, p)
            assert got == expected, (p.id, name)
            assert read_fact(ctx, name, p) is got, (p.id, name)
            if name == "request_index":
                assert isinstance(got, MappingProxyType), p.id
                assert all(type(found) is tuple for found in got.values()), p.id
            elif name != "identifiable":
                assert type(got) in (frozenset, tuple), (p.id, name)
    # No fact consults a hook, so reading them leaves strict mode's record empty.
    assert ctx.defaulted_hooks == set()


def test_the_landscape_holds_processings_in_scope_under_both_profiles():
    for profile in PROFILES.values():
        graph = load_instance(json.dumps(DOCUMENTS["landscape"]).encode(), profile)
        assert len(EvalContext(graph, profile).scope()) >= 20
