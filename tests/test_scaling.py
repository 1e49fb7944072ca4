"""Evaluation work grows linearly with the landscape.

The guard counts graph lookups instead of timing them: the rows returned by
``InstanceGraph.of_class`` plus the entries returned by
``InstanceGraph.referrers`` during one ``evaluate_all``. A rule that scans a
whole class once per processing makes the count grow with the square of the
landscape, about 4x when it doubles.
"""

from __future__ import annotations

import json

from fixtures import compliant_document, failing_variants
from gdpr_engine import evaluate_all, load_instance
from gdpr_engine.model import InstanceGraph


def prefixed(o: dict, prefix: str) -> dict:
    refs = {role: ([prefix + t for t in value] if isinstance(value, list)
                   else prefix + value)
            for role, value in o.get("refs", {}).items()}
    return {"id": prefix + o["id"], "class": o["class"],
            "attrs": o.get("attrs", {}), "refs": refs}


def replicated(replicas: int) -> bytes:
    """``replicas`` copies of the compliant document and of every failing
    variant, each with its own id prefix, so no copy references another."""
    documents = [compliant_document(), *failing_variants().values()]
    objects = [prefixed(o, f"r{i}.{j}.")
               for i in range(replicas)
               for j, document in enumerate(documents)
               for o in document["objects"]]
    return json.dumps({"schemaVersion": "1", "objects": objects}).encode("utf-8")


def lookup_rows(monkeypatch, graph, profile) -> int:
    rows = 0
    of_class = InstanceGraph.of_class
    referrers = InstanceGraph.referrers

    def counted_of_class(self, class_name):
        nonlocal rows
        found = of_class(self, class_name)
        rows += len(found)
        return found

    def counted_referrers(self, target_id, class_name, role):
        nonlocal rows
        found = referrers(self, target_id, class_name, role)
        rows += len(found)
        return found

    with monkeypatch.context() as patch:
        patch.setattr(InstanceGraph, "of_class", counted_of_class)
        patch.setattr(InstanceGraph, "referrers", counted_referrers)
        evaluate_all(graph, profile)
    return rows


def test_lookup_rows_grow_linearly_with_the_landscape(monkeypatch, generic_profile):
    counts = {}
    for replicas in (1, 2):
        graph = load_instance(replicated(replicas), generic_profile)
        counts[replicas] = lookup_rows(monkeypatch, graph, generic_profile)
    assert counts[1] > 0
    assert counts[2] <= 2.2 * counts[1], counts
