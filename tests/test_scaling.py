"""Evaluation work grows linearly with the landscape.

The guards count instead of timing. One counts graph lookups: the rows
returned by ``InstanceGraph.of_class`` plus the entries returned by
``InstanceGraph.referrers`` during one ``evaluate_all``. A rule that scans a
whole class once per processing makes the count grow with the square of the
landscape, about 4x when it doubles. The others count the bytes allocated at
the peak of ``graph_fingerprint``, which streams the canonical document into
the hash and so holds one object's text at a time, and of ``load_instance``,
which decodes the document one object at a time and so never holds a JSON
tree of the whole document.
"""

from __future__ import annotations

import json
import tracemalloc

from fixtures import compliant_document, failing_variants, prefixed
from gdpr_engine import evaluate_all, graph_fingerprint, load_instance, serialize_instance
from gdpr_engine.model import InstanceGraph


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


def fingerprint_peak_bytes(graph) -> int:
    graph_fingerprint(graph)  # warm up: first-call allocations are not the graph's
    tracemalloc.start()
    try:
        graph_fingerprint(graph)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fingerprint_memory_does_not_grow_with_the_graph():
    objects = compliant_document()["objects"]
    peaks, sizes = {}, {}
    for replicas in (4, 40):
        document = {"schemaVersion": "1",
                    "objects": [prefixed(o, f"r{i}.") for i in range(replicas)
                                for o in objects]}
        graph = load_instance(json.dumps(document).encode("utf-8"))
        sizes[replicas] = len(serialize_instance(graph))
        peaks[replicas] = fingerprint_peak_bytes(graph)
    assert peaks[40] < sizes[40] / 10, (peaks, sizes)
    assert peaks[40] < 1.5 * peaks[4], (peaks, sizes)


def test_load_memory_stays_near_the_text_size():
    """Beyond the graph it returns, a load holds little more than the
    decoded text: a JSON tree of the whole document would be several times
    the text's size."""
    objects = compliant_document()["objects"]
    document = {"schemaVersion": "1",
                "objects": [prefixed(o, f"r{i}.") for i in range(40) for o in objects]}
    data = json.dumps(document).encode("utf-8")
    load_instance(data)  # warm up: first-call allocations are not the load's
    tracemalloc.start()
    try:
        graph = load_instance(data)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph) == 40 * len(objects)
    assert peak - retained < 1.5 * len(data), (peak, retained, len(data))
