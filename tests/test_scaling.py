"""Evaluation work grows linearly with the landscape.

The guards count instead of timing. One counts graph lookups: the rows
returned by ``InstanceGraph.of_class`` plus the entries returned by
``InstanceGraph.referrers`` during one ``evaluate_all``. A rule that scans a
whole class once per processing makes the count grow with the square of the
landscape, about 4x when it doubles. The others count the bytes allocated at
the peak of ``graph_fingerprint``, which streams the canonical document into
the hash and so holds one object's text at a time, and of ``load_instance``.
A text longer than ``_SCAN_WHOLE`` (256 KiB) is decoded one object at a
time, so its load never holds a JSON tree of the whole document; a shorter
one is parsed whole, and its tree, about 5 times the text, stays under 8
times ``_SCAN_WHOLE``. One bounds the bytes a loaded
graph keeps as a ratio to its text. The last counts ``parse_minutes``
calls: one load parses each distinct timestamp string once, however often
it occurs.
"""

from __future__ import annotations

import json
import sys
import tracemalloc
from collections import Counter

import pytest

from fixtures import compliant_document, failing_variants, prefixed
from gdpr_engine import (
    evaluate_all, graph_fingerprint, ingest, load_instance, model, serialize_instance,
)
from gdpr_engine.model import CLASS_ATTRS, InstanceGraph
from gdpr_engine.timebase import parse_minutes


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


def compliant_replicas(replicas: int) -> bytes:
    """``replicas`` copies of the compliant document, each with its own id
    prefix."""
    objects = compliant_document()["objects"]
    return json.dumps({"schemaVersion": "1",
                       "objects": [prefixed(o, f"r{i}.") for i in range(replicas)
                                   for o in objects]}).encode("utf-8")


def load_transient_bytes(data: bytes) -> tuple[InstanceGraph, int]:
    """The graph of ``data`` and the bytes its load held at its peak beyond
    those the graph keeps."""
    load_instance(data)  # warm up: first-call allocations are not the load's
    tracemalloc.start()
    try:
        graph = load_instance(data)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return graph, peak - retained


def test_load_memory_stays_near_the_text_size():
    """Beyond the graph it returns, a load of a text longer than
    ``_SCAN_WHOLE`` holds little more than the decoded text: a JSON tree of
    the whole document would be several times the text's size."""
    data = compliant_replicas(40)
    assert len(data) > ingest._SCAN_WHOLE  # so it is read object by object
    graph, transient = load_transient_bytes(data)
    assert len(graph) == 40 * len(compliant_document()["objects"])
    assert transient < 1.5 * len(data), (transient, len(data))


def test_a_text_read_in_one_call_keeps_its_tree_small():
    """The longest text read in one call holds its whole JSON tree, about 5
    times the text; the size rule keeps that under a fixed bound."""
    replicas = 1
    while len(compliant_replicas(replicas + 1)) <= ingest._SCAN_WHOLE:
        replicas += 1
    data = compliant_replicas(replicas)
    graph, transient = load_transient_bytes(data)
    assert len(graph) == replicas * len(compliant_document()["objects"])
    assert transient < 8 * ingest._SCAN_WHOLE, (transient, len(data))


def test_a_loaded_graph_is_smaller_than_its_text_allows():
    """The graph a load returns keeps one string object per distinct value,
    so ids its refs repeat, enumeration literals and repeated timestamps
    cost one string each; a graph of fresh strings is about 2.5 times its
    text."""
    data = replicated(5)
    load_instance(data)  # warm up: first-call allocations are not the graph's
    tracemalloc.start()
    try:
        graph = load_instance(data)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(graph) > 1_000
    assert retained < 1.8 * len(data), (retained, len(data))


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="before 3.11 a caller keeps its temporary arguments alive")
def test_a_load_lets_the_input_bytes_go_before_the_scan(monkeypatch):
    """A caller that passes its bytes as a temporary, as ``check`` passes
    ``handle.read()``, holds only the decoded text while the objects are
    scanned."""
    size = len(replicated(5))
    stream = ingest._stream_nodes
    held = []

    def spy(text):
        held.append(tracemalloc.get_traced_memory()[0])
        return stream(text)

    monkeypatch.setattr(ingest, "_stream_nodes", spy)
    tracemalloc.start()
    try:
        load_instance(replicated(5))
    finally:
        tracemalloc.stop()
    assert held[0] < 1.3 * size, (held, size)


def test_a_load_from_a_binary_file_frees_the_bytes_before_the_scan(monkeypatch, tmp_path):
    """``check`` hands ``load_instance`` its open file, whose bytes the load
    reads and drops once decoded: on every version, only the decoded text
    of the document is held while the objects are scanned."""
    path = tmp_path / "landscape.json"
    path.write_bytes(replicated(5))
    size = path.stat().st_size
    stream = ingest._stream_nodes
    held = []

    def spy(text):
        held.append(tracemalloc.get_traced_memory()[0])
        return stream(text)

    monkeypatch.setattr(ingest, "_stream_nodes", spy)
    with open(path, "rb") as handle:
        tracemalloc.start()
        try:
            graph = load_instance(handle)
        finally:
            tracemalloc.stop()
    assert len(graph) > 1_000
    assert held[0] < 1.3 * size, (held, size)


def timestamp_slots(document: dict):
    """(holder dict, key) of every timestamp in ``document``: each attr of
    kind ``ts`` and the consultation's two instants."""
    for o in document["objects"]:
        attrs = o.get("attrs", {})
        for spec in CLASS_ATTRS.get(o["class"], ()):
            if spec.kind == "ts" and isinstance(attrs.get(spec.name), str):
                yield attrs, spec.name
        consultation = attrs.get("consultation")
        if isinstance(consultation, dict):
            for name in ("requestedAt", "adviceAt"):
                if isinstance(consultation.get(name), str):
                    yield consultation, name


def parse_calls(monkeypatch, data: bytes) -> Counter:
    """How often one load of ``data`` parses each timestamp string."""
    calls: Counter = Counter()

    def counted(raw):
        calls[raw] += 1
        return parse_minutes(raw)

    with monkeypatch.context() as patch:
        patch.setattr(ingest, "parse_minutes", counted)
        patch.setattr(model, "parse_minutes", counted)
        load_instance(data)
    return calls


def test_a_load_parses_each_distinct_timestamp_once(monkeypatch):
    repeated = json.loads(replicated(3))
    distinct = json.loads(replicated(3))
    for n, (holder, key) in enumerate(timestamp_slots(distinct), 1):
        # Same minute, another microsecond: the document still loads.
        holder[key] = holder[key].replace("Z", f".{n:06d}Z")
    for document, all_distinct in ((repeated, False), (distinct, True)):
        stamps = [holder[key] for holder, key in timestamp_slots(document)]
        assert (len(set(stamps)) == len(stamps)) is all_distinct
        calls = parse_calls(monkeypatch, json.dumps(document).encode("utf-8"))
        assert calls == Counter(set(stamps))
