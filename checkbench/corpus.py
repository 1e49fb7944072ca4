"""Seeded input generator for the `check` benchmark.

The documents come from ``data/landscape.json``: a frozen copy of the
test suite's compliant retailer landscape (47 objects) and its 35 per-rule
variants, stored as edits (``drop`` ids, ``put`` whole objects). The copy
is frozen so that an edit to the test fixtures cannot move the benchmark.

A generated landscape is a set of replicas. Each replica is one document
(the compliant one or a variant) whose ids and refs carry a replica prefix,
so replicas never reference each other. Objects are written in a seeded
shuffled order. The generator also returns the placement (which document
each replica is), from which ``expect.py`` derives the expected report.
"""

from __future__ import annotations

import copy
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
PROFILE_DIR = os.path.join(HERE, "profiles")

COMPLIANT = "ok"
VARIANTS = tuple(f"C{i}" for i in range(1, 36))
DOCUMENTS = (COMPLIANT,) + VARIANTS

# Extended literals that only a profile resolving V8, V15 and V16 accepts.
# Documents checked against the full profile carry them, so validation runs
# against the extended enumerations and V8/V15 have instances.
_TAILORED_DPIA_INFORMATION = ("RECONCILIATION_ASSESSMENT", "EMPLOYMENT_ASSESSMENT")
_TAILORED_CATEGORY = "IDENTIFICATION"

with open(os.path.join(HERE, "data", "landscape.json"), encoding="utf-8") as _fh:
    _LANDSCAPE = json.load(_fh)


def document_objects(kind: str, tailored: bool = False) -> list[dict]:
    """Objects of the compliant document (``"ok"``) or of a variant."""
    objects = copy.deepcopy(_LANDSCAPE["base"]["objects"])
    if kind != COMPLIANT:
        edit = _LANDSCAPE["variants"][kind]
        dropped = set(edit["drop"])
        put = {o["id"]: copy.deepcopy(o) for o in edit["put"]}
        objects = [put.pop(o["id"], o) for o in objects if o["id"] not in dropped]
        objects.extend(put.values())
    if tailored:
        for o in objects:
            if o["id"] == "dpia1":
                o["attrs"]["information"] += list(_TAILORED_DPIA_INFORMATION)
            elif o["id"] == "pd1":
                o["attrs"]["categories"] = o["attrs"]["categories"] + [_TAILORED_CATEGORY]
    return objects


OBJECT_COUNTS = {kind: len(document_objects(kind)) for kind in DOCUMENTS}


def prefixed(objects: list[dict], prefix: str) -> list[dict]:
    """Copy of ``objects`` with ``prefix`` on every id and every ref."""
    out = []
    for o in objects:
        refs = {role: ([prefix + t for t in value] if isinstance(value, list)
                       else prefix + value)
                for role, value in o.get("refs", {}).items()}
        out.append({"id": prefix + o["id"], "class": o["class"],
                    "attrs": o.get("attrs", {}), "refs": refs})
    return out


def replica_prefix(index: int) -> str:
    return f"r{index:04d}."


def landscape(rng: random.Random, replicas: int, compliant_share: float | None,
              tailored: bool) -> tuple[bytes, list[str]]:
    """One document of ``replicas`` replicas and its placement.

    With ``compliant_share`` None every replica is a uniform draw, with
    replacement, of the compliant document or one of the 35 variants;
    otherwise a replica is compliant with that probability and a uniform
    variant draw otherwise. Replica 0 is always compliant, so the C1 gate
    holds for the landscape as a whole.
    """
    placement = [COMPLIANT]
    for _ in range(replicas - 1):
        if compliant_share is None:
            placement.append(rng.choice(DOCUMENTS))
        elif rng.random() < compliant_share:
            placement.append(COMPLIANT)
        else:
            placement.append(rng.choice(VARIANTS))
    objects = []
    for index, kind in enumerate(placement):
        objects.extend(prefixed(document_objects(kind, tailored),
                                replica_prefix(index)))
    rng.shuffle(objects)
    return _encode(objects), placement


def small_document(kind: str, tailored: bool) -> bytes:
    """One fixture-sized landscape, objects in document order."""
    return _encode(document_objects(kind, tailored))


def _encode(objects: list[dict]) -> bytes:
    return json.dumps({"schemaVersion": "1", "objects": objects}).encode("utf-8")


def profile_path(name: str) -> str:
    return os.path.join(PROFILE_DIR, f"{name}.json")
