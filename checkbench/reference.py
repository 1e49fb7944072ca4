"""A fixed reference workload that runs no engine code.

The benchmark host is shared: its speed drifts by up to 40% within seconds,
and a whole run can fall in a slow period. A check's seconds therefore say
as much about the host as about the engine. The reference workload does the
same kind of work as a check (JSON parse, building small objects, sorting,
id lookups, canonical encoding, hashing) with the standard library only, on
a fixed copy of the compliant landscape. It is timed right before and right
after each check; a check's time divided by the mean of the two is nearly
independent of the host's speed (about 1% spread across two-second windows
in which raw check times spread by 40%). No change to the engine can change
the reference, so the ratio moves only when the engine does.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

_HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(_HERE, "data", "landscape.json"), encoding="utf-8") as _fh:
    _DOCUMENT = json.dumps(json.load(_fh)["base"])

ROUNDS = 3


class _Record:
    __slots__ = ("id", "cls", "attrs", "refs")

    def __init__(self, id, cls, attrs, refs):
        self.id, self.cls, self.attrs, self.refs = id, cls, attrs, refs


def _round() -> str:
    objects = json.loads(_DOCUMENT)["objects"]
    records = sorted(
        (_Record(o["id"], o["class"], dict(o["attrs"]),
                 {k: tuple(v) if isinstance(v, list) else (v,) for k, v in o["refs"].items()})
         for o in objects),
        key=lambda r: r.id)
    index = {r.id: r for r in records}
    resolved = sum(1 for r in records for ids in r.refs.values() for i in ids if i in index)
    by_class: dict[str, list[str]] = {}
    for r in records:
        by_class.setdefault(r.cls, []).append(r.id)
    encoded = json.dumps([{"id": r.id, "class": r.cls, "attrs": r.attrs} for r in records]
                         + [resolved, by_class], sort_keys=True)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def seconds() -> float:
    """Wall time of one run of the reference workload (about a millisecond)."""
    started = time.perf_counter()
    for _ in range(ROUNDS):
        _round()
    return time.perf_counter() - started
