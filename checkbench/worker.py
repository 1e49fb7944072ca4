"""Child process of the `check` benchmark. ``run.py`` starts it; it is not a
command of its own.

    worker.py time PLAN SECONDS OUT   timed loop, tracing off
    worker.py trace PLAN SECONDS OUT  timed loop with spans, then layer probes

A plan (written by ``run.py``) lists the operations, each one argv for
``gdpr-engine`` plus its instance size, and the order in which to run them.
One operation is one in-process ``cli.main`` call with stdout captured: the
path a user runs. Load is a closed loop of one check at a time.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _run_check(cli, argv: list[str]) -> tuple[float, int | None, str, str]:
    """(seconds, exit code, stdout, error) of one in-process check."""
    buffer = io.StringIO()
    error = ""
    code = None
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a raising check is a failed check
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - started
    return elapsed, code, buffer.getvalue(), error


class _Results:
    """Per-check records plus the first report of each operation."""

    def __init__(self) -> None:
        self.checks: list[list] = []
        self.first_reports: dict[int, str] = {}

    def add(self, op: int, elapsed: float, code, stdout: str, error: str,
            reference_s: float | None = None) -> None:
        digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
        self.checks.append([op, elapsed, code, digest, error, reference_s])
        self.first_reports.setdefault(op, stdout)

    def payload(self) -> dict:
        return {"checks": self.checks,
                "first_reports": {str(k): v for k, v in self.first_reports.items()},
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _stream(plan: dict):
    while True:
        yield from plan["order"]


def timed(plan: dict, seconds: float) -> dict:
    from gdpr_engine import cli

    results = _Results()
    deadline = time.perf_counter() + seconds
    for op in _stream(plan):
        # A user's check runs in a fresh process; collect the previous
        # check's garbage outside the timed region.
        gc.collect()
        before = reference.seconds()
        elapsed, code, stdout, error = _run_check(cli, plan["ops"][op]["argv"])
        after = reference.seconds()
        results.add(op, elapsed, code, stdout, error, (before + after) / 2)
        if time.perf_counter() >= deadline:
            break
    return results.payload()


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

class Tracer:
    """In-memory spans (name, start, end, parent, check) around the public
    calls of each layer, plus call counts of the graph lookups."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.check = 0
        self.counts = {"of_class_calls": 0, "of_class_rows": 0, "resolve_calls": 0}
        self.evaluate_counts: dict | None = None
        self.last_graph = None
        self.last_profile = None
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.check])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def _wrap(self, name: str, fn, after=None):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(result)
            return result
        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from gdpr_engine import cli, ingest, model, rules, variability

        def keep_graph(graph):
            self.last_graph = graph

        def keep_profile(profile):
            self.last_profile = profile

        spanned = [
            (cli, "load_profile", "ingest.load_profile", None),
            (cli, "build_profile", "variability.build_profile", keep_profile),
            (variability.SpecializationProfile, "apply", "variability.apply", None),
            (variability.SpecializationProfile, "finalize", "variability.finalize", None),
            (cli, "load_instance", "ingest.load_instance", keep_graph),
            (ingest, "InstanceGraph", "model.graph", None),
            (ingest, "validate_graph", "model.validate", None),
            (model.InstanceGraph, "latest_minutes", "model.latest_minutes", None),
            (variability.SpecializationProfile, "fingerprint",
             "variability.profile_fingerprint", None),
            (variability.SpecializationProfile, "resolution_table_payload",
             "variability.audit_payload", None),
            (ingest, "graph_fingerprint", "ingest.graph_fingerprint", None),
            (rules.ComplianceReport, "to_payload", "rules.to_payload", None),
        ]
        for owner, attr, name, after in spanned:
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr), after))

        counts = self.counts
        of_class = model.InstanceGraph.of_class
        resolve = model.InstanceGraph.resolve

        def counted_of_class(graph, class_name):
            rows = of_class(graph, class_name)
            counts["of_class_calls"] += 1
            counts["of_class_rows"] += len(rows)
            return rows

        def counted_resolve(graph, ids):
            counts["resolve_calls"] += 1
            return resolve(graph, ids)

        self._patch(model.InstanceGraph, "of_class", counted_of_class)
        self._patch(model.InstanceGraph, "resolve", counted_resolve)

        evaluate_all = cli.evaluate_all

        def counted_evaluate_all(*args, **kwargs):
            before = dict(counts)
            with self.span("rules.evaluate_all"):
                report = evaluate_all(*args, **kwargs)
            self.evaluate_counts = {k: counts[k] - before[k] for k in counts}
            return report

        self._patch(cli, "evaluate_all", counted_evaluate_all)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# Rule probes on graphs smaller than this repeat each call, so that a rule's
# time rises above the clock's resolution; their spans hold the mean.
PROBE_OBJECTS = 1000


# Rules that a profile lacks are timed under a profile that has them, on the
# same landscape, so that every rule has a time on every workload.
def _rule_profiles(active_profile, full_profile, generic_profile) -> dict:
    out = {rule_id: generic_profile for rule_id in generic_profile.active_rule_ids()}
    out.update({rule_id: full_profile for rule_id in full_profile.active_rule_ids()})
    out.update({rule_id: active_profile for rule_id in active_profile.active_rule_ids()})
    return out


def traced(plan: dict, seconds: float, spans_path: str) -> dict:
    from gdpr_engine import cli, ingest, rules

    tracer = Tracer()
    results = _Results()
    probes: list[dict] = []
    with open(plan["full_profile"], "rb") as handle:
        full_profile = cli.build_profile(cli.load_profile(handle.read()))
    generic_profile = cli.default_profile().finalize()
    check_date = plan["probe_check_date"]

    deadline = time.perf_counter() + seconds
    for op in _stream(plan):
        tracer.check += 1
        argv = plan["ops"][op]["argv"]
        tracer.install()
        try:
            root = tracer.open("cli.main")
            elapsed, code, stdout, error = _run_check(cli, argv)
            tracer.close(root)
        finally:
            tracer.uninstall()
        results.add(op, elapsed, code, stdout, error)
        if error:
            break  # no graph to probe; the parent reports the failed check
        probe = {"counts": tracer.evaluate_counts, "objects": plan["ops"][op]["objects"]}
        with open(argv[argv.index("--instance") + 1], "rb") as handle:
            data = handle.read()
        graph, profile = tracer.last_graph, tracer.last_profile
        with tracer.span("probe.parse"):
            json.loads(data)
        with tracer.span("probe.latest_minutes"):
            graph.latest_minutes()
        repeats = max(1, PROBE_OBJECTS // len(graph))
        by_rule = _rule_profiles(profile, full_profile, generic_profile)
        for rule_id, rule_profile in sorted(by_rule.items()):
            index = tracer.open(f"probe.rule.{rule_id}")
            for _ in range(repeats):
                rules.evaluate_rule(rule_id, graph, rule_profile, check_date=check_date)
            tracer.close(index)
            span = tracer.spans[index]
            span[2] = span[1] + (span[2] - span[1]) / repeats
        probe["findings"] = sum(len(v["findings"]) for v in json.loads(stdout)["verdicts"])
        probes.append(probe)
        tracer.last_graph = tracer.last_profile = None
        gc.collect()
        if time.perf_counter() >= deadline:
            break

    growth = _growth_probe(plan, ingest, rules, cli)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for name, start, end, parent, check in tracer.spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "check": check}) + "\n")
    payload = results.payload()
    payload.update({"probes": probes, "spans": _span_summary(tracer.spans),
                    "growth": growth})
    return payload


def _span_summary(spans: list[list]) -> dict:
    """span name -> {check id: total seconds of that span in the check}."""
    totals: dict[str, dict[int, float]] = {}
    for name, start, end, _parent, check in spans:
        per_check = totals.setdefault(name, {})
        per_check[check] = per_check.get(check, 0.0) + (end - start)
    return totals


def _growth_probe(plan: dict, ingest, rules, cli) -> dict:
    """Median load_instance and evaluate_all seconds at full and half size."""
    growth = plan["growth"]
    with open(growth["profile"], "rb") as handle:
        profile = cli.build_profile(cli.load_profile(handle.read()))
    out = {}
    for size in ("full", "half"):
        with open(growth[size], "rb") as handle:
            data = handle.read()
        loads, evaluations = [], []
        for _ in range(growth["repeats"]):
            started = time.perf_counter()
            graph = ingest.load_instance(data, profile)
            loads.append(time.perf_counter() - started)
            started = time.perf_counter()
            rules.evaluate_all(graph, profile, check_date=growth["check_date"],
                               strict=growth["strict"])
            evaluations.append(time.perf_counter() - started)
            del graph
            gc.collect()
        out[size] = {"load_instance_s": statistics.median(loads),
                     "evaluate_all_s": statistics.median(evaluations)}
    return out


def main(argv: list[str]) -> int:
    mode = argv[0]
    with open(argv[1], encoding="utf-8") as handle:
        plan = json.load(handle)
    seconds = float(argv[2])
    if mode == "time":
        payload = timed(plan, seconds)
    elif mode == "trace":
        payload = traced(plan, seconds, argv[4])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(argv[3], "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
