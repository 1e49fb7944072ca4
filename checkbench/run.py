"""Benchmark of `gdpr-engine check`.

    python3 checkbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Set-up generates the workload's inputs from
the seed under ``checkbench/.work/`` and measures ``setup_s`` in fresh
interpreters. Each timed phase runs in its own child process, one after
another. With ``--trace 0`` the child checks with tracing off and the run
reports the end-to-end metrics; with ``--trace 1`` a short untraced child
and then a traced child run, and the run reports the per-layer metrics and
writes the spans to ``checkbench/.work/traces/``. Every report is checked
against the expectation in ``expect.py``. A table of every metric, with its
unit and sample count, goes to standard output; the last line is the JSON
result.

End-to-end check times are in reference units: a check's seconds divided
by the seconds of a fixed standard-library workload timed around it (see
``reference.py``), because this host's speed drifts too much for raw
seconds to show a change. Raw seconds are printed beside them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys

import corpus
import expect

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

CHECK_DATE = "2023-06-01T00:00:00Z"

# (profile document, --strict-variability, --check-date) of one check.
GENERIC = ("generic", False, None)
GENERIC_STRICT = ("generic", True, None)
FULL = ("full", True, CHECK_DATE)

# Why each workload exists:
# - bulk-generic: one landscape of 800 replicas (about 37.6k objects, the
#   reference size), each a uniform draw of the compliant document or one of
#   its 35 variants, under the generic profile with no check date. The rule
#   scans (C2/C10/C13), node build and the graph fingerprint dominate, and
#   `variability` does almost nothing, so graph-lookup work shows here first.
# - bulk-tailored: 400 replicas (about 19k objects), 80% compliant, under a
#   profile resolving all 20 variation points, strict, with a fixed check
#   date. The 15 variation rules run, hooks are answered by resolutions, V5
#   adaptations, V17/V18 derogations and enum extensions are active, and
#   latest_minutes is skipped, so a gain tuned to bulk-generic that costs
#   the tailored path shows here.
# - many-small: a seeded stream of single 47-object documents, each checked
#   under one of six configurations (generic, generic strict, full strict,
#   and three partial national profiles). Per-check fixed costs dominate:
#   profile parse, apply and finalize, the fingerprints and audit, per-rule
#   dispatch and encoding. Work moved into graph construction or set-up pays
#   its cost here without the savings.
WORKLOADS = {
    "bulk-generic": {"replicas": 800, "compliant_share": None, "config": GENERIC},
    "bulk-tailored": {"replicas": 400, "compliant_share": 0.8, "config": FULL},
    "many-small": {"configs": (GENERIC, GENERIC_STRICT, FULL, ("at", False, None),
                               ("lu", False, None), ("fr", False, None))},
}

SETUP_SAMPLES = 9
CHILD_GRACE_S = 120
UNTRACED_SHARE = 0.5  # of --seconds, in a traced run; the traced child gets the rest


def _argv(path: str, config: tuple) -> list[str]:
    profile, strict, check_date = config
    argv = ["check", "--instance", path, "--profile", corpus.profile_path(profile),
            "--format", "machine"]
    if strict:
        argv.append("--strict-variability")
    if check_date:
        argv += ["--check-date", check_date]
    return argv


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)


def _landscape_file(rng: random.Random, workdir: str, name: str, replicas: int,
                    compliant_share: float | None, tailored: bool) -> tuple[str, list[str]]:
    data, placement = corpus.landscape(rng, replicas, compliant_share, tailored)
    path = os.path.join(workdir, f"{name}.json")
    _write(path, data)
    return path, placement


def build_plan(name: str, seed: int, workdir: str, trace: bool) -> tuple[dict, list[dict]]:
    """(plan for the worker, expected outcome of each operation). A traced
    run also gets the landscapes of the growth probe."""
    spec = WORKLOADS[name]
    rng = random.Random(seed)
    if "configs" in spec:
        return _small_plan(spec["configs"], rng, workdir, trace)

    profile, strict, check_date = spec["config"]
    tailored = profile == "full"
    share = spec["compliant_share"]
    path, placement = _landscape_file(rng, workdir, "full", spec["replicas"], share, tailored)
    prefixes = [corpus.replica_prefix(i) for i in range(len(placement))]
    outcome = expect.landscape_outcome(placement, prefixes, profile, strict)
    objects = sum(corpus.OBJECT_COUNTS[kind] for kind in placement)
    plan = {"ops": [{"argv": _argv(path, spec["config"]), "objects": objects}], "order": [0]}
    if trace:
        half, _ = _landscape_file(rng, workdir, "half", spec["replicas"] // 2, share, tailored)
        plan["growth"] = {"full": path, "half": half, "repeats": 3,
                          "profile": corpus.profile_path(profile),
                          "check_date": check_date, "strict": strict}
    return plan, [outcome]


def _small_plan(configs, rng: random.Random, workdir: str,
                trace: bool) -> tuple[dict, list[dict]]:
    ops, outcomes = [], []
    for config in configs:
        profile, strict, _ = config
        tailored = profile == "full"
        for kind in corpus.DOCUMENTS:
            path = os.path.join(workdir, f"{kind}{'-tailored' if tailored else ''}.json")
            if not os.path.exists(path):
                _write(path, corpus.small_document(kind, tailored))
            ops.append({"argv": _argv(path, config), "objects": corpus.OBJECT_COUNTS[kind]})
            outcomes.append(expect.landscape_outcome([kind], [""], profile, strict))
    plan = {"ops": ops, "order": [rng.randrange(len(ops)) for _ in range(4096)]}
    if trace:
        # Growth at the small end: two replicas against one, generic profile.
        full, _ = _landscape_file(rng, workdir, "growth-full", 2, None, False)
        half, _ = _landscape_file(rng, workdir, "growth-half", 1, None, False)
        plan["growth"] = {"full": full, "half": half, "repeats": 200,
                          "profile": corpus.profile_path("generic"),
                          "check_date": None, "strict": False}
    return plan, outcomes


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout, check=True)


def measure_setup(plan: dict) -> list[float]:
    """setup_s samples, one fresh interpreter at a time; the first one only
    warms the bytecode cache."""
    profiles = sorted({op["argv"][op["argv"].index("--profile") + 1] for op in plan["ops"]})
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        done = _child([os.path.join(HERE, "setup_probe.py"), *profiles], 60)
        samples.append(float(done.stdout.strip()))
    return samples[1:]


def run_worker(mode: str, plan_path: str, seconds: float, out_path: str,
               spans_path: str | None = None) -> dict:
    args = [os.path.join(HERE, "worker.py"), mode, plan_path, repr(seconds), out_path]
    if spans_path:
        args.append(spans_path)
    _child(args, seconds + CHILD_GRACE_S)
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def verify(result: dict, outcomes: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems): a check fails when it raised, when its
    exit code or report disagrees with the expectation, or when its report
    bytes differ from the first report of the same operation."""
    bad_ops: dict[int, list[str]] = {}
    first_digest: dict[int, str] = {}
    for key, report in result["first_reports"].items():
        op = int(key)
        problems = expect.report_mismatches(report, outcomes[op])
        if problems:
            bad_ops[op] = problems
    problems = [f"operation {op}: {p}" for op, ps in sorted(bad_ops.items()) for p in ps]
    failed = 0
    for op, _elapsed, code, digest, error, _reference in result["checks"]:
        first_digest.setdefault(op, digest)
        wrong = []
        if error:
            wrong.append(f"raised {error}")
        elif code != expect.expected_exit(outcomes[op]):
            wrong.append(f"exit code {code}, expected {expect.expected_exit(outcomes[op])}")
        if digest != first_digest[op]:
            wrong.append("report bytes differ from the first check")
        if wrong or op in bad_ops:
            failed += 1
            problems.extend(f"operation {op}: {w}" for w in wrong)
    return len(result["checks"]), failed, problems


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(plan: dict, result: dict, setup: list[float]) -> tuple[dict, dict]:
    """(gated metrics, seconds as measured). Check times are gated in
    reference units (see reference.py), because raw seconds on a shared
    host spread by more than any useful bound."""
    checks = result["checks"]
    n = len(checks)
    ratios = [elapsed / ref for _op, elapsed, *_rest, ref in checks]
    durations = [c[1] for c in checks]
    objects = sum(plan["ops"][c[0]]["objects"] for c in checks)
    gated = {
        "check_ref_p50": (statistics.median(ratios), "ref", n),
        "objects_per_ref": (objects / sum(ratios), "objects/ref", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB", 1),
    }
    # Not gated: a bulk run holds a dozen or so checks, too few for a tail,
    # and even in reference units a tail spreads by about a fifth.
    measured = {
        "check_ref_p99": (percentile(ratios, 0.99), "ref", n),
        "check_s_p50": (statistics.median(durations), "s", n),
        "check_s_p99": (percentile(durations, 0.99), "s", n),
        "objects_per_s": (objects / sum(durations), "objects/s", n),
        "reference_s": (statistics.median(c[5] for c in checks), "s", n),
    }
    return gated, measured


def per_layer(plan: dict, untraced: dict, traced: dict, failed: int, attempted: int) -> dict:
    plan_objects = [op["objects"] for op in plan["ops"]]
    spans = traced["spans"]
    probes = traced["probes"]

    def med(name: str) -> float:
        return statistics.median(spans[name].values())

    n = len(probes)
    out: dict[str, tuple[float, str, int]] = {}

    def put(name, value, unit, samples=n):
        out[name] = (value, unit, samples)

    load, parse = med("ingest.load_instance"), med("probe.parse")
    graph, validate = med("model.graph"), med("model.validate")
    put("ingest.load_instance_s", load, "s")
    put("ingest.parse_s", parse, "s")
    put("ingest.build_s", load - parse - graph - validate, "s")
    put("ingest.graph_fingerprint_s", med("ingest.graph_fingerprint"), "s")
    put("ingest.load_profile_s", med("ingest.load_profile"), "s")
    put("model.graph_s", graph, "s")
    put("model.validate_s", validate, "s")
    put("model.latest_minutes_s", med("probe.latest_minutes"), "s")
    for count in ("of_class_calls", "of_class_rows", "resolve_calls"):
        put(f"model.{count}", statistics.median(p["counts"][count] for p in probes), "count")
    put("model.of_class_rows_per_object",
        statistics.median(p["counts"]["of_class_rows"] / p["objects"] for p in probes), "ratio")
    put("variability.build_profile_s", med("variability.build_profile"), "s")
    put("variability.profile_fingerprint_s", med("variability.profile_fingerprint"), "s")
    put("variability.audit_payload_s", med("variability.audit_payload"), "s")
    put("rules.evaluate_all_s", med("rules.evaluate_all"), "s")
    gate = med("probe.rule.C1")
    put("rules.gate_s", gate, "s")
    for name in sorted(spans):
        if name.startswith("probe.rule."):
            rule_id = name[len("probe.rule."):]
            # C1 is the gate itself; every other rule is timed with the gate.
            put(f"rules.rule_s.{rule_id}", gate if rule_id == "C1" else med(name) - gate, "s")
    put("rules.to_payload_s", med("rules.to_payload"), "s")
    put("rules.findings", statistics.median(p["findings"] for p in probes), "count")
    growth = traced["growth"]
    put("rules.growth_x2", growth["full"]["evaluate_all_s"] / growth["half"]["evaluate_all_s"],
        "ratio", 2)
    put("ingest.growth_x2", growth["full"]["load_instance_s"] / growth["half"]["load_instance_s"],
        "ratio", 2)
    parts = ("ingest.load_profile", "variability.build_profile", "ingest.load_instance",
             "rules.evaluate_all", "rules.to_payload")
    overheads = [spans["cli.main"][check] - sum(spans[p][check] for p in parts)
                 for check in spans["cli.main"]]
    put("cli.overhead_s", statistics.median(overheads), "s")
    untraced_times = [c[1] for c in untraced["checks"]]
    untraced_p50 = statistics.median(untraced_times)
    traced_p50 = statistics.median(c[1] for c in traced["checks"])
    # Seconds as measured, from the untraced child; the gated forms of these
    # are in reference units (see end_to_end).
    untraced_objects = sum(plan_objects[c[0]] for c in untraced["checks"])
    untraced_ratios = [c[1] / c[5] for c in untraced["checks"]]
    put("check_s_p50", untraced_p50, "s", len(untraced_times))
    put("check_s_p99", percentile(untraced_times, 0.99), "s", len(untraced_times))
    put("check_ref_p99", percentile(untraced_ratios, 0.99), "ref", len(untraced_times))
    put("objects_per_s", untraced_objects / sum(untraced_times), "objects/s",
        len(untraced_times))
    put("trace.check_s_p50", traced_p50, "s")
    put("trace.overhead_s", traced_p50 - untraced_p50, "s", len(untraced["checks"]))
    put("failed_share", failed / attempted, "ratio", attempted)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gdpr_engine", "cli.py")):
        print("error: run from a checkout that holds src/gdpr_engine", file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        plan, outcomes = build_plan(args.workload, args.seed, workdir, bool(args.trace))
        plan["full_profile"] = corpus.profile_path("full")
        plan["probe_check_date"] = CHECK_DATE
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump(plan, handle)

        if args.trace:
            untraced = run_worker("time", plan_path, args.seconds * UNTRACED_SHARE,
                                  os.path.join(workdir, "untraced.json"))
            traces = os.path.join(WORK, "traces")
            os.makedirs(traces, exist_ok=True)
            spans_path = os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")
            traced = run_worker("trace", plan_path, args.seconds * (1 - UNTRACED_SHARE),
                                os.path.join(workdir, "traced.json"), spans_path)
            attempted, failed, problems = 0, 0, []
            for result in (untraced, traced):
                a, f, p = verify(result, outcomes)
                attempted, failed, problems = attempted + a, failed + f, problems + p
            if not traced["probes"]:
                print("error: no traced check completed", *problems[:20], sep="\n",
                      file=sys.stderr)
                return 1
            metrics, measured = per_layer(plan, untraced, traced, failed, attempted), {}
        else:
            setup = measure_setup(plan)
            result = run_worker("time", plan_path, args.seconds,
                                os.path.join(workdir, "timed.json"))
            attempted, failed, problems = verify(result, outcomes)
            metrics, measured = end_to_end(plan, result, setup)
    except subprocess.CalledProcessError as exc:
        print(f"error: benchmark child failed:\n{exc.stderr}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{'metric':<34}{'value':>16}  {'unit':<12}samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<34}{value:>16.6g}  {unit:<12}{samples}")
    if measured:
        print("as measured on this host, not in the result line:")
    for name, (value, unit, samples) in measured.items():
        print(f"{name:<34}{value:>16.6g}  {unit:<12}{samples}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
