"""Expected `check` reports, written by hand from the rules' definitions.

Nothing here is read from the engine's output. Each table says, for one
replica of a document, which verdict each rule gives and which object ids
its findings name. A replica's outcome is the compliant baseline of its
profile, changed by the variant's own entries. A landscape's expected
report combines the outcomes of its replicas: a rule fails when any
replica fails it, passes when any replica passes it, and is NotApplicable
otherwise; its findings are the union of the replicas' findings.
"""

from __future__ import annotations

import json

PASS, FAIL, NA, UNKNOWN = "Pass", "Fail", "NotApplicable", "Unknown"

GENERIC_RULES = tuple(f"C{i}" for i in range(1, 36))

# Profile document -> the rules it activates beyond C1-C35 and those it removes.
ADDED_RULES = {
    "generic": (),
    "full": ("V1", "V2", "V4", "V7", "V8", "V10", "V11", "V12_1", "V12_2",
             "V13", "V14", "V15", "V17", "V18", "V19", "V20"),
    "at": ("V1", "V2", "V12_1", "V12_2"),
    "lu": (),
    "fr": ("V13", "V18"),
}
REMOVED_RULES = {"full": ("C35",), "at": ("C35",)}

# The compliant retailer under the generic profile. Rules not listed are
# NotApplicable: C3 (no obligation or re-purposed basis), C6/C7 (no special
# or criminal data), C8, C11 (all data collected directly), C15-C17 (no
# restriction, portability or objection requests), C18, C20, C21, C29 (no
# duty to designate), C33 (no judgment). C35 notes the fine ceiling of inf1.
_BASE = {rule: (PASS, ()) for rule in (
    "C1", "C2", "C4", "C5", "C9", "C10", "C12", "C13", "C14", "C19", "C22",
    "C23", "C24", "C25", "C26", "C27", "C28", "C30", "C31", "C32", "C34")}
_BASE["C35"] = (PASS, ("inf1",))

# Variation rules on the compliant document, alike in every profile that
# activates them. V8 and V15 have instances because documents checked
# against the full profile carry the extended literals (see corpus.py).
_BASE.update({
    "V1": (PASS, ()), "V2": (PASS, ()), "V7": (PASS, ()), "V8": (PASS, ()),
    "V10": (PASS, ()), "V12_1": (PASS, ("inf1",)), "V13": (PASS, ("inf1",)),
    "V15": (PASS, ()), "V17": (PASS, ("p1",)),
})

# Profile-specific changes to the compliant baseline.
_BASE_BY_PROFILE = {
    # V9 makes every ENTERPRISE designate a DPO; dpo is designated by both.
    "lu": {"C29": (PASS, ())},
    # V5 exempts OFFERING_GOODS_OR_SERVICES processing from C13.
    "fr": {"C13": (NA, ())},
}

# What each variant fails under the generic profile, beyond the baseline.
_VARIANT = {
    "C2": {"C2": (FAIL, ("p1",))},
    # The NONE basis also makes FURTHER_PROCESSING a required notice item.
    "C3": {"C3": (FAIL, ("purp1",)), "C10": (FAIL, ("p1",))},
    "C4": {"C4": (FAIL, ("cons1",))},
    "C5": {"C5": (FAIL, ("bobby",))},
    "C6": {"C6": (FAIL, ("p1",))},
    # JUDICIAL is also a special category, so C6 fails as well.
    "C7": {"C6": (FAIL, ("p1",)), "C7": (FAIL, ("p1",))},
    "C8": {"C8": (FAIL, ("p1",))},
    "C9": {"C9": (FAIL, ("p1",))},
    "C10": {"C10": (FAIL, ("p1",)), "C12": (FAIL, ("p1",))},
    # Indirect collection: C10 no longer applies, C11 and C12 miss items.
    "C11": {"C10": (NA, ()), "C11": (FAIL, ("p1",)), "C12": (FAIL, ("p1",))},
    "C12": {"C12": (FAIL, ("p1",))},
    "C13": {"C13": (FAIL, ("p1",))},
    "C14": {"C14": (FAIL, ("req_erase",))},
    # C9 also checks every request for a stated denial reason.
    "C15": {"C15": (FAIL, ("req_restrict",)), "C9": (FAIL, ("req_restrict",))},
    "C16": {"C16": (FAIL, ("req_port",))},
    "C17": {"C17": (FAIL, ("req_obj",)), "C9": (FAIL, ("req_obj",))},
    # The opt-out right and the objection right are both unsupported for C9.
    "C18": {"C18": (FAIL, ("p1",)), "C9": (FAIL, ("p1", "p1"))},
    # No organizational measure also breaks C22's processor safeguards and
    # C25's regular testing (AUDIT was organizational).
    "C19": {"C19": (FAIL, ("p1",)), "C22": (FAIL, ("proc",)),
            "C25": (FAIL, ("p1",))},
    # The joint controller also holds no record of processing.
    "C20": {"C20": (FAIL, ("joint",)), "C23": (FAIL, ("joint",))},
    "C21": {"C21": (FAIL, ("ctrl",))},
    "C22": {"C22": (FAIL, ("proc",))},
    "C23": {"C23": (FAIL, ("rec_ctrl",))},
    "C24": {"C24": (FAIL, ("ctrl",))},
    "C25": {"C25": (FAIL, ("p1",))},
    "C26": {"C26": (FAIL, ("breach1",))},
    "C27": {"C27": (FAIL, ("dpia1",))},
    "C28": {"C28": (FAIL, ("dpia1",))},
    "C29": {"C29": (FAIL, ("ctrl",))},
    "C30": {"C30": (FAIL, ("cert1",))},
    "C31": {"C31": (FAIL, ("tr_us",))},
    "C32": {"C32": (FAIL, ("tr_ca",))},
    "C33": {"C33": (FAIL, ("judg1",))},
    "C34": {"C34": (FAIL, ("tr_us",))},
    # The failure and the ceiling note both name inf1.
    "C35": {"C35": (FAIL, ("inf1", "inf1"))},
}

# Variant entries that differ per profile, applied after _VARIANT.
_FINE_REGIME = {
    # C29's controller becomes a public body: V12_2 judges inf1, not V12_1.
    "C29": {"V12_1": (NA, ()), "V12_2": (PASS, ("inf1",))},
    "C35": {"V12_1": (FAIL, ("inf1", "inf1"))},
}
_VARIANT_BY_PROFILE = {
    "full": {
        **_FINE_REGIME,
        # V1 re-runs C5; V2 has no instance once the child consents herself.
        "C5": {"V1": (FAIL, ("bobby",)), "V2": (NA, ())},
        # HEALTH data: V4's measures are present, V10 limits HEALTH to US.
        "C6": {"V4": (PASS, ()), "V10": (FAIL, ("tr_us",))},
        # V17 derogates the restriction right for p1, so C15 skips it.
        "C15": {"C15": (NA, ())},
        # V5 removes RIGHT_TO_OBJECT from C9, leaving the opt-out right.
        "C18": {"C9": (FAIL, ("p1",))},
        # p1 becomes EU monitoring, which V17 does not derogate.
        "C21": {"V17": (NA, ())},
        "C22": {"V7": (FAIL, ("proc",))},
    },
    "at": {
        **_FINE_REGIME,
        "C5": {"V1": (FAIL, ("bobby",)), "V2": (NA, ())},
    },
    "lu": {
        "C20": {"C29": (FAIL, ("joint",))},
        "C29": {"C29": (FAIL, ("ctrl", "proc"))},
    },
    "fr": {
        "C13": {"C13": (NA, ())},
        # p1 becomes EU monitoring, which V5 does not exempt from C13.
        "C21": {"C13": (PASS, ())},
    },
}

# Rules that do not quantify over in-scope processings. A replica whose
# only processing is out of scope (the C1 variant) still contributes to
# them when other replicas keep the landscape applicable.
_SCOPE_FREE = frozenset({"C26", "C30", "C33", "C35", "V11", "V12_1",
                         "V12_2", "V13", "V19"})

# Strict mode demotes a verdict when the rule consulted a defaulted hook.
# The full profile resolves every hook, so it demotes nothing. Under the
# generic profile every hook is defaulted:
# (rule, variant) -> number of distinct defaulted hooks the rule consulted.
# C5 consults the age hook for every subject and the document hook for the
# parent, unless the child consented herself; C29 consults the DPO hook for
# each ENTERPRISE actor; C22 consults the instructions hook only when the
# processor has none.
_STRICT_GENERIC = {"C5": 2, "C29": 1}
_STRICT_GENERIC_BY_VARIANT = {"C5": {"C5": 1}, "C22": {"C22": 1}}


def active_rules(profile: str) -> tuple[str, ...]:
    removed = REMOVED_RULES.get(profile, ())
    return tuple(r for r in GENERIC_RULES if r not in removed) + ADDED_RULES[profile]


def replica_outcome(kind: str, profile: str, *, strict: bool = False,
                    alone: bool = True) -> dict[str, tuple[str, tuple[str, ...]]]:
    """rule -> (status, finding object ids) for one replica.

    ``alone`` says the replica is the whole landscape, so the C1 gate is
    decided by it alone.
    """
    rules = active_rules(profile)
    if kind == "C1":
        if alone:
            out = {rule: (NA, ()) for rule in rules}
            out["C1"] = (NA, ("",))
            return out
        base = _outcome("ok", profile, rules)
        return {rule: (base[rule] if rule in _SCOPE_FREE else (NA, ()))
                for rule in rules}
    out = _outcome(kind, profile, rules)
    if strict and profile != "full":
        if profile != "generic":
            raise ValueError(f"no strict expectation for the {profile} profile")
        demoted = dict(_STRICT_GENERIC)
        demoted.update(_STRICT_GENERIC_BY_VARIANT.get(kind, {}))
        for rule, hooks in demoted.items():
            out[rule] = (UNKNOWN, ("",) * hooks)
    return out


def _outcome(kind: str, profile: str, rules) -> dict:
    table = dict(_BASE)
    table.update(_BASE_BY_PROFILE.get(profile, {}))
    table.update(_VARIANT.get(kind, {}))
    table.update(_VARIANT_BY_PROFILE.get(profile, {}).get(kind, {}))
    return {rule: table.get(rule, (NA, ())) for rule in rules}


def landscape_outcome(placement: list[str], prefixes: list[str], profile: str,
                      strict: bool = False) -> dict[str, tuple[str, tuple[str, ...]]]:
    """Expected verdicts of a landscape made of several replicas."""
    statuses: dict[str, set[str]] = {}
    findings: dict[str, list[str]] = {}
    alone = len(placement) == 1
    for kind, prefix in zip(placement, prefixes):
        for rule, (status, ids) in replica_outcome(
                kind, profile, strict=strict, alone=alone).items():
            statuses.setdefault(rule, set()).add(status)
            findings.setdefault(rule, []).extend(
                prefix + i if i else i for i in ids)
    out = {}
    for rule, seen in statuses.items():
        for status in (FAIL, UNKNOWN, PASS, NA):
            if status in seen:
                break
        out[rule] = (status, tuple(sorted(findings[rule])))
    return out


def expected_exit(outcome: dict) -> int:
    statuses = {status for status, _ in outcome.values()}
    if FAIL in statuses:
        return 1
    if UNKNOWN in statuses:
        return 2
    return 0


def report_mismatches(stdout: str, outcome: dict) -> list[str]:
    """Differences between a machine report and the expected outcome."""
    try:
        report = json.loads(stdout)
        got = {v["rule"]: (v["status"], tuple(sorted(f["object"] for f in v["findings"])))
               for v in report["verdicts"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {exc}"]
    problems = []
    for rule in sorted(set(got) | set(outcome)):
        if got.get(rule) != outcome.get(rule):
            want = outcome.get(rule)
            have = got.get(rule)
            problems.append(f"{rule}: expected {_short(want)}, got {_short(have)}")
    return problems


def _short(entry) -> str:
    if entry is None:
        return "absent"
    status, ids = entry
    shown = ", ".join(ids[:4]) + (", ..." if len(ids) > 4 else "")
    return f"{status} [{len(ids)}: {shown}]"
