"""Command-line front end: check, tailor, trace, glossary."""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .glossary import glossary_lookup
from .ingest import LoadError, canonical_json, load_instance, load_profile, report_json
from .registry import UnknownClassError, format_citations, trace_articles
from .rules import (FAIL, NOT_APPLICABLE, PASS, RULE_CATALOG, UNKNOWN,
                    ComplianceReport, evaluate_all)
from .timebase import TimestampError
from .variability import VariabilityError, build_profile, default_profile

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3

_STATUS_COLORS = {PASS: "32", FAIL: "31", NOT_APPLICABLE: "90", UNKNOWN: "33"}


def _use_color(stream) -> bool:
    if os.environ.get("GDPR_ENGINE_NO_COLOR"):
        return False
    return hasattr(stream, "isatty") and stream.isatty()


def _paint(text: str, code: str, enabled: bool) -> str:
    if not enabled:
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _write_machine(text: str) -> None:
    """``text`` and a newline on standard output, as UTF-8 bytes whatever
    the stream's encoding; a stream without a byte buffer gets the text."""
    text += "\n"
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    buffer.write(text.encode("utf-8"))
    buffer.flush()


def _print_human_report(report: ComplianceReport, stream) -> None:
    color = _use_color(stream)
    lines = []
    for verdict in report.verdicts:
        status = _paint(f"{verdict.status:<14}",
                        _STATUS_COLORS.get(verdict.status, "0"), color)
        lines.append(f"{verdict.ruleId:<7}{status}"
                     f"{format_citations([str(a) for a in verdict.articles])}")
        for finding in verdict.findings:
            subject = f"{finding.objectId}: " if finding.objectId else ""
            lines.append(f"        - {subject}{finding.message}")
    counts = report.counts()
    lines.append(f"Pass: {counts[PASS]}  Fail: {counts[FAIL]}  "
                 f"NotApplicable: {counts[NOT_APPLICABLE]}  Unknown: {counts[UNKNOWN]}")
    text = "\n".join(lines) + "\n"
    # Characters the stream cannot encode are written as backslash escapes.
    encoding = getattr(stream, "encoding", None)
    if encoding:
        text = text.encode(encoding, "backslashreplace").decode(encoding)
    stream.write(text)


def _load_profile_from_path(path: str | None):
    if path is None:
        return default_profile().finalize()
    with open(path, "rb") as handle:
        resolutions = load_profile(handle.read())
    return build_profile(resolutions)


def cmd_check(args: argparse.Namespace) -> int:
    try:
        profile = _load_profile_from_path(args.profile)
        with open(args.instance, "rb") as handle:
            graph = load_instance(handle, profile)
        report = evaluate_all(graph, profile, check_date=args.check_date,
                              strict=args.strict_variability)
    except (LoadError, VariabilityError, TimestampError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.format == "machine":
        _write_machine(report_json(report.to_payload()))
    else:
        _print_human_report(report, sys.stdout)
    counts = report.counts()
    if counts[FAIL]:
        return EXIT_FAIL
    if counts[UNKNOWN]:
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_tailor(args: argparse.Namespace) -> int:
    try:
        profile = _load_profile_from_path(args.profile)
    except (LoadError, VariabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    entries = profile.resolution_table()
    if args.format == "machine":
        _write_machine(canonical_json({
            "audit": profile.resolution_table_payload(),
            "activeRules": profile.active_rule_ids(),
            "fingerprint": profile.fingerprint(),
        }))
        return EXIT_OK
    if entries:
        width = max(len(e.variationId) for e in entries)
        for entry in entries:
            print(f"{entry.variationId:<{width + 2}}{entry.artifact:<14}{entry.action}")
    print(f"{len(profile.active_rule_ids())} rules active")
    print(f"profile fingerprint: {profile.fingerprint()}")
    return EXIT_OK


def cmd_trace(args: argparse.Namespace) -> int:
    identifier = args.identifier
    spec = RULE_CATALOG.get(identifier)
    if spec is not None:
        print(format_citations([str(a) for a in spec.articles]))
        return EXIT_OK
    try:
        citations = trace_articles(identifier)
    except UnknownClassError:
        print(f"error: unknown rule or class {identifier!r}", file=sys.stderr)
        return EXIT_ERROR
    print(format_citations(citations))
    return EXIT_OK


def cmd_glossary(args: argparse.Namespace) -> int:
    definition = glossary_lookup(args.term)
    if definition is None:
        print(f"error: no glossary entry for {args.term!r}", file=sys.stderr)
        return EXIT_ERROR
    print(definition)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, also in subcommands: 2 means an Unknown verdict."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gdpr-engine",
        description="Evaluate GDPR compliance rules over an instance model.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="evaluate all active rules")
    check.add_argument("--instance", required=True, help="instance document path")
    check.add_argument("--profile", help="specialization profile document path")
    check.add_argument("--check-date", help="ISO-8601 evaluation date")
    check.add_argument("--format", choices=("human", "machine"), default="human")
    check.add_argument("--strict-variability", action="store_true",
                       help="report Unknown when a default hook decided a verdict")
    check.set_defaults(handler=cmd_check)

    tailor = commands.add_parser("tailor", help="apply and audit a profile")
    tailor.add_argument("--profile", required=True)
    tailor.add_argument("--format", choices=("human", "machine"), default="human")
    tailor.set_defaults(handler=cmd_tailor)

    trace = commands.add_parser("trace", help="articles for a rule or model class")
    trace.add_argument("identifier")
    trace.set_defaults(handler=cmd_trace)

    glossary = commands.add_parser("glossary", help="look up a model term")
    glossary.add_argument("term")
    glossary.set_defaults(handler=cmd_glossary)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that every ``main`` call in this process reuses."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception:  # exit 1 means only "a rule failed"
        import traceback  # imported on this path only, to keep start-up short

        traceback.print_exc()
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
