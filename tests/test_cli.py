"""Command-line behavior: exit codes, formats, determinism."""

from __future__ import annotations

import json

import pytest

from fixtures import (
    LONE_SURROGATE_MUTATIONS,
    compliant_document,
    document_bytes,
    failing_variants,
    find,
    variant,
)
from gdpr_engine.cli import build_parser, main


@pytest.fixture(autouse=True)
def no_color(monkeypatch):
    monkeypatch.setenv("GDPR_ENGINE_NO_COLOR", "1")


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "instance.json"
    path.write_bytes(document_bytes(compliant_document()))
    return str(path)


def write_profile(tmp_path, resolutions) -> str:
    path = tmp_path / "profile.json"
    path.write_text(json.dumps({"resolutions": resolutions}))
    return str(path)


def test_check_compliant_fixture_exits_zero(instance_path, capsys):
    assert main(["check", "--instance", instance_path]) == 0
    out = capsys.readouterr().out
    assert "Fail: 0" in out


def test_check_failing_fixture_exits_one_citing_article_7(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(document_bytes(failing_variants()["C4"]))
    assert main(["check", "--instance", str(path)]) == 1
    out = capsys.readouterr().out
    c4_line = next(line for line in out.splitlines() if line.startswith("C4"))
    assert "Fail" in c4_line and "Article 7" in c4_line


def test_check_missing_file_exits_three(capsys):
    assert main(["check", "--instance", "/no/such/file.json"]) == 3
    assert "error:" in capsys.readouterr().err


def test_check_invalid_document_exits_three(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"objects": [')
    assert main(["check", "--instance", str(path)]) == 3
    assert "SYNTAX" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--instance", "--profile"])
@pytest.mark.parametrize("data", [b"[" * 100_000, b"[" + b"9" * 5000 + b"]",
                                  b"[NaN]", b"[1e999999]"],
                         ids=["deep nesting", "long integer", "NaN",
                              "overflowing float"])
def test_unparsable_document_exits_three_without_a_traceback(option, data,
                                                             instance_path,
                                                             tmp_path, capsys):
    path = tmp_path / "unparsable.json"
    path.write_bytes(data)
    if option == "--instance":
        argv = ["check", "--instance", str(path)]
    else:
        argv = ["check", "--instance", instance_path, "--profile", str(path)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "SYNTAX" in captured.err and "Traceback" not in captured.err


def test_check_date_outside_years_1_to_9999_in_utc_exits_three(instance_path,
                                                               capsys):
    # Local midnight of 1 January, year 1, at UTC+1 is still in year 0 in UTC.
    assert main(["check", "--instance", instance_path,
                 "--check-date", "0001-01-01T00:00:00+01:00"]) == 3
    assert "outside years 1-9999" in capsys.readouterr().err


@pytest.mark.parametrize("check_date, message", [
    ("0001-01-01T00:00:00+01:00",
     "timestamp '0001-01-01T00:00:00+01:00' falls outside years 1-9999 in UTC"),
    ("", "not a timestamp: ''"),
    ("yesterday", "bad timestamp 'yesterday': Invalid isoformat string: 'yesterday'"),
    ("2023-02-30T00:00:00Z",
     "bad timestamp '2023-02-30T00:00:00Z': day is out of range for month"),
])
def test_bad_check_date_exits_three_with_one_message(check_date, message,
                                                     instance_path, capsys):
    assert main(["check", "--instance", instance_path, "--format", "machine",
                 "--check-date", check_date]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_timestamp_attribute_outside_years_1_to_9999_exits_three(tmp_path,
                                                                  capsys):
    document = compliant_document()
    find(document, "breach1")["attrs"]["subjectsCommunicatedAt"] = \
        "9999-12-31T23:59:59-05:00"
    path = tmp_path / "far.json"
    path.write_bytes(document_bytes(document))
    assert main(["check", "--instance", str(path), "--format", "machine"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "SCHEMA" in captured.err and "breach1" in captured.err
    assert "outside years 1-9999" in captured.err


@pytest.mark.parametrize("where", list(LONE_SURROGATE_MUTATIONS))
def test_lone_surrogate_exits_three_without_a_report(where, tmp_path, capsys):
    document = variant(compliant_document(), LONE_SURROGATE_MUTATIONS[where])
    path = tmp_path / "surrogate.json"
    path.write_bytes(document_bytes(document))
    assert main(["check", "--instance", str(path), "--format", "machine"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "SYNTAX" in captured.err and "lone surrogate" in captured.err


def test_check_strict_mode_exits_two_on_unknown(instance_path, capsys):
    assert main(["check", "--instance", instance_path,
                 "--strict-variability"]) == 2
    assert "Unknown" in capsys.readouterr().out


def test_one_parser_serves_a_strict_check_and_then_a_plain_one(instance_path,
                                                               monkeypatch,
                                                               capsys):
    from gdpr_engine import cli

    checks = [
        ["check", "--instance", instance_path, "--format", "machine",
         "--strict-variability"],
        ["check", "--instance", instance_path, "--format", "machine"],
    ]
    alone = []
    for argv in checks:
        cli._parser.cache_clear()
        alone.append((main(argv), capsys.readouterr().out))
    assert [code for code, _ in alone] == [2, 0]

    built = []

    def counted_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted_build_parser)
    cli._parser.cache_clear()
    together = [(main(argv), capsys.readouterr().out) for argv in checks]
    cli._parser.cache_clear()
    assert together == alone
    assert built == [1]


def test_an_internal_error_exits_three_with_its_traceback(instance_path):
    """Exit 1 means only "a rule failed": a crash inside a command is exit 3."""
    import os
    import subprocess
    import sys

    import gdpr_engine

    source_root = os.path.dirname(os.path.dirname(gdpr_engine.__file__))
    script = (
        "import sys\n"
        "from gdpr_engine import cli\n"
        "def crash(*args, **kwargs):\n"
        "    raise RuntimeError('patched crash')\n"
        "cli.load_instance = crash\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, "check", "--instance", instance_path],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "GDPR_ENGINE_NO_COLOR": "1",
             "PYTHONPATH": source_root},
    )
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("Traceback (most recent call last):")
    assert result.stderr.endswith("RuntimeError: patched crash\n")


def test_machine_format_is_byte_identical_across_runs(instance_path, capsys):
    assert main(["check", "--instance", instance_path,
                 "--format", "machine"]) == 0
    first = capsys.readouterr().out
    assert main(["check", "--instance", instance_path,
                 "--format", "machine"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert set(payload) == {"schemaVersion", "checkDate", "graphFingerprint",
                            "profileFingerprint", "verdicts", "summary", "audit"}


def test_human_and_machine_formats_agree_on_the_verdicts(instance_path, capsys):
    main(["check", "--instance", instance_path, "--format", "machine"])
    machine = json.loads(capsys.readouterr().out)
    machine_statuses = sorted((v["rule"], v["status"])
                              for v in machine["verdicts"])

    main(["check", "--instance", instance_path])
    human_lines = [line for line in capsys.readouterr().out.splitlines()
                   if line[:1] in "CV" and not line.startswith("Pass")]
    human_statuses = sorted((line.split()[0], line.split()[1])
                            for line in human_lines)
    assert human_statuses == machine_statuses


def test_check_with_profile_changes_the_rule_set(tmp_path, instance_path, capsys):
    profile_path = write_profile(tmp_path, [{"variation": "V12", "params": {}}])
    assert main(["check", "--instance", instance_path,
                 "--profile", profile_path, "--format", "machine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rules = [v["rule"] for v in payload["verdicts"]]
    assert len(rules) == 36 and "C35" not in rules


def test_check_honors_an_explicit_check_date(instance_path, capsys):
    # far in the future: the certification has expired by then
    assert main(["check", "--instance", instance_path,
                 "--check-date", "2031-01-01T00:00:00Z"]) == 1
    out = capsys.readouterr().out
    c30 = next(line for line in out.splitlines() if line.startswith("C30"))
    assert "Fail" in c30


def test_tailor_prints_the_resolution_table(tmp_path, capsys):
    profile_path = write_profile(tmp_path, [
        {"variation": "V3", "params": {"canBeLifted": False}},
        {"variation": "V4", "params": {"requiredTechnicalMeasures":
                                       ["ENCRYPTION"]}},
    ])
    assert main(["tailor", "--profile", profile_path]) == 0
    out = capsys.readouterr().out
    assert "C6" in out and "V4" in out
    assert "36 rules active" in out


def test_tailor_empty_profile_reports_35_rules(tmp_path, capsys):
    profile_path = write_profile(tmp_path, [])
    assert main(["tailor", "--profile", profile_path]) == 0
    assert "35 rules active" in capsys.readouterr().out


def test_tailor_rejects_inconsistent_profiles(tmp_path, capsys):
    profile_path = write_profile(tmp_path, [
        {"variation": "V1", "params": {"thresholds": {"AT": 12}}}])
    assert main(["tailor", "--profile", profile_path]) == 3
    assert "below 13" in capsys.readouterr().err


def test_trace_rule_and_class(capsys):
    assert main(["trace", "C26"]) == 0
    assert capsys.readouterr().out.strip() == "Articles 33 and 34"
    assert main(["trace", "Consent"]) == 0
    assert capsys.readouterr().out.strip() == "Articles 4, 7, and 8"
    assert main(["trace", "Hardware"]) == 0
    assert capsys.readouterr().out.strip() == "no article mapping"
    assert main(["trace", "Nope"]) == 3


def test_glossary_lookup(capsys):
    assert main(["glossary", "Pseudonymisation"]) == 0
    assert "additional information" in capsys.readouterr().out
    assert main(["glossary", "flux capacitor"]) == 3


def test_module_entry_point_runs_in_a_subprocess(instance_path):
    import os
    import subprocess
    import sys

    import gdpr_engine

    # The child gets a minimal environment, plus the directory holding the
    # package this process imported, so it runs the same copy of the code
    # whether or not the package is installed.
    source_root = os.path.dirname(os.path.dirname(gdpr_engine.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "gdpr_engine", "check",
         "--instance", instance_path, "--format", "machine"],
        capture_output=True, text=True,
        env={"PATH": "/usr/bin:/bin", "GDPR_ENGINE_NO_COLOR": "1",
             "PYTHONPATH": source_root},
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["summary"]["Fail"] == 0


def _non_ascii_consent_document() -> dict:
    """The C4 variant with its failing consent renamed ``consé1``."""
    document = failing_variants()["C4"]
    find(document, "cons1")["id"] = "consé1"
    find(document, "p1")["refs"]["consent"] = "consé1"
    return document


@pytest.mark.parametrize("fmt", ["machine", "human"])
def test_non_ascii_finding_on_an_ascii_stdout_keeps_the_report(fmt, tmp_path,
                                                                capsys):
    import os
    import subprocess
    import sys

    import gdpr_engine

    path = tmp_path / "instance.json"
    path.write_bytes(document_bytes(_non_ascii_consent_document()))
    argv = ["check", "--instance", str(path), "--format", fmt]
    assert main(argv) == 1
    in_process = capsys.readouterr().out
    assert "consé1" in in_process

    source_root = os.path.dirname(os.path.dirname(gdpr_engine.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "gdpr_engine", *argv], capture_output=True,
        env={"PATH": "/usr/bin:/bin", "GDPR_ENGINE_NO_COLOR": "1",
             "PYTHONPATH": source_root, "PYTHONIOENCODING": "ascii"},
    )
    assert result.returncode == 1, result.stderr
    assert b"Traceback" not in result.stderr
    if fmt == "machine":
        assert result.stdout == in_process.encode("utf-8")
        assert json.loads(result.stdout) == json.loads(in_process)
    else:
        assert result.stdout.decode("ascii") == in_process.replace("é", "\\xe9")
