"""Golden machine reports: behaviour does not change, byte for byte.

``golden/<config>/<name>.json`` holds the standard output of
``check --format machine`` on the compliant fixture and on each failing
variant, under two configurations: the generic profile, and
``golden/full-profile.json`` (all 20 variation points resolved) run strict
with a fixed check date. The reports carry both fingerprints, so they also
pin the canonical instance encoding.

``golden/tailor/<name>.json`` holds the standard output of ``tailor
--format machine`` (audit, active rules, fingerprint) for five profiles:
``golden/profiles/<name>.json`` and, for ``full``, ``golden/full-profile.json``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from fixtures import compliant_document, document_bytes, failing_variants
from gdpr_engine.cli import main

GOLDEN = Path(__file__).parent / "golden"

CONFIGS = {
    "generic": [],
    "full": ["--profile", str(GOLDEN / "full-profile.json"),
             "--strict-variability", "--check-date", "2023-06-01T00:00:00Z"],
}

DOCUMENTS = {"compliant": compliant_document(), **failing_variants()}


@pytest.mark.parametrize("name", list(DOCUMENTS))
@pytest.mark.parametrize("config", list(CONFIGS))
def test_machine_report_matches_the_golden_file(config, name, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_bytes(document_bytes(DOCUMENTS[name]))
    main(["check", "--instance", str(path), "--format", "machine",
          *CONFIGS[config]])
    expected = (GOLDEN / config / f"{name}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected


TAILOR_PROFILES = {
    "at": GOLDEN / "profiles" / "at.json",
    "fr": GOLDEN / "profiles" / "fr.json",
    "lu": GOLDEN / "profiles" / "lu.json",
    "generic": GOLDEN / "profiles" / "generic.json",
    "full": GOLDEN / "full-profile.json",
}


@pytest.mark.parametrize("name", list(TAILOR_PROFILES))
def test_tailor_machine_output_matches_the_golden_file(name, capsys):
    assert main(["tailor", "--profile", str(TAILOR_PROFILES[name]),
                 "--format", "machine"]) == 0
    expected = (GOLDEN / "tailor" / f"{name}.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == expected
