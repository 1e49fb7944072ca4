from __future__ import annotations

import json

import pytest

from fixtures import compliant_document, document_bytes, failing_variants
from gdpr_engine import load_instance
from gdpr_engine.variability import default_profile

try:
    import hypothesis
except ImportError:  # the property tests then fail to import; the rest still run
    pass
else:
    # One profile for every property test: a load can take longer than the
    # default deadline on a slow host. Each test sets only max_examples.
    hypothesis.settings.register_profile(
        "gdpr-engine", deadline=None,
        suppress_health_check=[hypothesis.HealthCheck.too_slow])
    hypothesis.settings.load_profile("gdpr-engine")


@pytest.fixture(scope="session")
def generic_profile():
    return default_profile().finalize()


@pytest.fixture()
def compliant_doc():
    return compliant_document()


@pytest.fixture(scope="session")
def compliant_graph(generic_profile):
    return load_instance(document_bytes(compliant_document()), generic_profile)


@pytest.fixture(scope="session")
def fail_documents():
    return failing_variants()


def load_doc(document: dict, profile=None):
    return load_instance(json.dumps(document).encode("utf-8"), profile)
