"""Print the seconds a fresh interpreter takes to import the engine and to
build and finalize each profile document named on the command line.

``run.py`` starts this once per sample. Nothing but ``os``, ``sys`` and
``time`` is imported before the clock starts.
"""

import os
import sys
import time

started = time.perf_counter()
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from gdpr_engine import cli  # noqa: E402

for path in sys.argv[1:]:
    with open(path, "rb") as handle:
        cli.build_profile(cli.load_profile(handle.read())).fingerprint()
print(repr(time.perf_counter() - started))
