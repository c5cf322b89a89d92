"""``python -m repro.service`` with the benchmark's layer spans installed.

Usage: ``traced_daemon.py SPANS_JSON [repro.service arguments ...]``

The daemon runs exactly as ``python -m repro.service ...`` would; when it
exits (the benchmark sends SIGTERM, which the serve command handles by
shutting down cleanly) the recorded spans and events are written to
SPANS_JSON.
"""

import atexit
import os
import runpy
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402

out_path = sys.argv[1]
tracer = spans.Tracer()
spans.install(tracer)
atexit.register(spans.dump, tracer, out_path)
sys.argv = ["repro.service"] + sys.argv[2:]
runpy.run_module("repro.service", run_name="__main__", alter_sys=True)
