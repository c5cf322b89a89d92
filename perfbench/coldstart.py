"""One cold start: a fresh interpreter imports the public API and builds
its services over empty caches, then reports ``ready <import seconds>``.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``;
the argument is an empty directory for the kernel store.
"""

import sys
import time

started = time.perf_counter()
import repro.api as api  # noqa: E402

imported = time.perf_counter()
store = api.DiskKernelStore(root=sys.argv[1])
api.KernelService(store=store)
api.SLinGen(api.Options(), store=store, phase_cache=api.PhaseCache())
print(f"ready {imported - started:.6f}", flush=True)
