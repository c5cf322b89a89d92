"""Layer spans recorded from outside the program.

Nothing under ``src/`` knows about this module.  :func:`install` replaces
each public layer function at the name its caller looks it up by (for
example ``repro.slingen.generator.analyze_function``) with a wrapper that
records a span -- name, start, end, parent span, request id -- or bumps an
event counter.  Spans stay in memory in one :class:`Tracer` and are
turned into per-layer numbers by :func:`layer_metrics` when the run ends.

A layer's number is its *self* time: the span's duration minus the
durations of the spans it directly contains, so a phase driver's time
excludes the keys, deep copies and gate calls nested inside it.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import os
import subprocess
import threading
import time
import types
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: One recorded span: (span id, parent id or 0, name, start, end, request id).
Span = Tuple[int, int, str, float, float, Optional[str]]


class Tracer:
    """In-memory span and event recorder, safe to share between threads."""

    def __init__(self) -> None:
        #: While false, every wrapper calls straight through, so a run can
        #: alternate traced and untraced passes in one process.
        self.enabled = True
        self.spans: List[Span] = []
        self.events: Counter = Counter()      # (request id, name) -> count
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- request scope -------------------------------------------------------

    def set_request(self, request_id: Optional[str]) -> None:
        """Attribute the calling thread's spans to ``request_id``."""
        self._local.request_id = request_id

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording -----------------------------------------------------------

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so every call records one span called ``name``."""
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end,
                              getattr(local, "request_id", None)))

        return wrapper

    def count(self, name: str, amount: int = 1) -> None:
        self.events[(getattr(self._local, "request_id", None), name)] += amount

    def counted(self, fn: Callable, classify: Callable[[object], str]
                ) -> Callable:
        """``fn`` wrapped to count each call under ``classify(result)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.enabled:
                self.count(classify(result))
            return result

        return wrapper


def _module_proxy(module: types.ModuleType, **overrides) -> types.ModuleType:
    """A stand-in for ``module`` with some attributes replaced, so a call
    such as ``copy.deepcopy`` is timed only where that module refers to it."""
    proxy = types.ModuleType(module.__name__)
    proxy.__dict__.update(module.__dict__)
    proxy.__dict__.update(overrides)
    return proxy


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark measures."""
    import repro.analysis
    import repro.applications.cases
    import repro.backend
    import repro.backend.compile
    import repro.la
    import repro.pipeline.cache
    import repro.pipeline.phases
    import repro.service.keys
    import repro.service.server
    import repro.service.service
    import repro.service.store
    import repro.slingen.generator

    timed = tracer.timed

    def wrap(owner, attr: str, name: str) -> None:
        setattr(owner, attr, timed(name, getattr(owner, attr)))

    phases = repro.pipeline.phases
    for phase in ("stage1", "rewrite", "lower", "optimize"):
        wrap(phases, phase, f"pipeline.{phase}")
        wrap(phases, f"{phase}_key", "pipeline.keys")
    phases.copy = _module_proxy(
        copy, deepcopy=timed("pipeline.deepcopy", copy.deepcopy))
    wrap(repro.analysis, "gate_artifact", "analysis.gate")

    cache = repro.pipeline.cache.PhaseCache
    cache.get = tracer.counted(
        cache.get, lambda found: "phase.hit" if found is not None
        else "phase.miss")
    cache.put = tracer.counted(cache.put, lambda _: "phase.put")

    generator = repro.slingen.generator
    wrap(generator, "analyze_function", "machine.score")
    wrap(generator, "unparse_function", "backend.unparse")
    wrap(generator, "build_candidate", "slingen.build_candidate")

    wrap(repro.la, "parse_program", "la.parse")
    wrap(repro.applications.cases, "parse_program", "la.parse")
    wrap(repro.service.service, "cache_key", "service.keys.cache_key")
    wrap(repro.service.keys, "cache_key", "service.keys.cache_key")

    store = repro.service.store.DiskKernelStore
    wrap(store, "get", "service.store.get")
    wrap(store, "put", "service.store.put")
    store.get = tracer.counted(
        store.get, lambda found: "store.hit" if found is not None
        else "store.miss")
    wrap(repro.service.service.KernelService, "generate", "service.generate")

    backend_compile = repro.backend.compile
    wrap(repro.backend, "compile_kernel", "backend.compile")

    def compiler_run(*args, **kwargs):
        if tracer.enabled:
            tracer.count("backend.cc")
        return subprocess.run(*args, **kwargs)

    backend_compile.subprocess = _module_proxy(subprocess, run=compiler_run)
    wrap(backend_compile.CompiledKernel, "run", "backend.kernel_run")

    # The daemon's handler threads learn their request id from a header
    # the benchmark client sends; spans on that thread carry it.
    handler = repro.service.server._Handler
    do_post = handler.do_POST

    @functools.wraps(do_post)
    def traced_post(self):
        tracer.set_request(self.headers.get("X-Request-Id"))
        try:
            return do_post(self)
        finally:
            tracer.set_request(None)

    handler.do_POST = traced_post


def dump(tracer: Tracer, path: str) -> None:
    """Write the recorded spans and events to ``path`` as JSON."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    doc = {"spans": tracer.spans,
           "events": [[request, name, count]
                      for (request, name), count in tracer.events.items()]}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def load(path: str) -> Tuple[List[Span], Counter]:
    """The spans and events :func:`dump` wrote."""
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    events = Counter({(request, name): count
                      for request, name, count in doc["events"]})
    return [tuple(span) for span in doc["spans"]], events


# ---------------------------------------------------------------------------
# Turning spans into per-layer numbers
# ---------------------------------------------------------------------------

#: Span name -> per-layer metric reporting its self time in ms per request.
SELF_TIME_MS = {
    "pipeline.stage1": "pipeline.stage1_ms",
    "pipeline.rewrite": "pipeline.rewrite_ms",
    "pipeline.lower": "pipeline.lower_ms",
    "pipeline.optimize": "pipeline.optimize_ms",
    "pipeline.deepcopy": "pipeline.deepcopy_ms",
    "pipeline.keys": "pipeline.keys_ms",
    "analysis.gate": "analysis.gate_ms",
    "machine.score": "machine.score_ms",
    "backend.unparse": "backend.unparse_ms",
    "slingen.build_candidate": "slingen.build_candidate_ms",
    "la.parse": "la.parse_ms",
    "service.keys.cache_key": "service.keys.cache_key_ms",
    "service.store.get": "service.store.get_ms",
    "service.store.put": "service.store.put_ms",
    "service.generate": "service.generate_ms",
    "backend.compile": "backend.compile_ms",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def window_spans(spans: Iterable[Span], request_ids) -> List[Span]:
    """The spans recorded on behalf of the given requests."""
    wanted = set(request_ids)
    return [span for span in spans if span[5] in wanted]


def covered_seconds(spans: List[Span]) -> Dict[Optional[str], float]:
    """Per request: total duration of its outermost spans (a request runs
    on one thread, so its outermost spans never overlap)."""
    covered: Dict[Optional[str], float] = defaultdict(float)
    for _sid, parent, _name, start, end, request in spans:
        if parent == 0:
            covered[request] += end - start
    return covered


def layer_metrics(spans: List[Span], events: Counter, request_ids,
                  requests: int) -> Dict[str, float]:
    """Per-layer metrics over the spans and events of ``request_ids``.

    Times are self times in ms per request; counts are per request;
    ratios are over the calls of the window.  ``spans`` must already be
    restricted to the window (:func:`window_spans`).
    """
    wanted = set(request_ids)
    child_time: Dict[int, float] = defaultdict(float)
    for _sid, parent, _name, start, end, _request in spans:
        if parent:
            child_time[parent] += end - start
    self_seconds: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for sid, _parent, name, start, end, _request in spans:
        self_seconds[name] += (end - start) - child_time.get(sid, 0.0)
        calls[name] += 1
    counts: Counter = Counter()
    for (request, name), amount in events.items():
        if request in wanted:
            counts[name] += amount

    per_request = 1.0 / requests
    metrics = {metric: self_seconds.get(name, 0.0) * 1e3 * per_request
               for name, metric in SELF_TIME_MS.items()}
    phase_lookups = counts["phase.hit"] + counts["phase.miss"]
    metrics.update({
        "pipeline.artifacts_built": counts["phase.put"] * per_request,
        "pipeline.phase_hit_ratio": _ratio(counts["phase.hit"],
                                           phase_lookups),
        "analysis.artifacts_checked": calls["analysis.gate"] * per_request,
        "machine.score_calls": calls["machine.score"] * per_request,
        "slingen.candidates_built":
            calls["slingen.build_candidate"] * per_request,
        # One winner is unparsed per generation that searched.
        "slingen.useful_ratio": _ratio(calls["backend.unparse"],
                                       calls["slingen.build_candidate"]),
        "service.store.hit_ratio": _ratio(
            counts["store.hit"], counts["store.hit"] + counts["store.miss"]),
        "backend.compile_calls": calls["backend.compile"] * per_request,
        "backend.object_cache_hit_ratio": _ratio(
            calls["backend.compile"] - counts["backend.cc"],
            calls["backend.compile"]),
        "backend.kernel_run_us": _ratio(
            self_seconds.get("backend.kernel_run", 0.0) * 1e6,
            calls["backend.kernel_run"]),
    })
    return metrics


def layer_counts(spans: List[Span], events: Counter, request_ids
                 ) -> Dict[str, int]:
    """Exact integer counts of the window, for the determinism record."""
    wanted = set(request_ids)
    calls = Counter(span[2] for span in spans)
    for (request, name), amount in events.items():
        if request in wanted:
            calls[name] += amount
    return dict(sorted(calls.items()))
