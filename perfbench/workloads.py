"""The three benchmark workloads.

Each workload is a fixed multiset of requests over the paper's programs:
the seed only permutes their order and draws input values and fresh miss
addresses, so what one run costs does not depend on its seed.  Every
workload runs whole passes (or, for the daemon, whole blocks) of its
multiset, so every run measures the same composition.

The host these figures are meant for is shared: for seconds to minutes
at a time it runs the same code up to 1.5 times slower.  The in-process
workloads report raw figures over many samples: requests per second of
the whole window and raw latency percentiles.  The daemon's throughput
takes its traffic blocks at their lower-quartile time, and each kernel is
taken at its fastest process.  Set-up is measured several times, before
and after the measured window rather than in one burst, and ``setup_s``
is the median.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import kernels
import spans

HERE = os.path.dirname(os.path.abspath(__file__))

#: The paper's HLACs (Table 3) and applications (Fig. 13) at the sizes the
#: registry serves them.
SPECS = ("potrf:8", "trsyl:8", "trlya:8", "trtri:8", "gpr:12", "kf:12",
         "l1a:12")
#: Requests that `cold_generate` repeats under the strict analysis gate.
STRICT_SPECS = ("potrf:8", "trtri:8", "trsyl:8", "l1a:12")

#: Tail percentile per workload: one with at least ten samples beyond it
#: in every run (cold_generate runs at least 6 passes of 11 requests,
#: warm_regen at least 10 passes of 7).  For cold_generate, p80 falls among
#: the `trsyl:8` strict and `gpr:12` requests, two kinds of similar cost,
#: rather than in the gap between two kinds.
TAIL_PERCENTILE = {"cold_generate": 80.0, "warm_regen": 80.0,
                   "serve_http": 99.0}
#: A cold request takes 0.1-3 s and a pass gives each kind one sample, so
#: the window runs at least this many passes whatever ``--seconds`` says.
COLD_MIN_PASSES = 6
WARM_MIN_PASSES = 10
COLD_STARTS = 4          # fresh-interpreter starts before and again after
                         # the window (plus one discarded first start)
KERNEL_DRIVER_RUNS = 4   # C-driver processes before and again after

#: `potrf`'s LA source (paper Table 3); checked at start against the
#: registry program so requests by source hit the entry warmed by spec.
POTRF_SOURCE = """
Mat S(n, n) <In, UpSym, PD>;
Mat U(n, n) <Out, UpTri, NS>;
U' * U = S;
"""


class Run:
    """State of one benchmark run: seeded randomness, its private cache
    directories, outcome counters and the figures it reports."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, run_dir: str, out_dir: str):
        import random
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = run_dir
        self.build_root = os.path.join(out_dir, "cdriver")
        #: Where a traced run leaves its spans and events.
        self.spans_path = os.path.join(out_dir, "spans",
                                       f"{workload}-seed{seed}.json")
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.notes: Dict[str, object] = {}
        self.determinism: Dict[str, object] = {}

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked outcome; a false one is a failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 50:
                self.problems.append(message)
        return ok

    def tally(self, attempted: int, problems: List[str]) -> None:
        """Count ``attempted`` checked outcomes, one failed per problem."""
        self.attempted += attempted
        self.failed += len(problems)
        self.problems.extend(problems[:50 - len(self.problems)])

    def path(self, *parts: str) -> str:
        path = os.path.join(self.dir, *parts)
        os.makedirs(path, exist_ok=True)
        return path


# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def build_cases() -> Dict[str, object]:
    from repro.service.registry import build_case, parse_spec
    return {spec: build_case(parse_spec(spec)) for spec in SPECS}


def percentile(values: Sequence[float], pct: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values), pct))


def latency_metrics(run: Run, latencies: Sequence[float]) -> None:
    pct = TAIL_PERCENTILE[run.workload]
    tail = percentile(latencies, pct)
    beyond = sum(1 for value in latencies if value > tail)
    run.metrics["latency_p50_ms"] = percentile(latencies, 50.0) * 1e3
    run.metrics["latency_tail_ms"] = tail * 1e3
    run.notes.update({"latency_samples": len(latencies),
                      "latency_tail_percentile": pct,
                      "latency_tail_beyond": beyond})
    run.check(beyond >= 10,
              f"tail p{pct:g} has only {beyond} samples beyond it")


def fresh_starts(run: Run, count: int) -> Tuple[List[float], List[float]]:
    """``count`` fresh interpreters that import the public API and build
    services over empty caches: (wall seconds to ready, import seconds)."""
    walls, imports = [], []
    for index in range(count):
        store = run.path("coldstart", str(index))
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "coldstart.py"), store],
            stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if proc.returncode != 0 or not line.startswith("ready "):
            raise RuntimeError(f"cold start failed: {line!r}")
        walls.append(ready - started)
        imports.append(float(line.split()[1]))
    return walls, imports


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kernel_timer(run: Run, produced: Dict[str, Tuple[object, str, object]]
                 ) -> kernels.KernelTimer:
    """The C driver over the distinct kernels, with its first samples."""
    timer = kernels.KernelTimer(list(produced.values()), run.path("kernels"),
                                run.build_root, run.seed)
    timer.sample(KERNEL_DRIVER_RUNS)
    return timer


def time_kernels(run: Run, timer: kernels.KernelTimer) -> None:
    """The driver's second samples; then kernel_ns_geomean and
    c_bytes_total over the distinct kernels, with each kernel's outputs
    checked against its case's reference."""
    timer.sample(KERNEL_DRIVER_RUNS)
    run.tally(len(timer.digests), timer.problems())
    ns = timer.ns()
    run.metrics["kernel_ns_geomean"] = kernels.geomean(ns.values())
    run.metrics["c_bytes_total"] = float(sum(
        len(code.encode("utf-8")) for code in timer.c_codes))
    run.notes["kernel_ns"] = {digest[:12]: value
                              for digest, value in sorted(ns.items())}


def closed_loop(run: Run, items: Sequence, call: Callable,
                min_passes: int, tracer: Optional[spans.Tracer] = None,
                collect: bool = False,
                after_pass: Optional[Callable[[int], None]] = None,
                seconds: Optional[float] = None,
                stats: Optional[Dict[str, Dict[str, object]]] = None
                ) -> Dict[str, Dict[str, object]]:
    """One caller in a closed loop over whole passes of ``items``, each in
    seeded order, until ``seconds`` (default ``run.seconds``) have passed
    and every mode has run ``min_passes`` passes.  ``call(item)`` returns a
    check function that runs after the request's time is taken.  With
    ``collect``, every request starts from an empty garbage collector.
    ``after_pass(n)`` runs, untimed, after the ``n``-th pass.  Passing the
    ``stats`` an earlier call returned adds this window to that one.

    With a ``tracer``, passes alternate between untraced (mode ``plain``)
    and traced (mode ``traced``) and the window is twice as long, so
    drift in the host's speed reaches both modes alike.  Returns per mode:
    latencies, request ids, pass count, traced wall time and throughput.
    """
    modes = ("plain", "traced") if tracer is not None else ("plain",)
    if stats is None:
        stats = {mode: {"latencies": [], "request_ids": [],
                        "pass_seconds": [], "by_item": {}} for mode in modes}
    window = (seconds or run.seconds) * len(modes)
    passes = 0
    started = time.perf_counter()
    while (passes < min_passes * len(modes)
           or time.perf_counter() - started < window):
        mode = modes[passes % len(modes)]
        mine = stats[mode]
        if tracer is not None:
            tracer.enabled = mode == "traced"
        pass_started = time.perf_counter()
        order = list(items)
        run.rng.shuffle(order)
        for item in order:
            request_id = f"{mode}.{len(mine['latencies'])}"
            if tracer is not None:
                tracer.set_request(request_id)
            if collect:
                gc.collect()
            begun = time.perf_counter()
            try:
                checker = call(item)
            except Exception as exc:  # a failed request is counted, not fatal
                run.check(False, f"{item}: {type(exc).__name__}: {exc}")
                continue
            finally:
                if tracer is not None:
                    tracer.set_request(None)
            latency = time.perf_counter() - begun
            mine["latencies"].append(latency)
            mine["request_ids"].append(request_id)
            mine["by_item"].setdefault(str(item), []).append(latency)
            checker()
        mine["pass_seconds"].append(time.perf_counter() - pass_started)
        passes += 1
        if after_pass is not None:
            after_pass(passes)
    if tracer is not None:
        tracer.enabled = False
    for mode, mine in stats.items():
        run.notes.setdefault("latency_by_item_s", {})[mode] = mine["by_item"]
        mine["passes"] = len(mine["pass_seconds"])
        mine["elapsed"] = sum(mine["pass_seconds"])
        # Requests per second of caller time in the window (the untimed
        # collections between requests left out).
        mine["throughput"] = len(mine["latencies"]) / sum(mine["latencies"])
    return stats


def in_process_trace(run: Run, items, call, min_passes: int,
                     collect: bool = False) -> None:
    """Trace mode for the in-process workloads: the layer wrappers go in,
    and passes alternate between untraced (the reference throughput) and
    traced (the per-layer numbers)."""
    tracer = spans.Tracer()
    spans.install(tracer)
    stats = closed_loop(run, items, call, min_passes, tracer, collect)
    spans.dump(tracer, run.spans_path)
    traced = stats["traced"]
    request_ids = traced["request_ids"]
    window = spans.window_spans(tracer.spans, request_ids)
    run.metrics.update(spans.layer_metrics(window, tracer.events,
                                           request_ids, len(request_ids)))
    covered = sum(spans.covered_seconds(window).values())
    run.metrics["unattributed_frac"] = (
        traced["elapsed"] - covered) / traced["elapsed"]
    run.metrics["service.server.http_ms"] = 0.0   # no HTTP in-process
    run.metrics["trace_overhead_frac"] = (
        1.0 - traced["throughput"] / stats["plain"]["throughput"])
    counts = spans.layer_counts(window, tracer.events, request_ids)
    run.determinism["counts_per_unit"] = {
        name: count / traced["passes"] for name, count in counts.items()}
    run.notes["passes"] = [stats["plain"]["passes"], traced["passes"]]


# ---------------------------------------------------------------------------
# cold_generate
# ---------------------------------------------------------------------------


def cold_generate(run: Run) -> None:
    """First-request generation: every request builds with a fresh
    PhaseCache and an empty kernel store.

    Every request starts from an empty garbage collector, as a first
    request does.  Otherwise a full collection of the garbage earlier
    requests left (about 14 per pass, up to 0.15 s each) lands on whichever
    request the seeded order puts next."""
    walls, imports = fresh_starts(run, 1 + COLD_STARTS)
    del walls[0], imports[0]   # the discarded start fills the bytecode cache
    from repro.api import DiskKernelStore, Options, PhaseCache, SLinGen

    cases = build_cases()
    items = ([(spec, "off") for spec in SPECS]
             + [(spec, "strict") for spec in STRICT_SPECS])
    options = {"off": Options(), "strict": Options(analysis="strict")}
    reference: Dict[str, str] = {}
    produced: Dict[str, Tuple[object, str, object]] = {}
    totals = {"candidates": 0, "artifacts": 0}
    stores = itertools.count()

    def call(item):
        spec, gate = item
        case = cases[spec]
        cache = PhaseCache()
        store = DiskKernelStore(root=os.path.join(
            run.dir, "stores", str(next(stores))))
        result = SLinGen(options[gate], store=store,
                         phase_cache=cache).generate_result(
            case.program, nominal_flops=case.nominal_flops)

        def check():
            digest = kernels.c_digest(result.c_code)
            first = reference.setdefault(spec, digest)
            produced.setdefault(spec, (case, result.c_code, result.function))
            run.check(digest == first,
                      f"{spec} ({gate}) generated different C than before")
            totals["candidates"] += len(result.candidates)
            totals["artifacts"] += _phase_puts(cache)
        return check

    # Pay the pipeline's lazily imported modules (search strategies, the
    # analysis passes) before any window, not inside its first request.
    for gate in options:
        SLinGen(options[gate], phase_cache=PhaseCache()).generate_result(
            cases["l1a:12"].program,
            nominal_flops=cases["l1a:12"].nominal_flops)

    if run.trace:
        run.metrics["import_s"] = min(imports)
        in_process_trace(run, items, call, COLD_MIN_PASSES // 2,
                         collect=True)
    else:
        timers = []

        def after_pass(passes: int) -> None:
            # The C driver's first samples, once every kernel exists.
            if passes == 1:
                timers.append(kernel_timer(run, produced))

        window = closed_loop(run, items, call, COLD_MIN_PASSES,
                             collect=True, after_pass=after_pass)["plain"]
        time_kernels(run, timers[0])
        after, _ = fresh_starts(run, COLD_STARTS)
        walls += after
        run.metrics["setup_s"] = statistics.median(walls)
        run.metrics["throughput_rps"] = window["throughput"]
        latency_metrics(run, window["latencies"])
        run.determinism["counts_per_unit"] = {
            name: value / window["passes"] for name, value in totals.items()}
        run.notes["passes"] = window["passes"]
        run.metrics["peak_rss_mb"] = peak_rss_mb()
    run.notes["setup_samples_s"] = walls
    run.determinism["c_sha256"] = dict(sorted(reference.items()))


# ---------------------------------------------------------------------------
# warm_regen
# ---------------------------------------------------------------------------


def warm_regen(run: Run) -> None:
    """Repeated generation with the process-wide phase cache warm and no
    kernel store: the loop tuning, fuzzing and CEGIS run."""
    from repro.api import Options, SLinGen
    from repro.pipeline.cache import (ENV_PHASE_CACHE,
                                      reset_shared_phase_cache,
                                      shared_phase_cache)

    cases = build_cases()
    generator = SLinGen(Options())
    reference: Dict[str, str] = {}
    produced: Dict[str, Tuple[object, str, object]] = {}
    fills: List[float] = []

    def fill() -> None:
        # A fresh, empty persistent layer per fill, so each fill builds
        # every artifact rather than reading the previous fill's.
        index = len(fills)
        os.environ[ENV_PHASE_CACHE] = fresh_dir(run, f"phase-fill{index}")
        reset_shared_phase_cache()
        started = time.perf_counter()
        results = {spec: generator.generate_result(
            cases[spec].program, nominal_flops=cases[spec].nominal_flops)
            for spec in SPECS}
        fills.append(time.perf_counter() - started)
        for spec, result in results.items():
            digest = kernels.c_digest(result.c_code)
            run.check(reference.setdefault(spec, digest) == digest,
                      f"{spec}: fill {index} generated different C")
            produced.setdefault(spec, (cases[spec], result.c_code,
                                       result.function))

    fill()
    totals = {"candidates": 0}

    def call(spec):
        case = cases[spec]
        result = generator.generate_result(
            case.program, nominal_flops=case.nominal_flops)

        def check():
            run.check(kernels.c_digest(result.c_code) == reference[spec],
                      f"{spec}: warm regeneration changed the C")
            totals["candidates"] += len(result.candidates)
        return check

    if run.trace:
        _, imports = fresh_starts(run, 3)
        run.metrics["import_s"] = min(imports[1:])
        in_process_trace(run, SPECS, call, WARM_MIN_PASSES)
        if run.metrics["pipeline.phase_hit_ratio"] != 1.0:
            run.check(False, "warm regeneration missed the phase cache")
    else:
        # The window runs in two halves with the second fill between them,
        # so its samples come from two moments of the run.
        timer = kernel_timer(run, produced)
        totals["artifacts"] = 0
        stats = None
        for half in range(2):
            if half:
                fill()
            puts_before = _phase_puts(shared_phase_cache())
            stats = closed_loop(run, SPECS, call, WARM_MIN_PASSES // 2,
                                seconds=run.seconds / 2, stats=stats)
            totals["artifacts"] += (_phase_puts(shared_phase_cache())
                                    - puts_before)
        window = stats["plain"]
        time_kernels(run, timer)
        run.metrics["setup_s"] = statistics.median(fills)
        run.metrics["throughput_rps"] = window["throughput"]
        latency_metrics(run, window["latencies"])
        run.determinism["counts_per_unit"] = {
            name: value / window["passes"] for name, value in totals.items()}
        run.notes["passes"] = window["passes"]
        run.metrics["peak_rss_mb"] = peak_rss_mb()
    run.notes["setup_samples_s"] = fills
    run.determinism["c_sha256"] = dict(sorted(reference.items()))


def _phase_puts(cache) -> int:
    return sum(phase["puts"] for phase in cache.stats()["phases"].values())


def fresh_dir(run: Run, name: str) -> str:
    path = run.path(name)
    if os.listdir(path):
        raise RuntimeError(f"cache directory {path} is not empty")
    return path


# ---------------------------------------------------------------------------
# serve_http
# ---------------------------------------------------------------------------

#: One block of daemon traffic, per program of SPECS: 17 hits by spec and
#: one compiled /run; plus, per block, 7 hits by LA source and 7 store
#: misses.  140 requests: 85% spec hits, 5% each of the other kinds.
SPEC_HITS_PER_PROGRAM = 17
SOURCE_HIT_SPECS = ("potrf:8", "gpr:12", "kf:12", "l1a:12", "potrf:8",
                    "gpr:12", "kf:12")
MISSES_PER_BLOCK = 7
RUN_INPUT_SETS = 4


def _sources(cases) -> Dict[str, Tuple[str, Dict[str, int], str]]:
    """LA source, constants and program name per source-addressed spec,
    each checked to parse to exactly the registry's program."""
    from repro.applications.cases import GPR_SOURCE, KF_SOURCE, L1A_SOURCE
    from repro.la import parse_program
    from repro.service.keys import canonical_program

    table = {"potrf:8": (POTRF_SOURCE, {"n": 8}, "potrf_8"),
             "gpr:12": (GPR_SOURCE, {"n": 12}, "gpr_12"),
             "kf:12": (KF_SOURCE, {"n": 12, "k": 12}, "kf_12_12"),
             "l1a:12": (L1A_SOURCE, {"n": 12}, "l1a_12")}
    for spec, (source, constants, name) in table.items():
        parsed = parse_program(source, constants, name=name)
        if canonical_program(parsed) != canonical_program(
                cases[spec].program):
            raise RuntimeError(f"LA source for {spec} does not match the "
                               f"registry program")
    return table


class Daemon:
    """One ``python -m repro.service serve`` process on fresh caches."""

    def __init__(self, run: Run, name: str, traced: bool):
        self.setup_s: Optional[float] = None
        self.spans_path = os.path.join(run.dir, f"{name}-spans.json")
        env = dict(os.environ)
        for var, sub in (("REPRO_OBJECT_CACHE", "objects"),
                         ("REPRO_NUMPY_CACHE", "numpy"),
                         ("REPRO_PHASE_CACHE", "phase")):
            env[var] = fresh_dir(run, f"{name}-{sub}")
        store = fresh_dir(run, f"{name}-store")
        args = ["--cache-dir", store, "serve", "--host", "127.0.0.1",
                "--port", "0", "--workers", "1", "--quiet"]
        if traced:
            command = [sys.executable, os.path.join(HERE, "traced_daemon.py"),
                       self.spans_path] + args
        else:
            command = [sys.executable, "-m", "repro.service"] + args
        self.log_path = os.path.join(run.dir, f"{name}.log")
        self.log = open(self.log_path, "w", encoding="utf-8")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(command, env=env, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + 60
        pattern = re.compile(r"listening on http://127\.0\.0\.1:(\d+)")
        while time.monotonic() < deadline:
            with open(self.log_path, encoding="utf-8") as handle:
                found = pattern.search(handle.read())
            if found:
                return int(found.group(1))
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"daemon did not start (see {self.log_path})")

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + 30
        while True:
            try:
                status, _doc, _wall = self.request("GET", "/healthz", None,
                                                   "setup")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon never became healthy")
            time.sleep(0.01)

    def request(self, method: str, path: str, body: Optional[bytes],
                request_id: str) -> Tuple[int, Dict[str, object], float]:
        """One request on its own connection, as ``ServiceClient`` makes
        them: (status, answer, seconds until the whole answer arrived)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        headers = {"Content-Type": "application/json",
                   "X-Request-Id": request_id, "Connection": "close"}
        try:
            begun = time.perf_counter()
            conn.request(method, path, body=body, headers=headers)
            reply = conn.getresponse()
            data = reply.read()
            wall = time.perf_counter() - begun
        finally:
            conn.close()
        return reply.status, json.loads(data.decode("utf-8")), wall

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.log.close()


class Traffic:
    """The daemon's request mix: whole blocks, each a seeded permutation
    of one fixed block, handed out in order, and the answers' samples (request id, block, kind, client seconds,
    time of arrival)."""

    def __init__(self, run: Run, cases, sources, run_inputs, targets: int):
        self.run = run
        self.targets = targets
        self.cases = cases
        self.block: List[Tuple[str, str]] = []
        for spec in SPECS:
            self.block += [("spec", spec)] * SPEC_HITS_PER_PROGRAM
            self.block.append(("run", spec))
        self.block += [("source", spec) for spec in SOURCE_HIT_SPECS]
        self.block += [("miss", "potrf:8")] * MISSES_PER_BLOCK
        self.spec_bodies = {spec: json.dumps({"spec": spec}).encode()
                            for spec in SPECS}
        self.source_bodies = {}
        for spec, (source, constants, name) in sources.items():
            self.source_bodies[spec] = json.dumps({
                "source": source, "constants": constants, "name": name,
                "nominal_flops": cases[spec].nominal_flops}).encode()
        self.potrf = sources["potrf:8"]
        self.run_inputs = run_inputs
        self.index = 0
        self.order: List[Tuple[str, str]] = []
        self.started = 0.0
        self.seconds = run.seconds
        #: First block of each window -> the time that window started.
        self.window_starts: Dict[int, float] = {}
        self.samples: List[Tuple[str, int, str, float, float]] = []
        self.misses = 0

    def miss_body(self, serial: int) -> bytes:
        # A fresh nominal_flops: part of the kernel-store key but of no
        # phase key, so the store misses while every phase still hits.
        # (A fresh program name would miss Stage 1 too: the name is part
        # of the canonical program every phase key hashes.)
        source, constants, name = self.potrf
        fresh = self.cases["potrf:8"].nominal_flops + 1 + serial \
            + self.run.seed * 1_000_000
        return json.dumps({"source": source, "constants": constants,
                           "name": name, "nominal_flops": fresh}).encode()

    def next(self):
        """The next request, or None once the window is over.  The window
        is ``self.seconds`` per target and ends only between rounds of one
        block per target, so every target serves the same whole blocks."""
        block, position = divmod(self.index, len(self.block))
        if position == 0:
            if (block % self.targets == 0
                    and time.perf_counter() - self.started
                    >= self.seconds * self.targets):
                return None
            self.order = list(self.block)
            self.run.rng.shuffle(self.order)
        self.index += 1
        kind, spec = self.order[position]
        serial = None
        if kind == "miss":
            serial = self.misses
            self.misses += 1
        elif kind == "run":
            serial = self.index
        return self.index - 1, block, kind, spec, serial

    def body(self, kind: str, spec: str, serial) -> Tuple[str, bytes]:
        if kind == "spec":
            return "/generate", self.spec_bodies[spec]
        if kind == "source":
            return "/generate", self.source_bodies[spec]
        if kind == "miss":
            return "/generate", self.miss_body(serial)
        return "/run", self.run_inputs[spec][serial % RUN_INPUT_SETS][2]


def _run_inputs(run: Run, cases) -> Dict[str, list]:
    """Seeded inputs per program for /run, with their reference outputs
    and the ready-made request bodies."""
    table = {}
    for offset, spec in enumerate(SPECS):
        case = cases[spec]
        sets = []
        for index in range(RUN_INPUT_SETS):
            inputs = case.make_inputs(run.seed * 1000 + offset * 10 + index)
            body = json.dumps({
                "spec": spec, "backend": "compiled",
                "inputs": {name: value.tolist()
                           for name, value in inputs.items()}}).encode()
            sets.append((inputs, case.reference_outputs(inputs), body))
        table[spec] = sets
    return table


def _check_answer(run: Run, cases, reference, kind: str, spec: str,
                  status: int, doc, expected=None) -> None:
    """One request's outcome: HTTP 200, the expected hit or miss, and
    either the served C or the /run outputs right."""
    problems = []
    if status != 200:
        problems.append(f"HTTP {status} {doc.get('error', '')}")
    else:
        if doc.get("cache_hit") is not (kind != "miss"):
            problems.append(f"cache_hit={doc.get('cache_hit')}")
        if kind == "run":
            if not kernels.matches_reference(cases[spec], expected,
                                             doc.get("outputs", {})):
                problems.append("outputs disagree with the reference")
        elif doc.get("c_code") != reference[spec]:
            problems.append("served C differs from in-process generation")
    run.check(not problems, f"{kind} {spec}: {'; '.join(problems)}")


def start_daemon(run: Run, name: str, traced: bool, cases, reference,
                 run_inputs) -> Daemon:
    """A daemon that is healthy, warmed with every program and has run
    each program's compiled kernel once (its ``setup_s`` is set)."""
    daemon = Daemon(run, name, traced)
    try:
        daemon.wait_healthy()
        for spec in SPECS:
            status, doc, _ = daemon.request(
                "POST", "/generate", json.dumps({"spec": spec}).encode(),
                "setup")
            _check_answer(run, cases, reference, "miss", spec, status, doc)
        for spec in SPECS:
            _inputs, expected, body = run_inputs[spec][0]
            status, doc, _ = daemon.request("POST", "/run", body, "setup")
            _check_answer(run, cases, reference, "run", spec, status, doc,
                          expected)
    except BaseException:
        daemon.stop()
        raise
    daemon.setup_s = time.perf_counter() - daemon.started
    return daemon


def drive(run: Run, traffic: Traffic, daemons: List[Daemon], cases,
          reference, run_inputs, seconds: float) -> None:
    """One window of ``seconds`` per daemon: one closed-loop client sends
    whole blocks of traffic, block ``b`` to ``daemons[b % len(daemons)]``,
    so drift in the host's speed reaches every daemon alike.  The answers'
    samples are added to ``traffic.samples``."""
    traffic.seconds = seconds
    traffic.started = time.perf_counter()
    traffic.window_starts[traffic.index // len(traffic.block)] = \
        traffic.started
    while True:
        item = traffic.next()
        if item is None:
            return
        index, block, kind, spec, serial = item
        path, body = traffic.body(kind, spec, serial)
        request_id = f"w{index}"
        try:
            status, doc, wall = daemons[block % len(daemons)].request(
                "POST", path, body, request_id)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            run.check(False, f"{kind} {spec}: {exc}")
            continue
        expected = (run_inputs[spec][serial % RUN_INPUT_SETS][1]
                    if kind == "run" else None)
        _check_answer(run, cases, reference, kind, spec, status, doc,
                      expected)
        traffic.samples.append((request_id, block, kind, wall,
                                time.perf_counter()))


def block_results(traffic: Traffic, targets: int) -> List[Dict[str, object]]:
    """Per daemon: samples (request id, kind, client seconds), block count
    and throughput.  A block ends with its last answer; its time runs from
    the end of the block before it, or from the start of its window.
    Throughput is requests per second of a block at the lower quartile of
    block times (see the module docstring)."""
    blocks = traffic.index // len(traffic.block)
    ends = [0.0] * blocks
    for sample in traffic.samples:
        ends[sample[1]] = max(ends[sample[1]], sample[4])
    seconds = [ends[b] - traffic.window_starts.get(b, ends[b - 1])
               for b in range(blocks)]
    results = []
    for which in range(targets):
        mine = range(which, blocks, targets)
        results.append({
            "samples": [sample[:1] + sample[2:4]
                        for sample in traffic.samples
                        if sample[1] % targets == which],
            "blocks": len(mine),
            "throughput": len(traffic.block) / percentile(
                [seconds[b] for b in mine], 25.0)})
    return results


def serve_http(run: Run) -> None:
    """The HTTP daemon under a fixed mix of hits, source hits, store
    misses and compiled /run calls from one closed-loop client.

    One client, not one per core: two connections saturate the daemon's
    single worker, so the second adds under 5% throughput while queueing
    behind the other connection doubles the median latency and amplifies
    the host's noise (median spread 0.10 against 0.03 over six
    alternating pairs of runs)."""
    from repro.api import Options, PhaseCache, SLinGen

    cases = build_cases()
    sources = _sources(cases)
    generator = SLinGen(Options(), phase_cache=PhaseCache())
    produced = {}
    for spec in SPECS:
        result = generator.generate_result(
            cases[spec].program, nominal_flops=cases[spec].nominal_flops)
        produced[spec] = (cases[spec], result.c_code, result.function)
    reference = {spec: entry[1] for spec, entry in produced.items()}
    run_inputs = _run_inputs(run, cases)
    if run.trace:
        _, imports = fresh_starts(run, 3)
        run.metrics["import_s"] = min(imports[1:])
    else:
        timer = kernel_timer(run, produced)

    daemons: List[Daemon] = []
    setups: List[Daemon] = []     # the untraced run's second set-up
    try:
        for name, traced in ([("plain", False), ("traced", True)]
                             if run.trace else [("plain", False)]):
            daemons.append(start_daemon(run, name, traced, cases, reference,
                                        run_inputs))
        traffic = Traffic(run, cases, sources, run_inputs, len(daemons))
        if run.trace:
            drive(run, traffic, daemons, cases, reference, run_inputs,
                  run.seconds)
        else:
            # The window runs in two halves with a second set-up between
            # them (a daemon on fresh caches, set up while the first one
            # idles), so its lower-quartile blocks come from two moments.
            drive(run, traffic, daemons, cases, reference, run_inputs,
                  run.seconds / 2)
            setups.append(start_daemon(run, "again", False, cases,
                                       reference, run_inputs))
            setups[0].stop()
            drive(run, traffic, daemons, cases, reference, run_inputs,
                  run.seconds / 2)
            time_kernels(run, timer)
        rss = daemons[0].peak_rss_mb()
    finally:
        for daemon in daemons + setups:
            daemon.stop()
    results = block_results(traffic, len(daemons))

    window = results[-1]
    request_ids = [sample[0] for sample in window["samples"]]
    if run.trace:
        os.makedirs(os.path.dirname(run.spans_path), exist_ok=True)
        shutil.copyfile(daemons[-1].spans_path, run.spans_path)
        all_spans, events = spans.load(run.spans_path)
        traced_spans = spans.window_spans(all_spans, request_ids)
        run.metrics.update(spans.layer_metrics(
            traced_spans, events, request_ids, len(request_ids)))
        covered = spans.covered_seconds(traced_spans)
        walls = sum(sample[2] for sample in window["samples"])
        run.metrics["unattributed_frac"] = (
            walls - sum(covered.values())) / walls
        # Client wall time outside every layer span the daemon recorded
        # for the request: HTTP, JSON and the handler.
        run.metrics["service.server.http_ms"] = 1e3 * statistics.fmean(
            sample[2] - covered.get(sample[0], 0.0)
            for sample in window["samples"])
        run.metrics["trace_overhead_frac"] = (
            1.0 - window["throughput"] / results[0]["throughput"])
        counts = spans.layer_counts(traced_spans, events, request_ids)
        run.determinism["counts_per_unit"] = {
            key: value / window["blocks"] for key, value in counts.items()}
    else:
        run.metrics["setup_s"] = statistics.median(
            daemon.setup_s for daemon in daemons + setups)
        run.metrics["throughput_rps"] = window["throughput"]
        latency_metrics(run, [sample[2] for sample in window["samples"]])
        by_kind: Dict[str, List[float]] = {}
        for sample in window["samples"]:
            by_kind.setdefault(sample[1], []).append(sample[2])
        run.notes["latency_by_kind_ms"] = {
            kind: {f"p{pct:g}": percentile(values, pct) * 1e3
                   for pct in (50, 90, 99)}
            for kind, values in sorted(by_kind.items())}
        run.metrics["peak_rss_mb"] = rss
    run.notes["blocks"] = [result["blocks"] for result in results]
    run.notes["setup_samples_s"] = [daemon.setup_s
                                    for daemon in daemons + setups]
    run.determinism["c_sha256"] = {
        spec: kernels.c_digest(code) for spec, code in sorted(
            reference.items())}


WORKLOADS = {"cold_generate": cold_generate, "warm_regen": warm_regen,
             "serve_http": serve_http}
