"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload cold_generate --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` is a separate run that
installs the layer spans of ``spans.py`` and reports per-layer numbers.
Every run checks the program's outputs (see README.md), prints each
metric with its unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A full record of the run -- environment, determinism fingerprint, raw
samples -- goes to ``.perfbench_out/results/``.  Each run compares its
fingerprint with the earlier records of the same code and workload and
counts any difference as a failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

#: Caches the program would otherwise keep under ~/.cache; each run points
#: every one of them at its own empty directory.
CACHE_VARS = {"REPRO_KERNEL_CACHE": "kernels", "REPRO_OBJECT_CACHE": "objects",
              "REPRO_NUMPY_CACHE": "numpy", "REPRO_PHASE_CACHE": "phase",
              "REPRO_TUNING_DB": "tuning", "REPRO_FIXBANK": "fixbank"}

END_TO_END_UNITS = {
    "setup_s": "s", "throughput_rps": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "kernel_ns_geomean": "ns",
    "c_bytes_total": "bytes", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "pipeline.stage1_ms": "ms", "pipeline.rewrite_ms": "ms",
    "pipeline.lower_ms": "ms", "pipeline.optimize_ms": "ms",
    "pipeline.deepcopy_ms": "ms", "pipeline.keys_ms": "ms",
    "pipeline.artifacts_built": "count", "pipeline.phase_hit_ratio": "ratio",
    "analysis.gate_ms": "ms", "analysis.artifacts_checked": "count",
    "machine.score_ms": "ms", "machine.score_calls": "count",
    "backend.unparse_ms": "ms", "slingen.build_candidate_ms": "ms",
    "slingen.candidates_built": "count", "slingen.useful_ratio": "ratio",
    "la.parse_ms": "ms", "service.keys.cache_key_ms": "ms",
    "service.store.get_ms": "ms", "service.store.put_ms": "ms",
    "service.store.hit_ratio": "ratio", "service.generate_ms": "ms",
    "service.server.http_ms": "ms", "backend.compile_ms": "ms",
    "backend.compile_calls": "count",
    "backend.object_cache_hit_ratio": "ratio",
    "backend.kernel_run_us": "us", "import_s": "s",
    "unattributed_frac": "fraction", "trace_overhead_frac": "fraction"}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_generate", "warm_regen", "serve_http"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_digest() -> str:
    """Digest of the program and benchmark sources: runs compare their
    determinism records only with runs of identical code."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".c")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def _command_output(command) -> str:
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def _environment() -> dict:
    import numpy
    from repro.backend.compile import find_c_compiler

    cc = find_c_compiler()
    version = _command_output([cc, "--version"]) if cc else ""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = _command_output(["git", "rev-parse", "HEAD"]) or None
    dirty = (bool(_command_output(["git", "status", "--porcelain"]))
             if commit else None)
    return {"nproc": os.cpu_count(), "loadavg_start": os.getloadavg(),
            "cc": cc, "cc_version": version.splitlines()[0] if version
            else None, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit, "dirty": dirty}


def _isolate_caches(run_dir: str) -> None:
    for var, sub in CACHE_VARS.items():
        path = os.path.join(run_dir, "env-" + sub)
        os.makedirs(path)
        if os.listdir(path):
            raise RuntimeError(f"{var} directory {path} is not empty")
        os.environ[var] = path
    # Compilers and temporary files stay inside the checkout too.
    scratch = os.path.join(run_dir, "tmp")
    os.makedirs(scratch)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch


def _compare_with_earlier(record: dict, results_dir: str) -> list:
    """Differences between this run's determinism record and those of
    earlier runs of the same code, workload and trace mode."""
    differences = []
    for name in sorted(os.listdir(results_dir)):
        try:
            with open(os.path.join(results_dir, name),
                      encoding="utf-8") as handle:
                other = json.load(handle)
        except (OSError, ValueError):
            continue
        if (other.get("source_digest") != record["source_digest"]
                or other.get("workload") != record["workload"]
                or other.get("trace") != record["trace"]
                or other.get("seed") == record["seed"]
                or not other.get("correct")):
            continue
        if other.get("determinism") != record["determinism"]:
            differences.append(f"determinism record differs from {name}")
    return differences


def _terminate(signum, frame):
    # Unwind through every finally, so daemons and other children the run
    # started are stopped and waited for.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program sources at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
           else []))
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    run_dir = tempfile.mkdtemp(
        prefix=f"{args.workload}-s{args.seed}-t{args.trace}-",
        dir=os.path.join(OUT, "runs"))
    source_digest = _source_digest()
    try:
        _isolate_caches(run_dir)
        import workloads

        environment = _environment()
        run = workloads.Run(args.workload, args.seed, args.seconds,
                            bool(args.trace), run_dir, OUT)
        started = time.perf_counter()
        workloads.WORKLOADS[args.workload](run)
        environment["loadavg_end"] = os.getloadavg()
        run_seconds = time.perf_counter() - started
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(run.metrics))
    if missing:
        print(f"perfbench: run produced no {', '.join(missing)}",
              file=sys.stderr)
        return 3

    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "source_digest": source_digest,
              "determinism": run.determinism}
    for difference in _compare_with_earlier(record, results_dir):
        run.check(False, difference)
    correct = run.failed == 0
    record.update({"correct": correct, "attempted": run.attempted,
                   "failed": run.failed, "problems": run.problems,
                   "environment": environment, "notes": run.notes,
                   "run_seconds": run_seconds,
                   "metrics": {name: run.metrics[name] for name in units}})
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    for problem in run.problems:
        print(f"problem: {problem}")
    for name, unit in units.items():
        print(f"{args.workload} {name} = {run.metrics[name]:.6g} {unit}")
    print(f"{args.workload} failed_frac = "
          f"{run.failed / max(1, run.attempted):.6g} "
          f"({run.failed} of {run.attempted} checks)")
    print(json.dumps({
        "correct": correct, "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
