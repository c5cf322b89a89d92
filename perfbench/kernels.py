"""Time and check generated kernels in the benchmark's own C driver.

A 50 ns kernel called through ctypes would measure the Python call, not
the kernel, so every distinct generated kernel is linked into one
executable with ``cdriver.c``.  The driver runs each kernel once on seeded
inputs (the outputs are compared with the case's numpy/scipy reference
here) and then times it in a loop, restoring its read-write buffers before
every call.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import tempfile
from typing import Dict, List, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
FLAG_DATA = 1
FLAG_RESTORE = 2


def c_digest(c_code: str) -> str:
    return hashlib.sha256(c_code.encode("utf-8")).hexdigest()


def matches_reference(case, expected: Dict[str, np.ndarray],
                      outputs: Dict[str, object]) -> bool:
    """The comparison ``repro.bench.harness.check_case`` applies: each
    checked output (triangle-masked where the case says so) within
    ``np.allclose(atol=1e-7)`` of the case's reference outputs."""
    for name, mode in case.checked_outputs.items():
        if name not in outputs:
            return False
        got = np.asarray(outputs[name], dtype=np.float64).reshape(
            np.shape(expected[name]))
        want = expected[name]
        if mode == "lower":
            got, want = np.tril(got), np.tril(want)
        elif mode == "upper":
            got, want = np.triu(got), np.triu(want)
        if not np.allclose(got, want, atol=1e-7):
            return False
    return True


def _build(kernels: List[Tuple[str, object]], build_root: str) -> str:
    """The driver executable over ``kernels`` ((c_code, function) pairs).

    Builds are kept under ``build_root`` by a digest of every source, so
    later runs of the same code link nothing again."""
    from repro.backend.compile import find_c_compiler

    compiler = find_c_compiler()
    if compiler is None:
        raise RuntimeError("no C compiler available for the kernel driver")
    with open(os.path.join(HERE, "cdriver.c"), encoding="utf-8") as handle:
        files = {"cdriver.c": handle.read()}
    table = []
    for index, (c_code, function) in enumerate(kernels):
        args = ", ".join(f"a[{i}]" for i in range(len(function.params)))
        files[f"kernel{index}.c"] = (
            f"{c_code}\nvoid perfbench_call_{index}(double **a) "
            f"{{ {function.name}({args}); }}\n")
        table.append(f"perfbench_call_{index}")
    files["table.c"] = (
        "".join(f"void {name}(double **);\n" for name in table)
        + "void (*perfbench_table[])(double **) = {"
        + ", ".join(table) + "};\n"
        + f"int perfbench_count = {len(table)};\n")
    # The flags compile_kernel uses for the served shared objects.
    flags = ["-O2", "-std=c99", "-mavx"]
    digest = hashlib.sha256(json.dumps(
        [compiler, flags, sorted(files.items())]).encode()).hexdigest()[:24]
    workdir = os.path.join(build_root, digest)
    binary = os.path.join(workdir, "cdriver")
    if os.path.exists(binary):
        return binary
    staging = tempfile.mkdtemp(prefix="build-", dir=build_root)
    try:
        for name, text in files.items():
            with open(os.path.join(staging, name), "w",
                      encoding="utf-8") as handle:
                handle.write(text)
        command = [compiler, *flags, *sorted(files), "-o", "cdriver", "-lm"]
        done = subprocess.run(command, cwd=staging, capture_output=True,
                              text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"kernel driver failed to compile:\n"
                               f"{done.stderr[-2000:]}")
        os.replace(staging, workdir)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return binary


class KernelTimer:
    """Times and checks ``(case, c_code, function)`` kernels, deduplicated
    by their C text, in the benchmark's C driver.

    Each :meth:`sample` runs the driver in fresh processes; a run calls it
    before and after its measured window, so the samples meet more than
    one state of a shared host.  A kernel's time is the fastest of its
    per-process medians (:meth:`ns`), which reads the host's uncontended
    speed."""

    def __init__(self, kernels: List[Tuple[object, str, object]],
                 workdir: str, build_root: str, seed: int):
        distinct: Dict[str, Tuple[object, str, object]] = {}
        for case, c_code, function in kernels:
            distinct.setdefault(c_digest(c_code), (case, c_code, function))
        self.digests = sorted(distinct)
        self.c_codes = [distinct[d][1] for d in self.digests]
        os.makedirs(workdir, exist_ok=True)
        os.makedirs(build_root, exist_ok=True)
        self.binary = _build([distinct[d][1:] for d in self.digests],
                             build_root)

        blob = [struct.pack("=i", len(self.digests))]
        self.layouts = []
        for index, digest in enumerate(self.digests):
            case, _c_code, function = distinct[digest]
            inputs = case.make_inputs(seed + index)
            blob.append(struct.pack("=i", len(function.params)))
            for buf in function.params:
                flags = 0
                data = b""
                if buf.name in inputs:
                    flags |= FLAG_DATA
                    data = np.ascontiguousarray(
                        np.asarray(inputs[buf.name], dtype=np.float64)
                        .reshape(buf.rows, buf.cols)).tobytes()
                    if buf.writable:
                        flags |= FLAG_RESTORE
                blob.append(struct.pack("=ii", buf.rows * buf.cols, flags)
                            + data)
            self.layouts.append((case, inputs, function))
        self.in_path = os.path.join(workdir, "inputs.bin")
        self.out_path = os.path.join(workdir, "outputs.bin")
        with open(self.in_path, "wb") as handle:
            handle.write(b"".join(blob))
        self.samples: Dict[str, List[float]] = {d: [] for d in self.digests}
        self.processes = 0

    def sample(self, processes: int) -> None:
        """Run the driver ``processes`` times, each in a fresh process."""
        for _ in range(processes):
            done = subprocess.run([self.binary, self.in_path, self.out_path],
                                  capture_output=True, text=True,
                                  timeout=120)
            if done.returncode != 0:
                raise RuntimeError(f"kernel driver failed: "
                                   f"{done.stderr[-2000:]}")
            for line in done.stdout.splitlines():
                index, value = line.split()
                self.samples[self.digests[int(index)]].append(float(value))
            self.processes += 1

    def problems(self) -> List[str]:
        """The last driver run's outputs checked against each case's
        reference, and every kernel timed in every process."""
        problems: List[str] = []
        raw = np.fromfile(self.out_path, dtype=np.float64)
        offset = 0
        for case, inputs, function in self.layouts:
            outputs = {}
            for buf in function.params:
                count = buf.rows * buf.cols
                outputs[buf.name] = raw[offset:offset + count].reshape(
                    buf.rows, buf.cols)
                offset += count
            if not matches_reference(case, case.reference_outputs(inputs),
                                     outputs):
                problems.append(f"compiled {function.name} disagrees with "
                                f"the {case.name} reference")
        if any(len(values) != self.processes
               for values in self.samples.values()):
            problems.append("kernel driver timed fewer kernels than it ran")
        return problems

    def ns(self) -> Dict[str, float]:
        """Nanoseconds per call by C digest."""
        return {d: min(values) for d, values in self.samples.items()
                if values}


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
