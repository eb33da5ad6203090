"""What the layer harnesses in this directory share: the environment they run
in, one timing loop, one reference-kernel bracket, one traced-memory probe,
one bit comparison and one result writer.

Importing this module pins BLAS to one thread, as the command line's
``--threads 1`` and the benchmark in ``perfbench/`` run it, and puts the
``src/`` of this checkout first on ``sys.path`` and on ``PYTHONPATH``: the
harness and every child process it starts run this checkout's ``oimsim`` on
one BLAS thread.  A harness imports this module before numpy.

Every time is process CPU time (``time.process_time``), which a shared
host's other tenants inflate less than wall time.  ``time_calls`` makes one
warm-up call, then times up to ``blocks`` blocks; a block repeats the call
until it has run ``block_s``, and the blocks stop once they have used
``budget_s``, so a call slower than that is timed once.  A harness records
the median time per call over the blocks under a row's name, and the
fastest block's time per call beside it, with ``_min`` appended to the name:
the minimum is the time the host's other load inflated least.

On a shared host the same call runs a third slower or more for minutes at a
time.  ``bracketed`` times ``reference_kernel`` right before and right after
the measurement of every row, and records the mean beside the row as
``kernel_ms``: a row measured while the host was slow carries a slow kernel
time, so ``row_time / kernel_ms`` compares across runs and commits where the
raw times cannot.  The kernel is written here, not taken from the package,
so that a change to the program never moves it.

``write_result`` writes a harness's document, after the host record (the
commit from ``git describe --always --dirty``, the CPU count, the numpy and
Python versions, the BLAS thread count and the clock), to
``<name>_<commit>.json`` at the root of the checkout.
"""
from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# before numpy loads, which reads them once
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

clock = time.process_time

_WIDE = np.linspace(-1.0, 1.0, 1 << 16)
_NARROW = np.linspace(0.0, 1.0, 16)


class Timing(NamedTuple):
    median_s: float     # per call, over the blocks
    min_s: float        # per call, in the fastest block
    calls: int          # timed, the warm-up call not counted
    result: object      # of the warm-up call

    def fields(self, key: str, scale: float) -> dict:
        """The median times ``scale`` under ``key``, and the minimum times
        ``scale`` under ``key + "_min"``."""
        return {key: scale * self.median_s, f"{key}_min": scale * self.min_s}


def time_calls(call: Callable, block_s: float, blocks: int,
               budget_s: float = math.inf) -> Timing:
    """One warm-up call, then up to ``blocks`` blocks of at least ``block_s``
    each, which stop once they have used ``budget_s``.  A block runs the call
    in runs of 1, 2, 4, ... calls, and reads the clock after each run."""
    result = call()
    per_call, calls, spent = [], 0, 0.0
    while len(per_call) < blocks and spent < budget_s:
        start, done, run = clock(), 0, 1
        while True:
            for _ in range(run):
                call()
            done += run
            elapsed = clock() - start
            if elapsed >= block_s:
                break
            run *= 2
        per_call.append(elapsed / done)
        calls += done
        spent += elapsed
    return Timing(statistics.median(per_call), min(per_call), calls, result)


def reference_kernel() -> float:
    """2^16-element subtractions and minima with 16-element operations
    between them, in an interpreted loop: the shape of a chunk of the exact
    oracle's enumeration and of a small-n RHS call."""
    wide, narrow = np.empty_like(_WIDE), np.empty_like(_NARROW)
    acc = 0.0
    for k in range(200):
        np.subtract(_WIDE, _NARROW[k % 16], out=wide)
        acc += wide.min()
        for b in range(16):
            np.multiply(_NARROW, b, out=narrow)
            acc += float(np.sin(narrow).sum())
    return acc


def _kernel_ms() -> float:
    return 1e3 * time_calls(reference_kernel, 0.0, 1).median_s


def bracketed(measure: Callable[[], dict]) -> dict:
    """The row that ``measure`` returns, with ``kernel_ms``: the mean time of
    the reference kernel right before and right after it."""
    before = _kernel_ms()
    row = measure()
    return {**row, "kernel_ms": (before + _kernel_ms()) / 2}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two arrays have one dtype, one shape and the same bytes."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def traced_mib(call) -> tuple[float, float]:
    """The tracemalloc peak of one call, and what its result retains, in MiB."""
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak / 2**20, retained / 2**20


def commit() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def host_record() -> dict:
    """The commit, CPU count, numpy and Python versions a result was taken on,
    the BLAS thread count and the clock of its times."""
    return {
        "commit": commit(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "blas_threads": 1,
        "clock": "process_time",
    }


def write_result(name: str, doc: dict) -> None:
    """Write the host record and ``doc`` to ``<name>_<commit>.json`` at the
    root of the checkout, and say so on standard output."""
    doc = {**host_record(), **doc}
    path = ROOT / f"{name}_{doc['commit']}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path.name}")
