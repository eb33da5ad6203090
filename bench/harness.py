"""What the layer harnesses in this directory share: the commit tag, the
record of the host, and a fixed reference kernel.

On a shared host the same call runs a third slower or more for minutes at a
time.  Each harness times ``reference_kernel`` right before and right after
every row it measures, on the clock the row uses, and records the mean
beside the row as ``kernel_ms``: a row measured while the host was slow
carries a slow kernel time, so ``row_time / kernel_ms`` compares across runs
and commits where the raw times cannot.  The kernel is written here, not
taken from the package, so that a change to the program never moves it.
"""
from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

_WIDE = np.linspace(-1.0, 1.0, 1 << 16)
_NARROW = np.linspace(0.0, 1.0, 16)


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


def timed_ms(call: Callable, clock: Callable[[], float]) -> float:
    """Milliseconds of one call on ``clock``."""
    start = clock()
    call()
    return 1e3 * (clock() - start)


def commit() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def host_record() -> dict:
    """The commit, CPU count, numpy and Python versions a result was taken on."""
    return {
        "commit": commit(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "blas_threads": 1,
    }
