#!/usr/bin/env python3
"""Time the coupling layer of the phase RHS, path by path.

Run from anywhere, with no options::

    python3 bench/rhs_layer.py

It imports ``oimsim`` from the ``src/`` of the checkout it sits in and, for
each n in ``SIZES`` and each edge probability in ``DENSITIES``, times one
call of the kernel of each coupling operator in ``oimsim.ising``
(``_Dense(J).coupling()``: two BLAS matrix-vector products; ``coupling()`` of
the ``_CSR`` arrays of J: one complex gather over the nonzeros and one complex
segment sum per row), and one call of the full ``make_rhs`` closure of
``IsingInstance(n, couplings=J)``, which runs the coupling operator that the
instance's size-and-fill rule picked (``path``).  Those couplings are drawn
as a dense (n, n) array.  For each n in ``TORUS_SIZES`` it draws instead a
+-1 graph with the edge count of a 2-D torus (2n edges, edge probability
4 / (n - 1)) with ``random_instance`` and times the CSR kernel and the
closure of ``ising_from_maxcut`` of it: no n x n array is built, and the
dense kernel is not timed.  BLAS runs on one thread, as the command line's
``--threads 1`` and the benchmark in ``perfbench/`` run it.

Each time is the median over ``BLOCKS`` blocks of repeated calls, in
microseconds per call.  The reference kernel of ``harness.py`` is timed on
the same clock right before and right after every row, and the mean of the
two is recorded beside it as ``kernel_ms``.  The table goes to standard
output, and ``BENCH_rhs_<commit>.json`` at the root of the checkout records
it with the commit (``git describe --always --dirty``), the CPU count, and
the numpy and Python versions.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import statistics
import sys
import time

from harness import ROOT, host_record, reference_kernel, timed_ms  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from oimsim.dynamics import DynamicsConfig, make_rhs  # noqa: E402
from oimsim.ising import _CSR, IsingInstance, _Dense, ising_from_maxcut, random_instance  # noqa: E402

SIZES = (10, 100, 200, 400, 500, 800, 2000)
DENSITIES = (0.06, 0.1, 0.125, 0.25, 1.0)
TORUS_SIZES = (5000, 20000)
BLOCKS = 7
BLOCK_S = 0.02
SEED = 0


def couplings(n: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric +-1 couplings, each pair i < j present with probability density."""
    upper = np.triu(rng.choice([-1.0, 1.0], (n, n)) * (rng.random((n, n)) < density), 1)
    return upper + upper.T


def instances(rng: np.random.Generator):
    """(n, density, instance, dense J or None) of every row, in table order."""
    for n in SIZES:
        for density in DENSITIES:
            J = couplings(n, density, rng)
            yield n, density, IsingInstance(n=n, couplings=J), J
    for n in TORUS_SIZES:
        density = 4.0 / (n - 1)
        yield n, density, ising_from_maxcut(random_instance(n, density, "pm1", seed=SEED)), None


def per_call_us(call) -> float:
    """Median microseconds per call over BLOCKS blocks of about BLOCK_S each."""
    call()
    start = time.perf_counter()
    call()
    reps = max(1, int(BLOCK_S / max(time.perf_counter() - start, 1e-9)))
    blocks = []
    for _ in range(BLOCKS):
        start = time.perf_counter()
        for _ in range(reps):
            call()
        blocks.append((time.perf_counter() - start) / reps)
    return 1e6 * statistics.median(blocks)


def main() -> int:
    rng = np.random.default_rng(SEED)
    cells = []
    reference_kernel()
    print(f"{'n':>5} {'density':>8} {'nnz':>8} {'dense_us':>10} {'sparse_us':>10} "
          f"{'rhs_us':>10} {'kernel_ms':>10}  path")
    for n, density, inst, J in instances(rng):
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        csr = inst._operator if inst.sparse else _CSR.from_dense(J)
        cell = {"n": n, "density": density, "nnz": int(np.count_nonzero(csr.vals))}
        kernel_before = timed_ms(reference_kernel, time.perf_counter)
        kernels = {"dense": _Dense(J).coupling() if J is not None else None,
                   "sparse": csr.coupling()}
        for name, couple in kernels.items():
            cell[f"{name}_us"] = per_call_us(lambda: couple(cos_t, sin_t)) if couple else None
        f = make_rhs(inst, DynamicsConfig())
        cell["rhs_us"] = per_call_us(lambda: f(theta, 0.0))
        cell["path"] = "sparse" if inst.sparse else "dense"
        kernel_after = timed_ms(reference_kernel, time.perf_counter)
        cell["kernel_ms"] = (kernel_before + kernel_after) / 2
        cells.append(cell)
        print(f"{n:>5} {density:>8.3g} {cell['nnz']:>8} "
              + " ".join(f"{cell[k]:>10.1f}" if cell[k] is not None else f"{'-':>10}"
                         for k in ("dense_us", "sparse_us", "rhs_us", "kernel_ms"))
              + f"  {cell['path']}")
    doc = {**host_record(), "blocks": BLOCKS, "seed": SEED, "cells": cells}
    path = ROOT / f"BENCH_rhs_{doc['commit']}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
