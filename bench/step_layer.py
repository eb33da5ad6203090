#!/usr/bin/env python3
"""Time the stepper layer: ``integrate`` in microseconds per step.

Run from anywhere, with no options::

    python3 bench/step_layer.py

It imports ``oimsim`` from the ``src/`` of the checkout it sits in and times,
row by row, whole ``integrate`` runs of ``STEPS`` steps (dt = 0.01, t_end =
``STEPS`` * dt, a sample every 10 steps) in two schemes:

- ``em``: Euler-Maruyama at the command line's ``solve`` defaults
  (distributed, subharmonic injection, kappa_s = 0.75, noise amplitude
  0.01), one RHS call per step;
- ``rk4``: the same dynamics without noise, which takes classic RK4, four
  RHS calls per step.

The rows are ``random_instance`` +-1 graphs, as the command line builds
them: n = 10 and 100 at density 0.5, which take the dense path, and n = 800
at density 0.06, the graph shape of the ``solve_g800`` benchmark, which
takes the CSR path.  ``rhs_us`` is one call of the ``make_rhs`` closure on
the same instance, so ``em_us - rhs_us`` and ``rk4_us - 4 * rhs_us`` are the
stepper's own time per step.

BLAS runs on one thread, as the command line's ``--threads 1`` and the
benchmark in ``perfbench/`` run it.  Times are process CPU time, which a
shared host's other tenants inflate less than wall time, and each is the
median over ``BLOCKS`` runs (RHS: blocks of repeated calls).  The reference
kernel of ``harness.py`` is timed on the same clock right before and right
after every row, and the mean of the two is recorded beside it as
``kernel_ms``.  The
table goes to standard output, and ``BENCH_step_<commit>.json`` at the root
of the checkout records it with the commit (``git describe --always
--dirty``), the CPU count, and the numpy and Python versions.
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

from oimsim.dynamics import DynamicsConfig, make_rhs  # noqa: E402
from oimsim.integrate import IntegratorConfig, initial_phases, integrate  # noqa: E402
from oimsim.ising import ising_from_maxcut, random_instance  # noqa: E402

ROWS = ((10, 0.5), (100, 0.5), (800, 0.06))
STEPS = 2000
BLOCKS = 7
SEED = 0
SCHEMES = {"em": 0.01, "rk4": 0.0}  # noise amplitude of each scheme


def median_s(call, repeats: int) -> float:
    """Median seconds of one call over BLOCKS blocks of ``repeats`` calls, after one warm-up."""
    call()
    blocks = []
    for _ in range(BLOCKS):
        start = time.process_time()
        for _ in range(repeats):
            call()
        blocks.append((time.process_time() - start) / repeats)
    return statistics.median(blocks)


def main() -> int:
    icfg = IntegratorConfig(dt=0.01, t_end=STEPS * 0.01, record_every=10, seed=SEED)
    cells = []
    reference_kernel()
    columns = ("em_us", "rk4_us", "rhs_us", "kernel_ms")
    print(f"{'n':>5} {'density':>8} {'path':>6} " + " ".join(f"{k:>10}" for k in columns))
    for n, density in ROWS:
        inst = ising_from_maxcut(random_instance(n, density, "pm1", seed=SEED))
        init = initial_phases(n, SEED)
        cell = {"n": n, "density": density, "path": "sparse" if inst.sparse else "dense",
                "steps": STEPS}
        kernel_before = timed_ms(reference_kernel, time.process_time)
        for scheme, noise in SCHEMES.items():
            dyn = DynamicsConfig(noise_amplitude=noise)
            cell[f"{scheme}_us"] = 1e6 * median_s(lambda: integrate(inst, dyn, icfg, init), 1) / STEPS
        f = make_rhs(inst, DynamicsConfig())
        cell["rhs_us"] = 1e6 * median_s(lambda: f(init.phases, 0.0), 200)
        kernel_after = timed_ms(reference_kernel, time.process_time)
        cell["kernel_ms"] = (kernel_before + kernel_after) / 2
        cells.append(cell)
        print(f"{n:>5} {density:>8.3g} {cell['path']:>6} "
              + " ".join(f"{cell[k]:>10.1f}" for k in columns))
    doc = {**host_record(), "blocks": BLOCKS, "seed": SEED, "cells": cells}
    path = ROOT / f"BENCH_step_{doc['commit']}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
