#!/usr/bin/env python3
"""Time the exact oracle, ``brute_force_ground_state``, at the sizes it caps at.

Run from anywhere, with no options::

    python3 bench/oracle_layer.py

It imports ``oimsim`` from the ``src/`` of the checkout it sits in and, for
each n in ``SIZES``, times ``brute_force_ground_state`` on the Ising form of
``random_instance(n, 0.5, "pm1", seed=SEED)``, without a field (2^(n-1)
assignments, the first spin pinned) and with a seeded +-1 field (2^n
assignments).  BLAS runs on one thread, as the command line's
``--threads 1`` and the benchmark in ``perfbench/`` run it.

Each time is the median CPU time (``time.process_time``) of ``REPEATS``
calls, after one warm-up call; assignments per second divide the
enumerated count by it.  The reference kernel of ``harness.py`` is timed
on the same clock right before and right after every row, and the mean of the two is
recorded beside it as ``kernel_ms``.  The table goes to standard output, and
``BENCH_oracle_<commit>.json`` at the root of the checkout records it with
the commit (``git describe --always --dirty``), the CPU count, and the numpy
and Python versions.
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

from oimsim.ising import (  # noqa: E402
    IsingInstance,
    brute_force_ground_state,
    ising_from_maxcut,
    random_instance,
)

SIZES = (20, 22, 24)
REPEATS = 9
SEED = 0


def main() -> int:
    reference_kernel()
    cells = []
    print(f"{'n':>3} {'field':>6} {'assignments':>12} {'cpu_ms':>9} {'per_s':>10} "
          f"{'kernel_ms':>10}")
    for n in SIZES:
        couplings = ising_from_maxcut(random_instance(n, 0.5, "pm1", seed=SEED)).couplings
        for with_field in (False, True):
            field = np.random.default_rng(SEED).choice([-1.0, 1.0], n) if with_field else None
            inst = IsingInstance(n=n, couplings=couplings, field=field)
            assignments = 2 ** (n if with_field else n - 1)
            kernel_before = timed_ms(reference_kernel, time.process_time)
            _, energy, degeneracy = brute_force_ground_state(inst)
            median_ms = statistics.median(
                timed_ms(lambda: brute_force_ground_state(inst), time.process_time)
                for _ in range(REPEATS))
            kernel_after = timed_ms(reference_kernel, time.process_time)
            kernel_ms = (kernel_before + kernel_after) / 2
            cell = {
                "n": n,
                "field": with_field,
                "assignments": assignments,
                "cpu_ms": median_ms,
                "assignments_per_s": assignments / (median_ms / 1e3),
                "kernel_ms": kernel_ms,
                "energy": energy,
                "degeneracy": degeneracy,
            }
            cells.append(cell)
            print(f"{n:>3} {str(with_field):>6} {assignments:>12} {median_ms:>9.1f} "
                  f"{cell['assignments_per_s']:>10.3g} {kernel_ms:>10.1f}")
    doc = {**host_record(), "repeats": REPEATS, "seed": SEED, "cells": cells}
    path = ROOT / f"BENCH_oracle_{doc['commit']}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
