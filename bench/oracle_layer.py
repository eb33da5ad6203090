#!/usr/bin/env python3
"""Time the exact oracle, ``brute_force_ground_state``, at the sizes it caps at.

Run from anywhere, with no options::

    python3 bench/oracle_layer.py

It imports ``oimsim`` from the ``src/`` of the checkout it sits in and, for
each n in ``SIZES``, times ``brute_force_ground_state`` on the Ising form of
``random_instance(n, 0.5, "pm1", seed=SEED)``, without a field (2^(n-1)
assignments, the first spin pinned) and with a seeded +-1 field (2^n
assignments).

Each time is in milliseconds per call, over ``BLOCKS`` blocks of at least
``BLOCK_S`` each, on the clock and with the reference-kernel bracket that
``harness.py`` describes: a call takes 1-10 ms, so a block averages over
many calls.  ``calls`` records how many calls each time rests on;
assignments per second divide the enumerated count by the median.  After
the timed calls, the oracle runs once more under ``tracemalloc``:
``peak_mib`` is the peak traced memory of that call, the instance built
before tracing starts.  The table goes to standard output,
and ``BENCH_oracle_<commit>.json`` at the root of the checkout records it.
"""
from __future__ import annotations

from harness import bracketed, time_calls, traced_mib, write_result

import numpy as np

from oimsim.ising import (
    IsingInstance,
    brute_force_ground_state,
    ising_from_maxcut,
    random_instance,
)

SIZES = (20, 22, 24)
BLOCKS = 9
BLOCK_S = 0.05
SEED = 0


def measure(n: int, with_field: bool, inst: IsingInstance) -> dict:
    """The row of one instance: the oracle's time and traced memory, and the
    ground state it finds."""
    assignments = 2 ** (n if with_field else n - 1)
    timing = time_calls(lambda: brute_force_ground_state(inst), BLOCK_S, BLOCKS)
    _, energy, degeneracy = timing.result
    return {"n": n, "field": with_field, "assignments": assignments, "calls": timing.calls,
            **timing.fields("cpu_ms", 1e3),
            "assignments_per_s": assignments / timing.median_s,
            "peak_mib": traced_mib(lambda: brute_force_ground_state(inst))[0],
            "energy": energy, "degeneracy": degeneracy}


def main() -> int:
    cells = []
    print(f"{'n':>3} {'field':>6} {'assignments':>12} {'cpu_ms':>9} {'per_s':>10} "
          f"{'peak_MiB':>9} {'kernel_ms':>10}")
    for n in SIZES:
        couplings = ising_from_maxcut(random_instance(n, 0.5, "pm1", seed=SEED)).couplings
        for with_field in (False, True):
            field = np.random.default_rng(SEED).choice([-1.0, 1.0], n) if with_field else None
            inst = IsingInstance(n=n, couplings=couplings, field=field)
            cell = bracketed(lambda: measure(n, with_field, inst))
            cells.append(cell)
            print(f"{n:>3} {str(with_field):>6} {cell['assignments']:>12} {cell['cpu_ms']:>9.1f} "
                  f"{cell['assignments_per_s']:>10.3g} {cell['peak_mib']:>9.2f} "
                  f"{cell['kernel_ms']:>10.1f}")
    write_result("BENCH_oracle", {"blocks": BLOCKS, "block_s": BLOCK_S, "seed": SEED,
                                  "cells": cells})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
