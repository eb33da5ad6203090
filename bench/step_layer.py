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

Each time is over ``BLOCKS`` blocks, on the clock and with the
reference-kernel bracket that ``harness.py`` describes: a block of the
schemes is one run, and a block of the RHS repeats the call for at least
``RHS_BLOCK_S``.  The table goes to standard output, and
``BENCH_step_<commit>.json`` at the root of the checkout records it.
"""
from __future__ import annotations

from harness import bracketed, time_calls, write_result

from oimsim.dynamics import DynamicsConfig, make_rhs
from oimsim.integrate import IntegratorConfig, initial_phases, integrate
from oimsim.ising import ising_from_maxcut, random_instance

ROWS = ((10, 0.5), (100, 0.5), (800, 0.06))
STEPS = 2000
BLOCKS = 7
RHS_BLOCK_S = 0.02
SEED = 0
SCHEMES = {"em": 0.01, "rk4": 0.0}  # noise amplitude of each scheme


def measure(n: int, density: float, icfg: IntegratorConfig) -> dict:
    """The row of one graph: us per step of each scheme, and us per RHS call."""
    inst = ising_from_maxcut(random_instance(n, density, "pm1", seed=SEED))
    init = initial_phases(n, SEED)
    cell = {"n": n, "density": density, "path": "sparse" if inst.sparse else "dense",
            "steps": STEPS}
    for scheme, noise in SCHEMES.items():
        dyn = DynamicsConfig(noise_amplitude=noise)
        timing = time_calls(lambda: integrate(inst, dyn, icfg, init), 0.0, BLOCKS)
        cell.update(timing.fields(f"{scheme}_us", 1e6 / STEPS))
    f = make_rhs(inst, DynamicsConfig())
    timing = time_calls(lambda: f(init.phases, 0.0), RHS_BLOCK_S, BLOCKS)
    cell.update(timing.fields("rhs_us", 1e6))
    return cell


def main() -> int:
    icfg = IntegratorConfig(dt=0.01, t_end=STEPS * 0.01, record_every=10, seed=SEED)
    cells = []
    columns = ("em_us", "rk4_us", "rhs_us", "kernel_ms")
    print(f"{'n':>5} {'density':>8} {'path':>6} " + " ".join(f"{k:>10}" for k in columns))
    for n, density in ROWS:
        cell = bracketed(lambda: measure(n, density, icfg))
        cells.append(cell)
        print(f"{n:>5} {density:>8.3g} {cell['path']:>6} "
              + " ".join(f"{cell[k]:>10.1f}" for k in columns))
    write_result("BENCH_step", {"blocks": BLOCKS, "seed": SEED, "cells": cells})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
