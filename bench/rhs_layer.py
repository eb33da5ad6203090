#!/usr/bin/env python3
"""Time the coupling layer of the phase RHS, path by path.

Run from anywhere, with no options::

    python3 bench/rhs_layer.py

It imports ``oimsim`` from the ``src/`` of the checkout it sits in and times,
row by row, one call of each coupling kernel in ``oimsim.ising`` and one
call of the full ``make_rhs`` closure, which runs the kernel that the
instance picked (``path``: ``dense``, or the CSR ``weight`` or ``level``
kernel).  The kernels, each called on the complex vector cos + i sin theta
that the RHS builds once per call:

- ``dense``: ``_Dense(J).coupling()``, two BLAS matrix-vector products;
- ``weight``: the CSR weight kernel, one complex gather of cos + i sin theta
  over the nonzeros, one multiply by the weights and one complex segment sum
  per row;
- ``level``: the CSR level kernel, for arrays whose weights take L values
  with L * n <= nnz: the (L, n) table of level-times-column products, one
  gather from it and the same segment sum.  Both CSR kernels run on the same
  arrays, and their results are compared bit for bit (``bit_equal``).

The rows:

- for each n in ``SIZES`` and each edge probability in ``DENSITIES``, +-1
  couplings drawn as a dense (n, n) J, and ``IsingInstance(n, couplings=J)``;
- for each (n, density, weight set) in ``GRAPH_ROWS``, ``random_instance``
  of it and ``ising_from_maxcut`` of that graph, as the command line builds
  them: no n x n array is built, and the dense kernel is not timed;
- for each n in ``TORUS_SIZES``, the same for a +-1 graph with the edge
  count of a 2-D torus (2n edges, edge probability 4 / (n - 1)).

A checkout whose ``_CSR`` keeps no weight levels times the weight kernel
only.

Each time is in microseconds per call, over ``BLOCKS`` blocks of at least
``BLOCK_S`` each, on the clock and with the reference-kernel bracket that
``harness.py`` describes.  The table goes to standard output, and
``BENCH_rhs_<commit>.json`` at the root of the checkout records it.  The exit
status is 1 when the two CSR kernels differ in any bit on any row, 0
otherwise.
"""
from __future__ import annotations

import dataclasses
import sys

from harness import bracketed, same_bits, time_calls, write_result

import numpy as np

from oimsim.dynamics import DynamicsConfig, make_rhs
from oimsim.ising import _CSR, IsingInstance, _Dense, ising_from_maxcut, random_instance

SIZES = (10, 100, 200, 400, 500, 800, 2000)
DENSITIES = (0.06, 0.1, 0.125, 0.25, 1.0)
GRAPH_ROWS = tuple((n, 0.06, weights) for weights in ("pm1", "uniform") for n in (500, 800, 2000))
TORUS_SIZES = (5000, 20000)
BLOCKS = 7
BLOCK_S = 0.02
SEED = 0


def couplings(n: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric +-1 couplings, each pair i < j present with probability density."""
    upper = np.triu(rng.choice([-1.0, 1.0], (n, n)) * (rng.random((n, n)) < density), 1)
    return upper + upper.T


def instances(rng: np.random.Generator):
    """(n, density, weight set, instance, dense J or None) of every row, in table order."""
    for n in SIZES:
        for density in DENSITIES:
            J = couplings(n, density, rng)
            yield n, density, "pm1", IsingInstance(n=n, couplings=J), J
    rows = GRAPH_ROWS + tuple((n, 4.0 / (n - 1), "pm1") for n in TORUS_SIZES)
    for n, density, weights in rows:
        g = random_instance(n, density, weights, seed=SEED)
        yield n, density, weights, ising_from_maxcut(g), None


def csr_kernels(csr: _CSR) -> dict:
    """The weight kernel of the CSR arrays, and their level kernel when the
    operator keeps weight levels (None otherwise)."""
    if getattr(csr, "levels", None) is None:
        return {"weight": csr.coupling(), "level": None}
    return {"weight": dataclasses.replace(csr, levels=None, table_at=None).coupling(),
            "level": csr.coupling()}


def measure(n: int, density: float, weights: str, inst: IsingInstance, J, theta) -> dict:
    """The row of one instance: each kernel's time and the closure's, its
    path, and whether the two CSR kernels give the same bits."""
    z = np.cos(theta) + 1j * np.sin(theta)
    csr = inst._operator if inst.sparse else _CSR.from_dense(J)
    cell = {"n": n, "density": density, "weights": weights,
            "nnz": int(np.count_nonzero(csr.vals))}
    kernels = {"dense": _Dense(J).coupling() if J is not None else None, **csr_kernels(csr)}
    for name, couple in kernels.items():
        if couple:
            cell.update(time_calls(lambda: couple(z), BLOCK_S, BLOCKS).fields(f"{name}_us", 1e6))
        else:
            cell[f"{name}_us"] = cell[f"{name}_us_min"] = None
    f = make_rhs(inst, DynamicsConfig())
    cell.update(time_calls(lambda: f(theta, 0.0), BLOCK_S, BLOCKS).fields("rhs_us", 1e6))
    cell["path"] = ("dense" if not inst.sparse
                    else "weight" if getattr(inst._operator, "levels", None) is None
                    else "level")
    cell["bit_equal"] = (None if kernels["level"] is None else
                         all(map(same_bits, kernels["weight"](z), kernels["level"](z))))
    return cell


def main() -> int:
    rng = np.random.default_rng(SEED)
    cells = []
    columns = ("dense_us", "weight_us", "level_us", "rhs_us", "kernel_ms")
    print(f"{'n':>5} {'density':>8} {'weights':>8} {'nnz':>8} "
          + " ".join(f"{k:>10}" for k in columns) + f"  {'path':<6}  bit_equal")
    for n, density, weights, inst, J in instances(rng):
        theta = rng.uniform(0.0, 2.0 * np.pi, n)
        cell = bracketed(lambda: measure(n, density, weights, inst, J, theta))
        cells.append(cell)
        print(f"{n:>5} {density:>8.3g} {weights:>8} {cell['nnz']:>8} "
              + " ".join(f"{cell[k]:>10.1f}" if cell[k] is not None else f"{'-':>10}"
                         for k in columns)
              + f"  {cell['path']:<6}  {'-' if cell['bit_equal'] is None else cell['bit_equal']}")
    write_result("BENCH_rhs", {"blocks": BLOCKS, "seed": SEED, "cells": cells})
    unequal = [(c["n"], c["density"], c["weights"]) for c in cells if c["bit_equal"] is False]
    if unequal:
        print(f"the CSR kernels differ in some bit on rows {unequal}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
