#!/usr/bin/env python3
"""Time the exact oracle, ``brute_force_ground_state``, at the sizes it caps at.

Run from anywhere, with no options::

    python3 bench/oracle_layer.py

It imports ``oimsim`` from the ``src/`` of the checkout it sits in and, for
each weight set in ``WEIGHTS`` and each n in ``SIZES``, times
``brute_force_ground_state`` on the Ising form of
``random_instance(n, 0.5, weights, seed=SEED)``, without a field (2^(n-1)
assignments, the first spin pinned) and with a seeded +-1 field (2^n
assignments).  The ``pm1`` rows have integer energies; the ``uniform`` rows
show what real weights cost the oracle, whose float32 walk admits more
candidate chunks for them.

Each time is in milliseconds per call, over ``BLOCKS`` blocks of at least
``BLOCK_S`` each, on the clock and with the reference-kernel bracket that
``harness.py`` describes: a call takes 1-10 ms, so a block averages over
many calls.  ``calls`` records how many calls each time rests on;
assignments per second divide the enumerated count by the median.  After
the timed calls, the oracle runs once more under ``tracemalloc``:
``peak_mib`` is the peak traced memory of that call, the instance built
before tracing starts.

Beside the bare oracle, ``cli_ms`` times the whole command on the same
graph: a warm in-process ``oimsim.cli.main(["oracle", path, "--quiet"])``,
with the graph written to a temporary file and the JSON answer sent to
``os.devnull``.  The command line poses no field, so only the rows without
one carry it; it is null in the others.  ``parser_ms`` is the time of one
``cli.build_parser()`` call, the set-up that ``main`` pays once per
process.  The table goes to standard output, and
``BENCH_oracle_<commit>.json`` at the root of the checkout records it.

Each row's ``energy`` and ``degeneracy`` are checked against ``ANSWERS``,
pinned from earlier runs: on any difference the script names the rows,
writes no record and exits 1.
"""
from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

from harness import bracketed, time_calls, traced_mib, write_result

import numpy as np

from oimsim import cli
from oimsim.ising import (
    IsingInstance,
    brute_force_ground_state,
    ising_from_maxcut,
    random_instance,
    serialize_graph,
)

WEIGHTS = ("pm1", "uniform")
SIZES = (20, 22, 24)
BLOCKS = 9
BLOCK_S = 0.05
SEED = 0
# (weights, n, field) -> (energy, degeneracy)
ANSWERS = {
    ("pm1", 20, False): (-44.0, 7), ("pm1", 20, True): (-50.0, 2),
    ("pm1", 22, False): (-42.0, 8), ("pm1", 22, True): (-46.0, 12),
    ("pm1", 24, False): (-48.0, 2), ("pm1", 24, True): (-50.0, 22),
    ("uniform", 20, False): (-25.058077954232857, 1),
    ("uniform", 20, True): (-31.804792888530542, 1),
    ("uniform", 22, False): (-26.62237410112047, 1),
    ("uniform", 22, True): (-33.71758370797501, 1),
    ("uniform", 24, False): (-33.38750284233404, 1),
    ("uniform", 24, True): (-41.26129998203585, 1),
}


def command(path: Path | None) -> dict:
    """The time of the ``oracle`` command on the graph file ``path``, or
    nulls without one."""
    if path is None:
        return {"cli_calls": None, "cli_ms": None, "cli_ms_min": None}
    argv = ["oracle", str(path), "--quiet"]
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        timing = time_calls(lambda: cli.main(argv), BLOCK_S, BLOCKS)
    if timing.result != 0:
        raise SystemExit(f"oimsim {' '.join(argv)} exited {timing.result}")
    return {"cli_calls": timing.calls, **timing.fields("cli_ms", 1e3)}


def build() -> dict:
    """The time of one ``cli.build_parser()`` call."""
    timing = time_calls(cli.build_parser, BLOCK_S, BLOCKS)
    return {"calls": timing.calls, **timing.fields("parser_ms", 1e3)}


def measure(weights: str, n: int, with_field: bool, inst: IsingInstance,
            path: Path | None) -> dict:
    """The row of one instance: the oracle's time and traced memory, the
    ground state it finds, and the command's time on the graph file ``path``."""
    assignments = 2 ** (n if with_field else n - 1)
    timing = time_calls(lambda: brute_force_ground_state(inst), BLOCK_S, BLOCKS)
    _, energy, degeneracy = timing.result
    return {"weights": weights, "n": n, "field": with_field, "assignments": assignments,
            "calls": timing.calls,
            **timing.fields("cpu_ms", 1e3),
            "assignments_per_s": assignments / timing.median_s,
            "peak_mib": traced_mib(lambda: brute_force_ground_state(inst))[0],
            "energy": energy, "degeneracy": degeneracy, **command(path)}


def main() -> int:
    parser = bracketed(build)
    print(f"build_parser: {parser['parser_ms']:.3f} ms")
    cells = []
    print(f"{'weights':>8} {'n':>3} {'field':>6} {'assignments':>12} {'cpu_ms':>9} {'cli_ms':>9} "
          f"{'per_s':>10} {'peak_MiB':>9} {'kernel_ms':>10}")
    with tempfile.TemporaryDirectory() as tmp:
        for weights in WEIGHTS:
            for n in SIZES:
                g = random_instance(n, 0.5, weights, seed=SEED)
                path = Path(tmp) / f"{weights}{n}.graph"
                path.write_text(serialize_graph(g))
                couplings = ising_from_maxcut(g).couplings
                for with_field in (False, True):
                    field = (np.random.default_rng(SEED).choice([-1.0, 1.0], n) if with_field
                             else None)
                    inst = IsingInstance(n=n, couplings=couplings, field=field)
                    cell = bracketed(lambda: measure(weights, n, with_field, inst,
                                                     None if with_field else path))
                    cells.append(cell)
                    cli_ms = "-" if cell["cli_ms"] is None else f"{cell['cli_ms']:.2f}"
                    print(f"{weights:>8} {n:>3} {str(with_field):>6} {cell['assignments']:>12} "
                          f"{cell['cpu_ms']:>9.2f} {cli_ms:>9} "
                          f"{cell['assignments_per_s']:>10.3g} {cell['peak_mib']:>9.2f} "
                          f"{cell['kernel_ms']:>10.1f}")
    wrong = [cell for cell in cells
             if (cell["energy"], cell["degeneracy"])
             != ANSWERS[cell["weights"], cell["n"], cell["field"]]]
    for cell in wrong:
        key = cell["weights"], cell["n"], cell["field"]
        print(f"wrong answer for {key}: energy {cell['energy']!r}, degeneracy "
              f"{cell['degeneracy']}; pinned {ANSWERS[key]}")
    if wrong:
        return 1
    write_result("BENCH_oracle", {"blocks": BLOCKS, "block_s": BLOCK_S, "seed": SEED,
                                  "parser": parser, "cells": cells})
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
