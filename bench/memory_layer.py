#!/usr/bin/env python3
"""Peak memory and CPU time of one ``solve`` attempt on large sparse graphs.

Run from anywhere, with no options::

    python3 bench/memory_layer.py

For each side in ``SIDES`` it builds a 2-D torus of side x side vertices,
each joined to its right and lower neighbours with a seeded +-1 weight
(2 side^2 edges), and writes it in the rudy edge-list format to a temporary
directory.  A fresh interpreter then imports ``oimsim`` from the ``src/`` of
the checkout this script sits in and runs the command line's ``solve`` on
that file with one attempt, seed 0 and ``--threads 1``.  The child reports
its own peak resident set (``ru_maxrss``) right after the import and after
the solve, and the CPU time of the solve.

The child runs under an address-space limit of ``LIMIT_GIB`` GiB, so that a
program that builds an n x n matrix (3.2 GB at n = 19881) fails fast with
a MemoryError instead of taking the host's memory; such a row records the
exit status and the last line of the error.

Each row carries the reference-kernel bracket that ``harness.py``
describes.  The table goes to standard output, and
``BENCH_mem_<commit>.json`` at the root of the checkout records it.
"""
from __future__ import annotations

import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

from harness import bracketed, write_result

import numpy as np

SIDES = (50, 71, 141)
SEED = 0
LIMIT_GIB = 2

CHILD = """
import io, json, resource, sys, time
from contextlib import redirect_stdout
import oimsim.cli
import_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.process_time()
with redirect_stdout(io.StringIO()):
    rc = oimsim.cli.main(["solve", sys.argv[1], "--attempts", "1", "--seed", "0",
                          "--threads", "1", "--quiet"])
cpu_s = time.process_time() - start
print(json.dumps({"rc": rc, "cpu_s": cpu_s, "import_rss_kib": import_rss,
                  "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def torus_text(side: int, seed: int) -> tuple[str, int]:
    """The rudy text of a side x side +-1 torus, and its edge count."""
    v = np.arange(side * side).reshape(side, side)
    pairs = np.concatenate([
        np.stack([v.ravel(), np.roll(v, -1, axis=1).ravel()], axis=1),
        np.stack([v.ravel(), np.roll(v, -1, axis=0).ravel()], axis=1),
    ])
    pairs.sort(axis=1)
    w = np.random.default_rng(seed).choice([-1, 1], len(pairs))
    lines = [f"{side * side} {len(pairs)}"]
    lines += [f"{i + 1} {j + 1} {x}" for (i, j), x in zip(pairs.tolist(), w.tolist())]
    return "\n".join(lines) + "\n", len(pairs)


def limit_address_space() -> None:
    limit = LIMIT_GIB << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def solve_in_child(path: Path) -> dict:
    """One solve attempt in a fresh interpreter: its report, or its failure."""
    out = subprocess.run([sys.executable, "-c", CHILD, str(path)],
                         capture_output=True, text=True, preexec_fn=limit_address_space)
    if out.returncode != 0:
        last = (out.stderr.strip().splitlines() or ["no output"])[-1]
        return {"exit": out.returncode, "error": last}
    report = json.loads(out.stdout.strip().splitlines()[-1])
    return {"exit": report["rc"], "cpu_s": report["cpu_s"],
            "import_rss_mb": report["import_rss_kib"] / 1024.0,
            "peak_rss_mb": report["peak_rss_kib"] / 1024.0}


def main() -> int:
    rows = []
    print(f"{'side':>5} {'n':>6} {'edges':>6} {'peak_rss_mb':>12} {'import_rss_mb':>14} "
          f"{'cpu_s':>7} {'kernel_ms':>10}  exit")
    with tempfile.TemporaryDirectory() as tmp:
        for side in SIDES:
            text, edges = torus_text(side, SEED)
            path = Path(tmp) / f"torus{side}.graph"
            path.write_text(text)
            row = bracketed(lambda: {"side": side, "n": side * side, "edges": edges,
                                     **solve_in_child(path)})
            rows.append(row)
            print(f"{side:>5} {row['n']:>6} {edges:>6} "
                  + " ".join(f"{row[k]:>{w}.{p}f}" if k in row else f"{'-':>{w}}"
                             for k, w, p in (("peak_rss_mb", 12, 1), ("import_rss_mb", 14, 1),
                                             ("cpu_s", 7, 2), ("kernel_ms", 10, 1)))
                  + f"  {row['exit']}" + (f" {row['error']}" if "error" in row else ""))
    write_result("BENCH_mem", {"seed": SEED, "limit_gib": LIMIT_GIB, "rows": rows})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
