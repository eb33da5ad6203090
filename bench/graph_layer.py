#!/usr/bin/env python3
"""Time the graph layer: ``random_instance``, ``serialize_graph`` and ``parse_graph``.

Run from anywhere, with no options::

    python3 bench/graph_layer.py

It imports ``oimsim`` from the ``src/`` of the checkout it sits in and, for
each (n, density) in ``ROWS``, times ``random_instance(n, density, "pm1",
seed=SEED)``, ``serialize_graph`` of the graph it returns, and
``parse_graph`` of that text.  BLAS runs on one thread, as in the other
harnesses here.

Each time is the median CPU time (``time.process_time``) per call over up
to ``BLOCKS`` blocks; a block repeats the call until it has run
``BLOCK_S``.  A row's blocks stop once they have used ``BUDGET_S``, so a
call slower than that is timed once; ``calls`` records how many calls each
time rests on.  Edges per second divide the edge count by it.  The
reference kernel of ``harness.py`` is timed on the same clock right before
and right after every row, and the mean of the two is recorded beside it as
``kernel_ms``.  The table goes to standard output, and
``BENCH_graph_<commit>.json`` at the root of the checkout records it with
the commit (``git describe --always --dirty``), the CPU count, and the
numpy and Python versions.
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

from oimsim.ising import parse_graph, random_instance, serialize_graph  # noqa: E402

ROWS = ((10, 0.5), (100, 0.5), (800, 0.06), (2000, 0.06), (20000, 2e-4))
BLOCKS = 7
BLOCK_S = 0.05
BUDGET_S = 5.0
SEED = 0


def cpu_s_per_call(call) -> tuple[float, int, object]:
    """Median CPU seconds per call, the number of calls timed, and the last result."""
    blocks, calls, spent = [], 0, 0.0
    while len(blocks) < BLOCKS and spent < BUDGET_S:
        reps, start = 0, time.process_time()
        while True:
            result = call()
            reps += 1
            elapsed = time.process_time() - start
            if elapsed >= BLOCK_S:
                break
        blocks.append(elapsed / reps)
        calls += reps
        spent += elapsed
    return statistics.median(blocks), calls, result


def main() -> int:
    reference_kernel()
    rows = []
    stages = ("random_instance", "serialize_graph", "parse_graph")
    print(f"{'n':>6} {'density':>8} {'edges':>7} "
          + " ".join(f"{stage + '_ms':>19} {'edges/s':>9}" for stage in stages)
          + f" {'kernel_ms':>10}")
    for n, density in ROWS:
        kernel_before = timed_ms(reference_kernel, time.process_time)
        timings = {}
        cpu_s, calls, g = cpu_s_per_call(lambda: random_instance(n, density, "pm1", seed=SEED))
        timings["random_instance"] = (cpu_s, calls)
        cpu_s, calls, text = cpu_s_per_call(lambda: serialize_graph(g))
        timings["serialize_graph"] = (cpu_s, calls)
        cpu_s, calls, parsed = cpu_s_per_call(lambda: parse_graph(text))
        timings["parse_graph"] = (cpu_s, calls)
        kernel_after = timed_ms(reference_kernel, time.process_time)
        assert parsed.edges == tuple(sorted(g.edges))
        edges = len(g.edges)
        row = {"n": n, "density": density, "edges": edges,
               "kernel_ms": (kernel_before + kernel_after) / 2}
        for stage, (cpu_s, calls) in timings.items():
            row[stage] = {"calls": calls, "cpu_ms": 1e3 * cpu_s,
                          "edges_per_s": edges / cpu_s}
        rows.append(row)
        print(f"{n:>6} {density:>8} {edges:>7} "
              + " ".join(f"{row[stage]['cpu_ms']:>19.3f} {row[stage]['edges_per_s']:>9.3g}"
                         for stage in stages)
              + f" {row['kernel_ms']:>10.1f}")
    doc = {**host_record(), "blocks": BLOCKS, "block_s": BLOCK_S, "budget_s": BUDGET_S,
           "seed": SEED, "rows": rows}
    path = ROOT / f"BENCH_graph_{doc['commit']}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
