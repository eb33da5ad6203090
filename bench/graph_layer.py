#!/usr/bin/env python3
"""Time the graph layer: ``random_instance``, ``serialize_graph`` and ``parse_graph``.

Run from anywhere, with no options::

    python3 bench/graph_layer.py

It imports ``oimsim`` from the ``src/`` of the checkout it sits in and, for
each (n, density) in ``ROWS``, times ``random_instance(n, density, "pm1",
seed=SEED)``, ``serialize_graph`` of the graph it returns, and
``parse_graph`` of that text.  BLAS runs on one thread, as in the other
harnesses here.

After the timed calls, each stage runs once more under ``tracemalloc``:
``peak_mib`` is the peak traced memory of that call, and ``retained_mib``
what is still traced when it returns, that is, what the returned graph (or
text, for ``serialize_graph``) holds.  Its inputs were built before tracing
starts.

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
numpy and Python versions.  ``parse_reproduces`` records whether the parse
holds the generated graph's vertex count and arrays, in (i, j) order, bit
for bit; the exit status is 1 when it does not on any row, 0 otherwise.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import statistics
import sys
import time
import tracemalloc

from harness import ROOT, host_record, reference_kernel, timed_ms  # noqa: E402

sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

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


def traced_mib(call) -> tuple[float, float]:
    """The tracemalloc peak of one call, and what its result retains, in MiB."""
    tracemalloc.start()
    try:
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak / 2**20, retained / 2**20


def reproduces(parsed, g) -> bool:
    """Whether ``parsed`` holds g's vertex count and arrays, in (i, j) order,
    with the same dtypes and bits."""
    i, j, w = g.edge_arrays()
    order = np.lexsort((j, i))
    want = (i[order], j[order], w[order].view(np.uint64))
    got = parsed.edge_arrays()
    got = (got[0], got[1], got[2].view(np.uint64))
    return parsed.n == g.n and all(a.dtype == b.dtype and np.array_equal(a, b)
                                   for a, b in zip(got, want))


def main() -> int:
    reference_kernel()
    rows = []
    stages = ("random_instance", "serialize_graph", "parse_graph")
    print(f"{'n':>6} {'density':>8} {'edges':>7} "
          + " ".join(f"{stage + '_ms':>19} {'edges/s':>9} {'peak_MiB':>9} {'kept_MiB':>9}"
                     for stage in stages)
          + f" {'kernel_ms':>10}")
    for n, density in ROWS:
        kernel_before = timed_ms(reference_kernel, time.process_time)
        out = {}    # each stage's result, the next stage's input
        calls = {
            "random_instance": lambda: random_instance(n, density, "pm1", seed=SEED),
            "serialize_graph": lambda: serialize_graph(out["random_instance"]),
            "parse_graph": lambda: parse_graph(out["serialize_graph"]),
        }
        timings = {}
        for stage, call in calls.items():
            cpu_s, count, out[stage] = cpu_s_per_call(call)
            timings[stage] = (cpu_s, count)
        kernel_after = timed_ms(reference_kernel, time.process_time)
        g = out["random_instance"]
        edges = g.edge_arrays()[0].size
        row = {"n": n, "density": density, "edges": edges,
               "kernel_ms": (kernel_before + kernel_after) / 2,
               "parse_reproduces": reproduces(out["parse_graph"], g)}
        for stage, (cpu_s, count) in timings.items():
            peak_mib, retained_mib = traced_mib(calls[stage])
            row[stage] = {"calls": count, "cpu_ms": 1e3 * cpu_s,
                          "edges_per_s": edges / cpu_s,
                          "peak_mib": peak_mib, "retained_mib": retained_mib}
        rows.append(row)
        print(f"{n:>6} {density:>8} {edges:>7} "
              + " ".join(f"{row[stage]['cpu_ms']:>19.3f} {row[stage]['edges_per_s']:>9.3g}"
                         f" {row[stage]['peak_mib']:>9.2f} {row[stage]['retained_mib']:>9.2f}"
                         for stage in stages)
              + f" {row['kernel_ms']:>10.1f}")
    doc = {**host_record(), "blocks": BLOCKS, "block_s": BLOCK_S, "budget_s": BUDGET_S,
           "seed": SEED, "rows": rows}
    path = ROOT / f"BENCH_graph_{doc['commit']}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path.name}")
    wrong = [(row["n"], row["density"]) for row in rows if not row["parse_reproduces"]]
    if wrong:
        print(f"parse_graph does not reproduce the graph on rows {wrong}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
