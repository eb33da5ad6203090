#!/usr/bin/env python3
"""Time the graph layer: ``random_instance``, ``serialize_graph`` and ``parse_graph``.

Run from anywhere, with no options::

    python3 bench/graph_layer.py

It imports ``oimsim`` from the ``src/`` of the checkout it sits in and, for
each (n, density) in ``ROWS``, times ``random_instance(n, density, "pm1",
seed=SEED)``, ``serialize_graph`` of the graph it returns, and
``parse_graph`` of that text.

After the timed calls, each stage runs once more under ``tracemalloc``:
``peak_mib`` is the peak traced memory of that call, and ``retained_mib``
what is still traced when it returns, that is, what the returned graph (or
text, for ``serialize_graph``) holds.  Its inputs were built before tracing
starts.

Each time is in milliseconds per call, over up to ``BLOCKS`` blocks of at
least ``BLOCK_S`` each, which stop once they have used ``BUDGET_S``, on the
clock and with the reference-kernel bracket that ``harness.py`` describes;
``calls`` records how many calls each time rests on.  Edges per second
divide the edge count by the median.  The table goes to standard output,
and ``BENCH_graph_<commit>.json`` at the root of the checkout records it.
``parse_reproduces`` records whether the parse holds the generated graph's
vertex count and arrays, in (i, j) order, bit for bit; the exit status is 1
when it does not on any row, 0 otherwise.
"""
from __future__ import annotations

import sys

from harness import bracketed, same_bits, time_calls, traced_mib, write_result

import numpy as np

from oimsim.ising import parse_graph, random_instance, serialize_graph

ROWS = ((10, 0.5), (100, 0.5), (800, 0.06), (2000, 0.06), (20000, 2e-4))
BLOCKS = 7
BLOCK_S = 0.05
BUDGET_S = 5.0
SEED = 0


def reproduces(parsed, g) -> bool:
    """Whether ``parsed`` holds g's vertex count and arrays, in (i, j) order,
    with the same dtypes and bits."""
    i, j, w = g.edge_arrays()
    order = np.lexsort((j, i))
    want = (i[order], j[order], w[order])
    return parsed.n == g.n and all(map(same_bits, parsed.edge_arrays(), want))


def measure(n: int, density: float) -> dict:
    """The row of one (n, density): each stage's time and traced memory, and
    whether the parse reproduces the graph."""
    out = {}    # each stage's result, the next stage's input
    calls = {
        "random_instance": lambda: random_instance(n, density, "pm1", seed=SEED),
        "serialize_graph": lambda: serialize_graph(out["random_instance"]),
        "parse_graph": lambda: parse_graph(out["serialize_graph"]),
    }
    timings = {}
    for stage, call in calls.items():
        timings[stage] = time_calls(call, BLOCK_S, BLOCKS, BUDGET_S)
        out[stage] = timings[stage].result
    g = out["random_instance"]
    edges = g.edge_arrays()[0].size
    row = {"n": n, "density": density, "edges": edges,
           "parse_reproduces": reproduces(out["parse_graph"], g)}
    for stage, timing in timings.items():
        peak_mib, retained_mib = traced_mib(calls[stage])
        row[stage] = {"calls": timing.calls, **timing.fields("cpu_ms", 1e3),
                      "edges_per_s": edges / timing.median_s,
                      "peak_mib": peak_mib, "retained_mib": retained_mib}
    return row


def main() -> int:
    rows = []
    stages = ("random_instance", "serialize_graph", "parse_graph")
    print(f"{'n':>6} {'density':>8} {'edges':>7} "
          + " ".join(f"{stage + '_ms':>19} {'edges/s':>9} {'peak_MiB':>9} {'kept_MiB':>9}"
                     for stage in stages)
          + f" {'kernel_ms':>10}")
    for n, density in ROWS:
        row = bracketed(lambda: measure(n, density))
        rows.append(row)
        print(f"{n:>6} {density:>8} {row['edges']:>7} "
              + " ".join(f"{row[stage]['cpu_ms']:>19.3f} {row[stage]['edges_per_s']:>9.3g}"
                         f" {row[stage]['peak_mib']:>9.2f} {row[stage]['retained_mib']:>9.2f}"
                         for stage in stages)
              + f" {row['kernel_ms']:>10.1f}")
    write_result("BENCH_graph", {"blocks": BLOCKS, "block_s": BLOCK_S, "budget_s": BUDGET_S,
                                 "seed": SEED, "rows": rows})
    wrong = [(row["n"], row["density"]) for row in rows if not row["parse_reproduces"]]
    if wrong:
        print(f"parse_graph does not reproduce the graph on rows {wrong}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
