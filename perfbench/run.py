#!/usr/bin/env python3
"""Benchmark of the oimsim command line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload solve_g800 --seed 1 --seconds 30 --trace 0

Every operation is one in-process call to ``oimsim.cli.main`` with
``--threads 1 --quiet`` on input files that the benchmark generates from
``--seed``.  A run repeats one command on one input, closed loop with a
single client, and after the first operation starts none that it predicts
would end after ``--seconds``.  Every output is checked: a non-zero exit, a
schema error, a failed workload check or an artifact that differs from the
run's first one counts the operation as failed; it is never dropped.
Set-up (starting an interpreter that imports the package, plus input
generation) is timed before the first operation and again between
operations, outside the ``--seconds`` budget, and reported as the median.

Times are CPU time (user plus system) of the process and of the children it
waited for, scaled to a reference speed.  On a shared host the same call
runs a third slower or more for minutes at a time while other tenants load
the machine, in CPU time as in wall time.  So a fixed kernel of the same
kind of work, written here and not taken from the package, is timed right
before and after every operation and every set-up, and each time is
reported as ``cpu_s * nominal_s / kernel_s``: the seconds the call would
take on a host where the kernel takes its nominal time (``Yardstick``).  A
change to the program moves the scaled time as it moves the CPU time; a
change of host speed moves the kernel with it.  The program runs on one
thread (``--threads 1`` and one BLAS thread), so on an idle machine CPU and
wall time agree; each operation's CPU, wall and kernel times are recorded.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced operations and reports per-layer metrics.  A traced
operation swaps the package functions that the command drivers look up for
timing wrappers and restores them afterwards, so untraced operations run the
package unmodified.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment,
every operation time, the artifact digests and the spans are written to
``.perfbench/``.

BLAS is pinned to one thread before numpy loads, matching ``--threads 1``,
and the thread count OpenBLAS reports is recorded.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import inspect
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

OUT_DIR = Path(".perfbench")
CLI_FLAGS = ["--threads", "1", "--quiet"]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 8
# One attempt per operation: shorter operations give more of them per run,
# and their median is steadier on a shared host.
SOLVE_ATTEMPTS = 1

# Per-layer metric -> (unit, end-to-end metrics it should move, on which
# workloads); a later change that claims a gain cites these pairings.
LAYERS = {
    "dynamics.rhs_calls": ("count", "op_s_p50 work_per_s", "solve_g800; none on oracle_n22"),
    "dynamics.rhs_us": ("us", "op_s_p50 work_per_s", "solve_g800; none on oracle_n22"),
    "dynamics.rhs_share": ("ratio", "op_s_p50 peak_rss_mb", "solve_g800"),
    "dynamics.flops_per_call_computed": ("flop", "op_s_p50 peak_rss_mb", "solve_g800"),
    "dynamics.bytes_per_call_computed": ("B", "op_s_p50 peak_rss_mb", "solve_g800"),
    "dynamics.gflops_computed": ("GFLOP/s", "op_s_p50 peak_rss_mb", "solve_g800"),
    "integrate.runs": ("count", "op_s_p50", "solve_g800; none on oracle_n22"),
    "integrate.steps": ("count", "op_s_p50", "solve_g800; none on oracle_n22"),
    "integrate.samples": ("count", "op_s_p50", "solve_g800; none on oracle_n22"),
    "integrate.self_us_per_step": ("us", "op_s_p50", "solve_g800 (EM); none on oracle_n22"),
    "integrate.diverged": ("count", "fail_frac", "solve_g800; none on oracle_n22"),
    "metrics.traces_us_per_sample": ("us", "op_s_p50", "solve_g800"),
    "metrics.lock_us": ("us", "op_s_p50", "solve_g800"),
    "metrics.readout_us": ("us", "op_s_p50", "solve_g800"),
    "metrics.share": ("ratio", "op_s_p50", "solve_g800"),
    "ising.parse_s": ("s", "op_s_p50", "solve_g800"),
    "ising.convert_s": ("s", "op_s_p50", "solve_g800"),
    "ising.oracle_energies_per_s": ("1/s", "op_s_p50 work_per_s", "oracle_n22 only"),
    "experiments.self_s": ("s", "op_s_p50", "solve_g800"),
    "experiments.init_us": ("us", "op_s_p50", "solve_g800"),
    "experiments.locked_ratio": ("ratio", "op_s_p50", "solve_g800"),
    "cli.config_s": ("s", "op_s_p50", "both, as a small share"),
    "cli.self_s": ("s", "op_s_p50", "both, as a small share"),
    "trace.overhead_frac": ("ratio", "none: traced minus untraced op_s_p50", "both"),
}

# Per-layer metrics that must repeat exactly between traced operations: a
# run is a pure function of (config, seeds).
EXACT_COUNTS = ("dynamics.rhs_calls", "integrate.runs", "integrate.steps", "integrate.samples",
                "integrate.diverged")


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9)


# -------------------------------------------------------- reference kernels


def matvec_kernel():
    """Dense 800 x 800 matvecs with elementwise maps, the shape of a step of
    the `solve` workload's dynamics."""
    import numpy as np

    rng = np.random.default_rng(0)
    coupling = rng.standard_normal((800, 800))
    start = rng.standard_normal(800)

    def run():
        x = start
        for _ in range(300):
            # entries stay of order 1: no underflow to slow subnormals
            x = np.sin(0.05 * (coupling @ x))
            coupling.T @ np.cos(x)
    return run


def enumerate_kernel():
    """Spin rows decoded from 2^16-index chunks and their quadratic forms, the
    shape of a chunk of the `oracle` workload's enumeration."""
    import numpy as np

    coupling = np.random.default_rng(0).standard_normal((22, 22))

    def run():
        for k in range(3):
            idx = np.arange(k << 16, (k + 1) << 16, dtype=np.int64)
            spins = 1.0 - 2.0 * ((idx[:, None] >> np.arange(22)) & 1)
            int(np.argmin(np.einsum("ki,ij,kj->k", spins, coupling, spins)))
    return run


def python_kernel(iterations: int = 1_500_000):
    """An interpreted loop, the shape of interpreter start-up and of the
    per-edge loops that generate inputs."""
    def run():
        acc = 0
        for i in range(iterations):
            acc += i * i % 7
        return acc
    return run


class Yardstick:
    """A fixed kernel and its nominal CPU time: a constant near the kernel's
    median on the host the bounds were set on (2 vCPUs of a shared x86_64
    host, Python 3.11, numpy 2.4 with one OpenBLAS thread).  It only sets the
    scale; changing it would change every scaled time by the same factor."""

    def __init__(self, make: Callable, nominal_s: float):
        self.make, self.nominal_s = make, nominal_s
        self._run = None

    def __call__(self) -> float:
        """CPU seconds of one run of the kernel."""
        if self._run is None:
            self._run = self.make()
            self._run()            # warm-up: allocation and first-touch
        start = cpu_seconds()
        self._run()
        return cpu_seconds() - start

    def scale(self, cpu_s: float, kernel_s: float) -> float:
        return cpu_s * self.nominal_s / kernel_s


MATVEC = Yardstick(matvec_kernel, 0.15)
ENUMERATE = Yardstick(enumerate_kernel, 0.19)
INTERPRETER = Yardstick(python_kernel, 0.13)

# ---------------------------------------------------------------- workloads


@dataclass
class Inputs:
    """One workload's generated inputs and the checks on its output."""

    argv: list
    schema: str                          # file name under oimsim/schemas
    check: Callable[[dict], list]        # problems found in the parsed output
    work: Callable[[dict], float]        # work units done by one operation
    work_unit: str
    files: list                          # generated files
    reference: Yardstick                 # kernel that tracks the host speed for this command
    facts: dict = field(default_factory=dict)


def solve_inputs(seed: int, workdir: Path, n: int = 800, density: float = 0.06,
                 attempts: int = SOLVE_ATTEMPTS) -> Inputs:
    """`solve` with the command's defaults on a seeded random graph."""
    import numpy as np
    from oimsim.ising import SpinAssignment, cut_value, random_instance, serialize_graph

    g = random_instance(n, density, "pm1", seed)
    path = workdir / f"g{n}.graph"
    path.write_text(serialize_graph(g))
    total = g.total_weight

    def check(doc):
        if len(doc["spins"]) != n:
            return [f"{len(doc['spins'])} spins for {n} vertices"]
        problems = []
        cut = cut_value(g, SpinAssignment(np.array(doc["spins"], dtype=float)))
        if not _close(cut, doc["cut"]):
            problems.append(f"reported cut {doc['cut']} != recomputed {cut}")
        if not _close(doc["cut"], (total - doc["energy"]) / 2):
            problems.append(f"cut {doc['cut']} != (W - energy)/2 = {(total - doc['energy']) / 2}")
        if doc["attempts"] != attempts:
            problems.append(f"attempts {doc['attempts']} != {attempts}")
        return problems

    def work(doc):
        integ = doc["config"]["integrator"]
        return attempts * round(integ["t_end"] / integ["dt"]) * n

    return Inputs(["solve", str(path), "--attempts", str(attempts), "--seed", str(seed), *CLI_FLAGS],
                  "solve_result.schema.json", check, work, "oscillator-steps", [path],
                  MATVEC, {"n": n, "edges": len(g.edges)})


def local_search_cut(g, seed: int) -> float:
    """Best cut over greedy single-flip local searches: a lower bound on the
    maximum cut that does not use the package's oracle."""
    import numpy as np
    from oimsim.ising import SpinAssignment, cut_value

    i, j, w = g.edge_arrays()
    adj = np.zeros((g.n, g.n))
    adj[i, j] = w
    adj[j, i] = w
    rng = np.random.default_rng(seed)
    best = -math.inf
    for _ in range(8):
        s = rng.choice([-1.0, 1.0], g.n)
        while True:
            gain = s * (adj @ s)   # cut change from flipping each spin
            k = int(np.argmax(gain))
            if gain[k] <= 1e-12:
                break
            s[k] = -s[k]
        best = max(best, cut_value(g, SpinAssignment(s)))
    return best


def oracle_inputs(seed: int, workdir: Path, n: int = 22) -> Inputs:
    """`oracle` (exhaustive ground state) on a seeded random graph."""
    from oimsim.ising import random_instance, serialize_graph

    g = random_instance(n, 0.5, "pm1", seed)
    path = workdir / f"g{n}.graph"
    path.write_text(serialize_graph(g))
    total = g.total_weight
    lower = local_search_cut(g, seed)
    upper = sum(w for _, _, w in g.edges if w > 0)

    def check(doc):
        problems = []
        if doc["degeneracy"] < 1:
            problems.append(f"degeneracy {doc['degeneracy']} < 1")
        if not _close(doc["max_cut"], (total - doc["ground_energy"]) / 2):
            problems.append(f"max_cut {doc['max_cut']} != (W - E)/2")
        if not lower - 1e-9 <= doc["max_cut"] <= upper + 1e-9:
            problems.append(f"max_cut {doc['max_cut']} outside [{lower}, {upper}]")
        return problems

    # the search space up to the global spin flip of a zero-field instance
    return Inputs(["oracle", str(path), *CLI_FLAGS], "oracle_result.schema.json", check,
                  lambda doc: 2.0 ** (n - 1), "assignments", [path], ENUMERATE,
                  {"n": n, "edges": len(g.edges), "local_search_cut": lower})


WORKLOADS = {
    "solve_g800": solve_inputs,
    "oracle_n22": oracle_inputs,
}

# ------------------------------------------------------------------ tracing


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0       # time covered by child spans and RHS calls
    rhs_calls: int = 0
    rhs_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


# module -> names the command drivers look up there at call time
TRACED = {
    "oimsim.cli": ("load_effective_config", "parse_graph", "solve",
                   "brute_force_ground_state", "ising_from_maxcut"),
    "oimsim.experiments": ("initial_phases", "integrate", "compute_traces", "lock_time",
                           "score_trajectory", "maxcut_from_ising", "ising_from_maxcut"),
    "oimsim.integrate": ("make_rhs",),
}


class Tracer:
    """Spans kept in memory for the operations run under `operation`.

    RHS calls are too many to keep one span each: they add a count and a
    time to the innermost open span.  Operations run on one thread
    (``--threads 1``), so one stack suffices.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.missing: set[str] = set()

    def _open(self, op: int, name: str) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(op, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.seconds

    def _rhs(self, f):
        def counted(*args, **kwargs):
            start = time.perf_counter()
            result = f(*args, **kwargs)
            elapsed = time.perf_counter() - start
            top = self.stack[-1]
            top.rhs_calls += 1
            top.rhs_s += elapsed
            top.child_s += elapsed
            return result
        return counted

    def _wrap(self, op: int, name: str, fn):
        from oimsim.errors import DivergenceError

        fname = name.rsplit(".", 1)[1]
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            span = self._open(op, name)
            try:
                result = fn(*args, **kwargs)
            except DivergenceError as err:
                span.info.update(diverged=True, steps=err.step + 1)
                raise
            finally:
                self._close(span)
            bound = sig.bind(*args, **kwargs).arguments
            if fname == "integrate":
                span.info.update(steps=bound["icfg"].n_steps, samples=len(result.times))
            elif fname == "compute_traces":
                span.info["samples"] = len(bound["traj"].times)
            elif fname == "lock_time":
                span.info["locked"] = bool(result.locked)
            elif fname == "brute_force_ground_state":
                inst = bound["inst"]
                span.info["assignments"] = 2 ** (inst.n if inst.has_field else inst.n - 1)
            elif fname == "make_rhs":
                span.info["n"] = bound["inst"].n
                return self._rhs(result)
            return result
        return traced

    def write(self, path: Path) -> None:
        with path.open("w") as handle:
            for s in self.spans:
                handle.write(json.dumps({"op": s.op, "id": s.id, "parent": s.parent,
                                         "name": s.name, "start": s.start, "end": s.end,
                                         "rhs_calls": s.rhs_calls, "rhs_s": s.rhs_s,
                                         **s.info}) + "\n")

    @contextlib.contextmanager
    def operation(self, op: int):
        """Trace one operation: patch the looked-up names, open a root span."""
        import importlib

        saved = []
        for modname, names in TRACED.items():
            mod = importlib.import_module(modname)
            for attr in names:
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.add(f"{modname}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(op, f"{modname.split('.')[-1]}.{attr}", fn))
        root = self._open(op, "op")
        try:
            yield root
        finally:
            self._close(root)
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced operation; 0 where a layer did not run."""
    root = next(s for s in spans if s.name == "op")
    by: dict[str, list] = {}
    for s in spans:
        by.setdefault(s.name.rsplit(".", 1)[-1], []).append(s)

    def total(*fnames):
        return sum(s.seconds for f in fnames for s in by.get(f, ()))

    def mean_us(fname):
        got = by.get(fname, ())
        return 1e6 * sum(s.seconds for s in got) / len(got) if got else 0.0

    integ = by.get("integrate", [])
    runs = len(integ)
    steps = sum(s.info.get("steps", 0) for s in integ)
    samples = sum(s.info.get("samples", 0) for s in integ)
    rhs_calls = sum(s.rhs_calls for s in spans)
    rhs_s = sum(s.rhs_s for s in spans)
    n = by["make_rhs"][0].info["n"] if by.get("make_rhs") else 0
    # dense two-matvec formulation: J read twice, about a dozen elementwise
    # operations on n-vectors; computed from n, not measured
    flops = 4 * n * n + 12 * n
    nbytes = 16 * n * n + 96 * n
    traced_samples = sum(s.info["samples"] for s in by.get("compute_traces", ()))
    observables = total("compute_traces", "lock_time", "score_trajectory")
    oracle = by.get("brute_force_ground_state", [])
    oracle_s = sum(s.seconds for s in oracle)
    locked = sum(s.info["locked"] for s in by.get("lock_time", ()))
    return {
        "cli.config_s": total("load_effective_config"),
        "cli.self_s": root.self_s,
        "ising.parse_s": total("parse_graph"),
        "ising.convert_s": total("ising_from_maxcut", "maxcut_from_ising"),
        "ising.oracle_energies_per_s":
            sum(s.info["assignments"] for s in oracle) / oracle_s if oracle_s else 0.0,
        "experiments.self_s": sum(s.self_s for s in by.get("solve", ())),
        "experiments.init_us": mean_us("initial_phases"),
        "experiments.locked_ratio": locked / runs if runs else 0.0,
        "integrate.runs": runs,
        "integrate.steps": steps,
        "integrate.samples": samples,
        "integrate.diverged": sum(1 for s in integ if s.info.get("diverged")),
        "integrate.self_us_per_step":
            1e6 * sum(s.self_s for s in integ) / steps if steps else 0.0,
        "dynamics.rhs_calls": rhs_calls,
        "dynamics.rhs_us": 1e6 * rhs_s / rhs_calls if rhs_calls else 0.0,
        "dynamics.rhs_share": rhs_s / root.seconds,
        "dynamics.flops_per_call_computed": flops if n else 0,
        "dynamics.bytes_per_call_computed": nbytes if n else 0,
        "dynamics.gflops_computed": flops * rhs_calls / rhs_s / 1e9 if rhs_s else 0.0,
        "metrics.traces_us_per_sample":
            1e6 * total("compute_traces") / traced_samples if traced_samples else 0.0,
        "metrics.lock_us": mean_us("lock_time"),
        "metrics.readout_us": mean_us("score_trajectory"),
        "metrics.share": observables / root.seconds,
    }

# ---------------------------------------------------------------- measuring


def cpu_seconds() -> float:
    """CPU time used so far by this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def import_seconds() -> float:
    """Time to start a fresh interpreter and import the command-line module."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(["src", os.environ.get("PYTHONPATH", "")]))
    start = cpu_seconds()
    subprocess.run([sys.executable, "-c", "import oimsim.cli"], env=env, capture_output=True,
                   check=True, timeout=120)
    return cpu_seconds() - start


class SetUp:
    """Import and input generation, timed and scaled by the interpreter
    kernel run before and after.  An untraced run repeats it between
    operations, at most once every `every` seconds, so its median spans the
    run as the operation times do; the inputs must repeat."""

    def __init__(self, make: Callable, seed: int, workdir: Path, every: float):
        self.make, self.seed, self.workdir, self.every = make, seed, workdir, every
        self.times: list[float] = []
        self.raw: list[dict] = []
        self.problems: list[str] = []
        self.first = None
        self.last = -math.inf

    def again(self) -> bool:
        """Set up again if `every` seconds have passed; whether it did."""
        if time.perf_counter() - self.last < self.every:
            return False
        self()
        return True

    def __call__(self) -> Inputs:
        before = INTERPRETER()
        imported = import_seconds()
        start = cpu_seconds()
        inputs = self.make(self.seed, self.workdir)
        cpu = imported + cpu_seconds() - start
        kernel = (before + INTERPRETER()) / 2
        self.times.append(INTERPRETER.scale(cpu, kernel))
        self.raw.append({"cpu_s": cpu, "kernel_s": kernel})
        contents = [p.read_bytes() for p in inputs.files]
        if self.first is None:
            self.first = contents
        elif contents != self.first and not self.problems:
            self.problems.append("generated inputs differ between set-ups of one seed")
        self.last = time.perf_counter()
        return inputs


def run_op(main: Callable, inputs: Inputs, validator) -> dict:
    """One timed command call, then its output checks (not timed)."""
    buf = io.StringIO()
    wall, cpu = time.perf_counter(), cpu_seconds()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(inputs.argv)
    except Exception as err:  # an operation that raises is a failed operation
        rc = f"none, raised {type(err).__name__}: {err}"
    wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu
    result = {"cpu_s": cpu, "wall_s": wall, "sha256": None,
              "problems": [], "work": 0.0, "doc": None}
    if rc != 0:
        result["problems"].append(f"exit {rc}")
        return result
    try:
        raw = buf.getvalue().encode()
        doc = json.loads(raw)
    except (OSError, ValueError) as err:
        result["problems"].append(f"unreadable output: {err}")
        return result
    result["sha256"] = hashlib.sha256(raw).hexdigest()
    result["problems"] = [f"schema: {e.message}" for e in validator.iter_errors(doc)]
    if not result["problems"]:
        result["problems"] = inputs.check(doc)
    if not result["problems"]:
        result["doc"] = doc
        result["work"] = float(inputs.work(doc))
    return result


def measure(main: Callable, inputs: Inputs, validator, seconds: float, trace: bool,
            tracer: Tracer | None = None, between: Callable | None = None) -> list:
    """Run operations until the next one is predicted to end after `seconds`
    of wall time.  Each operation's time is its CPU time scaled by the
    workload's reference kernel, run right before and right after it.

    Untraced: at least one operation.  Traced: even-numbered operations are
    traced, odd ones not, and at least two traced and one untraced run.
    `between` is called after each operation, outside its time and the
    `seconds` budget, and returns whether it did any work.
    """
    ops = []
    spent = 0.0
    before = None                  # kernel time right before the next operation
    while True:
        traced_ops = sum(op["traced"] for op in ops)
        enough = (traced_ops >= 2 and len(ops) - traced_ops >= 1) if trace else bool(ops)
        if enough:
            predicted = spent + statistics.median(op["cycle_s"] for op in ops)
            if predicted > seconds:
                return ops
        begun = time.perf_counter()
        if before is None:
            before = inputs.reference()
        index = len(ops)
        traced = trace and index % 2 == 0
        if traced:
            with tracer.operation(index):
                op = run_op(main, inputs, validator)
        else:
            op = run_op(main, inputs, validator)
        after = inputs.reference()
        kernel = (before + after) / 2
        op.update(index=index, traced=traced, kernel_s=kernel,
                  seconds=inputs.reference.scale(op["cpu_s"], kernel))
        if ops and op["sha256"] is not None and op["sha256"] != ops[0]["sha256"]:
            op["problems"].append("artifact differs from the run's first operation")
        ops.append(op)
        op["cycle_s"] = time.perf_counter() - begun
        spent += op["cycle_s"]
        before = after
        if between is not None and between():
            before = None


def tail(values: list) -> tuple[float, str]:
    """Highest percentile with ten samples beyond it, or a quarter of the
    samples when that is fewer, so that it stays a steady estimate on short
    runs; the maximum below four samples."""
    ordered = sorted(values)
    beyond = min(10, len(ordered) // 4)
    if beyond == 0:
        return ordered[-1], "max"
    k = len(ordered) - beyond - 1
    return ordered[k], f"p{100.0 * (k + 1) / len(ordered):.1f}"

# -------------------------------------------------------------- environment


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(root: Path) -> dict:
    import numpy as np

    commit = None
    if shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() if done.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_threads_reported": _openblas_threads(),
        "machine": platform.machine(),
    }

# --------------------------------------------------------------------- main


def load_package(root: Path):
    """Import oimsim from the checkout's src/, never from anywhere else."""
    src = root / "src"
    if not (src / "oimsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no oimsim package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import oimsim.cli

    if Path(oimsim.cli.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"perfbench: imported oimsim from {oimsim.cli.__file__}, not {src}")
    return oimsim.cli


def per_layer(ops: list, tracer: Tracer) -> tuple[dict, list]:
    """Per-layer metrics of a traced run, and the exact counts that differ
    between its traced operations."""
    per_op = [layer_metrics([s for s in tracer.spans if s.op == op["index"]])
              for op in ops if op["traced"]]
    problems = [f"{key} differs between traced operations: {[m[key] for m in per_op]}"
                for key in EXACT_COUNTS if len({m[key] for m in per_op}) > 1]
    # counts repeat (checked above); times are medians over traced operations
    values = {k: per_op[0][k] if LAYERS[k][0] == "count" else
              statistics.median(m[k] for m in per_op) for k in per_op[0]}
    traced = statistics.median(op["seconds"] for op in ops if op["traced"])
    untraced = statistics.median(op["seconds"] for op in ops if not op["traced"])
    values["trace.overhead_frac"] = traced / untraced - 1.0
    return {k: {"value": v, "unit": LAYERS[k][0]} for k, v in values.items()}, problems


def end_to_end(ops: list, setup: SetUp) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, and the figures reported beside them."""
    times = [op["seconds"] for op in ops]
    op_tail, tail_label = tail(times)
    failed = sum(1 for op in ops if op["problems"])
    metrics = {
        "setup_s": {"value": statistics.median(setup.times), "unit": "s"},
        "op_s_p50": {"value": statistics.median(times), "unit": "s"},
        "op_s_tail": {"value": op_tail, "unit": "s"},
        "work_per_s": {"value": statistics.median(op["work"] / op["seconds"] for op in ops),
                       "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MiB"},
    }
    detail = {"op_s_tail_percentile": tail_label, "samples": len(times),
              "fail_frac": failed / len(ops)}
    # the unscaled figures, for reading the scaled ones against
    for key, values in (("op_cpu_s_p50", [op["cpu_s"] for op in ops]),
                        ("op_wall_s_p50", [op["wall_s"] for op in ops]),
                        ("op_kernel_s_p50", [op["kernel_s"] for op in ops]),
                        ("setup_cpu_s_p50", [r["cpu_s"] for r in setup.raw]),
                        ("setup_kernel_s_p50", [r["kernel_s"] for r in setup.raw])):
        detail[key] = statistics.median(values)
    cuts = [op["doc"]["cut"] for op in ops if op["doc"] and "cut" in op["doc"]]
    if cuts:
        detail["best_cut"] = cuts[0]
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_ENV:
        os.environ[var] = "1"
    # one CPU for the whole run, so that the reference kernels run where the
    # operations do: CPUs of a shared host differ in speed under other
    # tenants' load; the last CPU usually takes fewer interrupts
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    root = Path.cwd()
    cli = load_package(root)
    import jsonschema

    name = f"{args.workload}-s{args.seed}"
    workdir = OUT_DIR / name
    workdir.mkdir(parents=True, exist_ok=True)
    setup = SetUp(WORKLOADS[args.workload], args.seed, workdir, args.seconds / SETUP_REPS)
    inputs = setup()
    schema_path = Path(cli.__file__).parent / "schemas" / inputs.schema
    validator = jsonschema.Draft202012Validator(json.loads(schema_path.read_text()))

    tracer = Tracer() if args.trace else None
    ops = measure(cli.main, inputs, validator, args.seconds, bool(args.trace), tracer,
                  between=None if args.trace else setup.again)
    while not args.trace and len(setup.times) < SETUP_REPS:
        setup()
    problems = list(setup.problems)
    if args.trace:
        metrics, mismatches = per_layer(ops, tracer)
        problems += mismatches
        detail = {"missing_names": sorted(tracer.missing)}
        tracer.write(OUT_DIR / f"{name}-spans.jsonl")
    else:
        metrics, detail = end_to_end(ops, setup)
    failed = sum(1 for op in ops if op["problems"])
    shas = sorted({op["sha256"] for op in ops if op["sha256"]})
    env = environment(root)
    results_path = OUT_DIR / f"{name}-t{args.trace}.json"
    results_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "inputs": {**inputs.facts, "work_unit": inputs.work_unit},
        "argv": inputs.argv, "setup_s": setup.times, "setup_raw": setup.raw, "artifact_sha256": shas,
        "ops": [{k: op[k] for k in ("index", "traced", "seconds", "cpu_s", "kernel_s", "wall_s", "work",
                                    "sha256", "problems")}
                for op in ops],
        "problems": problems, "metrics": metrics, "detail": detail, "layers": LAYERS,
    }, indent=1) + "\n")

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, "
          f"{failed} failed; details in {results_path}")
    for op in ops:
        for problem in op["problems"]:
            print(f"  op {op['index']} failed: {problem}")
    for problem in problems:
        print(f"  run check failed: {problem}")
    print(f"  artifact sha256: {' '.join(shas) or 'none'}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  op_s_tail is the {detail['op_s_tail_percentile']} of {len(ops)} samples")
        print(f"  fail_frac = {detail['fail_frac']:.6g} ({failed}/{len(ops)})")
        print(f"  unscaled: op CPU {detail['op_cpu_s_p50']:.6g} s, wall {detail['op_wall_s_p50']:.6g} s, "
              f"kernel {detail['op_kernel_s_p50']:.6g} s (nominal {inputs.reference.nominal_s} s); "
              f"set-up CPU {detail['setup_cpu_s_p50']:.6g} s, kernel "
              f"{detail['setup_kernel_s_p50']:.6g} s (nominal {INTERPRETER.nominal_s} s)")
        if inputs.work_unit == "oscillator-steps":
            print(f"  osc_steps_per_s = {metrics['work_per_s']['value']:.6g} 1/s")
        if "best_cut" in detail:
            print(f"  best_cut = {detail['best_cut']:.6g}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
