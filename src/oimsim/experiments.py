"""Desk-scale studies: parameter sweeps, routing-mode comparison, and solving.

All runs are seeded and every experiment is deterministic for a fixed
specification, independent of the worker thread count: work items are pure
functions of their inputs and results are emitted in canonical order.
Each driver's runs go through ``_runs``, which maps the max-cut graph to
couplings once; every cut is ``cut_value`` on the graph the driver was given.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dynamics import DynamicsConfig, Mode, PhaseState
from .errors import DivergenceError, check_int, check_real
from .integrate import IntegratorConfig, initial_phases, integrate
from .ising import IsingInstance, MaxCutInstance, SpinAssignment, ising_from_maxcut, parse_graph
from .metrics import (LOCK_HOLD_SAMPLES, LOCK_THRESHOLD, _circular_stats, _lock_report,
                      _order_parameters, check_lock_params, score_trajectory)


def data_path(name: str) -> Path:
    """Filesystem path of a bundled data file (graphs, reference configs)."""
    return Path(resources.files("oimsim") / "data" / name)


# Fixed bipartition behind the 10-oscillator reference instance.  Cross-pair
# edges carry weight +1 and within-group edges -1, so the locked two-cluster
# phase pattern and the optimum cut coincide with this partition.  A generic
# random +-1 instance would be frustrated and its phase minima splayed, which
# makes "time to full phase order" ill-defined.
def reference_graph() -> MaxCutInstance:
    """The complete 10-vertex +-1 reference instance used by the bundled
    studies: the bundled ``reference10.graph``."""
    return parse_graph(data_path("reference10.graph").read_text())


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """One-parameter grid sweep over seeded runs in both routing modes on one graph."""

    parameter: str
    values: tuple
    seeds: tuple
    base_dynamics: DynamicsConfig
    base_integrator: IntegratorConfig
    graph: MaxCutInstance

    def __post_init__(self):
        if self.parameter not in ("sigma", "kappa_s"):
            raise ValueError(f"sweep parameter must be sigma or kappa_s, got {self.parameter!r}")
        for v in self.values:
            check_real("sweep.values", v)
        for s in self.seeds:
            check_int("sweep.seeds", s, minimum=0)
        values = tuple(float(v) for v in self.values)
        if not values or any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("values must be non-empty and strictly increasing")
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise ValueError("seeds must be non-empty")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "seeds", seeds)


@dataclass(frozen=True)
class SweepRow:
    parameter_value: float
    seed: int
    mode: str
    lock_time: float | None
    final_R: float
    final_error: float
    final_energy: float
    best_cut: float


@dataclass(frozen=True)
class ComparisonSummary:
    median_lock_distributed: float | None
    median_lock_centralized: float | None
    speedup: float | None
    win_fraction: float | None
    median_error_distributed: float | None
    median_error_centralized: float | None
    n_seeds: int
    n_locked_pairs: int
    non_locking_modes: tuple = ()


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Best attempt of a solve.  lock_fraction is the share of completed
    (not diverged) attempts whose order parameter locked."""

    spins: SpinAssignment
    cut: float
    energy: float
    attempts: int
    lock_fraction: float
    best_seed: int


@dataclass(frozen=True, eq=False)
class _Run:
    """Everything the drivers read from one seeded run.  A diverged run
    carries its error, no lock time and NaN observables."""

    lock_time: float | None = None
    final_R: float = math.nan
    final_error: float = math.nan
    spins: SpinAssignment | None = None
    energy: float = math.nan
    cut: float = math.nan
    error: DivergenceError | None = None


def _run_once(
    inst: IsingInstance,
    g: MaxCutInstance,
    dyn: DynamicsConfig,
    icfg: IntegratorConfig,
    init: PhaseState,
    threshold: float,
    hold_samples: int,
) -> _Run:
    """Integrate one run, seeded by icfg, from init, then detect locking and read it out.

    Only the reported observables are computed: R of every sample for the
    lock window, and the lock error of the final sample.  The kernels work
    row by row, so each value is bit-equal to its entry in compute_traces
    of the same trajectory.
    """
    dyn.freqs_for(inst.n)  # a natural_freqs length fault is raised before integrating
    try:
        traj = integrate(inst, dyn, icfg, init)
    except DivergenceError as err:
        return _Run(error=err)
    r = _order_parameters(traj.states)
    _, final_error = _circular_stats(traj.states[-1:])
    spins, energy, cut = score_trajectory(traj, inst, g, dyn)
    return _Run(
        lock_time=_lock_report(r, traj.times, threshold, hold_samples),
        final_R=float(r[-1]),
        final_error=float(final_error[0]),
        spins=spins,
        energy=energy,
        cut=cut,
    )


def _runs(graph: MaxCutInstance, icfg: IntegratorConfig, jobs: Sequence[tuple[DynamicsConfig, int]],
          threshold: float, hold_samples: int, threads: int) -> list[_Run]:
    """The run of each (dynamics, seed) job on the graph, in job order, with
    icfg's seed replaced by the job's: checks and couplings once per call,
    initial phases once per seed, on a thread pool when ``threads > 1``.
    Raises the last job's DivergenceError if every run diverged."""
    check_lock_params(threshold, hold_samples, icfg.n_samples)
    inst = ising_from_maxcut(graph)
    inits = {seed: initial_phases(inst.n, seed) for seed in dict.fromkeys(s for _, s in jobs)}

    def run(job: tuple[DynamicsConfig, int]) -> _Run:
        dyn, seed = job
        return _run_once(inst, graph, dyn, replace(icfg, seed=seed), inits[seed],
                         threshold, hold_samples)

    if threads <= 1 or len(jobs) <= 1:
        runs = [run(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(run, jobs))
    if all(r.error is not None for r in runs):
        raise runs[-1].error
    return runs


def run_sweep(
    spec: SweepSpec,
    threshold: float = LOCK_THRESHOLD,
    hold_samples: int = LOCK_HOLD_SAMPLES,
    threads: int = 1,
) -> list[SweepRow]:
    """One row per (grid value, seed, routing mode), in canonical order.

    Every run with the same seed starts from the same initial phases.  A
    diverged run yields a row with empty lock time and NaN observables (``nan`` CSV cells)
    rather than aborting the sweep; the last DivergenceError is raised if every run diverged.
    """
    grid = [
        (value, seed, mode)
        for value in spec.values
        for seed in spec.seeds
        for mode in (Mode.CENTRALIZED, Mode.DISTRIBUTED)
    ]
    runs = _runs(spec.graph, spec.base_integrator, [
        (replace(spec.base_dynamics, mode=mode, **{spec.parameter: value}), seed)
        for value, seed, mode in grid
    ], threshold, hold_samples, threads)
    rows = [
        SweepRow(value, seed, mode.value, r.lock_time, r.final_R, r.final_error, r.energy, r.cut)
        for (value, seed, mode), r in zip(grid, runs)
    ]
    rows.sort(key=lambda r: (r.parameter_value, r.seed, r.mode))
    return rows


def _median(values: Iterable[float]) -> float | None:
    vals = list(values)
    return float(np.median(vals)) if vals else None


def compare_modes(
    graph: MaxCutInstance,
    dyn: DynamicsConfig,
    icfg: IntegratorConfig,
    seeds: Sequence[int],
    threshold: float = LOCK_THRESHOLD,
    hold_samples: int = LOCK_HOLD_SAMPLES,
    threads: int = 1,
) -> ComparisonSummary:
    """Paired distributed/centralized runs sharing initial phases per seed.

    Reports the ratio of median lock times, the fraction of locked pairs
    where distributed is strictly faster, and each mode's median final error
    over its completed (not diverged) runs, None if none completed.  A mode
    with fewer than half its runs locked is flagged as non-locking and
    contributes no median lock time.  Raises the last DivergenceError if every run diverged.
    """
    for s in seeds:
        check_int("compare.seeds", s, minimum=0)
    seeds = [int(s) for s in seeds]
    if len(seeds) < 10:
        raise ValueError(f"need at least 10 seeds, got {len(seeds)}")
    modes = (Mode.DISTRIBUTED, Mode.CENTRALIZED)
    runs = _runs(graph, icfg, [(replace(dyn, mode=mode), seed) for seed in seeds for mode in modes],
                 threshold, hold_samples, threads)
    # runs alternate distributed, centralized; both of a seed share its init
    by_mode = {mode.value: runs[k::len(modes)] for k, mode in enumerate(modes)}
    locks = {m: [r.lock_time for r in rs] for m, rs in by_mode.items()}
    errors = {m: _median(r.final_error for r in rs if r.error is None) for m, rs in by_mode.items()}
    non_locking = tuple(
        m for m in ("distributed", "centralized")
        if sum(t is not None for t in locks[m]) < len(seeds) / 2
    )
    med = {
        m: (None if m in non_locking else _median(t for t in locks[m] if t is not None))
        for m in locks
    }
    pairs = [
        (d, c) for d, c in zip(locks["distributed"], locks["centralized"])
        if d is not None and c is not None
    ]
    wins = sum(1 for d, c in pairs if d < c)
    speedup = None
    if med["distributed"] and med["centralized"] is not None:  # c / 0 has no value
        speedup = med["centralized"] / med["distributed"]
    return ComparisonSummary(
        median_lock_distributed=med["distributed"],
        median_lock_centralized=med["centralized"],
        speedup=speedup,
        win_fraction=(wins / len(pairs)) if pairs else None,
        median_error_distributed=errors["distributed"],
        median_error_centralized=errors["centralized"],
        n_seeds=len(seeds),
        n_locked_pairs=len(pairs),
        non_locking_modes=non_locking,
    )


def solve(
    g: MaxCutInstance,
    attempts: int,
    dyn: DynamicsConfig,
    icfg: IntegratorConfig,
    threshold: float = LOCK_THRESHOLD,
    hold_samples: int = LOCK_HOLD_SAMPLES,
    threads: int = 1,
) -> SolveResult:
    """Best cut over seeded attempts; attempt k runs with seed icfg.seed + k.

    Ties on the cut value resolve to the lowest attempt seed.  Raises the
    last DivergenceError if every attempt diverges.
    """
    check_int("solve.attempts", attempts, minimum=1)
    seeds = [icfg.seed + k for k in range(attempts)]
    runs = _runs(g, icfg, [(dyn, seed) for seed in seeds], threshold, hold_samples, threads)
    completed = [(seed, r) for seed, r in zip(seeds, runs) if r.error is None]
    best_seed, best = max(completed, key=lambda item: item[1].cut)
    return SolveResult(
        spins=best.spins,
        cut=best.cut,
        energy=best.energy,
        attempts=attempts,
        lock_fraction=sum(r.lock_time is not None for _, r in completed) / len(completed),
        best_seed=best_seed,
    )


def sweep_to_csv(
    parameter: str, rows: Sequence[SweepRow], config_comment: str | None = None
) -> str:
    """Canonical CSV; an absent lock time serializes as an empty field."""
    lines = []
    if config_comment is not None:
        lines.append(f"# config: {config_comment}")
    lines.append("param,value,seed,mode,lock_time,final_R,final_error,final_energy,best_cut")
    for r in rows:
        lt = "" if r.lock_time is None else repr(float(r.lock_time))
        lines.append(
            f"{parameter},{r.parameter_value!r},{r.seed},{r.mode},{lt},"
            f"{float(r.final_R)!r},{float(r.final_error)!r},"
            f"{float(r.final_energy)!r},{float(r.best_cut)!r}"
        )
    return "\n".join(lines) + "\n"
