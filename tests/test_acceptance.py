"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The headline circuit-level numbers of the source system (absolute
microsecond lock times, power) are out of scope; speed claims are checked
as ratios and trends at desk scale.
"""
import hashlib
import itertools
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from oimsim import (
    DynamicsConfig,
    InjectionVariant,
    IntegratorConfig,
    IsingInstance,
    Mode,
    SpinAssignment,
    SweepSpec,
    brute_force_ground_state,
    compare_modes,
    cut_value,
    hamiltonian_energy,
    initial_phases,
    integrate,
    ising_from_maxcut,
    parse_graph,
    random_instance,
    reference_graph,
    run_sweep,
    solve,
)
from oimsim.cli import data_path
from oimsim.dynamics import PhaseState, potential_energy, rhs
from oimsim.metrics import binarize, order_parameter, phase_lock_error

# transistor-level OIM implementations report roughly a 3.2x
# centralized-to-distributed lock-time ratio; shown for context, never
# enforced by this phase-domain model
CIRCUIT_RATIO = 3.2


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def solve_corpus():
    """50 seeded instances with n <= 8, mixed sizes and densities."""
    for i in range(50):
        n = 4 + (i % 5)
        density = 1.0 if i % 2 == 0 else 0.6
        yield random_instance(n, density, "pm1", seed=7000 + i)


def test_criterion_1_oracle_equivalence():
    started = time.monotonic()
    dyn = DynamicsConfig(noise_amplitude=0.01)
    icfg = IntegratorConfig(dt=0.01, t_end=20.0, record_every=10)
    exact = 0
    ratios = []
    for g in solve_corpus():
        _, ground, _ = brute_force_ground_state(ising_from_maxcut(g))
        optimum = (g.total_weight - ground) / 2.0
        result = solve(g, 20, dyn, icfg)
        if abs(result.cut - optimum) <= 1e-9:
            exact += 1
        ratios.append(1.0 if optimum == 0.0 else result.cut / optimum)
    elapsed = time.monotonic() - started
    mean_ratio = float(np.mean(ratios))
    ok = exact >= 40 and mean_ratio >= 0.95 and elapsed < 60.0
    report(1, "oracle equivalence", ok,
           f"exact {exact}/50, mean cut ratio {mean_ratio:.4f}, {elapsed:.1f}s (< 60s)")


def test_criterion_2_cut_energy_identity():
    worst = 0.0
    for i in range(20):
        n = 4 + (i % 7)
        g = random_instance(n, 0.8, "uniform" if i % 2 else "pm1", seed=4000 + i)
        inst = ising_from_maxcut(g)
        W = g.total_weight
        for bits in itertools.product((1.0, -1.0), repeat=n):
            s = SpinAssignment(np.array(bits))
            gap = abs(cut_value(g, s) - (W - hamiltonian_energy(inst, s)) / 2.0)
            worst = max(worst, gap)
    ok = worst <= 1e-12
    report(2, "cut-energy identity", ok,
           f"max |cut - (W - H)/2| = {worst:.2e} over 20 fully enumerated instances")


def test_criterion_3_distributed_speedup():
    started = time.monotonic()
    summary = compare_modes(
        reference_graph(),
        DynamicsConfig(injection_variant=InjectionVariant.ADLER),
        IntegratorConfig(dt=0.01, t_end=100.0, record_every=10),
        seeds=range(50),
    )
    elapsed = time.monotonic() - started
    ok = (
        summary.win_fraction is not None
        and summary.win_fraction >= 0.8
        and summary.speedup is not None
        and summary.speedup >= 1.5
        and elapsed < 120.0
    )
    report(3, "distributed vs centralized speedup", ok,
           f"win fraction {summary.win_fraction:.2f} (>= 0.8), "
           f"median speedup {summary.speedup:.2f}x (>= 1.5), "
           f"{summary.n_locked_pairs}/50 pairs locked, {elapsed:.1f}s (< 120s); "
           f"circuit-level ratio {CIRCUIT_RATIO:.2f}x reported, not enforced")


def test_criterion_4_coupling_threshold():
    values = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 2.0)
    spec = SweepSpec(
        parameter="sigma",
        values=values,
        seeds=tuple(range(10)),
        base_dynamics=DynamicsConfig(kappa_s=0.0),
        base_integrator=IntegratorConfig(dt=0.01, t_end=30.0, record_every=10),
        graph=reference_graph(),
    )
    rows = [r for r in run_sweep(spec) if r.mode == "distributed"]
    med_r = {}
    lock_frac = {}
    for v in values:
        sel = [r for r in rows if r.parameter_value == v]
        med_r[v] = float(np.median([r.final_R for r in sel]))
        lock_frac[v] = float(np.mean([r.lock_time is not None for r in sel]))
    fracs = [lock_frac[v] for v in values]
    inversions = sum(1 for a, b in zip(fracs, fracs[1:]) if b < a)
    ok = med_r[values[0]] < 0.5 and med_r[values[-1]] > 0.9 and inversions <= 1
    report(4, "coupling threshold", ok,
           f"median R {med_r[values[0]]:.3f} at sigma={values[0]} (< 0.5), "
           f"{med_r[values[-1]]:.3f} at sigma={values[-1]} (> 0.9), "
           f"lock fractions {fracs} with {inversions} inversion(s) (<= 1)")


def test_criterion_5_injection_saturation():
    values = (0.5, 1.0, 2.0, 4.0, 6.0, 8.0)
    g = parse_graph(data_path("frustrated10.graph").read_text())
    spec = SweepSpec(
        parameter="kappa_s",
        values=values,
        seeds=tuple(range(10)),
        base_dynamics=DynamicsConfig(sigma=1.0),
        base_integrator=IntegratorConfig(dt=0.01, t_end=30.0, record_every=10),
        graph=g,
    )
    rows = [r for r in run_sweep(spec) if r.mode == "distributed"]
    medians = []
    for v in values:
        locked = [r.lock_time for r in rows
                  if r.parameter_value == v and r.lock_time is not None]
        assert len(locked) >= 5, f"too few locked runs at kappa_s={v}"
        medians.append(float(np.median(locked)))
    inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
    gain_small = medians[0] - medians[1]
    gain_large = medians[-2] - medians[-1]
    ok = inversions <= 1 and gain_large < 0.2 * gain_small
    report(5, "injection-strength saturation", ok,
           f"median lock times {[round(m, 2) for m in medians]}, "
           f"{inversions} inversion(s) (<= 1), late gain {gain_large:.2f} "
           f"< 20% of early gain {gain_small:.2f}")


def test_criterion_6_gradient_flow():
    rng = np.random.default_rng(77)
    J = rng.uniform(-1, 1, (8, 8))
    J = np.triu(J, 1)
    inst = IsingInstance(n=8, couplings=J + J.T)
    dyn = DynamicsConfig(sigma=1.0, kappa_s=0.75, mode=Mode.DISTRIBUTED)

    step = 1e-5
    worst_rel = 0.0
    for _ in range(100):
        theta = rng.uniform(0, 2 * np.pi, 8)
        v = rhs(inst, dyn, PhaseState(theta))
        grad = np.empty(8)
        for i in range(8):
            hi = theta.copy(); hi[i] += step
            lo = theta.copy(); lo[i] -= step
            grad[i] = (
                potential_energy(inst, dyn, PhaseState(hi))
                - potential_energy(inst, dyn, PhaseState(lo))
            ) / (2 * step)
        worst_rel = max(worst_rel, float(np.max(np.abs(v + grad)) / np.max(np.abs(v))))

    icfg = IntegratorConfig(dt=0.01, t_end=20.0, record_every=10)
    frustrated = ising_from_maxcut(parse_graph(data_path("frustrated10.graph").read_text()))
    worst_rise = -np.inf
    for instance, seeds in ((inst, range(10)), (frustrated, range(10))):
        for seed in seeds:
            traj = integrate(instance, dyn, icfg, initial_phases(instance.n, seed))
            energies = np.array([
                potential_energy(instance, dyn, PhaseState(row, t))
                for row, t in zip(traj.states, traj.times)
            ])
            worst_rise = max(worst_rise, float(np.max(np.diff(energies))))
    ok = worst_rel < 1e-6 and worst_rise <= 1e-9
    report(6, "gradient-flow correctness", ok,
           f"max relative gradient mismatch {worst_rel:.2e} (< 1e-6), "
           f"max potential rise per recorded step {worst_rise:.2e} (<= 1e-9) "
           f"over 20 noiseless trajectories")


def test_criterion_7_integrator_order():
    rng = np.random.default_rng(6)
    J = rng.uniform(-1, 1, (5, 5))
    J = np.triu(J, 1)
    inst = IsingInstance(n=5, couplings=J + J.T)
    dyn = DynamicsConfig(mode=Mode.COUPLED_ONLY, sigma=0.8)
    start = initial_phases(5, 1)

    def endpoint(dt):
        icfg = IntegratorConfig(dt=dt, t_end=4.0, record_every=int(round(4.0 / dt)))
        return integrate(inst, dyn, icfg, start).states[-1]

    ref = endpoint(0.04 / 8)
    err_coarse = float(np.max(np.abs(endpoint(0.04) - ref)))
    err_fine = float(np.max(np.abs(endpoint(0.02) - ref)))
    factor = err_coarse / err_fine
    ok = factor >= 12.0
    report(7, "integrator order", ok,
           f"halving dt shrinks endpoint error by {factor:.1f}x (>= 12): "
           f"{err_coarse:.3e} -> {err_fine:.3e} against a dt/8 reference")


def test_criterion_8_metric_properties():
    rng = np.random.default_rng(31)
    r_ok = True
    for _ in range(10_000):
        r = order_parameter(PhaseState(rng.uniform(-20, 20, 10)))
        if not 0.0 <= r <= 1.0:
            r_ok = False
            break

    binary_ok = True
    for bits in itertools.product((0.0, np.pi), repeat=8):
        state = PhaseState(np.array(bits))
        if not (order_parameter(state) == pytest.approx(1.0, abs=1e-12)
                and phase_lock_error(state) < 1e-9):
            binary_ok = False
            break

    hand = phase_lock_error(PhaseState([0.0, 0.0, np.pi / 4]))
    hand_ok = abs(hand - 1.2867464761861316) < 1e-6

    g = random_instance(10, 1.0, "pm1", seed=8)
    flip_ok = True
    for _ in range(100):
        theta = rng.uniform(0, 2 * np.pi, 10)
        a = binarize(PhaseState(theta), 0.0)
        b = binarize(PhaseState(theta + np.pi), 0.0)
        if not (np.array_equal(a.spins, -b.spins)
                and cut_value(g, a) == cut_value(g, b)):
            flip_ok = False
            break

    ok = r_ok and binary_ok and hand_ok and flip_ok
    report(8, "metric properties", ok,
           f"R in [0,1] on 10^4 states: {r_ok}; R=1 and e=0 on all 256 binary "
           f"patterns: {binary_ok}; hand-computed error {hand:.7f} within 1e-6: "
           f"{hand_ok}; pi-flip cut invariance on 100 states: {flip_ok}")


def test_criterion_9_determinism(tmp_path):
    def run_cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "oimsim", *map(str, args)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    sweep_cfg = tmp_path / "sweep.json"
    sweep_cfg.write_text(json.dumps({
        "sweep": {"parameter": "sigma", "values": [0.01, 1.0], "seeds": [0, 1, 2]},
        "integrator": {"t_end": 5.0},
    }))
    compare_cfg = tmp_path / "compare.json"
    compare_cfg.write_text(json.dumps({
        "dynamics": {"injection_variant": "adler"},
        "integrator": {"t_end": 15.0},
        "compare": {"seeds": list(range(10))},
    }))

    digests = {"sweep": set(), "compare": set()}
    for threads in (1, 4, 8):
        for repeat in (0, 1):
            out_csv = tmp_path / f"s{threads}_{repeat}.csv"
            run_cli("sweep", sweep_cfg, out_csv, "--threads", threads, "--quiet")
            digests["sweep"].add(hashlib.sha256(out_csv.read_bytes()).hexdigest())
            out_json = tmp_path / f"c{threads}_{repeat}.json"
            run_cli("compare", compare_cfg, out_json, "--threads", threads, "--quiet")
            digests["compare"].add(hashlib.sha256(out_json.read_bytes()).hexdigest())

    ok = len(digests["sweep"]) == 1 and len(digests["compare"]) == 1
    report(9, "determinism", ok,
           f"sweep and compare outputs byte-identical across thread counts "
           f"1/4/8 and repeats: {len(digests['sweep'])} and "
           f"{len(digests['compare'])} distinct digests (want 1 each)")
