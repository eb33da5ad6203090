"""Sweeps, the paired mode comparison, and the best-of-attempts solver."""
import importlib
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from oimsim import (
    ConfigError,
    DivergenceError,
    DynamicsConfig,
    InjectionVariant,
    IntegratorConfig,
    MaxCutInstance,
    Mode,
    SweepSpec,
    brute_force_ground_state,
    compare_modes,
    compute_traces,
    cut_value,
    initial_phases,
    integrate,
    ising_from_maxcut,
    lock_time,
    parse_graph,
    random_instance,
    reference_graph,
    run_sweep,
    score_trajectory,
    solve,
    sweep_to_csv,
)
from oimsim.cli import data_path
from oimsim.experiments import _Run, _run_once


def short_integrator(t_end=10.0):
    return IntegratorConfig(dt=0.01, t_end=t_end, record_every=10)


class TestReferenceInstance:
    def test_shape(self):
        g = reference_graph()
        assert g.n == 10
        assert len(g.edges) == 45
        assert all(abs(w) == 1.0 for _, _, w in g.edges)

    def test_planted_optimum(self):
        g = reference_graph()
        _, energy, degeneracy = brute_force_ground_state(ising_from_maxcut(g))
        assert energy == -45.0  # every pair satisfied
        assert degeneracy == 1
        assert (g.total_weight - energy) / 2.0 == 24.0


class TestRunSweep:
    def test_cardinality_and_order(self):
        spec = SweepSpec(
            parameter="sigma",
            values=(0.01, 1.0),
            seeds=(0, 1),
            base_dynamics=DynamicsConfig(),
            base_integrator=short_integrator(5.0),
            graph=reference_graph(),
        )
        rows = run_sweep(spec)
        assert len(rows) == 8  # 2 values x 2 seeds x 2 modes
        keys = [(r.parameter_value, r.seed, r.mode) for r in rows]
        assert keys == sorted(keys)

    def test_best_cut_is_cut_value_on_the_given_graph(self):
        # real weights listed out of row-major order: a cut summed over the
        # edges in any other order can differ in the last bits
        g = random_instance(12, 0.7, "uniform", seed=1)
        g = MaxCutInstance(n=g.n, edges=g.edges[::-1])
        dyn, icfg = DynamicsConfig(), short_integrator(5.0)
        spec = SweepSpec(parameter="sigma", values=(1.0,), seeds=(0, 1),
                         base_dynamics=dyn, base_integrator=icfg, graph=g)
        inst = ising_from_maxcut(g)
        for r in run_sweep(spec):
            run_dyn = replace(dyn, mode=r.mode, sigma=r.parameter_value)
            traj = integrate(inst, run_dyn, replace(icfg, seed=r.seed),
                             initial_phases(inst.n, r.seed))
            _, energy, cut = score_trajectory(traj, inst, g, run_dyn)
            assert (r.final_energy, r.best_cut) == (energy, cut)

    def test_zero_coupling_matches_random_phase_baseline(self):
        # with sigma = 0, kappa_s = 0, and no noise the phases never move, so
        # the final R is distributed like the Monte-Carlo random baseline
        spec = SweepSpec(
            parameter="sigma",
            values=(0.0, 1.0),
            seeds=tuple(range(10)),
            base_dynamics=DynamicsConfig(kappa_s=0.0),
            base_integrator=short_integrator(5.0),
            graph=reference_graph(),
        )
        rows = [r for r in run_sweep(spec)
                if r.parameter_value == 0.0 and r.mode == "distributed"]
        observed = np.array([r.final_R for r in rows])

        rng = np.random.default_rng(123)
        samples = np.abs(np.exp(2j * rng.uniform(0, 2 * np.pi, (4000, 10))).mean(axis=1))
        se = np.sqrt(samples.var() / observed.size + samples.var() / samples.size)
        assert abs(observed.mean() - samples.mean()) <= 3.0 * se

    def test_thread_count_does_not_change_rows(self):
        spec = SweepSpec(
            parameter="kappa_s",
            values=(0.5, 2.0),
            seeds=(0, 1, 2),
            base_dynamics=DynamicsConfig(),
            base_integrator=short_integrator(5.0),
            graph=reference_graph(),
        )
        serial = run_sweep(spec, threads=1)
        threaded = run_sweep(spec, threads=4)
        assert serial == threaded
        assert sweep_to_csv("kappa_s", serial) == sweep_to_csv("kappa_s", threaded)

    def test_csv_shape(self):
        spec = SweepSpec(
            parameter="sigma",
            values=(0.5,),
            seeds=(0,),
            base_dynamics=DynamicsConfig(),
            base_integrator=short_integrator(5.0),
            graph=reference_graph(),
        )
        text = sweep_to_csv("sigma", run_sweep(spec), config_comment="{}")
        lines = text.strip().split("\n")
        assert lines[0] == "# config: {}"
        assert lines[1] == "param,value,seed,mode,lock_time,final_R,final_error,final_energy,best_cut"
        assert len(lines) == 4
        assert lines[2].startswith("sigma,0.5,0,centralized,")

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(
                parameter="dt", values=(1.0,), seeds=(0,),
                base_dynamics=DynamicsConfig(),
                base_integrator=short_integrator(),
                graph=reference_graph(),
            )
        with pytest.raises(ValueError):
            SweepSpec(
                parameter="sigma", values=(1.0, 0.5), seeds=(0,),
                base_dynamics=DynamicsConfig(),
                base_integrator=short_integrator(),
                graph=reference_graph(),
            )


def frustrated10_kappa_rows(kappa_s):
    """Sweep rows of the bundled kappa sweep's setting (frustrated10, RK4,
    t_end 30) at one kappa_s, seeds 0 and 1: centralized and distributed
    per seed."""
    g = parse_graph(data_path("frustrated10.graph").read_text())
    spec = SweepSpec(
        parameter="kappa_s", values=(kappa_s,), seeds=(0, 1),
        base_dynamics=DynamicsConfig(sigma=1.0),
        base_integrator=IntegratorConfig(dt=0.01, t_end=30.0, record_every=10),
        graph=g,
    )
    rows = run_sweep(spec)
    assert [(r.seed, r.mode) for r in rows] == [
        (0, "centralized"), (0, "distributed"), (1, "centralized"), (1, "distributed")]
    return rows


class TestCentralizedCollapse:
    def test_strong_interference_locks_into_one_cluster_with_cut_zero(self):
        # today's model, pinned: the unweighted interference term grows like
        # kappa_s (n - 1), and at kappa_s = 2 on frustrated10 it pulls every
        # phase into one cluster.  R is 1, so the run "locks" (sooner than the
        # distributed run), but the readout is one spin everywhere: cut 0.
        rows = frustrated10_kappa_rows(2.0)
        for central, distributed in zip(rows[::2], rows[1::2]):
            assert central.best_cut == 0.0
            assert central.final_R == pytest.approx(1.0, abs=1e-12)
            assert central.lock_time is not None
            assert distributed.best_cut == 13.0  # the optimum
            assert distributed.lock_time is not None
            assert central.lock_time < distributed.lock_time


class TestDistributedStrongInjection:
    def test_strong_injection_locks_without_solving(self):
        # today's model, pinned: at kappa_s = 4 the injection outweighs the
        # problem coupling.  Every phase locks to 0 or pi, so R is 1 and the
        # run "locks", but the spins it reads out cut less than
        # frustrated10's optimum of 13.
        distributed = frustrated10_kappa_rows(4.0)[1::2]
        for row in distributed:
            assert row.final_R == pytest.approx(1.0, abs=1e-12)
            assert row.lock_time is not None
            assert row.best_cut < 13.0


class TestCompareModes:
    def test_zero_injection_gives_unit_speedup(self):
        # with kappa_s = 0 the two routings have identical dynamics
        summary = compare_modes(
            reference_graph(),
            DynamicsConfig(kappa_s=0.0),
            short_integrator(10.0),
            seeds=range(10),
        )
        assert summary.speedup == 1.0
        assert summary.win_fraction == 0.0  # ties are never strict wins
        assert summary.n_locked_pairs == 10
        assert summary.median_error_distributed == summary.median_error_centralized

    def test_requires_ten_seeds(self):
        with pytest.raises(ValueError):
            compare_modes(
                reference_graph(), DynamicsConfig(), short_integrator(), seeds=range(9)
            )

    def test_adler_comparison_smoke(self):
        summary = compare_modes(
            reference_graph(),
            DynamicsConfig(injection_variant=InjectionVariant.ADLER),
            IntegratorConfig(dt=0.01, t_end=60.0, record_every=10),
            seeds=range(10),
        )
        assert summary.n_seeds == 10
        assert summary.median_lock_distributed is not None
        assert summary.speedup is not None and summary.speedup > 1.0

    @pytest.mark.parametrize("distributed, centralized, speedup", [
        (1.0, 0.0, 0.0),     # a centralized median of 0 is a speedup of 0
        (0.5, 1.0, 2.0),
        (0.0, 1.0, None),    # c / 0 has no value
        (1.0, None, None),   # centralized never locks
        (None, 1.0, None),
    ])
    def test_speedup_is_null_only_without_a_ratio(self, monkeypatch, distributed,
                                                  centralized, speedup):
        experiments = importlib.import_module("oimsim.experiments")
        locks = {Mode.DISTRIBUTED: distributed, Mode.CENTRALIZED: centralized}

        def runs(graph, icfg, jobs, threshold, hold_samples, threads):
            return [_Run(lock_time=locks[dyn.mode], final_error=0.1) for dyn, _ in jobs]
        monkeypatch.setattr(experiments, "_runs", runs)
        summary = compare_modes(reference_graph(), DynamicsConfig(), short_integrator(),
                                seeds=range(10))
        assert summary.median_lock_distributed == distributed
        assert summary.median_lock_centralized == centralized
        assert summary.speedup == speedup


class TestSolve:
    def test_single_edge(self):
        g = MaxCutInstance(n=2, edges=((0, 1, 1.0),))
        result = solve(g, 5, DynamicsConfig(noise_amplitude=0.01), short_integrator())
        assert result.cut == 1.0
        assert result.energy == -1.0

    def test_frustrated_triangle(self):
        g = MaxCutInstance(n=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))
        result = solve(g, 20, DynamicsConfig(noise_amplitude=0.01), short_integrator())
        assert result.cut == 2.0

    def test_more_attempts_never_hurt(self):
        g = random_instance(8, 0.8, "pm1", seed=5)
        dyn = DynamicsConfig(noise_amplitude=0.01)
        one = solve(g, 1, dyn, short_integrator())
        twenty = solve(g, 20, dyn, short_integrator())
        assert twenty.cut >= one.cut

    def test_deterministic(self):
        g = random_instance(6, 1.0, "pm1", seed=2)
        dyn = DynamicsConfig(noise_amplitude=0.01)
        a = solve(g, 8, dyn, short_integrator(), threads=1)
        b = solve(g, 8, dyn, short_integrator(), threads=4)
        assert a.cut == b.cut
        assert a.best_seed == b.best_seed
        assert np.array_equal(a.spins.spins, b.spins.spins)

    def test_attempts_validation(self):
        g = MaxCutInstance(n=2, edges=((0, 1, 1.0),))
        with pytest.raises(ValueError):
            solve(g, 0, DynamicsConfig(), short_integrator())

    @pytest.mark.parametrize("attempts", [2.5, 2.0, True])
    def test_attempts_must_be_an_integer(self, attempts):
        g = MaxCutInstance(n=2, edges=((0, 1, 1.0),))
        with pytest.raises(ConfigError, match="solve.attempts must be an integer"):
            solve(g, attempts, DynamicsConfig(), short_integrator())

    def test_against_the_exact_oracle(self):
        # 24 random graphs, n in 3..10, density 0.3/0.6/1.0, pm1 or uniform(-1, 1)
        # weights; 4 attempts of t_end 20.  Over 300 graphs of the same draw
        # (seeds 0-299) this setting hit the optimum on 87.0% and the cut ratio
        # (1 on a hit) averaged 0.982; resampling 24 of them fell to 15 hits or
        # a mean ratio of 0.915 once in 1000, which sets both bounds.
        dyn = DynamicsConfig(noise_amplitude=0.01)
        icfg = IntegratorConfig(dt=0.01, t_end=20.0, record_every=10)
        hits, ratios = 0, []
        for seed in range(1000, 1024):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 11))
            density = float(rng.choice([0.3, 0.6, 1.0]))
            g = random_instance(n, density, str(rng.choice(["pm1", "uniform"])), seed=seed)
            _, ground, _ = brute_force_ground_state(ising_from_maxcut(g))
            optimum = (g.total_weight - ground) / 2.0
            result = solve(g, 4, dyn, icfg)
            assert result.cut == cut_value(g, result.spins)
            assert abs(result.cut - (g.total_weight - result.energy) / 2.0) <= 1e-9
            assert result.cut <= optimum + 1e-9
            hit = abs(result.cut - optimum) <= 1e-9
            hits += hit
            ratios.append(1.0 if hit else result.cut / optimum)
        assert hits >= 15
        assert np.mean(ratios) >= 0.91


class TestRunsOwner:
    """Every driver executes its runs through one _runs call, which checks the
    lock parameters once per driver call, not once per run."""

    @pytest.mark.parametrize("driver", ["run_sweep", "compare_modes", "solve"])
    def test_lock_params_are_checked_once_per_call(self, driver):
        experiments = importlib.import_module("oimsim.experiments")
        g, dyn, icfg = reference_graph(), DynamicsConfig(), short_integrator(6.0)
        calls = {
            "run_sweep": lambda: run_sweep(SweepSpec("sigma", (0.5, 1.0), (0, 1), dyn, icfg, g)),
            "compare_modes": lambda: compare_modes(g, dyn, icfg, seeds=range(10)),
            "solve": lambda: solve(g, 3, dyn, icfg),
        }
        with mock.patch.object(experiments, "check_lock_params",
                               wraps=experiments.check_lock_params) as check:
            calls[driver]()
        assert check.call_count == 1


class TestThreadedCSR:
    """The thread pool pays only on CSR graphs, where numpy releases the
    interpreter lock for long enough; there too each run keeps its bits."""

    @pytest.fixture(scope="class")
    def graph(self):
        g = random_instance(600, 0.06, "pm1", seed=7)
        assert ising_from_maxcut(g).sparse
        return g

    def test_solve(self, graph):
        dyn = DynamicsConfig(noise_amplitude=0.01)
        icfg = short_integrator(1.0)
        one, two = (solve(graph, 4, dyn, icfg, hold_samples=5, threads=t) for t in (1, 2))
        assert (one.cut, one.energy, one.best_seed, one.lock_fraction) == \
            (two.cut, two.energy, two.best_seed, two.lock_fraction)
        assert np.array_equal(one.spins.spins, two.spins.spins)

    def test_run_sweep(self, graph):
        spec = SweepSpec("kappa_s", (0.5, 2.0), (0, 1), DynamicsConfig(),
                         short_integrator(0.5), graph)
        one, two = (run_sweep(spec, hold_samples=5, threads=t) for t in (1, 2))
        assert sweep_to_csv("kappa_s", one) == sweep_to_csv("kappa_s", two)


class TestRunObservables:
    """What run_sweep, compare_modes and solve read from one run equals what
    the public pipeline, compute_traces -> lock_time -> the final row,
    reports for the same trajectory, bit for bit."""

    @pytest.mark.parametrize("graph", [
        reference_graph(),
        random_instance(600, 0.06, "pm1", seed=2),
    ], ids=["reference10-dense", "random600-sparse"])
    @pytest.mark.parametrize("noise", [0.0, 0.05], ids=["rk4", "em"])
    # the readout anchor is the injection phase in the injected modes, and
    # half the mean direction of the doubled phases in COUPLED_ONLY
    @pytest.mark.parametrize("mode", [Mode.DISTRIBUTED, Mode.CENTRALIZED, Mode.COUPLED_ONLY])
    def test_run_once_matches_public_pipeline(self, graph, noise, mode):
        inst = ising_from_maxcut(graph)
        dyn = DynamicsConfig(mode=mode, noise_amplitude=noise)
        icfg = IntegratorConfig(dt=0.01, t_end=10.0, record_every=10, seed=4)
        init = initial_phases(inst.n, 4)
        # a low threshold, so that the sparse runs, still disordered at
        # t = 10, cross it too
        threshold, hold = 0.2, 10
        run = _run_once(inst, graph, dyn, icfg, init, threshold, hold)
        traj = integrate(inst, dyn, icfg, init)
        traces = compute_traces(traj, inst, dyn)
        report = lock_time(traces, traj.times, threshold, hold)
        assert run.lock_time == report.lock_time
        assert (run.lock_time is not None) == report.locked
        assert run.final_R == traces.order_parameter[-1]
        assert run.final_error == traces.phase_error[-1]
        spins, energy, cut = score_trajectory(traj, inst, graph, dyn)
        assert np.array_equal(run.spins.spins, spins.spins)
        assert (run.energy, run.cut) == (energy, cut)


class TestDivergedRuns:
    """A run diverges only at extreme settings (sigma = 1e308 overflows the
    RHS), so here integrate is faked to diverge for chosen seeds; the error's
    step names the seed."""

    @pytest.fixture
    def diverge_for(self, monkeypatch):
        experiments = importlib.import_module("oimsim.experiments")
        real = experiments.integrate

        def install(seeds):
            def integrate(inst, dyn, icfg, init):
                if icfg.seed in seeds:
                    raise DivergenceError(icfg.seed)
                return real(inst, dyn, icfg, init)
            monkeypatch.setattr(experiments, "integrate", integrate)
        return install

    def test_diverged_run_has_no_lock_and_nan_observables(self, diverge_for):
        g = reference_graph()
        inst = ising_from_maxcut(g)
        diverge_for({3})
        run = _run_once(inst, g, DynamicsConfig(), replace(short_integrator(), seed=3),
                        initial_phases(inst.n, 3), 0.9, 10)
        assert run.error.step == 3
        assert (run.lock_time, run.spins) == (None, None)
        assert all(math.isnan(v) for v in (run.final_R, run.final_error, run.energy, run.cut))

    def test_solve_returns_best_completed_attempt(self, diverge_for):
        g = random_instance(8, 0.8, "pm1", seed=5)
        dyn = DynamicsConfig(noise_amplitude=0.01)
        icfg = short_integrator()
        alone = solve(g, 1, dyn, replace(icfg, seed=3))
        diverge_for({0, 1, 2, 4, 5})
        result = solve(g, 6, dyn, icfg)
        assert result.best_seed == 3
        assert result.cut == alone.cut
        assert np.array_equal(result.spins.spins, alone.spins.spins)

    def test_lock_fraction_counts_completed_attempts(self, diverge_for):
        g = MaxCutInstance(n=2, edges=((0, 1, 1.0),))
        dyn = DynamicsConfig(noise_amplitude=0.01)
        assert solve(g, 4, dyn, short_integrator()).lock_fraction == 1.0
        diverge_for({1, 2})
        result = solve(g, 4, dyn, short_integrator())
        assert result.attempts == 4
        assert result.lock_fraction == 1.0

    @pytest.mark.parametrize("driver, last_step", [
        # solve: seeds 0-2 at sigma 1, distributed
        (lambda g, dyn, icfg: solve(g, 3, dyn, icfg, threads=2), 210),
        # compare: (seed, mode) jobs, seed 9 centralized last
        (lambda g, dyn, icfg: compare_modes(g, dyn, icfg, seeds=range(10), threads=2), 911),
        # sweep: (value, seed, mode) jobs, sigma 2, seed 2 distributed last
        (lambda g, dyn, icfg: run_sweep(SweepSpec("sigma", (1.0, 2.0), (0, 1, 2), dyn, icfg, g),
                                        threads=2), 220),
    ], ids=["solve", "compare", "sweep"])
    def test_all_diverged_reraises_last_error(self, monkeypatch, driver, last_step):
        # each job's error names it: 100 seed + 10 sigma + 1 if centralized
        def integrate(inst, dyn, icfg, init):
            raise DivergenceError(int(100 * icfg.seed + 10 * dyn.sigma)
                                  + (dyn.mode is Mode.CENTRALIZED))
        monkeypatch.setattr(importlib.import_module("oimsim.experiments"), "integrate", integrate)
        g = MaxCutInstance(n=2, edges=((0, 1, 1.0),))
        with pytest.raises(DivergenceError) as exc:
            driver(g, DynamicsConfig(), short_integrator())
        assert exc.value.step == last_step

    def test_compare_median_error_is_over_completed_runs(self, diverge_for):
        g, dyn, icfg = reference_graph(), DynamicsConfig(), short_integrator()
        inst = ising_from_maxcut(g)
        others = [s for s in range(10) if s != 3]
        expected = [
            float(np.median([
                _run_once(inst, g, replace(dyn, mode=mode), replace(icfg, seed=s),
                          initial_phases(inst.n, s), 0.9, 10).final_error
                for s in others
            ]))
            for mode in (Mode.DISTRIBUTED, Mode.CENTRALIZED)
        ]
        diverge_for({3})
        summary = compare_modes(g, dyn, icfg, seeds=range(10))
        assert [summary.median_error_distributed, summary.median_error_centralized] == expected

    def test_diverged_sweep_rows_are_empty(self, diverge_for):
        diverge_for({1})
        spec = SweepSpec(
            parameter="sigma", values=(1.0,), seeds=(0, 1),
            base_dynamics=DynamicsConfig(),
            base_integrator=short_integrator(5.0),
            graph=reference_graph(),
        )
        rows = run_sweep(spec)
        assert len(rows) == 4
        for r in rows:
            observables = (r.final_R, r.final_error, r.final_energy, r.best_cut)
            if r.seed == 1:
                assert r.lock_time is None
                assert all(math.isnan(v) for v in observables)
            else:
                assert not any(math.isnan(v) for v in observables)
        lines = sweep_to_csv("sigma", rows).strip().split("\n")[1:]
        assert [ln.split(",")[4:] for ln in lines if ln.split(",")[2] == "1"] == [
            ["", "nan", "nan", "nan", "nan"]
        ] * 2
