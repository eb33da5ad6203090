"""Integration scheme: exactness, convergence order, determinism, noise, export."""
import importlib
import math

import numpy as np
import pytest

from oimsim import (
    ConfigError,
    DivergenceError,
    DynamicsConfig,
    IntegratorConfig,
    IsingInstance,
    Mode,
    initial_phases,
    integrate,
    trajectory_to_csv,
)
from oimsim.dynamics import PhaseState, make_rhs, potential_energy
from oimsim.integrate import Trajectory, _noise_rng


def pair(j12=1.0):
    return IsingInstance(n=2, couplings=[[0.0, j12], [j12, 0.0]])


def random_system(n, seed):
    rng = np.random.default_rng(seed)
    J = rng.uniform(-1, 1, (n, n))
    J = np.triu(J, 1)
    return IsingInstance(n=n, couplings=J + J.T)


def sparse_system(n, density, seed):
    rng = np.random.default_rng(seed)
    J = np.triu(rng.choice([-1.0, 1.0], (n, n)) * (rng.random((n, n)) < density), 1)
    return IsingInstance(n=n, couplings=J + J.T)


def reference_integrate(inst, dyn, icfg, init) -> np.ndarray:
    """Recorded phase rows of an in-place stepper on the same make_rhs, whose
    RK4 stages and EM drift accumulate into n-long buffers and whose samples
    are appended to a list; integrate must give the same bits, and raise
    DivergenceError at the same step."""
    f = make_rhs(inst, dyn)
    dt, stride = icfg.dt, icfg.record_every
    theta = init.phases.copy()
    rows = [theta.copy()]
    n = theta.size
    stage = np.empty(n)
    noisy = dyn.noise_amplitude > 0.0
    if noisy:
        rng = _noise_rng(icfg.seed)
        noise_scale = dyn.noise_amplitude * math.sqrt(dt)
    for step in range(icfg.n_steps):
        t = step * dt
        if noisy:
            drift = f(theta, t)
            drift *= dt
            theta += drift
            theta += noise_scale * rng.standard_normal(n)
        else:
            k1 = f(theta, t)
            np.multiply(k1, 0.5 * dt, out=stage)
            stage += theta
            k2 = f(stage, t + 0.5 * dt)
            np.multiply(k2, 0.5 * dt, out=stage)
            stage += theta
            k3 = f(stage, t + 0.5 * dt)
            np.multiply(k3, dt, out=stage)
            stage += theta
            k4 = f(stage, t + dt)
            np.add(k2, k3, out=stage)
            stage *= 2.0
            stage += k1
            stage += k4
            stage *= dt / 6.0
            theta += stage
        if not np.isfinite(theta).all():
            raise DivergenceError(step)
        if (step + 1) % stride == 0:
            rows.append(theta.copy())
    if icfg.n_steps % stride:
        rows.append(theta.copy())
    return np.array(rows)


class TestInitialPhases:
    def test_deterministic(self):
        a = initial_phases(12, 4)
        b = initial_phases(12, 4)
        assert np.array_equal(a.phases, b.phases)
        assert a.time == 0.0

    def test_range_single(self):
        p = initial_phases(1, 0)
        assert 0.0 <= p.phases[0] < 2 * np.pi

    def test_law_of_large_numbers(self):
        p = initial_phases(1000, 3)
        assert abs(np.cos(p.phases).mean()) < 0.1


class TestIntegrationAccuracy:
    def test_constant_rhs_exact(self):
        inst = IsingInstance(n=1, couplings=[[0.0]])
        dyn = DynamicsConfig(sigma=0.0, mode=Mode.FREE, natural_freqs=[1.0])
        icfg = IntegratorConfig(dt=0.01, t_end=1.0, record_every=1)
        start = PhaseState([0.3])
        traj = integrate(inst, dyn, icfg, start)
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert traj.states[-1, 0] == pytest.approx(1.3, abs=1e-12)

    def test_pair_relaxation_matches_closed_form(self):
        # dDelta/dt = -2 sigma sin(Delta) has the exact solution
        # Delta(t) = 2 atan(tan(Delta0 / 2) * exp(-2 sigma t))
        dyn = DynamicsConfig(mode=Mode.COUPLED_ONLY, sigma=1.0)
        icfg = IntegratorConfig(dt=0.01, t_end=20.0, record_every=10)
        traj = integrate(pair(), dyn, icfg, PhaseState([0.0, 1.0]))
        delta = traj.states[:, 0] - traj.states[:, 1]
        expected = 2.0 * np.arctan(np.tan(-0.5) * np.exp(-2.0 * traj.times))
        assert np.max(np.abs(delta - expected)) < 1e-6
        assert abs(delta[-1]) < 1e-3

    def test_rk4_order_four(self):
        inst = random_system(5, seed=6)
        dyn = DynamicsConfig(mode=Mode.COUPLED_ONLY, sigma=0.8)
        start = initial_phases(5, 1)

        def endpoint(dt):
            icfg = IntegratorConfig(dt=dt, t_end=4.0, record_every=int(round(4.0 / dt)))
            return integrate(inst, dyn, icfg, start).states[-1]

        ref = endpoint(0.04 / 8)
        err_coarse = np.max(np.abs(endpoint(0.04) - ref))
        err_fine = np.max(np.abs(endpoint(0.02) - ref))
        assert err_coarse / err_fine >= 12.0


class TestDeterminismAndSymmetry:
    def test_bit_identical_noiseless(self):
        inst = random_system(6, seed=2)
        dyn = DynamicsConfig()
        icfg = IntegratorConfig(dt=0.01, t_end=5.0, record_every=5, seed=3)
        init = initial_phases(6, 3)
        a = integrate(inst, dyn, icfg, init)
        b = integrate(inst, dyn, icfg, init)
        assert np.array_equal(a.states, b.states)

    def test_bit_identical_with_noise(self):
        inst = random_system(6, seed=2)
        dyn = DynamicsConfig(noise_amplitude=0.05)
        icfg = IntegratorConfig(dt=0.01, t_end=5.0, record_every=5, seed=3)
        init = initial_phases(6, 3)
        a = integrate(inst, dyn, icfg, init)
        b = integrate(inst, dyn, icfg, init)
        assert np.array_equal(a.states, b.states)

    def test_noise_changes_path_and_seeds_differ(self):
        inst = random_system(6, seed=2)
        icfg = IntegratorConfig(dt=0.01, t_end=2.0, record_every=5, seed=3)
        init = initial_phases(6, 3)
        quiet = integrate(inst, DynamicsConfig(), icfg, init)
        noisy = integrate(inst, DynamicsConfig(noise_amplitude=0.05), icfg, init)
        other = integrate(
            inst, DynamicsConfig(noise_amplitude=0.05),
            IntegratorConfig(dt=0.01, t_end=2.0, record_every=5, seed=4), init,
        )
        assert not np.array_equal(quiet.states, noisy.states)
        assert not np.array_equal(noisy.states, other.states)

    @pytest.mark.parametrize("noise", [0.0, 0.05], ids=["rk4", "em"])
    @pytest.mark.parametrize("inst", [
        random_system(10, seed=2),
        sparse_system(600, 0.06, seed=2),
    ], ids=["dense10", "sparse600"])
    def test_same_bits_as_the_buffered_stepper(self, inst, noise):
        assert inst.sparse == (inst.n == 600)
        dyn = DynamicsConfig(sigma=0.5, noise_amplitude=noise)
        icfg = IntegratorConfig(dt=0.01, t_end=2.0, record_every=7, seed=3)
        init = initial_phases(inst.n, 3)
        traj = integrate(inst, dyn, icfg, init)
        assert icfg.n_steps % icfg.record_every != 0
        assert np.array_equal(traj.states, reference_integrate(inst, dyn, icfg, init))

    @pytest.mark.parametrize("noise", [0.0, 0.05], ids=["rk4", "em"])
    def test_diverges_at_the_same_step_as_the_buffered_stepper(self, noise):
        # a natural frequency of 1e307 overflows the phase after about 180
        # steps of dt = 0.1; the RK4 stage sums stay below the largest float
        dyn = DynamicsConfig(sigma=0.0, mode=Mode.FREE, natural_freqs=[1e307, -1e307, 0.5],
                             noise_amplitude=noise)
        icfg = IntegratorConfig(dt=0.1, t_end=20.0, record_every=7, seed=3)
        inst, init = random_system(3, seed=1), initial_phases(3, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as got:
                integrate(inst, dyn, icfg, init)
            with pytest.raises(DivergenceError) as want:
                reference_integrate(inst, dyn, icfg, init)
        assert 100 < got.value.step == want.value.step < icfg.n_steps

    def test_global_shift_equivariance(self):
        inst = random_system(5, seed=7)
        dyn = DynamicsConfig(mode=Mode.COUPLED_ONLY, sigma=1.0)
        icfg = IntegratorConfig(dt=0.01, t_end=5.0, record_every=10)
        init = initial_phases(5, 11)
        base = integrate(inst, dyn, icfg, init)
        shifted = integrate(
            inst, dyn, icfg, PhaseState(init.phases + 1.234, init.time)
        )
        assert np.max(np.abs(shifted.states - base.states - 1.234)) < 1e-9


class TestGradientDescent:
    def test_potential_non_increasing(self):
        inst = random_system(8, seed=9)
        dyn = DynamicsConfig(sigma=1.0, kappa_s=0.75, mode=Mode.DISTRIBUTED)
        icfg = IntegratorConfig(dt=0.01, t_end=10.0, record_every=10)
        for seed in range(3):
            traj = integrate(inst, dyn, icfg, initial_phases(8, seed))
            energies = [
                potential_energy(inst, dyn, PhaseState(row, t))
                for row, t in zip(traj.states, traj.times)
            ]
            diffs = np.diff(energies)
            assert np.all(diffs <= 1e-9)


class TestDivergenceDetection:
    def test_nan_rhs_raises_with_step_index(self, monkeypatch):
        calls = {"n": 0}

        def bad_rhs(inst, cfg):
            def f(theta, t, out=None):
                calls["n"] += 1
                res = np.zeros_like(theta) if out is None else out
                res[:] = 0.0
                if calls["n"] > 8:
                    res[0] = np.nan
                return res
            return f

        integrate_module = importlib.import_module("oimsim.integrate")
        monkeypatch.setattr(integrate_module, "make_rhs", bad_rhs)
        inst = pair()
        icfg = IntegratorConfig(dt=0.01, t_end=1.0, record_every=1)
        with pytest.raises(DivergenceError) as exc:
            integrate(inst, DynamicsConfig(), icfg, PhaseState([0.0, 1.0]))
        assert exc.value.step == 2  # steps 0 and 1 used calls 1-8


class TestConfigAndExport:
    def test_dt_bounds(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=1.0, t_end=0.5)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=1e-10, t_end=100.0)

    def test_t_end_must_be_a_multiple_of_dt(self):
        with pytest.raises(ValueError, match=r"t_end 0\.1 .* dt 0\.03"):
            IntegratorConfig(dt=0.03, t_end=0.1)
        assert IntegratorConfig(dt=0.005, t_end=4.0).n_steps == 800
        assert IntegratorConfig(dt=0.01, t_end=1.05).n_steps == 105

    @pytest.mark.parametrize("key", ["record_every", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "3"])
    def test_integer_fields_reject_non_integers(self, key, value):
        with pytest.raises(ConfigError, match=f"integrator.{key} must be an integer"):
            IntegratorConfig(dt=0.1, t_end=2.0, **{key: value})
        assert IntegratorConfig(dt=0.1, t_end=2.0, **{key: np.int64(3)}).n_samples >= 1

    def test_trajectory_rejects_non_finite_phase_rows(self):
        with pytest.raises(ValueError, match="finite"):
            Trajectory([0, 1], [[np.nan, 0], [0.1, 3.0]])
        with pytest.raises(ValueError, match="finite"):
            Trajectory([0, 1], [[0.0, 0.0], [np.inf, 3.0]])

    def test_trajectory_copies_the_callers_arrays(self):
        times, states = np.array([0.0, 0.5]), np.array([[0.1, 0.2], [0.3, 0.4]])
        traj = Trajectory(times, states)
        assert times.flags.writeable and states.flags.writeable
        times[1], states[1, 0] = 9.0, 9.0
        assert traj.times[1] == 0.5 and traj.states[1, 0] == 0.3
        for arr in (traj.times, traj.states):
            assert not arr.flags.writeable

    def test_integrated_trajectory_is_read_only(self):
        traj = integrate(pair(), DynamicsConfig(), IntegratorConfig(dt=0.01, t_end=0.2),
                         PhaseState([0.1, 0.2]))
        for arr in (traj.times, traj.states):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_final_step_recorded_off_the_record_grid(self):
        inst = pair()
        start = PhaseState([0.1, 2.0])
        coarse = integrate(inst, DynamicsConfig(), IntegratorConfig(dt=0.01, t_end=1.05), start)
        fine = integrate(
            inst, DynamicsConfig(), IntegratorConfig(dt=0.01, t_end=1.05, record_every=1), start
        )
        assert coarse.times[-1] == pytest.approx(1.05, abs=1e-12)
        assert coarse.times[-2] == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(coarse.states[-1], fine.states[-1])

    @pytest.mark.parametrize("t_end, record_every", [(1.0, 25), (1.05, 10), (0.2, 1), (0.2, 50)])
    def test_n_samples_counts_recorded_rows(self, t_end, record_every):
        icfg = IntegratorConfig(dt=0.01, t_end=t_end, record_every=record_every)
        traj = integrate(pair(), DynamicsConfig(), icfg, PhaseState([0.1, 0.2]))
        assert len(traj.times) == icfg.n_samples

    def test_record_grid(self):
        inst = pair()
        icfg = IntegratorConfig(dt=0.01, t_end=1.0, record_every=25)
        traj = integrate(inst, DynamicsConfig(), icfg, PhaseState([0.1, 0.2]))
        assert traj.times == pytest.approx(np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
        assert traj.states.shape == (5, 2)

    def test_csv_roundtrip(self):
        inst = pair()
        icfg = IntegratorConfig(dt=0.01, t_end=0.5, record_every=10)
        traj = integrate(inst, DynamicsConfig(), icfg, initial_phases(2, 1))
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,theta_0,theta_1"
        parsed = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        assert np.array_equal(parsed[:, 1:], traj.states)
        assert np.array_equal(parsed[:, 0], traj.times)
