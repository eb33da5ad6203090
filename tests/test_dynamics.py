"""Right-hand-side terms, mode composition, and the gradient-flow potential."""
import itertools
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oimsim import (
    DynamicsConfig,
    InjectionVariant,
    IsingInstance,
    Mode,
    SpinAssignment,
    hamiltonian_energy,
)
from oimsim import ising
from oimsim.dynamics import PhaseState, make_rhs, potential_energy, rhs
from oimsim.experiments import reference_graph
from oimsim.integrate import IntegratorConfig, initial_phases, integrate
from oimsim.ising import ising_from_maxcut, random_instance

COUPLING_PATHS = ["dense", "sparse"]


def on_path(path: str, inst: IsingInstance) -> IsingInstance:
    """The instance rebuilt from its dense J with the size-and-fill rule forced
    to keep that J ("dense") or to take CSR arrays of it ("sparse")."""
    if path == "dense":
        forced = {"_SPARSE_MIN_N": inst.n + 1}
    else:
        forced = {"_SPARSE_MIN_N": 1, "_SPARSE_FILL_DIVISOR": 1}
    with mock.patch.multiple(ising, **forced):
        out = IsingInstance(n=inst.n, couplings=inst.couplings, field=inst.field)
    assert out.sparse == (path == "sparse")
    return out


def rhs_via(path: str, inst: IsingInstance, cfg: DynamicsConfig):
    """make_rhs on the instance's couplings with the coupling path forced."""
    return make_rhs(on_path(path, inst), cfg)


def reference_injection_phase(cfg: DynamicsConfig, t: float) -> float:
    """Reference schedule theta_inj(t) = detuning * t + phase offset."""
    return cfg.injection_detuning * t + cfg.injection_phase


def drive_at(cfg: DynamicsConfig, t: float) -> float:
    """make_rhs's drive-only injection term at time t, -sin(theta_inj(t)),
    on two uncoupled oscillators."""
    cfg = replace(cfg, injection_variant=InjectionVariant.DRIVE_ONLY, kappa_s=1.0)
    return float(make_rhs(pair(0.0), cfg)(np.zeros(2), t)[0])


def injection_term(cfg: DynamicsConfig, theta_i: float, t: float) -> float:
    """Reference per-oscillator injection contribution for the configured variant."""
    th_inj = reference_injection_phase(cfg, t)
    if cfg.injection_variant is InjectionVariant.DRIVE_ONLY:
        return -cfg.kappa_s * np.sin(th_inj)
    if cfg.injection_variant is InjectionVariant.ADLER:
        return -cfg.kappa_s * np.sin(theta_i - th_inj)
    return -cfg.kappa_s * np.sin(2.0 * theta_i - th_inj)


def coupling_term(
    inst: IsingInstance, cfg: DynamicsConfig, state: PhaseState, i: int
) -> float:
    """Reference -sigma * sum_j J_ij sin(theta_i - theta_j) for a single oscillator."""
    theta = state.phases
    if theta.size != inst.n:
        raise ValueError(f"state length {theta.size} != instance n {inst.n}")
    return float(-cfg.sigma * inst.couplings[i] @ np.sin(theta[i] - theta))


def pair(j12=1.0):
    return IsingInstance(n=2, couplings=[[0.0, j12], [j12, 0.0]])


def random_system(n, seed):
    rng = np.random.default_rng(seed)
    J = rng.uniform(-1, 1, (n, n))
    J = np.triu(J, 1)
    return IsingInstance(n=n, couplings=J + J.T), rng


class TestInjectionSchedule:
    def test_constant_zero(self):
        cfg = DynamicsConfig()
        assert reference_injection_phase(cfg, 5.0) == 0.0
        assert drive_at(cfg, 5.0) == 0.0

    def test_linear_ramp(self):
        cfg = DynamicsConfig(injection_detuning=1.0)
        assert reference_injection_phase(cfg, np.pi) == pytest.approx(np.pi)
        for t in (0.5, 1.0, 2.5):
            assert drive_at(cfg, t) == pytest.approx(-math.sin(t), abs=1e-15)

    def test_constant_offset(self):
        cfg = DynamicsConfig(injection_phase=np.pi / 2)
        for t in (0.0, 1.0, 17.3):
            assert reference_injection_phase(cfg, t) == np.pi / 2
            assert drive_at(cfg, t) == pytest.approx(-1.0, abs=1e-15)


class TestInjectionTerm:
    def test_drive_only_vanishes_at_zero_schedule(self):
        cfg = DynamicsConfig(injection_variant=InjectionVariant.DRIVE_ONLY, kappa_s=2.0)
        for theta in (0.0, 1.0, np.pi / 3):
            assert injection_term(cfg, theta, 0.0) == 0.0

    def test_adler_difference(self):
        cfg = DynamicsConfig(injection_variant=InjectionVariant.ADLER, kappa_s=1.0)
        assert injection_term(cfg, np.pi / 2, 0.0) == pytest.approx(-1.0)

    def test_subharmonic(self):
        cfg = DynamicsConfig(injection_variant=InjectionVariant.SUBHARMONIC, kappa_s=1.0)
        assert injection_term(cfg, np.pi / 4, 0.0) == pytest.approx(-1.0)


class TestCouplingTerm:
    def test_pair_forward(self):
        cfg = DynamicsConfig(sigma=1.0)
        state = PhaseState([0.0, np.pi / 2])
        assert coupling_term(pair(), cfg, state, 0) == pytest.approx(1.0)

    def test_pair_antisymmetry(self):
        cfg = DynamicsConfig(sigma=1.0)
        state = PhaseState([0.0, np.pi / 2])
        assert coupling_term(pair(), cfg, state, 1) == pytest.approx(-1.0)

    def test_zero_coupling_strength(self):
        cfg = DynamicsConfig(sigma=0.0)
        state = PhaseState([0.3, 2.2])
        assert coupling_term(pair(), cfg, state, 0) == 0.0


class TestRhsMatchesReferenceTerms:
    @pytest.mark.parametrize("variant", list(InjectionVariant))
    @pytest.mark.parametrize("mode", [Mode.COUPLED_ONLY, Mode.DISTRIBUTED])
    def test_rhs_is_sum_of_per_oscillator_terms(self, mode, variant):
        inst, rng = random_system(9, seed=11)
        for _ in range(10):
            cfg = DynamicsConfig(
                sigma=rng.uniform(0.1, 2.0), kappa_s=rng.uniform(0.1, 2.0), mode=mode,
                injection_variant=variant, injection_phase=rng.uniform(-np.pi, np.pi),
                injection_detuning=rng.uniform(-1.0, 1.0),
            )
            state = PhaseState(rng.uniform(-10.0, 10.0, inst.n), rng.uniform(0.0, 20.0))
            expected = [
                coupling_term(inst, cfg, state, i)
                + (injection_term(cfg, state.phases[i], state.time) if cfg.has_injection else 0.0)
                for i in range(inst.n)
            ]
            assert np.max(np.abs(rhs(inst, cfg, state) - expected)) <= 1e-12


@st.composite
def symmetric_systems(draw, max_n=12):
    """(J, theta, t) with real couplings, some pairs and some whole rows zero,
    at fill levels on both sides of the sparse-path threshold."""
    n = draw(st.integers(1, max_n))
    density = draw(st.sampled_from([0.0, 0.05, 0.125, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.uniform(-2.0, 2.0, (n, n)) * (rng.random((n, n)) < density), 1)
    isolated = draw(arrays(bool, n))
    upper[isolated, :] = 0.0
    upper[:, isolated] = 0.0
    theta = draw(arrays(float, n, elements=st.floats(-10.0, 10.0)))
    return upper + upper.T, theta, draw(st.floats(0.0, 20.0))


def drawn_config(draw, mode, variant):
    return DynamicsConfig(
        sigma=draw(st.floats(0.0, 2.0)), kappa_s=draw(st.floats(0.0, 2.0)), mode=mode,
        injection_variant=variant, injection_phase=draw(st.floats(-np.pi, np.pi)),
        injection_detuning=draw(st.floats(-1.0, 1.0)),
    )


@st.composite
def rhs_cases(draw, max_n):
    """(inst, cfg, theta, t): a drawn system in a drawn mode and variant."""
    J, theta, t = draw(symmetric_systems(max_n=max_n))
    cfg = drawn_config(draw, draw(st.sampled_from(list(Mode))),
                       draw(st.sampled_from(list(InjectionVariant))))
    if cfg.mode is Mode.FREE:
        cfg = replace(cfg, natural_freqs=draw(
            arrays(float, theta.size, elements=st.floats(-1.0, 1.0))))
    return IsingInstance(n=theta.size, couplings=J), cfg, theta, t


def real_size_case():
    """An rhs case on an 800-vertex graph at 6% fill, the size the benchmark
    solves: rows hold 48 nonzeros on average and 71 at most, past the 64
    complex terms of numpy's pairwise-sum block."""
    inst = ising_from_maxcut(random_instance(800, 0.06, "uniform", seed=0))
    rng = np.random.default_rng(3)
    cfg = DynamicsConfig(sigma=1.3, kappa_s=0.8, mode=Mode.CENTRALIZED, injection_phase=0.4,
                         injection_detuning=0.2)
    return inst, cfg, rng.uniform(-10.0, 10.0, inst.n), 7.5


class TestRhsSymmetries:
    @settings(deadline=None)
    @given(data=st.data(), system=symmetric_systems(), case=st.sampled_from([
        (Mode.COUPLED_ONLY, InjectionVariant.SUBHARMONIC),
        (Mode.DISTRIBUTED, InjectionVariant.SUBHARMONIC),
        (Mode.DISTRIBUTED, InjectionVariant.DRIVE_ONLY),
    ]))
    def test_gauge_flip_leaves_rhs_unchanged(self, data, system, case):
        # negating row and column i of J and shifting theta_i by pi is the
        # spin flip s_i -> -s_i; the coupling sum and the phase-doubled or
        # phase-free injection terms are invariant under it
        J, theta, t = system
        path = data.draw(st.sampled_from(COUPLING_PATHS))
        cfg = drawn_config(data.draw, *case)
        flip = data.draw(arrays(bool, theta.size))
        d = np.where(flip, -1.0, 1.0)
        gauged = IsingInstance(n=theta.size, couplings=d[:, None] * J * d[None, :])
        before = rhs_via(path, IsingInstance(n=theta.size, couplings=J), cfg)(theta, t)
        after = rhs_via(path, gauged, cfg)(theta + np.pi * flip, t)
        assert np.max(np.abs(after - before)) <= 1e-12

    @settings(deadline=None)
    @given(data=st.data(), system=symmetric_systems(), mode=st.sampled_from(list(Mode)),
           variant=st.sampled_from(list(InjectionVariant)))
    def test_permutation_permutes_rhs(self, data, system, mode, variant):
        J, theta, t = system
        n = theta.size
        path = data.draw(st.sampled_from(COUPLING_PATHS))
        cfg = drawn_config(data.draw, mode, variant)
        freqs = np.zeros(n)
        if mode is Mode.FREE:
            freqs = data.draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
        p = np.array(data.draw(st.permutations(range(n))), dtype=int)
        before = rhs_via(path, IsingInstance(n=n, couplings=J),
                         replace(cfg, natural_freqs=freqs))(theta, t)
        after = rhs_via(path, IsingInstance(n=n, couplings=J[np.ix_(p, p)]),
                        replace(cfg, natural_freqs=freqs[p]))(theta[p], t)
        assert np.max(np.abs(after - before[p])) <= 1e-12


class TestCouplingPaths:
    @settings(deadline=None, max_examples=200)
    @given(case=rhs_cases(max_n=40))
    @example(case=real_size_case())
    def test_sparse_rhs_equals_dense_rhs(self, case):
        inst, cfg, theta, t = case
        dense = rhs_via("dense", inst, cfg)(theta, t)
        sparse = rhs_via("sparse", inst, cfg)(theta, t)
        assert np.max(np.abs(sparse - dense)) <= 1e-12

    def test_path_follows_size_and_fill(self):
        n = ising._SPARSE_MIN_N
        budget = n * n // ising._SPARSE_FILL_DIVISOR  # most nonzeros the sparse path takes
        rows, cols = np.triu_indices(n, 1)
        J = np.zeros((n, n))
        J[rows[:budget // 2], cols[:budget // 2]] = 1.0
        J += J.T
        assert np.count_nonzero(J) == budget
        assert IsingInstance(n=n, couplings=J).sparse
        J[rows[budget // 2], cols[budget // 2]] = J[cols[budget // 2], rows[budget // 2]] = 1.0
        assert not IsingInstance(n=n, couplings=J).sparse
        assert not IsingInstance(n=n - 1, couplings=np.zeros((n - 1, n - 1))).sparse

    @pytest.mark.parametrize("inst", [
        ising_from_maxcut(reference_graph()),
        random_system(40, seed=5)[0],
    ], ids=["reference10", "complete40"])
    def test_complete_graph_rhs_is_bit_equal_to_two_matvecs(self, inst):
        # bundled studies run on complete graphs; their artifacts depend on
        # the dense path computing exactly these expressions, in this order
        J = inst.couplings
        rng = np.random.default_rng(9)
        t = 1.3
        th_inj = 0.2 * t + 0.3
        for mode, variant in itertools.product(Mode, InjectionVariant):
            theta = rng.uniform(-10.0, 10.0, inst.n)
            omega = rng.uniform(-1.0, 1.0, inst.n) if mode is Mode.FREE else None
            cfg = DynamicsConfig(sigma=0.7, kappa_s=0.6, mode=mode, injection_variant=variant,
                                 natural_freqs=omega, injection_phase=0.3,
                                 injection_detuning=0.2)
            s, c = np.sin(theta), np.cos(theta)
            expected = -0.7 * (s * (J @ c) - c * (J @ s))
            if mode is Mode.FREE:
                expected += omega
            if cfg.has_injection:
                if variant is InjectionVariant.DRIVE_ONLY:
                    expected -= 0.6 * math.sin(th_inj)
                elif variant is InjectionVariant.ADLER:
                    # 0.6 sin(theta - th_inj), term by term
                    expected -= s * (0.6 * math.cos(th_inj))
                    expected += c * (0.6 * math.sin(th_inj))
                else:
                    # 0.6 sin(2 theta - th_inj), term by term
                    expected -= (s * c) * (2.0 * 0.6 * math.cos(th_inj))
                    expected += (c * c - s * s) * (0.6 * math.sin(th_inj))
            if mode is Mode.CENTRALIZED:
                expected -= 0.6 * (s * c.sum() - c * s.sum())
                expected -= 0.6 * math.sin(th_inj)
            assert np.array_equal(make_rhs(inst, cfg)(theta, t), expected), (mode, variant)


def sine_of_difference(x: np.ndarray, phi: float) -> np.ndarray:
    """sin(x - phi) for the exact difference.  np.sin(x - phi) rounds its
    argument first, which at |x| <= 20 moves it by up to 1.8e-15; TwoSum
    gives that rounding error e of a = x - phi exactly, and
    sin(a) + e cos(a) puts it back to within 1e-30."""
    a = x - phi
    back = a - x
    e = (x - (a - back)) + (-phi - back)
    return np.sin(a) + e * np.cos(a)


def empty_graph_rhs(n: int, variant: InjectionVariant, phase: float, detuning: float):
    """make_rhs in distributed mode at kappa_s = 1 on n uncoupled
    oscillators: it returns minus the injection term."""
    cfg = DynamicsConfig(sigma=1.0, kappa_s=1.0, injection_variant=variant,
                         injection_phase=phase, injection_detuning=detuning)
    return make_rhs(IsingInstance(n=n, couplings=np.zeros((n, n))), cfg)


def all_configs(draw, natural_freqs_n):
    """One drawn config per mode and variant, natural frequencies in free mode."""
    freqs = draw(arrays(float, natural_freqs_n, elements=st.floats(-1.0, 1.0)))
    for mode, variant in itertools.product(Mode, InjectionVariant):
        cfg = drawn_config(draw, mode, variant)
        yield replace(cfg, natural_freqs=freqs) if mode is Mode.FREE else cfg


class TestRhsContract:
    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), system=symmetric_systems(max_n=40),
           path=st.sampled_from(COUPLING_PATHS))
    def test_out_is_returned_and_bit_equal_and_theta_is_untouched(self, data, system, path):
        J, theta, t = system
        inst = on_path(path, IsingInstance(n=theta.size, couplings=J))
        kept = theta.copy()
        for cfg in all_configs(data.draw, theta.size):
            f = make_rhs(inst, cfg)
            fresh = f(theta, t)
            buf = np.full(theta.size, np.nan)
            assert f(theta, t, out=buf) is buf
            assert np.array_equal(buf.view(np.uint64), fresh.view(np.uint64)), cfg
            assert np.array_equal(theta.view(np.uint64), kept.view(np.uint64))

    @settings(deadline=None, max_examples=4)
    @given(data=st.data(), seed=st.integers(0, 2**16))
    @pytest.mark.parametrize("path", COUPLING_PATHS)
    def test_one_closure_called_from_four_threads_gives_the_same_bits(self, path, data, seed):
        inst = on_path(path, ising_from_maxcut(random_instance(600, 0.06, "uniform", seed=seed)))
        rng = np.random.default_rng(seed)
        thetas = rng.uniform(-10.0, 10.0, (16, inst.n))
        for cfg in all_configs(data.draw, inst.n):
            f = make_rhs(inst, cfg)
            serial = [f(theta, 2.5) for theta in thetas]
            barrier = threading.Barrier(4, timeout=60)

            def work(k):
                barrier.wait()
                out = np.empty(inst.n)
                return [f(theta, 2.5, out=out).copy() if k % 2 else f(theta, 2.5)
                        for theta in np.roll(thetas, 4 * k, axis=0)]

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                with ThreadPoolExecutor(4) as pool:
                    results = list(pool.map(work, range(4), timeout=60))
            finally:
                sys.setswitchinterval(interval)
            for k, rows in enumerate(results):
                for got, want in zip(rows, np.roll(np.array(serial), 4 * k, axis=0)):
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), cfg

    @settings(deadline=None, max_examples=200)
    @given(theta=arrays(float, st.integers(1, 64), elements=st.floats(-10.0, 10.0)),
           phase=st.floats(-np.pi, np.pi), detuning=st.floats(-1.0, 1.0),
           t=st.floats(0.0, 20.0), variant=st.sampled_from(
               [InjectionVariant.ADLER, InjectionVariant.SUBHARMONIC]))
    def test_injection_terms_from_sin_and_cos_match_the_sine(self, theta, phase, detuning,
                                                             t, variant):
        f = empty_graph_rhs(theta.size, variant, phase, detuning)
        multiple = 1.0 if variant is InjectionVariant.ADLER else 2.0
        phi = detuning * t + phase
        want = sine_of_difference(multiple * theta, phi)
        assert np.max(np.abs(-f(theta, t) - want)) <= 1e-15

    @settings(deadline=None, max_examples=100)
    @given(theta=arrays(float, st.integers(1, 64), elements=st.floats(-10.0, 10.0)),
           t=st.floats(0.0, 20.0))
    def test_adler_at_zero_phase_is_sin_theta_bit_for_bit(self, theta, t):
        got = -empty_graph_rhs(theta.size, InjectionVariant.ADLER, 0.0, 0.0)(theta, t)
        assert np.array_equal(got.view(np.uint64), np.sin(theta).view(np.uint64))


class TestLyapunov:
    @pytest.mark.parametrize("density", [0.06, 0.5])
    @pytest.mark.parametrize("mode", [Mode.DISTRIBUTED, Mode.COUPLED_ONLY])
    def test_potential_never_rises_along_noiseless_rk4(self, mode, density):
        n = ising._SPARSE_MIN_N
        inst = ising_from_maxcut(random_instance(n, density, "pm1", seed=3))
        assert inst.sparse == (density < 0.1)  # one graph per coupling path
        cfg = DynamicsConfig(sigma=0.2, kappa_s=0.75, mode=mode)
        traj = integrate(inst, cfg, IntegratorConfig(dt=0.005, t_end=1.0, record_every=2),
                         initial_phases(n, 4))
        energies = np.array([potential_energy(inst, cfg, PhaseState(row, t))
                             for row, t in zip(traj.states, traj.times)])
        assert np.max(np.diff(energies)) <= 1e-9 * np.max(np.abs(energies))
        assert energies[-1] < energies[0] - 1.0


class TestRhsModes:
    def adler_cfg(self, mode):
        return DynamicsConfig(
            sigma=1.0, kappa_s=1.0, mode=mode,
            injection_variant=InjectionVariant.ADLER,
        )

    def test_centralized_pair_example(self):
        state = PhaseState([np.pi / 2, 0.0])
        v = rhs(pair(), self.adler_cfg(Mode.CENTRALIZED), state)
        assert v[0] == pytest.approx(-3.0)

    def test_distributed_pair_example(self):
        state = PhaseState([np.pi / 2, 0.0])
        v = rhs(pair(), self.adler_cfg(Mode.DISTRIBUTED), state)
        assert v[0] == pytest.approx(-2.0)

    def test_free_drift(self):
        cfg = DynamicsConfig(sigma=0.0, mode=Mode.FREE, natural_freqs=[1.0, 2.0])
        v = rhs(pair(), cfg, PhaseState([0.7, 5.1]))
        assert v == pytest.approx([1.0, 2.0])

    def test_coupled_only_velocity_sum_vanishes(self):
        inst, rng = random_system(8, seed=1)
        cfg = DynamicsConfig(mode=Mode.COUPLED_ONLY, sigma=0.8)
        for _ in range(20):
            v = rhs(inst, cfg, PhaseState(rng.uniform(0, 2 * np.pi, 8)))
            assert abs(v.sum()) < 1e-12

    def test_pair_exchange_and_cancellation(self):
        # for n = 2 the velocities cancel pairwise at a common state, and
        # swapping the state swaps the components
        cfg = DynamicsConfig(mode=Mode.COUPLED_ONLY, sigma=1.3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = rng.uniform(0, 2 * np.pi, 2)
            v = rhs(pair(0.7), cfg, PhaseState([a, b]))
            w = rhs(pair(0.7), cfg, PhaseState([b, a]))
            assert v[0] == pytest.approx(-v[1], abs=1e-12)
            assert v[0] == pytest.approx(w[1], abs=1e-12)

    def test_two_pi_periodicity(self):
        inst, rng = random_system(6, seed=2)
        cfg = DynamicsConfig(mode=Mode.DISTRIBUTED, sigma=1.0, kappa_s=0.5)
        theta = rng.uniform(0, 2 * np.pi, 6)
        base = rhs(inst, cfg, PhaseState(theta))
        for i in range(6):
            shifted = theta.copy()
            shifted[i] += 2 * np.pi
            v = rhs(inst, cfg, PhaseState(shifted))
            assert v == pytest.approx(base, abs=1e-9)

    def test_centralized_equals_distributed_plus_extras(self):
        inst, rng = random_system(7, seed=3)
        for variant in InjectionVariant:
            cfg_d = DynamicsConfig(
                sigma=0.9, kappa_s=0.6, mode=Mode.DISTRIBUTED,
                injection_variant=variant, injection_phase=0.4,
                injection_detuning=0.2,
            )
            cfg_c = DynamicsConfig(
                sigma=0.9, kappa_s=0.6, mode=Mode.CENTRALIZED,
                injection_variant=variant, injection_phase=0.4,
                injection_detuning=0.2,
            )
            theta = rng.uniform(0, 2 * np.pi, 7)
            t = 1.7
            state = PhaseState(theta, t)
            th_inj = reference_injection_phase(cfg_c, t)
            s, c = np.sin(theta), np.cos(theta)
            extras = -0.6 * (s * c.sum() - c * s.sum()) - 0.6 * np.sin(th_inj)
            diff = rhs(inst, cfg_c, state) - rhs(inst, cfg_d, state)
            assert diff == pytest.approx(extras, abs=1e-12)


class TestPotential:
    def test_injection_wells_at_zero(self):
        inst = pair(0.0)
        cfg = DynamicsConfig(sigma=0.0, kappa_s=1.0, mode=Mode.DISTRIBUTED)
        assert potential_energy(inst, cfg, PhaseState([0.0, 0.0])) == pytest.approx(-1.0)

    def test_pair_counted_once(self):
        cfg = DynamicsConfig(sigma=1.0, kappa_s=0.0, mode=Mode.DISTRIBUTED)
        assert potential_energy(pair(), cfg, PhaseState([0.0, np.pi])) == pytest.approx(1.0)

    @pytest.mark.parametrize("mode", [Mode.DISTRIBUTED, Mode.COUPLED_ONLY])
    def test_finite_difference_gradient(self, mode):
        inst, rng = random_system(6, seed=8)
        cfg = DynamicsConfig(sigma=1.0, kappa_s=0.7, mode=mode)
        step = 1e-5
        for _ in range(100):
            theta = rng.uniform(0, 2 * np.pi, 6)
            v = rhs(inst, cfg, PhaseState(theta))
            grad = np.empty(6)
            for i in range(6):
                hi = theta.copy(); hi[i] += step
                lo = theta.copy(); lo[i] -= step
                grad[i] = (
                    potential_energy(inst, cfg, PhaseState(hi))
                    - potential_energy(inst, cfg, PhaseState(lo))
                ) / (2 * step)
            scale = max(np.max(np.abs(v)), 1e-9)
            assert np.max(np.abs(v + grad)) / scale < 1e-6

    def test_rejects_unsupported_variant(self):
        cfg = DynamicsConfig(mode=Mode.DISTRIBUTED, injection_variant=InjectionVariant.ADLER)
        with pytest.raises(ValueError):
            potential_energy(pair(), cfg, PhaseState([0.0, 1.0]))

    def test_rejects_detuning(self):
        cfg = DynamicsConfig(mode=Mode.DISTRIBUTED, injection_detuning=0.5)
        with pytest.raises(ValueError):
            potential_energy(pair(), cfg, PhaseState([0.0, 1.0]))


class TestField:
    """The phase model has no field term: the field h enters the energies and
    the oracle, so the dynamics refuse an instance that carries one rather
    than integrate a different problem from the one that is scored."""

    def test_field_instance_is_refused(self):
        J = [[0.0, 1.0], [1.0, 0.0]]
        inst = IsingInstance(n=2, couplings=J, field=[5.0, -3.0])
        assert hamiltonian_energy(inst, SpinAssignment([1.0, 1.0])) == -3.0
        state = PhaseState([0.0, 1.0])
        for mode in (Mode.DISTRIBUTED, Mode.COUPLED_ONLY):
            cfg = DynamicsConfig(mode=mode)
            with pytest.raises(ValueError, match="field"):
                make_rhs(inst, cfg)
            with pytest.raises(ValueError, match="field"):
                rhs(inst, cfg, state)
            with pytest.raises(ValueError, match="field"):
                potential_energy(inst, cfg, state)

    def test_zero_field_is_accepted(self):
        J = [[0.0, 1.0], [1.0, 0.0]]
        zero = IsingInstance(n=2, couplings=J, field=[0.0, -0.0])
        cfg, state = DynamicsConfig(), PhaseState([0.0, 1.0])
        assert np.array_equal(rhs(zero, cfg, state), rhs(pair(), cfg, state))
        assert potential_energy(zero, cfg, state) == potential_energy(pair(), cfg, state)


class TestConfigValidation:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            DynamicsConfig(sigma=-1.0)

    def test_heterogeneous_freqs_require_free_mode(self):
        with pytest.raises(ValueError):
            DynamicsConfig(mode=Mode.DISTRIBUTED, natural_freqs=[1.0, 2.0])
        DynamicsConfig(mode=Mode.FREE, natural_freqs=[1.0, 2.0])
        DynamicsConfig(mode=Mode.DISTRIBUTED, natural_freqs=[0.0, 0.0])

    def test_string_enums_accepted(self):
        cfg = DynamicsConfig(mode="centralized", injection_variant="adler")
        assert cfg.mode is Mode.CENTRALIZED
        assert cfg.injection_variant is InjectionVariant.ADLER

    def test_nonfinite_state_rejected(self):
        with pytest.raises(ValueError):
            PhaseState([0.0, np.nan])
