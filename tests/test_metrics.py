"""Order parameter, lock error, lock detection, binarization, and scoring."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oimsim import (
    ConfigError,
    DynamicsConfig,
    IntegratorConfig,
    IsingInstance,
    MaxCutInstance,
    Mode,
    SpinAssignment,
    compute_traces,
    cut_value,
    integrate,
    ising_from_maxcut,
    lock_time,
    score_trajectory,
    traces_to_csv,
)
from oimsim.dynamics import PhaseState
from oimsim.integrate import Trajectory
from oimsim.metrics import (MetricTraces, _order_parameters, binarize, order_parameter,
                            phase_lock_error)


def _wrap(x):
    return np.pi - np.mod(np.pi - x, 2.0 * np.pi)


def reference_order_parameter(phases) -> float:
    """Reference R = |mean of exp(2j * theta)| of one state, clipped to 1."""
    return float(min(np.abs(np.exp(2.0j * phases).mean()), 1.0))


def reference_circular_mean(angles) -> float:
    """Reference mean direction of angles; 0 when the resultant vanishes."""
    s = np.sin(angles).sum()
    c = np.cos(angles).sum()
    if np.hypot(c, s) < 1e-12:
        return 0.0
    return float(np.arctan2(s, c))


def reference_lock_error(phases) -> float:
    """Reference RMS circular deviation of the doubled phases of one state."""
    psi = np.mod(2.0 * phases, 2.0 * np.pi)
    dev = _wrap(psi - reference_circular_mean(psi))
    return float(np.sqrt(2.0 / (phases.size - 1) * np.sum(dev**2)))


def reference_anchor(cfg: DynamicsConfig, phases) -> float:
    """Reference readout anchor: the injection phase, else half the mean
    direction of the doubled phases."""
    if cfg.has_injection:
        return cfg.injection_phase
    return 0.5 * reference_circular_mean(np.mod(2.0 * phases, 2.0 * np.pi))


def reference_binarize(phases, reference: float) -> np.ndarray:
    """Reference +-1 readout: +1 within pi/2 of the reference, ties to +1."""
    return np.where(np.abs(_wrap(phases - reference)) <= np.pi / 2.0, 1.0, -1.0)


# independently computed: circular mean of doubled phases (0, 0, pi/2) is
# atan2(1, 2), deviations (-m, -m, pi/2 - m), e = sqrt(sum of squares)
HAND_COMPUTED_ERROR = 1.2867464761861316


class TestOrderParameter:
    def test_aligned(self):
        assert order_parameter(PhaseState(np.zeros(5))) == pytest.approx(1.0)

    def test_binary_mixture_counts_as_locked(self):
        for k in range(6):
            phases = np.array([0.0] * (6 - k) + [np.pi] * k)
            assert order_parameter(PhaseState(phases)) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_doubled_phases_cancel(self):
        state = PhaseState([0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4])
        assert order_parameter(state) == pytest.approx(0.0, abs=1e-12)

    def test_bounds_and_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            theta = rng.uniform(-10, 10, 8)
            r = order_parameter(PhaseState(theta))
            assert 0.0 <= r <= 1.0
            shifted = order_parameter(PhaseState(theta + 1.7))
            flipped = theta.copy()
            flipped[rng.integers(8)] += np.pi
            assert order_parameter(PhaseState(flipped)) == pytest.approx(r, abs=1e-12)
            assert shifted == pytest.approx(r, abs=1e-12)


class TestPhaseLockError:
    def test_identical_phases(self):
        assert phase_lock_error(PhaseState(np.full(4, 1.3))) == pytest.approx(0.0, abs=1e-12)

    def test_antiphase_counts_as_locked(self):
        assert phase_lock_error(PhaseState([0.0, np.pi])) == pytest.approx(0.0, abs=1e-9)

    def test_hand_computed_example(self):
        # raw phases (0, 0, pi/4) double to (0, 0, pi/2)
        state = PhaseState([0.0, 0.0, np.pi / 4])
        assert phase_lock_error(state) == pytest.approx(HAND_COMPUTED_ERROR, abs=1e-6)

    def test_raw_variant_flag(self):
        state = PhaseState([0.0, np.pi])
        assert phase_lock_error(state, doubled=False) > 1.0

    def test_needs_two_oscillators(self):
        with pytest.raises(ValueError):
            phase_lock_error(PhaseState([0.5]))

    def test_zero_when_ordered_and_positive_otherwise(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            theta = rng.uniform(0, 2 * np.pi, 6)
            state = PhaseState(theta)
            r = order_parameter(state)
            e = phase_lock_error(state)
            assert e >= 0.0
            if r == pytest.approx(1.0, abs=1e-9):
                assert e < 1e-6


def make_traces(r_values):
    r = np.asarray(r_values, dtype=float)
    return MetricTraces(r, np.zeros_like(r), np.zeros_like(r))


class TestLockTime:
    def test_immediate_lock(self):
        times = np.arange(10.0)
        report = lock_time(make_traces(np.ones(10)), times, 0.9, 3)
        assert report.locked and report.lock_time == 0.0

    def test_never_crosses(self):
        times = np.arange(10.0)
        report = lock_time(make_traces(np.full(10, 0.5)), times, 0.9, 3)
        assert not report.locked and report.lock_time is None

    def test_linear_ramp(self):
        times = np.linspace(0.0, 10.0, 101)
        report = lock_time(make_traces(times / 10.0), times, 0.9, 1)
        assert report.locked
        assert report.lock_time == pytest.approx(9.0)

    def test_hold_filters_transient_spike(self):
        r = np.full(30, 0.2)
        r[5:8] = 1.0
        r[15:] = 1.0
        times = np.arange(30.0)
        report = lock_time(make_traces(r), times, 0.9, 5)
        assert report.lock_time == 15.0

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(2)
        times = np.arange(60.0)
        for _ in range(30):
            r = np.clip(np.cumsum(rng.uniform(-0.05, 0.12, 60)), 0, 1)
            lo = lock_time(make_traces(r), times, 0.5, 4)
            hi = lock_time(make_traces(r), times, 0.95, 4)
            if hi.locked:
                assert lo.locked and lo.lock_time <= hi.lock_time

    def test_window_longer_than_trace(self):
        with pytest.raises(ValueError):
            lock_time(make_traces(np.ones(5)), np.arange(5.0), 0.9, 6)

    @pytest.mark.parametrize("hold", [2.5, 2.0, True])
    def test_hold_samples_must_be_an_integer(self, hold):
        with pytest.raises(ConfigError, match="lock.hold_samples must be an integer"):
            lock_time(make_traces(np.ones(5)), np.arange(5.0), 0.9, hold)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            lock_time(make_traces(np.ones(5)), np.arange(5.0), 1.5, 2)


class TestBinarize:
    def test_near_zero(self):
        assert binarize(PhaseState([0.1]), 0.0).spins[0] == 1.0

    def test_near_pi(self):
        assert binarize(PhaseState([np.pi - 0.1]), 0.0).spins[0] == -1.0

    def test_quarter_turn_tie_goes_up(self):
        assert binarize(PhaseState([np.pi / 2]), 0.0).spins[0] == 1.0
        assert binarize(PhaseState([-np.pi / 2]), 0.0).spins[0] == 1.0

    def test_pi_shift_flips_all_spins(self):
        rng = np.random.default_rng(3)
        g = MaxCutInstance(n=6, edges=tuple(
            (i, j, float(rng.choice([-1.0, 1.0])))
            for i in range(6) for j in range(i + 1, 6)
        ))
        for _ in range(100):
            theta = rng.uniform(0, 2 * np.pi, 6)
            a = binarize(PhaseState(theta), 0.3)
            b = binarize(PhaseState(theta + np.pi), 0.3)
            assert np.array_equal(a.spins, -b.spins)
            assert cut_value(g, a) == cut_value(g, b)


class TestScoring:
    def single_edge(self):
        return MaxCutInstance(n=2, edges=((0, 1, 1.0),))

    def fake_trajectory(self, final_phases):
        states = np.vstack([np.zeros(len(final_phases)), final_phases])
        return Trajectory(np.array([0.0, 1.0]), states)

    def test_reads_out_split_pair(self):
        g = self.single_edge()
        traj = self.fake_trajectory([0.05, 3.10])
        spins, energy, cut = score_trajectory(traj, ising_from_maxcut(g), g, DynamicsConfig())
        assert np.array_equal(spins.spins, [1.0, -1.0])
        assert cut == 1.0
        assert energy == -1.0

    def test_one_sided_cut_zero(self):
        g = self.single_edge()
        traj = self.fake_trajectory([0.01, -0.02])
        _, _, cut = score_trajectory(traj, ising_from_maxcut(g), g, DynamicsConfig())
        assert cut == 0.0

    def test_coupled_only_uses_mean_reference(self):
        # without injection the two clusters sit at an arbitrary global
        # phase; the readout must still split them
        g = self.single_edge()
        traj = self.fake_trajectory([1.1, 1.1 + np.pi])
        cfg = DynamicsConfig(mode=Mode.COUPLED_ONLY)
        spins, _, cut = score_trajectory(traj, ising_from_maxcut(g), g, cfg)
        assert cut == 1.0

    def test_traces_align_with_trajectory(self):
        g = MaxCutInstance(n=4, edges=((0, 1, 1.0), (1, 2, -1.0), (2, 3, 0.5)))
        inst = ising_from_maxcut(g)
        dyn = DynamicsConfig()
        icfg = IntegratorConfig(dt=0.01, t_end=5.0, record_every=10)
        traj = integrate(inst, dyn, icfg, PhaseState([0.1, 2.0, 4.0, 5.5]))
        traces = compute_traces(traj, inst, dyn)
        assert traces.order_parameter.shape == traj.times.shape
        assert np.all(traces.order_parameter <= 1.0)
        assert np.all(traces.phase_error >= 0.0)
        for k, phases in enumerate(traj.states):
            assert abs(traces.order_parameter[k] - reference_order_parameter(phases)) <= 1e-12
            assert abs(traces.phase_error[k] - reference_lock_error(phases)) <= 1e-12

    def test_traces_csv_header(self):
        r = np.array([0.1, 0.9])
        traces = MetricTraces(r, np.array([1.0, 0.1]), np.array([3.0, -1.0]))
        text = traces_to_csv(np.array([0.0, 1.0]), traces)
        assert text.startswith("t,R,e_theta,energy\n")
        assert len(text.strip().split("\n")) == 3


class TestOrderParameterBlocks:
    @pytest.mark.parametrize("k, n", [(1, 1), (3, 5), (201, 800), (7, 20000), (5, 70000)])
    def test_blocks_keep_the_bits_of_one_expression(self, k, n):
        # rows per block: 81 at n = 800, 3 at n = 20000, 1 at n = 70000
        thetas = np.random.default_rng(n).uniform(-30.0, 30.0, (k, n))
        expected = np.minimum(np.abs(np.exp(2.0j * thetas).mean(axis=1)), 1.0)
        assert np.array_equal(_order_parameters(thetas), expected)


class TestBatchedObservables:
    """compute_traces and score_trajectory against the one-state references."""

    @settings(deadline=None)
    @given(
        data=st.data(),
        mode=st.sampled_from([Mode.DISTRIBUTED, Mode.COUPLED_ONLY]),
        injection_phase=st.floats(-4.0, 4.0),
    )
    def test_rows_match_reference_oracles(self, data, mode, injection_phase):
        k = data.draw(st.integers(1, 5))
        n = data.draw(st.integers(2, 40))
        # a quarter-turn grid as well as arbitrary reals, so ties and exact
        # antiphase pairs are drawn
        angle = st.one_of(st.floats(-20.0, 20.0), st.integers(-8, 8).map(lambda q: q * np.pi / 2))
        states = data.draw(arrays(float, (k, n), elements=angle))
        traj = Trajectory(np.arange(k, dtype=float), states)
        cfg = DynamicsConfig(mode=mode, injection_phase=injection_phase)
        g = MaxCutInstance(n=n, edges=tuple((i, i + 1, 1.0) for i in range(n - 1)))
        inst = ising_from_maxcut(g)

        traces = compute_traces(traj, inst, cfg)
        for row, phases in enumerate(states):
            assert abs(traces.order_parameter[row] - reference_order_parameter(phases)) <= 1e-12
            assert abs(traces.phase_error[row] - reference_lock_error(phases)) <= 1e-12
            # the one-state views keep the references' bits
            assert order_parameter(PhaseState(phases)) == reference_order_parameter(phases)
            assert phase_lock_error(PhaseState(phases)) == reference_lock_error(phases)

        final = states[-1]
        expected = reference_binarize(final, reference_anchor(cfg, final))
        spins, energy, cut = score_trajectory(traj, inst, g, cfg)
        assert np.array_equal(spins.spins, expected)
        assert np.array_equal(binarize(PhaseState(final), reference_anchor(cfg, final)).spins,
                              expected)
        assert cut == cut_value(g, SpinAssignment(expected))
