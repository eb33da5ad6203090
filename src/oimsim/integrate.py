"""Fixed-step time integration with trajectory recording.

Noiseless runs use classic fourth-order Runge-Kutta.  When the dynamics
configuration carries a positive noise amplitude the scheme switches to
Euler-Maruyama with per-step Gaussian increments of standard deviation
noise_amplitude * sqrt(dt); weak order one is enough for the symmetry
breaking the noise exists for.  Runs are bit-reproducible for a fixed
(seed, dt, t_end) and independent of how many runs execute concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsConfig, PhaseState, make_rhs
from .errors import DivergenceError, check_int, check_real
from .ising import IsingInstance

MAX_STEPS = 10**8


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.01
    t_end: float = 50.0
    record_every: int = 10
    seed: int = 0

    def __post_init__(self):
        check_int("integrator.record_every", self.record_every, minimum=1)
        check_int("integrator.seed", self.seed, minimum=0)
        check_real("integrator.dt", self.dt)
        check_real("integrator.t_end", self.t_end)
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not (math.isfinite(self.t_end) and self.t_end > 0.0):
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.dt >= self.t_end:
            raise ValueError(f"dt {self.dt} must be smaller than t_end {self.t_end}")
        if self.t_end / self.dt > MAX_STEPS:
            raise ValueError(f"t_end/dt exceeds the {MAX_STEPS} step guard")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(f"t_end {self.t_end} must be a multiple of dt {self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def n_samples(self) -> int:
        """Recorded samples per run: t = 0, every record_every steps, and the last step."""
        return math.ceil(self.n_steps / self.record_every) + 1


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded samples: times[k] pairs with phase row states[k].

    The constructor copies the arrays it is given, so the caller's arrays
    stay as they were, writable included; the trajectory's own are read-only.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        self._hold(np.array(self.times, dtype=float), np.array(self.states, dtype=float))

    @classmethod
    def _adopt(cls, times: np.ndarray, states: np.ndarray) -> "Trajectory":
        """A trajectory on float arrays that no one else holds, not copied."""
        traj = object.__new__(cls)
        traj._hold(times, states)
        return traj

    def _hold(self, t: np.ndarray, x: np.ndarray) -> None:
        if t.ndim != 1 or x.ndim != 2 or x.shape[0] != t.size:
            raise ValueError("times and states rows must align")
        if t.size < 1 or t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must start at 0 and be strictly increasing")
        if not np.all(np.isfinite(x)):
            raise ValueError("phase rows must be finite")
        t.setflags(write=False)
        x.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", x)

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def final_state(self) -> PhaseState:
        return PhaseState(self.states[-1], float(self.times[-1]))


def initial_phases(n: int, seed: int) -> PhaseState:
    """I.i.d. uniform phases on [0, 2*pi), deterministic per seed, at time 0."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    return PhaseState(rng.uniform(0.0, 2.0 * np.pi, n), 0.0)


def _noise_rng(seed: int) -> np.random.Generator:
    # separate stream from initial_phases(seed) so the two never share draws
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))


def integrate(
    inst: IsingInstance,
    dyn: DynamicsConfig,
    icfg: IntegratorConfig,
    init: PhaseState,
) -> Trajectory:
    """Advance the phase state to t_end, recording every record_every steps
    and always the final state at t = n_steps * dt.

    The state, the RK4 stages, the EM drift and noise are n-vectors
    allocated once per run; each step calls the RHS with ``out=`` and
    updates them in place, summing in the order of the textbook formulas.

    Raises DivergenceError with the step index if the state ever turns
    non-finite.
    """
    if init.n != inst.n:
        raise ValueError(f"init length {init.n} != instance n {inst.n}")
    f = make_rhs(inst, dyn)
    dt = icfg.dt
    n_steps = icfg.n_steps
    stride = icfg.record_every

    theta = np.array(init.phases)
    # one buffer, filled in place and handed to the Trajectory uncopied
    samples = np.empty((icfg.n_samples, inst.n))
    times = np.empty(icfg.n_samples)
    samples[0], times[0] = theta, 0.0
    k = 1

    finite = np.empty(inst.n, dtype=bool)
    noisy = dyn.noise_amplitude > 0.0
    if noisy:
        rng = _noise_rng(icfg.seed)
        noise_scale = dyn.noise_amplitude * math.sqrt(dt)
        drift, noise = np.empty(inst.n), np.empty(inst.n)
    else:
        k1, k2, k3, k4, stage = (np.empty(inst.n) for _ in range(5))

    for step in range(n_steps):
        t = step * dt
        if noisy:
            # theta + f(theta, t) dt + noise_scale N(0, 1), summed in that order
            f(theta, t, out=drift)
            drift *= dt
            rng.standard_normal(out=noise)
            noise *= noise_scale
            theta += drift
            theta += noise
        else:
            f(theta, t, out=k1)
            np.multiply(k1, 0.5 * dt, out=stage)
            stage += theta
            f(stage, t + 0.5 * dt, out=k2)
            np.multiply(k2, 0.5 * dt, out=stage)
            stage += theta
            f(stage, t + 0.5 * dt, out=k3)
            np.multiply(k3, dt, out=stage)
            stage += theta
            f(stage, t + dt, out=k4)
            # theta + ((k2 + k3) 2 + k1 + k4) dt / 6
            np.add(k2, k3, out=stage)
            stage *= 2.0
            stage += k1
            stage += k4
            stage *= dt / 6.0
            theta += stage
        if not np.isfinite(theta, out=finite).all():
            raise DivergenceError(step)
        if (step + 1) % stride == 0:
            samples[k], times[k] = theta, (step + 1) // stride * (stride * dt)
            k += 1
    if n_steps % stride:
        samples[k], times[k] = theta, n_steps * dt

    return Trajectory._adopt(times, samples)


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV with columns t, theta_0, ..., theta_{n-1} at 17 significant digits."""
    header = "t," + ",".join(f"theta_{i}" for i in range(traj.n))
    lines = [header]
    for t, row in zip(traj.times, traj.states):
        lines.append(",".join(f"{v:.17g}" for v in (t, *row)))
    return "\n".join(lines) + "\n"
