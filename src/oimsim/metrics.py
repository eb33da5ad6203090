"""Observables of a run: binary-locking order parameter, phase-lock error,
lock-time detection, spin readout, and trajectory scoring.

Both the order parameter and the lock error work on doubled phases
psi_i = 2 * theta_i, so configurations locked to the two binary phases
{0, pi} register as perfectly ordered.  The error statistic uses circular
means and circular deviations because unwrapped phases can wander across
many turns over a long run.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import DynamicsConfig, PhaseState
from .integrate import Trajectory
from .ising import (
    IsingInstance,
    MaxCutInstance,
    SpinAssignment,
    cut_value,
    energies,
    hamiltonian_energy,
)

LOCK_THRESHOLD = 0.9
LOCK_HOLD_SAMPLES = 50


@dataclass(frozen=True, eq=False)
class MetricTraces:
    """Per-sample observables aligned with a trajectory's times."""

    order_parameter: np.ndarray
    phase_error: np.ndarray
    energy: np.ndarray

    def __post_init__(self):
        r = np.array(self.order_parameter, dtype=float)
        e = np.array(self.phase_error, dtype=float)
        h = np.array(self.energy, dtype=float)
        if not (r.shape == e.shape == h.shape) or r.ndim != 1:
            raise ValueError("metric traces must be equal-length vectors")
        if np.any(r < -1e-12) or np.any(r > 1.0 + 1e-12):
            raise ValueError("order parameter out of [0, 1]")
        if np.any(e < 0.0):
            raise ValueError("phase error must be non-negative")
        for arr in (r, e, h):
            arr.setflags(write=False)
        object.__setattr__(self, "order_parameter", r)
        object.__setattr__(self, "phase_error", e)
        object.__setattr__(self, "energy", h)


@dataclass(frozen=True)
class LockReport:
    lock_time: float | None
    threshold: float
    hold_samples: int
    locked: bool


def _wrap(x: np.ndarray) -> np.ndarray:
    """Shortest signed circular distance, range (-pi, pi]."""
    return np.pi - np.mod(np.pi - x, 2.0 * np.pi)


def order_parameter(state: PhaseState) -> float:
    """R = |mean of exp(2j * theta)|, in [0, 1]; 1 means binary locking.

    The magnitude of a mean of unit vectors cannot exceed 1; rounding
    overshoot is clipped away.
    """
    return float(min(np.abs(np.exp(2.0j * state.phases).mean()), 1.0))


def circular_mean(angles: np.ndarray) -> float:
    """Mean direction of angles; 0 when the resultant vanishes."""
    s = np.sin(angles).sum()
    c = np.cos(angles).sum()
    if np.hypot(c, s) < 1e-12:
        return 0.0
    return float(np.arctan2(s, c))


def phase_lock_error(state: PhaseState, doubled: bool = True) -> float:
    """Root-mean-square circular deviation from the mean-field phase.

    e = sqrt((2 / (N - 1)) * sum_i d_i^2) where d_i is the shortest circular
    distance from angle i to the circular mean direction.  By default the
    statistic is evaluated on doubled phases so anti-phase pairs count as
    locked; pass doubled=False to evaluate raw phases instead.
    """
    if state.n < 2:
        raise ValueError("phase_lock_error needs at least two oscillators")
    psi = np.mod(2.0 * state.phases, 2.0 * np.pi) if doubled else state.phases
    mean = circular_mean(psi)
    dev = _wrap(psi - mean)
    return float(np.sqrt(2.0 / (state.n - 1) * np.sum(dev**2)))


def lock_time(
    traces: MetricTraces,
    times: np.ndarray,
    threshold: float = LOCK_THRESHOLD,
    hold_samples: int = LOCK_HOLD_SAMPLES,
) -> LockReport:
    """Earliest sample time where R stays >= threshold for hold_samples samples."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    if hold_samples < 1:
        raise ValueError(f"hold_samples must be >= 1, got {hold_samples}")
    r = traces.order_parameter
    if hold_samples > r.size:
        raise ValueError(
            f"hold window {hold_samples} longer than trace of {r.size} samples"
        )
    ok = r >= threshold
    windows = np.lib.stride_tricks.sliding_window_view(ok, hold_samples).all(axis=1)
    hits = np.flatnonzero(windows)
    if hits.size == 0:
        return LockReport(None, threshold, hold_samples, False)
    return LockReport(float(times[hits[0]]), threshold, hold_samples, True)


def binarize(state: PhaseState, reference: float = 0.0) -> SpinAssignment:
    """Spin +1 where the phase is within pi/2 of the reference, else -1.

    A circular distance of exactly pi/2 resolves to +1.
    """
    d = np.abs(_wrap(state.phases - reference))
    return SpinAssignment(np.where(d <= np.pi / 2.0, 1.0, -1.0))


def binarize_reference(cfg: DynamicsConfig, state: PhaseState) -> float:
    """Readout anchor: the injection phase when injection is active, otherwise
    half the circular mean of the doubled phases."""
    if cfg.has_injection:
        return cfg.injection_phase
    return 0.5 * circular_mean(np.mod(2.0 * state.phases, 2.0 * np.pi))


def compute_traces(
    traj: Trajectory, inst: IsingInstance, cfg: DynamicsConfig
) -> MetricTraces:
    """Order parameter, lock error, and binarized Ising energy per sample."""
    thetas = traj.states
    z = np.exp(2.0j * thetas)
    r = np.minimum(np.abs(z.mean(axis=1)), 1.0)

    psi = np.mod(2.0 * thetas, 2.0 * np.pi)
    s = np.sin(psi).sum(axis=1)
    c = np.cos(psi).sum(axis=1)
    mean = np.where(np.hypot(c, s) < 1e-12, 0.0, np.arctan2(s, c))
    dev = _wrap(psi - mean[:, None])
    err = np.sqrt(2.0 / (traj.n - 1) * np.sum(dev**2, axis=1)) if traj.n > 1 else np.zeros(r.size)

    if cfg.has_injection:
        refs = np.full(r.size, cfg.injection_phase)
    else:
        refs = 0.5 * mean
    spins = np.where(np.abs(_wrap(thetas - refs[:, None])) <= np.pi / 2.0, 1.0, -1.0)
    return MetricTraces(r, err, energies(inst, spins))


def score_trajectory(
    traj: Trajectory,
    inst: IsingInstance,
    g: MaxCutInstance,
    cfg: DynamicsConfig,
) -> tuple[SpinAssignment, float, float]:
    """Binarize the final recorded state and score it.

    Returns (spins, Ising energy, cut value).
    """
    final = traj.final_state
    spins = binarize(final, binarize_reference(cfg, final))
    return spins, hamiltonian_energy(inst, spins), cut_value(g, spins)


def traces_to_csv(times: np.ndarray, traces: MetricTraces) -> str:
    """CSV with columns t, R, e_theta, energy."""
    lines = ["t,R,e_theta,energy"]
    for row in zip(times, traces.order_parameter, traces.phase_error, traces.energy):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
