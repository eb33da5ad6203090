"""Observables of a run: binary-locking order parameter, phase-lock error,
lock-time detection, spin readout, and trajectory scoring.

Each observable has one implementation, a kernel over a (k, n) array of
phase rows: the order parameter, the circular mean direction with the RMS
lock error, the readout anchor, and the +-1 binarization.  compute_traces
runs them over a trajectory's recorded samples; order_parameter,
phase_lock_error and binarize are views of the same kernels on a batch of
one state.  run_sweep, compare_modes and solve run the order-parameter
and lock-error kernels directly, on every sample and on the final one.

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
from .errors import ConfigError, check_int, check_real
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
_BLOCK_ELEMENTS = 1 << 16


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


def _order_parameters(thetas: np.ndarray) -> np.ndarray:
    """R of each phase row; rounding overshoot past 1 is clipped away.

    The rows go through one reused complex buffer of about _BLOCK_ELEMENTS
    entries, a block of rows at a time; each row's R has the same bits as
    ``abs(exp(2j * row).mean())``.
    """
    k, n = thetas.shape
    rows = max(1, _BLOCK_ELEMENTS // n)
    buf = np.empty((min(rows, k), n), dtype=complex)
    r = np.empty(k)
    for a in range(0, k, rows):
        z = buf[:min(rows, k - a)]
        np.multiply(2.0j, thetas[a:a + rows], out=z)
        np.exp(z, out=z)
        r[a:a + rows] = np.abs(z.mean(axis=1))
    return np.minimum(r, 1.0, out=r)


def _circular_stats(thetas: np.ndarray, doubled: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Mean direction (0 where the resultant vanishes) and RMS lock error of
    the doubled (or raw) phases of each row; a one-phase row has error 0."""
    angles = np.mod(2.0 * thetas, 2.0 * np.pi) if doubled else thetas
    k, n = angles.shape
    s = np.sin(angles).sum(axis=1)
    c = np.cos(angles).sum(axis=1)
    means = np.where(np.hypot(c, s) < 1e-12, 0.0, np.arctan2(s, c))
    if n < 2:
        return means, np.zeros(k)
    dev = _wrap(angles - means[:, None])
    return means, np.sqrt(2.0 / (n - 1) * np.sum(dev**2, axis=1))


def _anchors(cfg: DynamicsConfig, doubled_means: np.ndarray) -> np.ndarray:
    """Readout anchor per row: the injection phase when injection is active,
    otherwise half the mean direction of the row's doubled phases."""
    if cfg.has_injection:
        return np.full(doubled_means.shape, cfg.injection_phase)
    return 0.5 * doubled_means


def _spins(thetas: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    """+-1 readout of each phase row against its anchor, ties to +1."""
    return np.where(np.abs(_wrap(thetas - anchors[:, None])) <= np.pi / 2.0, 1.0, -1.0)


def order_parameter(state: PhaseState) -> float:
    """R = |mean of exp(2j * theta)|, in [0, 1]; 1 means binary locking."""
    return float(_order_parameters(state.phases[None])[0])


def phase_lock_error(state: PhaseState, doubled: bool = True) -> float:
    """Root-mean-square circular deviation from the mean-field phase.

    e = sqrt((2 / (N - 1)) * sum_i d_i^2) where d_i is the shortest circular
    distance from angle i to the circular mean direction.  By default the
    statistic is evaluated on doubled phases so anti-phase pairs count as
    locked; pass doubled=False to evaluate raw phases instead.
    """
    if state.n < 2:
        raise ValueError("phase_lock_error needs at least two oscillators")
    return float(_circular_stats(state.phases[None], doubled)[1][0])


def check_lock_params(threshold: float, hold_samples: int, n_samples: int) -> None:
    """Raise ConfigError unless 0 < threshold < 1 and hold_samples is an integer in [1, n_samples]."""
    check_real("lock.threshold", threshold)
    if not 0.0 < threshold < 1.0:
        raise ConfigError(f"lock.threshold must lie in (0, 1), got {threshold}")
    check_int("lock.hold_samples", hold_samples)
    if not 1 <= hold_samples <= n_samples:
        raise ConfigError(
            f"lock.hold_samples must lie in [1, {n_samples}], the samples a run "
            f"records; got {hold_samples}"
        )


def lock_time(
    traces: MetricTraces,
    times: np.ndarray,
    threshold: float = LOCK_THRESHOLD,
    hold_samples: int = LOCK_HOLD_SAMPLES,
) -> LockReport:
    """Earliest sample time where R stays >= threshold for hold_samples samples."""
    r = traces.order_parameter
    check_lock_params(threshold, hold_samples, r.size)
    return _lock_report(r, times, threshold, hold_samples)


def _lock_report(
    r: np.ndarray, times: np.ndarray, threshold: float, hold_samples: int
) -> LockReport:
    """The lock-window rule over an order-parameter vector with checked
    parameters: the first time from which r >= threshold for hold_samples
    samples."""
    windows = np.lib.stride_tricks.sliding_window_view(r >= threshold, hold_samples).all(axis=1)
    hits = np.flatnonzero(windows)
    if hits.size == 0:
        return LockReport(None, threshold, hold_samples, False)
    return LockReport(float(times[hits[0]]), threshold, hold_samples, True)


def binarize(state: PhaseState, reference: float = 0.0) -> SpinAssignment:
    """Spin +1 where the phase is within pi/2 of the reference, else -1.

    A circular distance of exactly pi/2 resolves to +1.
    """
    return SpinAssignment(_spins(state.phases[None], np.array([reference], dtype=float))[0])


def compute_traces(
    traj: Trajectory, inst: IsingInstance, cfg: DynamicsConfig
) -> MetricTraces:
    """Order parameter, lock error, and binarized Ising energy per sample."""
    thetas = traj.states
    means, err = _circular_stats(thetas)
    spins = _spins(thetas, _anchors(cfg, means))
    return MetricTraces(_order_parameters(thetas), err, energies(inst, spins))


def score_trajectory(
    traj: Trajectory,
    inst: IsingInstance,
    g: MaxCutInstance,
    cfg: DynamicsConfig,
) -> tuple[SpinAssignment, float, float]:
    """Binarize the final recorded state and score it.

    Returns (spins, Ising energy, cut value).
    """
    final = traj.final_state.phases[None]
    means, _ = _circular_stats(final)
    spins = SpinAssignment(_spins(final, _anchors(cfg, means))[0])
    return spins, hamiltonian_energy(inst, spins), cut_value(g, spins)


def traces_to_csv(times: np.ndarray, traces: MetricTraces) -> str:
    """CSV with columns t, R, e_theta, energy."""
    lines = ["t,R,e_theta,energy"]
    for row in zip(times, traces.order_parameter, traces.phase_error, traces.energy):
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
