"""Right-hand sides of the coupled-oscillator phase models.

Four dynamics modes are exposed:

* ``free``         -- theta_i' = omega_i - sigma * sum_j J_ij sin(theta_i - theta_j)
* ``coupled_only`` -- the same without the natural-frequency drift
* ``distributed``  -- coupled_only plus a per-oscillator injection term
* ``centralized``  -- distributed plus the shared-routing artifacts: an
  unweighted all-to-all interference term -kappa_s * sum_j sin(theta_i - theta_j)
  and a common drive -kappa_s * sin(theta_inj(t))

The injection term comes in three variants selected by configuration: a
phase-independent drive -kappa_s * sin(theta_inj(t)), an Adler-style
difference -kappa_s * sin(theta_i - theta_inj(t)), and a second-harmonic
lock -kappa_s * sin(2 theta_i - theta_inj(t)).  Only the second-harmonic
variant binarizes phases toward both 0 and pi, which is why it is the
default for solving; the other two are kept for model comparisons and are
never substituted silently.

J enters only through the instance's coupling kernel (see ``ising``), and a
field h not at all.  Phases are stored unwrapped; wrapping happens in metrics.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import check_real
from .ising import IsingInstance


class Mode(str, enum.Enum):
    FREE = "free"
    COUPLED_ONLY = "coupled_only"
    DISTRIBUTED = "distributed"
    CENTRALIZED = "centralized"


class InjectionVariant(str, enum.Enum):
    DRIVE_ONLY = "drive_only"
    ADLER = "adler"
    SUBHARMONIC = "subharmonic"


@dataclass(frozen=True, eq=False)
class PhaseState:
    """Unwrapped oscillator phases (radians) at a simulation time."""

    phases: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        p = np.array(self.phases, dtype=float)
        if p.ndim != 1 or p.size < 1:
            raise ValueError("phases must be a non-empty vector")
        if not np.all(np.isfinite(p)):
            raise ValueError("phases must be finite")
        if not math.isfinite(self.time):
            raise ValueError("time must be finite")
        p.setflags(write=False)
        object.__setattr__(self, "phases", p)

    @property
    def n(self) -> int:
        return self.phases.size


@dataclass(frozen=True, eq=False)
class DynamicsConfig:
    """Parameters of the phase model.

    sigma scales the problem coupling, kappa_s the injection strength.  The
    injection phase schedule is theta_inj(t) = injection_detuning * t +
    injection_phase; the defaults keep it identically zero (rotating frame).
    Heterogeneous natural frequencies are supported only in free mode.
    """

    sigma: float = 1.0
    kappa_s: float = 0.75
    mode: Mode = Mode.DISTRIBUTED
    injection_variant: InjectionVariant = InjectionVariant.SUBHARMONIC
    natural_freqs: np.ndarray | None = None
    injection_phase: float = 0.0
    injection_detuning: float = 0.0
    noise_amplitude: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        object.__setattr__(self, "injection_variant", InjectionVariant(self.injection_variant))
        for name in ("sigma", "kappa_s", "noise_amplitude"):
            check_real(f"dynamics.{name}", getattr(self, name))
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)
        for name in ("injection_phase", "injection_detuning"):
            check_real(f"dynamics.{name}", getattr(self, name))
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)
        if self.natural_freqs is not None:
            for v in np.ravel(np.array(self.natural_freqs, dtype=object)):
                check_real("dynamics.natural_freqs", v)
            w = np.array(self.natural_freqs, dtype=float)
            if w.ndim != 1 or not np.all(np.isfinite(w)):
                raise ValueError("dynamics.natural_freqs must be a finite vector")
            if np.any(w != 0.0) and self.mode is not Mode.FREE:
                raise ValueError("nonzero natural frequencies require free mode")
            w.setflags(write=False)
            object.__setattr__(self, "natural_freqs", w)

    @property
    def has_injection(self) -> bool:
        return self.mode in (Mode.DISTRIBUTED, Mode.CENTRALIZED)

    def freqs_for(self, n: int) -> np.ndarray:
        """Natural frequency vector, zero by default."""
        if self.natural_freqs is None:
            return np.zeros(n)
        if self.natural_freqs.size != n:
            raise ValueError(
                f"dynamics.natural_freqs length {self.natural_freqs.size} != n {n}"
            )
        return self.natural_freqs


def _phasors(theta: np.ndarray) -> np.ndarray:
    """cos theta + i sin theta, its parts written by np.cos and np.sin."""
    z = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=z.real)
    np.sin(theta, out=z.imag)
    return z


def make_rhs(inst: IsingInstance, cfg: DynamicsConfig):
    """Build a vectorized theta' = f(theta, t, out=None) for the configured mode.

    Each call takes cos theta and sin theta once, into the real and
    imaginary parts of one complex vector z, and builds every term from them.
    The coupling sum uses the identity
    sum_j J_ij sin(theta_i - theta_j) = sin(theta_i) (J cos theta)_i
                                      - cos(theta_i) (J sin theta)_i,
    so every evaluation needs J cos theta and J sin theta: the kernel of the
    instance's coupling operator gives both from z (the CSR and dense kernels
    agree to rounding, not bit for bit).  With s = sin theta, c = cos theta
    and the injection phase phi = theta_inj(t), one scalar per call, the
    injection terms are
    sin(theta - phi) = s cos phi - c sin phi and
    sin(2 theta - phi) = 2 s c cos phi - (c^2 - s^2) sin phi,
    within 1e-15 of the sine.  Each part goes into the result on its own,
    and a part whose scalar factor is exactly 0 is skipped, so at phi = 0 the
    Adler term is sin theta bit for bit.

    The result is written into ``out`` when it is given (an n-vector that
    does not overlap theta), and into a fresh array otherwise; either way f
    returns it, with the same bits, and leaves theta as it was.  Scratch
    arrays live for one call and the closure keeps no state between calls,
    so one closure may be called from several threads at once.  An instance
    with a nonzero field h raises ValueError.
    """
    if inst.has_field:
        raise ValueError("the phase model has no field term; got a nonzero field h")
    couple = inst._coupling()
    sigma = cfg.sigma
    kappa = cfg.kappa_s
    mode = cfg.mode
    variant = cfg.injection_variant
    omega = cfg.freqs_for(inst.n) if mode is Mode.FREE else None
    detuning = cfg.injection_detuning
    phase0 = cfg.injection_phase

    def f(theta: np.ndarray, t: float, out: np.ndarray | None = None) -> np.ndarray:
        z = _phasors(theta)
        c, s = z.real, z.imag
        # the kernel's two arrays are this call's own: past the coupling term
        # they serve as the scratch a and b
        a, b = couple(z)
        out = np.multiply(s, a, out=out)
        b *= c
        out -= b
        out *= -sigma
        if mode is Mode.FREE:
            out += omega
            return out
        if mode is Mode.COUPLED_ONLY:
            return out
        th_inj = detuning * t + phase0
        sin_inj = math.sin(th_inj)
        if variant is InjectionVariant.DRIVE_ONLY:
            out -= kappa * sin_inj
        elif variant is InjectionVariant.ADLER:
            # kappa sin(theta - phi) = kappa cos phi s - kappa sin phi c
            np.multiply(s, kappa * math.cos(th_inj), out=a)
            out -= a
            if sin_inj:
                np.multiply(c, kappa * sin_inj, out=a)
                out += a
        else:
            # kappa sin(2 theta - phi) = 2 kappa cos phi s c - kappa sin phi (c^2 - s^2)
            np.multiply(s, c, out=a)
            a *= 2.0 * kappa * math.cos(th_inj)
            out -= a
            if sin_inj:
                np.multiply(c, c, out=a)
                np.multiply(s, s, out=b)
                a -= b
                a *= kappa * sin_inj
                out += a
        if mode is Mode.CENTRALIZED:
            # shared-routing artifacts: all-to-all interference (the j = i
            # term vanishes) plus the common drive
            np.multiply(s, c.sum(), out=a)
            np.multiply(c, s.sum(), out=b)
            a -= b
            a *= kappa
            out -= a
            out -= kappa * sin_inj
        return out

    return f


def rhs(inst: IsingInstance, cfg: DynamicsConfig, state: PhaseState) -> np.ndarray:
    """Phase velocities for the configured mode at the given state."""
    if state.n != inst.n:
        raise ValueError(f"state length {state.n} != instance n {inst.n}")
    return make_rhs(inst, cfg)(state.phases, state.time)


def potential_energy(inst: IsingInstance, cfg: DynamicsConfig, state: PhaseState) -> float:
    """Lyapunov function for the gradient-flow modes.

    E(theta) = -(sigma/2) sum_{i != j} J_ij cos(theta_i - theta_j)
               - (kappa_s/2) sum_i cos(2 theta_i - phase)
    with theta' = -dE/dtheta.  Defined for distributed/subharmonic dynamics
    with zero detuning, and for coupled_only where the injection part is
    absent, on an instance with zero field.
    """
    if state.n != inst.n:
        raise ValueError(f"state length {state.n} != instance n {inst.n}")
    if inst.has_field:
        raise ValueError("the phase model has no field term; got a nonzero field h")
    if cfg.injection_detuning != 0.0:
        raise ValueError("potential requires zero injection detuning")
    if cfg.mode is Mode.COUPLED_ONLY:
        kappa = 0.0
    elif cfg.mode is Mode.DISTRIBUTED and cfg.injection_variant is InjectionVariant.SUBHARMONIC:
        kappa = cfg.kappa_s
    else:
        raise ValueError(
            "potential defined only for coupled_only or distributed/subharmonic dynamics"
        )
    theta = state.phases
    z = _phasors(theta)
    # contiguous copies: BLAS sums the dot products of strided views in
    # another order
    c, s = np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag)
    # sum_{i != j} J_ij cos(theta_i - theta_j) via the coupling of make_rhs
    j_cos, j_sin = inst._coupling()(z)
    pair_sum = c @ j_cos + s @ j_sin
    e = -0.5 * cfg.sigma * pair_sum
    if kappa:
        e -= 0.5 * kappa * np.sum(np.cos(2.0 * theta - cfg.injection_phase))
    return float(e)
