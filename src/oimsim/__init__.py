"""Phase-domain simulator and max-cut solver for oscillator-based Ising machines.

The package exports what the README and the demos use.  The scalar views
of one state (``dynamics.rhs``, ``dynamics.potential_energy``,
``metrics.order_parameter``, ``metrics.phase_lock_error``,
``metrics.binarize``) and the types of values the drivers return
(``dynamics.PhaseState``, ``integrate.Trajectory``,
``metrics.MetricTraces``, ``experiments.ComparisonSummary``) stay in their
submodules.
"""

from .dynamics import DynamicsConfig, InjectionVariant, Mode, make_rhs
from .errors import CapacityError, ConfigError, DivergenceError, GraphParseError
from .experiments import (
    SolveResult,
    SweepRow,
    SweepSpec,
    compare_modes,
    reference_graph,
    run_sweep,
    solve,
    sweep_to_csv,
)
from .integrate import IntegratorConfig, initial_phases, integrate, trajectory_to_csv
from .ising import (
    IsingInstance,
    MaxCutInstance,
    SpinAssignment,
    brute_force_ground_state,
    cut_value,
    hamiltonian_energy,
    ising_from_maxcut,
    parse_graph,
    random_instance,
    serialize_graph,
)
from .metrics import LockReport, compute_traces, lock_time, score_trajectory, traces_to_csv

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "ConfigError",
    "DivergenceError",
    "DynamicsConfig",
    "GraphParseError",
    "InjectionVariant",
    "IntegratorConfig",
    "IsingInstance",
    "LockReport",
    "MaxCutInstance",
    "Mode",
    "SolveResult",
    "SpinAssignment",
    "SweepRow",
    "SweepSpec",
    "brute_force_ground_state",
    "compare_modes",
    "compute_traces",
    "cut_value",
    "hamiltonian_energy",
    "initial_phases",
    "integrate",
    "ising_from_maxcut",
    "lock_time",
    "make_rhs",
    "parse_graph",
    "random_instance",
    "reference_graph",
    "run_sweep",
    "score_trajectory",
    "serialize_graph",
    "solve",
    "sweep_to_csv",
    "trajectory_to_csv",
    "traces_to_csv",
]
