"""Command-line interface: solve, oracle, sweep, compare, gen.

Configuration precedence is flags over JSON config file over built-in
defaults, and the effective configuration is echoed into every output
artifact.  Exit codes: 0 success, 2 input parse error, 3 solver failure,
4 capacity exceeded, 5 output I/O failure, 64 usage error.
"""
from __future__ import annotations

import argparse
import copy
import dataclasses
import enum
import functools
import json
import os
import sys
import tempfile
from pathlib import Path

from .dynamics import DynamicsConfig
from .errors import CapacityError, ConfigError, DivergenceError
from .experiments import (
    SweepSpec,
    compare_modes,
    data_path,
    reference_graph,
    run_sweep,
    solve,
    sweep_to_csv,
)
from .integrate import IntegratorConfig
from .ising import (
    MaxCutInstance,
    brute_force_ground_state,
    check_brute_force_size,
    cut_value,
    ising_from_maxcut,
    parse_graph,
    random_instance,
    serialize_graph,
)
from .metrics import LOCK_HOLD_SAMPLES, LOCK_THRESHOLD

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_CAPACITY = 4
EXIT_IO = 5
EXIT_USAGE = 64

_SIGMA_GRID = [0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 2.0]


def _field_defaults(cls) -> dict:
    """The field defaults of a config dataclass as JSON values: enums by value."""
    return {
        f.name: f.default.value if isinstance(f.default, enum.Enum) else f.default
        for f in dataclasses.fields(cls)
    }


def _defaults() -> dict:
    return {
        "graph": None,
        "dynamics": _field_defaults(DynamicsConfig),
        "integrator": _field_defaults(IntegratorConfig),
        "lock": {"threshold": LOCK_THRESHOLD, "hold_samples": LOCK_HOLD_SAMPLES},
        "sweep": {
            "parameter": "sigma",
            "values": list(_SIGMA_GRID),
            "seeds": list(range(10)),
        },
        "compare": {"seeds": list(range(50))},
        "solve": {"attempts": 20},
    }


# the solve command alone defaults to a short noisy anneal; noise breaks the
# symmetric saddle of uniform initial phases
_SOLVE_OVERRIDES = {
    "dynamics": {"noise_amplitude": 0.01},
    "integrator": {"t_end": 20.0},
}


def _merge(base: dict, override: dict, crumb: str = "") -> dict:
    """Recursive merge rejecting keys absent from the base layout, and a
    value that is not an object or an array where the base holds one."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{crumb}.{key}" if crumb else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(base[key], dict) and not isinstance(value, dict):
            raise ConfigError(f"config key {where!r} must be an object")
        if isinstance(base[key], list) and not isinstance(value, list):
            raise ConfigError(f"config key {where!r} must be an array")
        if isinstance(base[key], dict):
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_effective_config(
    config_path: str | None, command_overrides: dict | None = None
) -> tuple[dict, Path | None]:
    """Defaults, then command-specific defaults, then the JSON file."""
    cfg = _defaults()
    if command_overrides:
        cfg = _merge(cfg, command_overrides)
    config_dir = None
    if config_path is not None:
        path = Path(config_path)
        try:
            raw = json.loads(path.read_text())
        except OSError as err:
            raise ConfigError(f"cannot read config {config_path}: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON in {config_path}: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError(f"config {config_path} must be a JSON object")
        cfg = _merge(cfg, raw)
        if not isinstance(cfg["graph"], (str, type(None))):
            raise ConfigError("config key 'graph' must be a string or null")
        config_dir = path.parent
    return cfg, config_dir


def _build(cfg: dict, section: str, cls):
    """cls(**cfg[section]), a bad entry reported as a ConfigError."""
    try:
        return cls(**cfg[section])
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid {section} config: {err}") from err


def _config(args, command_overrides: dict | None = None) -> tuple[dict, Path | None]:
    """The effective config of a run command and its directory, with
    ``--seed`` as the integrator seed."""
    cfg, config_dir = load_effective_config(args.config, command_overrides)
    if args.seed is not None:
        cfg["integrator"]["seed"] = args.seed
    return cfg, config_dir


def _run_settings(cfg: dict, args) -> tuple[DynamicsConfig, IntegratorConfig, dict]:
    """The dynamics and integrator configs of ``cfg``, and the ``threshold``,
    ``hold_samples`` and ``threads`` keywords of a driver call."""
    return (_build(cfg, "dynamics", DynamicsConfig), _build(cfg, "integrator", IntegratorConfig),
            {"threshold": cfg["lock"]["threshold"], "hold_samples": cfg["lock"]["hold_samples"],
             "threads": args.threads})


def _load_graph_file(path: str | Path) -> MaxCutInstance:
    """The graph in the file at ``path``; a file that cannot be read is an
    input error, as a malformed one is, but names no line."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ValueError(f"cannot read graph {path}: {err}") from err
    return parse_graph(text)


def _resolve_config_graph(cfg: dict, config_dir: Path | None) -> MaxCutInstance:
    """Graph named by the config, resolved relative to the config file;
    null selects the built-in 10-oscillator reference instance."""
    name = cfg["graph"]
    if name is None:
        return reference_graph()
    path = Path(name)
    if not path.is_absolute() and config_dir is not None:
        path = config_dir / path
    return _load_graph_file(path)


def _atomic_write(path: Path, text: str) -> None:
    """Write through a temporary file moved into place, with the mode that
    ``open(path, "w")`` gives a new file: 0o666 less the umask."""
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name + ".")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _threads(text: str) -> int:
    """--threads value: a count >= 0, with 0 meaning one thread per CPU."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return os.cpu_count() or 1 if value == 0 else value


def _slice_config(cfg: dict, *sections: str) -> dict:
    """The parts of the effective config a command actually consumed."""
    return {k: copy.deepcopy(cfg[k]) for k in ("graph", *sections)}


def _print_json(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """argparse's default after each flag's help, except where the default is
    None: such a flag takes its value from elsewhere, and its help says where."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; we reserve 2 for input
    parse errors and use 64 for usage problems.  Its sub-command parsers are
    ``_Parser`` too, and every one formats help with ``_HelpFormatter``."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_HelpFormatter, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


_UNUSED = "taken by every run command; oracle has no use for it"


class _Refused(argparse.Action):
    """A run command's flag that ``oracle`` never reads: a usage error of the
    ``oracle`` parser, wherever it stands on the command line."""

    def __init__(self, **kwargs):
        super().__init__(nargs="?", help=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} is not an oracle option: oracle reads no config and no seed")


def _run_flags(parser: argparse.ArgumentParser, reads_config: bool = True) -> None:
    """``--config`` and ``--seed`` where the command reads a config, hidden
    and refused where it does not, then ``--threads`` and ``--quiet``, which
    ``oracle`` takes and ignores."""
    if reads_config:
        parser.add_argument("--config", metavar="PATH", default=None,
                            help="JSON run configuration (default: built-in defaults)")
        parser.add_argument("--seed", type=int, default=None,
                            help="override the base integrator seed: solve attempt k runs with "
                                 "seed + k; sweep and compare seed each run from their config's "
                                 "seeds, so there it changes only the echoed config "
                                 "(default: from config)")
    else:
        parser.add_argument("--config", action=_Refused)
        parser.add_argument("--seed", action=_Refused)
    parser.add_argument("--threads", type=_threads, default=1,
                        help="worker threads, 0 = auto" if reads_config else _UNUSED)
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational messages on stderr" if reads_config
                        else _UNUSED)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oimsim",
        description="Phase-domain oscillator Ising machine simulator and max-cut solver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a max-cut instance")
    p.add_argument("graph", help="edge-list graph file")
    p.add_argument("--attempts", type=int, default=None,
                   help="seeded attempts to take the best of (default: 20)")
    _run_flags(p)

    p = sub.add_parser("oracle", help="exact brute-force answer for small instances")
    p.add_argument("graph", help="edge-list graph file")
    _run_flags(p, reads_config=False)

    p = sub.add_parser("sweep", help="run a parameter sweep, write CSV")
    p.add_argument("config", help="JSON sweep configuration")
    p.add_argument("out", help="output CSV path")
    _run_flags(p)

    p = sub.add_parser("compare", help="paired distributed vs centralized study, write JSON")
    p.add_argument("config", help="JSON comparison configuration")
    p.add_argument("out", help="output JSON path")
    _run_flags(p)

    p = sub.add_parser("gen", help="generate a seeded random instance")
    p.add_argument("out", help="output graph path")
    p.add_argument("--n", type=int, default=10, help="vertex count")
    p.add_argument("--density", type=float, default=1.0, help="edge probability in (0, 1]")
    p.add_argument("--weights", choices=("pm1", "uniform"), default="pm1",
                   help="weight distribution")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--quiet", action="store_true",
                   help="suppress informational messages on stderr")
    return parser


def _info(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def cmd_solve(args) -> int:
    if args.attempts is not None and args.attempts < 1:
        print("oimsim solve: error: --attempts must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    cfg, _ = _config(args, _SOLVE_OVERRIDES)
    if args.attempts is not None:
        cfg["solve"]["attempts"] = args.attempts
    cfg["graph"] = str(args.graph)
    g = _load_graph_file(args.graph)
    dyn, icfg, settings = _run_settings(cfg, args)
    try:
        result = solve(g, cfg["solve"]["attempts"], dyn, icfg, **settings)
    except DivergenceError as err:
        print(f"oimsim solve: all attempts diverged: {err}", file=sys.stderr)
        return EXIT_SOLVER
    _print_json({
        "cut": result.cut,
        "energy": result.energy,
        "spins": [int(s) for s in result.spins.spins],
        "attempts": result.attempts,
        "lock_fraction": result.lock_fraction,
        "config": _slice_config(cfg, "dynamics", "integrator", "lock", "solve"),
    })
    return EXIT_OK


def cmd_oracle(args) -> int:
    g = _load_graph_file(args.graph)
    check_brute_force_size(g.n)     # before the dense n x n couplings are built
    inst = ising_from_maxcut(g)
    best, energy, degeneracy = brute_force_ground_state(inst)
    _print_json({
        "max_cut": cut_value(g, best),
        "ground_energy": energy,
        "degeneracy": degeneracy,
        "graph": str(args.graph),
    })
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg, config_dir = _config(args)
    g = _resolve_config_graph(cfg, config_dir)
    dyn, icfg, settings = _run_settings(cfg, args)
    spec = SweepSpec(
        parameter=cfg["sweep"]["parameter"],
        values=tuple(cfg["sweep"]["values"]),
        seeds=tuple(cfg["sweep"]["seeds"]),
        base_dynamics=dyn,
        base_integrator=icfg,
        graph=g,
    )
    rows = run_sweep(spec, **settings)
    echo = _slice_config(cfg, "dynamics", "integrator", "lock", "sweep")
    text = sweep_to_csv(spec.parameter, rows,
                        config_comment=json.dumps(echo, sort_keys=True))
    _atomic_write(Path(args.out), text)
    _info(args, f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg, config_dir = _config(args)
    g = _resolve_config_graph(cfg, config_dir)
    dyn, icfg, settings = _run_settings(cfg, args)
    summary = compare_modes(g, dyn, icfg, seeds=cfg["compare"]["seeds"], **settings)
    doc = dataclasses.asdict(summary)
    doc["config"] = _slice_config(cfg, "dynamics", "integrator", "lock", "compare")
    _atomic_write(Path(args.out), json.dumps(doc, indent=2, sort_keys=True) + "\n")
    _info(args, f"wrote comparison to {args.out}")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.n < 2 or not (0.0 < args.density <= 1.0):
        print("oimsim gen: error: need n >= 2 and density in (0, 1]", file=sys.stderr)
        return EXIT_USAGE
    if args.seed < 0:
        print(f"oimsim gen: error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_USAGE
    g = random_instance(args.n, args.density, args.weights, args.seed)
    _atomic_write(Path(args.out), serialize_graph(g))
    _info(args, f"wrote {args.n} vertices, {g.edge_arrays()[0].size} edges to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "oracle": cmd_oracle,
    "sweep": cmd_sweep,
    "compare": cmd_compare,
    "gen": cmd_gen,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in a process, built on the first.
    Parsing leaves it as built, and it writes usage and help to
    ``sys.stdout``/``sys.stderr`` as they stand at each call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except CapacityError as err:
        print(f"oimsim {args.command}: error: {err}", file=sys.stderr)
        return EXIT_CAPACITY
    except ValueError as err:
        # covers GraphParseError, ConfigError, an unreadable graph file, and
        # re-validated numeric bounds
        print(f"oimsim {args.command}: error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as err:
        print(f"oimsim {args.command}: I/O error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
