"""Exception types shared across the package, and the type checks of config fields."""

import numbers


class GraphParseError(ValueError):
    """Malformed graph file. Carries the 1-based line number of the offense."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CapacityError(ValueError):
    """Requested exact computation exceeds the hard size guard."""


class DivergenceError(RuntimeError):
    """Integration produced a non-finite state. Carries the failing step index."""

    def __init__(self, step: int):
        super().__init__(f"non-finite phase state at step {step}")
        self.step = step


class ConfigError(ValueError):
    """Invalid or unknown entries in a run configuration document."""


def check_int(key: str, value, minimum: int | None = None) -> None:
    """Raise ConfigError naming the config key unless value is an integer (not a bool)
    and, when a minimum is given, at least that minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")


def check_real(key: str, value) -> None:
    """Raise ConfigError naming the config key unless value is a real number (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a real number, got {value!r}")
