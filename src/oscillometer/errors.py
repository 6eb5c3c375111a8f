"""Exception types shared across the package, and the config-number check
that raises one."""

import math


class ConfigError(Exception):
    """Invalid or refused configuration (bad parameters, under-resolved grids)."""


class NumericalError(RuntimeError):
    """Evaluation produced non-finite or otherwise unusable numbers."""


def config_number(block: dict, key: str, default, cast=float):
    """block[key] (default when absent) converted by cast; a value the cast
    refuses, or a non-finite one, is a configuration error, not a traceback."""
    value = block.get(key, default)
    try:
        number = cast(value)
        if math.isfinite(number):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"'{key}' must be a finite number, got {value!r}")
