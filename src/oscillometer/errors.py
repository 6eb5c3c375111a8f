"""Exception types shared across the package, and the config-number and
config-block checks that raise one."""

import math


class ConfigError(Exception):
    """Invalid or refused configuration (bad parameters, under-resolved grids)."""


class NumericalError(RuntimeError):
    """Evaluation produced non-finite or otherwise unusable numbers."""


# the largest integer taken where one sizes an array or a loop, so a huge
# value is a configuration error before numpy sees it: 2**24 for counts, 53
# for dyadic exponents and ladder levels (1 - 2**-53 is the last float below
# 1), 24 for lacunary's top_exp (2**top_exp coefficients)
COUNT_CAP, EXPONENT_CAP, TOP_EXP_CAP = 2 ** 24, 53, 24
# the largest magnitude taken for a length or a coordinate (box corners and
# step, a smoothing scale): its square and cube stay far inside the float
# range, so the kernels and distances built from it stay finite
LENGTH_CAP = 2.0 ** 64


def config_number(block: dict, key: str, default, cast=float, cap=math.inf):
    """block[key] (default when absent) converted by cast; a value the cast
    refuses, a non-finite one, or one of magnitude above cap is a
    configuration error, not a traceback."""
    value = block.get(key, default)
    try:
        number = cast(value)
        if math.isfinite(number) and abs(number) <= cap:
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    bound = "" if cap == math.inf else f" of magnitude at most {cap}"
    raise ConfigError(f"'{key}' must be a finite number{bound}, got {value!r}")


def config_numbers(block: dict, key: str, default=None, size=None,
                   cap=math.inf) -> list:
    """block[key] (default when absent) as a list of finite numbers of
    magnitude at most cap, of length `size` when given; anything else is a
    configuration error."""
    value = block.get(key, default)
    if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
        raise ConfigError(f"'{key}' must be a list of numbers, got {value!r}")
    return [config_number({key: v}, key, None, float, cap) for v in value]


def config_block(block: dict, key: str) -> dict:
    """block[key] as a JSON object ({} when absent or null); any other JSON
    type is a configuration error, not a traceback."""
    value = block.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"'{key}' must be a JSON object, got {value!r}")
    return value
