"""Exception types shared across the package, and the config-number,
config-block and config-key checks that raise one."""

import math
import numbers


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
# step, a smoothing scale): its square and cube stay inside the float range.
# A tiny step or scale can still make an entry non-finite (exit 3, see family)
LENGTH_CAP = 2.0 ** 64


def is_number(value) -> bool:
    """True for a JSON number: a real that is not a boolean (Python's bool
    is an int, and numpy reads true as 1 and a numeric string as a number)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def config_number(block: dict, key: str, default, cast=float, cap=math.inf):
    """block[key] (default when absent) converted by cast.  Only a number is
    taken: a boolean, a string or any other JSON type, an int key's
    non-integral value, a non-finite value, or one of magnitude above cap is
    a configuration error, not a traceback."""
    value = block.get(key, default)
    if is_number(value):
        try:
            number = cast(value)
            if (math.isfinite(number) and abs(number) <= cap
                    and (cast is not int or number == value)):
                return number
        except (ValueError, OverflowError):
            pass
    bound = "" if cap == math.inf else f" of magnitude at most {cap}"
    whole = ", a whole one" if cast is int else ""
    raise ConfigError(f"'{key}' must be a finite number{bound}{whole}, got {value!r}")


def config_numbers(block: dict, key: str, default=None, size=None,
                   cap=math.inf) -> list:
    """block[key] (default when absent) as a list of finite numbers of
    magnitude at most cap, of length `size` when given; anything else is a
    configuration error."""
    value = block.get(key, default)
    if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
        raise ConfigError(f"'{key}' must be a list of numbers, got {value!r}")
    return [config_number({key: v}, key, None, float, cap) for v in value]


def config_block(block: dict, key: str, keys=None) -> dict:
    """block[key] as a JSON object ({} when absent or null); any other JSON
    type, or a key outside `keys` when given, is a configuration error, not
    a traceback."""
    value = block.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"'{key}' must be a JSON object, got {value!r}")
    return value if keys is None else check_keys(value, keys, f"in '{key}'")


def check_keys(block: dict, known, where: str) -> dict:
    """block, refused naming its keys outside `known`: a misspelled or
    misplaced key would otherwise be ignored, and the run go on without it."""
    unknown = [key for key in block if key not in known]
    if unknown:
        raise ConfigError(f"unknown key {', '.join(map(repr, unknown))} {where}")
    return block
