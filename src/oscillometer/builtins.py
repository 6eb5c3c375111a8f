"""Named test functions covering every representation.

Functions are constructed against a space descriptor so circle/torus builtins
pick up the space's grid size and box builtins its domain.  Analytic builtins
carry closed-form evaluators alongside their coefficients (truncated, except
lacunary's): coefficients with slow decay (e.g. 1/k) make truncated
evaluation near the boundary unreliable, and the family grids probe radii up
to 1 - 2^-13.
"""

from __future__ import annotations

import numpy as np

from .errors import (COUNT_CAP, LENGTH_CAP, TOP_EXP_CAP, ConfigError,
                     check_keys, config_number, is_number)
from .funcrep import (TWO_PI, BoxDomain, EuclideanSamples, PeriodicSamples,
                      TaylorFunction, TorusSamples, _frozen)
from .spaces import SpaceDescriptor


def _takes(params: dict, name: str, *keys: str) -> None:
    """Refuse a key of params that the builtin `name` does not read."""
    check_keys(params, keys, f"for builtin '{name}'")


# ---------------------------------------------------------------------------
# circle samples
# ---------------------------------------------------------------------------

def step_half_values(n: int) -> np.ndarray:
    """Indicator of the upper half circle, value 1/2 at the two jump nodes."""
    theta = TWO_PI * np.arange(n) / n
    vals = np.where(theta < np.pi, 1.0, 0.0)
    vals[0] = 0.5
    vals[n // 2] = 0.5
    return vals


def triangle_values(n: int) -> np.ndarray:
    """Distance to the angle pi: a 1-Lipschitz hat with corners at 0 and pi."""
    theta = TWO_PI * np.arange(n) / n
    return np.abs(theta - np.pi)


def circle_builtin(name: str, n: int, /, **params) -> PeriodicSamples:
    if name == "step_half":
        _takes(params, name)
        return PeriodicSamples(step_half_values(n))
    if name == "triangle":
        _takes(params, name)
        return PeriodicSamples(triangle_values(n))
    if name == "cosine":
        _takes(params, name, "freq")
        freq = config_number(params, "freq", 1, int)
        theta = TWO_PI * np.arange(n) / n
        return PeriodicSamples(np.cos(freq * theta))
    raise ConfigError(f"unknown circle builtin '{name}'")


# ---------------------------------------------------------------------------
# analytic functions on the disc
# ---------------------------------------------------------------------------

def log_singular(n_coeffs: int = 4096) -> TaylorFunction:
    """log(1/(1-z)) = sum z^k / k: the model unbounded function."""
    k = np.arange(1, n_coeffs + 1)
    return TaylorFunction(1.0 / k,
                          value_fn=lambda z: -np.log(1.0 - z),
                          deriv_fn=lambda z: 1.0 / (1.0 - z))


def cauchy_kernel(n_coeffs: int = 4096) -> TaylorFunction:
    """1/(1-z) = 1 + sum z^k; the constant term is carried separately."""
    return TaylorFunction(np.ones(n_coeffs), const=1.0,
                          value_fn=lambda z: 1.0 / (1.0 - z),
                          deriv_fn=lambda z: 1.0 / (1.0 - z) ** 2)


def lacunary(top_exp: int = 10) -> TaylorFunction:
    """sum of z^(2^j) for j = 0..top_exp: bounded coefficients, gap powers.

    The coefficients are complete (an exact polynomial, no truncation tail).
    The closed forms run by repeated squaring: z^(2^j) is the square of the
    last power, and z^(2^j - 1) the product of all the lower ones."""
    if top_exp < 0:
        raise ConfigError("lacunary top_exp must be >= 0")
    powers = 2 ** np.arange(top_exp + 1)
    coeffs = np.zeros(int(powers[-1]), dtype=complex)
    coeffs[powers - 1] = 1.0

    def value(z):
        zp = np.asarray(z, dtype=complex)
        total = zp
        for _ in range(top_exp):
            zp = zp * zp
            total = total + zp
        return total

    def deriv(z):
        zp = np.asarray(z, dtype=complex)
        lower = np.ones_like(zp)          # z^(2^j - 1)
        total = np.zeros_like(zp)
        for j in range(top_exp + 1):
            total = total + 2.0 ** j * lower
            lower = lower * zp
            zp = zp * zp
        return total

    return TaylorFunction(coeffs, value_fn=value, deriv_fn=deriv, radius_cap=np.inf)


def monomial(degree: int) -> TaylorFunction:
    if degree < 1:
        raise ConfigError("monomial degree must be >= 1")
    coeffs = np.zeros(degree, dtype=complex)
    coeffs[-1] = 1.0
    return TaylorFunction.polynomial(coeffs)


def _complex_list(raw) -> np.ndarray:
    """JSON coefficients (numbers or [re, im] pairs) as a complex array, each
    part a JSON number (not a boolean or a string, see `is_number`), finite
    and of magnitude at most LENGTH_CAP."""
    try:
        pairs = [c if isinstance(c, (list, tuple)) else (c, 0.0) for c in raw]
        if all(len(c) == 2 and is_number(c[0]) and is_number(c[1]) for c in pairs):
            coeffs = np.array([complex(re, im) for re, im in pairs], dtype=complex)
            if np.all(np.abs(coeffs.view(float)) <= LENGTH_CAP):
                return coeffs
    except (TypeError, OverflowError):
        pass
    raise ConfigError(f"'coeffs' must be a list of numbers or [re, im] pairs, "
                      f"each part of magnitude at most {LENGTH_CAP}, got {raw!r}")


def taylor_builtin(name: str, /, **params) -> TaylorFunction:
    if name == "monomial":
        _takes(params, name, "degree")
        return monomial(config_number(params, "degree", 1, int, COUNT_CAP))
    if name == "poly":
        _takes(params, name, "coeffs")
        return TaylorFunction.polynomial(_complex_list(params.get("coeffs")))
    if name == "log_singular":
        _takes(params, name, "n_coeffs")
        return log_singular(config_number(params, "n_coeffs", 4096, int, COUNT_CAP))
    if name == "cauchy_kernel":
        _takes(params, name, "n_coeffs")
        return cauchy_kernel(config_number(params, "n_coeffs", 4096, int, COUNT_CAP))
    if name == "lacunary":
        _takes(params, name, "top_exp")
        return lacunary(config_number(params, "top_exp", 10, int, TOP_EXP_CAP))
    raise ConfigError(f"unknown analytic builtin '{name}'")


# ---------------------------------------------------------------------------
# torus samples
# ---------------------------------------------------------------------------

def torus_builtin(name: str, n: int, /, **params) -> TorusSamples:
    if name == "step_tensor":
        _takes(params, name)
        g = step_half_values(n)
        return TorusSamples(_frozen(np.outer(g, g)))
    if name == "triangle_tensor":
        _takes(params, name)
        g = triangle_values(n)
        return TorusSamples(_frozen(np.outer(g, g)))
    if name == "one_variable":
        _takes(params, name, "profile")
        g = circle_builtin(params.get("profile", "step_half"), n).values
        return TorusSamples(np.broadcast_to(g[:, None], (n, n)))
    if name == "additive":
        _takes(params, name, "profile")
        g = circle_builtin(params.get("profile", "step_half"), n).values
        return TorusSamples(_frozen(g[:, None] + g[None, :]))
    raise ConfigError(f"unknown torus builtin '{name}'")


# ---------------------------------------------------------------------------
# box samples
# ---------------------------------------------------------------------------

def box_builtin(name: str, domain: BoxDomain, alpha: float, /,
                **params) -> EuclideanSamples:
    coords = domain.axes()
    if domain.ndim == 1:
        x = coords[0]
        radius = np.abs(x)
    else:
        xx, yy = np.meshgrid(coords[0], coords[1], indexing="ij")
        radius = np.hypot(xx, yy)
    if name == "holder_cusp":
        _takes(params, name, "exponent")
        expo = config_number(params, "exponent", alpha)
        if not 0.0 < expo <= 1.0:
            raise ConfigError(f"cusp exponent must lie in (0, 1], got {expo}")
        return EuclideanSamples(domain, radius ** expo, alpha)
    if name == "linear":
        _takes(params, name)
        vals = coords[0] if domain.ndim == 1 else xx
        return EuclideanSamples(domain, vals, alpha)
    if name == "square":
        _takes(params, name)
        vals = coords[0] ** 2 if domain.ndim == 1 else xx ** 2
        return EuclideanSamples(domain, vals, alpha)
    if name == "cosine_box":
        _takes(params, name)
        vals = np.cos(coords[0]) if domain.ndim == 1 else np.cos(xx + yy)
        return EuclideanSamples(domain, vals, alpha)
    raise ConfigError(f"unknown box builtin '{name}'")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def make_function(cfg: dict, desc: SpaceDescriptor):
    """Build a function from a JSON block against the space's grids.

    kinds: {"kind": "builtin", "name": ..., ...params},
           {"kind": "taylor", "coeffs": [[re, im], ...]},
           {"kind": "samples", "values": [[re, im], ...]} (circle or torus;
           real values on the box grid).
    """
    kind = cfg.get("kind", "builtin")
    rep = desc.representation
    if kind == "taylor":
        check_keys(cfg, ("kind", "coeffs"), "for function kind 'taylor'")
        if rep is not TaylorFunction:
            raise ConfigError(f"taylor input not supported for space '{desc.tag}'")
        return taylor_builtin("poly", coeffs=cfg.get("coeffs"))
    if kind == "samples":
        check_keys(cfg, ("kind", "values"), "for function kind 'samples'")
        raw = cfg.get("values")
        # the leaves are checked as they came from JSON, one per type: an
        # array cast would read true as 1 and "2" as 2, and [true, 0] is
        # already an integer array
        try:
            leaves = np.asarray(raw, dtype=object)
            values = leaves.astype(float)
            bounded = (all(map(is_number, {type(v): v for v in leaves.flat}.values()))
                       and bool(np.all(np.abs(values) <= LENGTH_CAP)))
        except (TypeError, ValueError, OverflowError):
            bounded = False
        if not bounded:
            raise ConfigError(f"sample 'values' must be numbers of magnitude at "
                              f"most {LENGTH_CAP}, got {raw!r}")
        if rep is EuclideanSamples:
            return EuclideanSamples(desc.lip_domain, values, desc.alpha)
        if rep is TaylorFunction:
            raise ConfigError(f"sample input not supported for space '{desc.tag}'")
        if values.ndim != rep.ndim + 1 or values.shape[-1] != 2:
            raise ConfigError(f"'{desc.tag}' samples must be an array of "
                              f"[re, im] pairs with {rep.ndim} grid axes")
        return rep(values[..., 0] + 1j * values[..., 1])
    if kind != "builtin":
        raise ConfigError(f"unknown function kind '{kind}'")
    name = cfg.get("name")
    if not isinstance(name, str):
        raise ConfigError(f"builtin 'name' must be a string, got {name!r}")
    params = {k: v for k, v in cfg.items() if k not in ("kind", "name")}
    if rep is TaylorFunction:
        return taylor_builtin(name, **params)
    if rep is EuclideanSamples:
        return box_builtin(name, desc.lip_domain, desc.alpha, **params)
    builtin = circle_builtin if rep is PeriodicSamples else torus_builtin
    return builtin(name, desc.resolution["n_samples"], **params)
