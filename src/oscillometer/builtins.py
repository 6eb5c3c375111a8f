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
                     config_number, is_number)
from .funcrep import (TWO_PI, BoxDomain, EuclideanSamples, PeriodicSamples,
                      TaylorFunction, TorusSamples)
from .spaces import SpaceDescriptor


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


def circle_builtin(name: str, n: int, **params) -> PeriodicSamples:
    if name == "step_half":
        return PeriodicSamples(step_half_values(n))
    if name == "triangle":
        return PeriodicSamples(triangle_values(n))
    if name == "cosine":
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
    part finite and of magnitude at most LENGTH_CAP."""
    try:
        coeffs = np.asarray([complex(c[0], c[1]) if isinstance(c, (list, tuple))
                             else complex(c) for c in raw], dtype=complex)
        if np.all(np.abs(coeffs.view(float)) <= LENGTH_CAP):
            return coeffs
    except (TypeError, ValueError, IndexError, OverflowError):
        pass
    raise ConfigError(f"'coeffs' must be a list of numbers or [re, im] pairs, "
                      f"each part of magnitude at most {LENGTH_CAP}, got {raw!r}")


def taylor_builtin(name: str, **params) -> TaylorFunction:
    if name == "monomial":
        return monomial(config_number(params, "degree", 1, int, COUNT_CAP))
    if name == "poly":
        return TaylorFunction.polynomial(_complex_list(params.get("coeffs")))
    if name == "log_singular":
        return log_singular(config_number(params, "n_coeffs", 4096, int, COUNT_CAP))
    if name == "cauchy_kernel":
        return cauchy_kernel(config_number(params, "n_coeffs", 4096, int, COUNT_CAP))
    if name == "lacunary":
        return lacunary(config_number(params, "top_exp", 10, int, TOP_EXP_CAP))
    raise ConfigError(f"unknown analytic builtin '{name}'")


# ---------------------------------------------------------------------------
# torus samples
# ---------------------------------------------------------------------------

def torus_builtin(name: str, n: int, **params) -> TorusSamples:
    if name == "step_tensor":
        g = step_half_values(n)
        return TorusSamples(np.outer(g, g))
    if name == "triangle_tensor":
        g = triangle_values(n)
        return TorusSamples(np.outer(g, g))
    if name == "one_variable":
        g = circle_builtin(params.get("profile", "step_half"), n).values
        return TorusSamples(np.broadcast_to(g[:, None], (n, n)))
    if name == "additive":
        g = circle_builtin(params.get("profile", "step_half"), n).values
        return TorusSamples(g[:, None] + g[None, :])
    raise ConfigError(f"unknown torus builtin '{name}'")


# ---------------------------------------------------------------------------
# box samples
# ---------------------------------------------------------------------------

def box_builtin(name: str, domain: BoxDomain, alpha: float,
                **params) -> EuclideanSamples:
    coords = domain.axes()
    if domain.ndim == 1:
        x = coords[0]
        radius = np.abs(x)
    else:
        xx, yy = np.meshgrid(coords[0], coords[1], indexing="ij")
        radius = np.hypot(xx, yy)
    if name == "holder_cusp":
        expo = config_number(params, "exponent", alpha)
        if not 0.0 < expo <= 1.0:
            raise ConfigError(f"cusp exponent must lie in (0, 1], got {expo}")
        return EuclideanSamples(domain, radius ** expo, alpha)
    if name == "linear":
        vals = coords[0] if domain.ndim == 1 else xx
        return EuclideanSamples(domain, vals, alpha)
    if name == "square":
        vals = coords[0] ** 2 if domain.ndim == 1 else xx ** 2
        return EuclideanSamples(domain, vals, alpha)
    if name == "cosine":
        vals = np.cos(coords[0]) if domain.ndim == 1 else np.cos(xx + yy)
        return EuclideanSamples(domain, vals, alpha)
    raise ConfigError(f"unknown box builtin '{name}'")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_CIRCLE_NAMES = {"step_half", "triangle", "cosine"}
_TAYLOR_NAMES = {"monomial", "poly", "log_singular", "cauchy_kernel", "lacunary"}
_TORUS_NAMES = {"step_tensor", "triangle_tensor", "one_variable", "additive"}
_BOX_NAMES = {"holder_cusp", "linear", "square", "cosine_box"}


def make_function(cfg: dict, desc: SpaceDescriptor):
    """Build a function from a JSON block against the space's grids.

    kinds: {"kind": "builtin", "name": ..., ...params},
           {"kind": "taylor", "coeffs": [[re, im], ...]},
           {"kind": "samples", "values": [[re, im], ...]} (circle or torus;
           real values on the box grid).
    """
    kind = cfg.get("kind", "builtin")
    if kind == "taylor":
        return taylor_builtin("poly", coeffs=cfg.get("coeffs"))
    if kind == "samples":
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
        if desc.tag == "lip":
            return EuclideanSamples(desc.lip_domain, values, desc.alpha)
        if desc.tag not in ("bmo_circle", "rect_bmo"):
            raise ConfigError(f"sample input not supported for space '{desc.tag}'")
        ndim = 2 if desc.tag == "bmo_circle" else 3
        if values.ndim != ndim or values.shape[-1] != 2:
            raise ConfigError(f"'{desc.tag}' samples must be an array of "
                              f"[re, im] pairs with {ndim - 1} grid axes")
        z = values[..., 0] + 1j * values[..., 1]
        return PeriodicSamples(z) if desc.tag == "bmo_circle" else TorusSamples(z)
    if kind != "builtin":
        raise ConfigError(f"unknown function kind '{kind}'")
    name = cfg.get("name")
    if not isinstance(name, str):
        raise ConfigError(f"builtin 'name' must be a string, got {name!r}")
    params = {k: v for k, v in cfg.items() if k not in ("kind", "name")}
    if desc.tag == "bmo_circle":
        if name not in _CIRCLE_NAMES:
            raise ConfigError(f"builtin '{name}' is not a circle function")
        return circle_builtin(name, desc.resolution["n_samples"], **params)
    if desc.tag in ("bloch", "qk", "weighted"):
        if name not in _TAYLOR_NAMES:
            raise ConfigError(f"builtin '{name}' is not an analytic function")
        return taylor_builtin(name, **params)
    if desc.tag == "rect_bmo":
        if name not in _TORUS_NAMES:
            raise ConfigError(f"builtin '{name}' is not a torus function")
        return torus_builtin(name, desc.resolution["n_samples"], **params)
    if desc.tag == "lip":
        if name == "cosine_box":
            name = "cosine"
        elif name not in _BOX_NAMES:
            raise ConfigError(f"builtin '{name}' is not a box function")
        return box_builtin(name, desc.lip_domain, desc.alpha, **params)
    raise ConfigError(f"unknown space '{desc.tag}'")
