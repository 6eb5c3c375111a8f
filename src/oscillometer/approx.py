"""Approximation ladders into the vanishing subspaces, plus the checker that
verifies the norm-controlled approximation property on a concrete family.

Poisson smoothing on the circle and torus is applied as an exact DFT
multiplier (r^|k| per mode), which removes quadrature error from the
contraction comparisons; a ladder takes one forward transform, real for real
samples, and one inverse per member.  Dilations and Cesaro-damped partial
sums act on Taylor coefficients.  The Hoelder smoother extends the function off its box
by composing it with the projection onto the box (edge clamping on the grid,
which keeps the Hoelder constant exactly) and convolves along each axis with
heavy-tailed discrete weights of exactly unit mass: an FFT over the box plus
the edge values times the weights' closed-form tail sums, with no padding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import certification_threshold, distance_estimate
from .errors import (EXPONENT_CAP, LENGTH_CAP, ConfigError, config_block,
                     config_number)
from .family import tail_profile
from .funcrep import (EuclideanSamples, PeriodicSamples, TaylorFunction,
                      TorusSamples, x_norm)
from .spaces import SpaceDescriptor, build_family


# ---------------------------------------------------------------------------
# circle / torus smoothing
# ---------------------------------------------------------------------------

def _powers(r: float, top: int) -> np.ndarray:
    """r ** float(j) for j = 0, 1, ..., top, the same pow calls as r ** k on
    float exponents, stopped after the first power that is exactly 0: every
    later one is 0 too.  `table.take(k, mode="clip")` then equals r ** k for
    integer exponents k in [0, top], bit for bit, without the pow calls that
    underflow, each over ten times as slow as one that does not."""
    stop = top + 1
    if 0.0 < r < 1.0:
        # r^j falls below 2^-1075, half the least subnormal, and rounds to 0
        # from about j = 1075 / -log2(r) on
        stop = min(stop, int(1075.0 / -math.log2(r)) + 2)
    table = r ** np.arange(float(stop))
    if table[-1] != 0.0 and stop <= top:
        # a pow that has not reached 0 there: the rest, so the table is exact
        table = np.concatenate([table, r ** np.arange(float(stop), top + 1.0)])
    zeros = np.flatnonzero(table == 0.0)
    return table[:zeros[0] + 1] if zeros.size else table


def _poisson_members(f, rs) -> list:
    """Poisson smoothing of circle or torus samples at each radius in rs: the
    multiplier r^(|k_1| + ... + |k_d|) applied to one forward transform, one
    inverse per radius, read from a table of the powers of r by the integer
    frequency sum.  Real samples take the real transform, so their members
    come out exactly real."""
    for r in rs:
        if not (0.0 <= r < 1.0):
            raise ConfigError(f"smoothing radius must lie in [0, 1), got {r}")
    real = not np.iscomplexobj(f.values)
    forward, inverse = ((np.fft.rfftn, np.fft.irfftn) if real
                        else (np.fft.fftn, np.fft.ifftn))
    shape = f.values.shape
    axes = tuple(range(len(shape)))
    freqs = [np.minimum(np.arange(n), n - np.arange(n)) for n in shape]
    if real:
        freqs[-1] = np.arange(shape[-1] // 2 + 1)
    k = sum(np.ix_(*freqs))
    top = sum(n // 2 for n in shape)
    spectrum = forward(f.values, axes=axes)
    return [type(f)(inverse(spectrum * _powers(r, top).take(k, mode="clip"),
                            shape, axes=axes)) for r in rs]


# ---------------------------------------------------------------------------
# Taylor-side families
# ---------------------------------------------------------------------------

def dilate(f: TaylorFunction, r: float) -> TaylorFunction:
    """The dilated function z -> f(r z)."""
    if not (0.0 <= r <= 1.0):
        raise ConfigError(f"dilation radius must lie in [0, 1], got {r}")
    if r == 1.0:
        return f
    coeffs = None
    if f.coeffs is not None:
        n = f.coeffs.size
        coeffs = f.coeffs * _powers(r, n).take(np.arange(1, n + 1), mode="clip")
    vf = df = None
    if f.has_closed_form:
        vf = lambda z, g=f.value_fn: g(r * z)
        df = lambda z, g=f.deriv_fn: r * g(r * z)
    if r == 0.0:
        cap = np.inf
    elif np.isinf(f.radius_cap):
        cap = np.inf
    else:
        cap = min(1.0, f.radius_cap / r)
    return TaylorFunction(coeffs, vf, df, const=f.const, radius_cap=cap)


def fejer_taylor(f: TaylorFunction, n: int) -> TaylorFunction:
    """Cesaro-damped partial sum: coefficients (1 - k/(n+1)) a_k up to k = n."""
    if n < 1:
        raise ConfigError(f"order must be a positive integer, got {n}")
    if f.coeffs is None:
        raise ConfigError("coefficients unavailable up to n")
    if f.coeffs.size < n and f.radius_cap < 1.0:
        raise ConfigError("coefficients unavailable up to n")
    m = min(n, f.coeffs.size)
    k = np.arange(1, m + 1)
    damped = (1.0 - k / (n + 1.0)) * f.coeffs[:m]
    return TaylorFunction.polynomial(damped, const=f.const)


# ---------------------------------------------------------------------------
# Hoelder smoothing on box grids
# ---------------------------------------------------------------------------

def _smooth_axis(values: np.ndarray, axis: int, t: float,
                 step: float) -> np.ndarray:
    """Convolution along one axis of the edge-clamped extension of values
    with the discrete Poisson weights w(m) = t h / (pi (t^2 + m^2 h^2)),
    normalised by their exact sum over Z, coth(pi t / h).  The box itself is
    one circular FFT convolution long enough not to wrap; past each edge the
    extension is the edge value, whose share at node i is that value times
    the tail mass T(i) = sum_{m > i} w(m), so the mass is exactly one."""
    v = np.moveaxis(values, axis, -1)
    n = v.shape[-1]
    x = step * np.arange(n)
    # t * t and t * step underflow on a tiny box: 0/0, refused by the profile
    with np.errstate(invalid="ignore"):
        w = math.tanh(math.pi * t / step) * t * step / (math.pi * (t * t + x * x))
    size = 1 << (2 * n - 2).bit_length()       # 2^ceil(log2(2n - 1))
    kernel = np.zeros(size)
    kernel[:n] = w
    kernel[size - n + 1:] = w[:0:-1]           # offsets -(n - 1) .. -1
    out = np.fft.irfft(np.fft.rfft(v, size) * np.fft.rfft(kernel), size)[..., :n]
    tail = (1.0 + w[0]) / 2.0 - np.cumsum(w)   # (1 - w(0))/2 - sum_{1..i} w
    out += v[..., :1] * tail + v[..., -1:] * tail[::-1]
    return np.moveaxis(out, -1, axis)


def lip_smooth(f: EuclideanSamples, t: float) -> EuclideanSamples:
    """Mollified approximant: f composed with the projection onto the box
    (edge clamping, 1-Lipschitz, so the grid Hoelder constant is kept),
    convolved at scale t along each axis in turn -- in 2-D a product kernel
    of unit mass -- and restricted to the box.

    Refused for alpha = 1 and for kernels finer than the grid step.
    """
    if f.alpha >= 1.0:
        raise ConfigError("little space may be trivial")
    if t <= 0:
        raise ConfigError(f"kernel scale must be positive, got {t}")
    if t < f.domain.step:
        raise ConfigError("kernel under-resolved")
    values = f.values
    for axis in range(values.ndim):
        values = _smooth_axis(values, axis, t, f.domain.step)
    return EuclideanSamples(f.domain, values, f.alpha)


# kept while bench/spans.py times the smoother under this name
lip_smooth_with_info = lip_smooth


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------

@dataclass
class ApproxFamily:
    """A generated ladder of approximants in the input's representation."""

    kind: str
    parameters: list
    members: list

    def __post_init__(self):
        if not self.members:
            raise ConfigError("approximation family has no members")


def poisson_family(f: PeriodicSamples, levels: int = 8) -> ApproxFamily:
    rs = [1.0 - 2.0 ** -m for m in range(1, levels + 1)]
    return ApproxFamily("poisson_circle", rs, _poisson_members(f, rs))


def poisson_torus_family(F: TorusSamples, levels: int = 8) -> ApproxFamily:
    rs = [1.0 - 2.0 ** -m for m in range(1, levels + 1)]
    return ApproxFamily("poisson_torus", rs, _poisson_members(F, rs))


def dilation_family(f: TaylorFunction, levels: int = 8) -> ApproxFamily:
    rs = [1.0 - 2.0 ** -m for m in range(1, levels + 1)]
    return ApproxFamily("dilation", rs, [dilate(f, r) for r in rs])


def fejer_family(f: TaylorFunction, levels: int = 8) -> ApproxFamily:
    ns = [2 ** m for m in range(1, levels + 1)]
    return ApproxFamily("fejer", ns, [fejer_taylor(f, n) for n in ns])


def lip_smooth_family(f: EuclideanSamples, levels: int = 8, t0: float = 0.1,
                      pad_factor=None) -> ApproxFamily:
    """Hoelder smoothings at t0 2^-m, m < levels, down to the grid step.
    pad_factor is ignored; it stays while bench/workloads.py passes it."""
    ts = [t0 * 2.0 ** -m for m in range(levels)]
    ts = [t for t in ts if t >= f.domain.step]
    if len(ts) < 3:
        raise ConfigError("kernel under-resolved")
    # called by its traced name, so the benchmark times each member
    return ApproxFamily("lip_smooth", ts, [lip_smooth_with_info(f, t) for t in ts])


# each ladder with the one input representation it acts on
_FAMILY_KINDS = {
    "poisson_circle": (poisson_family, PeriodicSamples),
    "poisson_torus": (poisson_torus_family, TorusSamples),
    "dilation": (dilation_family, TaylorFunction),
    "fejer": (fejer_family, TaylorFunction),
    "lip_smooth": (lip_smooth_family, EuclideanSamples),
}


def family_from_config(cfg: dict, f) -> ApproxFamily:
    """{"kind": ..., "ladder": {"levels": 8, ...}} -> generated family."""
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _FAMILY_KINDS:
        raise ConfigError(f"unknown approximation family '{kind}'")
    make, representation = _FAMILY_KINDS[kind]
    if not isinstance(f, representation):
        raise ConfigError(f"family '{kind}' needs {representation.__name__} "
                          f"input, got {type(f).__name__}")
    casts = {"levels": (int, EXPONENT_CAP)}
    if kind == "lip_smooth":
        casts.update(t0=(float, LENGTH_CAP))
    ladder = config_block(cfg, "ladder", casts)
    kwargs = {key: config_number(ladder, key, None, *cast)
              for key, cast in casts.items() if key in ladder}
    return make(f, **kwargs)


# ---------------------------------------------------------------------------
# the approximation-property checker
# ---------------------------------------------------------------------------

@dataclass
class AssumptionReport:
    """Outcome of checking the norm-controlled approximation property.

    verdict passes iff no member's grid seminorm exceeds the input's by more
    than the allowed slack and the ambient-space distances end below tolerance,
    non-increasing over the last three members.  Member tail estimates (their
    own vanishing-check) are reported alongside; fine-scale members of a
    coarse grid legitimately fail that flag without spoiling the verdict.
    """

    member_norms: list
    input_norm: float
    x_distances: list
    verdict: bool
    slack_used: float
    member_tails: list
    little_flags: list
    little_threshold: float
    x_reference: float
    x_tolerance: float
    notes: str = ""

    def to_dict(self) -> dict:
        return dict(vars(self), verdict="pass" if self.verdict else "fail")


def ambient_distance(desc: SpaceDescriptor, f, g) -> float:
    """||f - g|| in the ambient space of the descriptor's space."""
    return x_norm(desc, f - g)


def assumption_check(desc: SpaceDescriptor, f, fam: ApproxFamily,
                     slack: float = 1e-3, x_tol_rel: float = 1e-2,
                     grid=None) -> AssumptionReport:
    """Run the approximation-property check for f against a generated ladder
    of at least 3 members: the verdict reads the last three ambient distances."""
    if len(fam.members) < 3:
        raise ConfigError(f"assumption-check needs a ladder of at least 3 members, "
                          f"got {len(fam.members)}")
    if grid is None:
        grid = build_family(desc)
    # every entry counts at level 0, so its tail sup is the seminorm
    input_norm = float(tail_profile(grid, grid.evaluate_all(f)).tail_sups[0])
    threshold = certification_threshold(input_norm)
    member_norms, member_tails, little_flags, x_distances = [], [], [], []
    for g in fam.members:
        est, _, profile = distance_estimate(desc, g, grid)
        member_norms.append(float(profile.tail_sups[0]))
        member_tails.append(est)
        little_flags.append(bool(est <= threshold))
        x_distances.append(ambient_distance(desc, f, g))
    x_ref = x_norm(desc, f)
    x_tol = x_tol_rel * x_ref
    norms_ok = max(member_norms) <= input_norm * (1.0 + slack) + 1e-15
    tail3 = x_distances[-3:]
    decreasing = all(tail3[i] >= tail3[i + 1] - 1e-12 * max(1.0, tail3[i])
                     for i in range(len(tail3) - 1))
    converged = x_distances[-1] <= x_tol + 1e-15
    slack_used = 0.0
    if input_norm > 0:
        slack_used = max(0.0, max(member_norms) / input_norm - 1.0)
    return AssumptionReport(
        member_norms=member_norms,
        input_norm=input_norm,
        x_distances=x_distances,
        verdict=bool(norms_ok and decreasing and converged),
        slack_used=slack_used,
        member_tails=member_tails,
        little_flags=little_flags,
        little_threshold=threshold,
        x_reference=x_ref,
        x_tolerance=x_tol,
        notes=("ambient distances for box grids use the sup-norm proxy"
               if desc.tag == "lip" else ""),
    )
