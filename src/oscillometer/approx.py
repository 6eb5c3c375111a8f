"""Approximation ladders into the vanishing subspaces, plus the checker that
verifies the norm-controlled approximation property on a concrete family.

Poisson smoothing on the circle and torus is applied as an exact DFT
multiplier (r^|k| per mode), which removes quadrature error from the
contraction comparisons; a ladder takes one forward transform, real for real
samples, and one inverse per member.  Dilations and Cesaro-damped partial
sums act on Taylor coefficients.  The Hoelder smoother extends the function off its box
by composing it with the projection onto the box (edge clamping on the grid,
which keeps the Hoelder constant exactly), convolves with a truncated
heavy-tailed kernel of unit discrete mass and restricts back to the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distance import certification_threshold
from .errors import (COUNT_CAP, EXPONENT_CAP, LENGTH_CAP, ConfigError,
                     config_block, config_number)
from .family import limsup_estimate, seminorm_sup, tail_profile
from .funcrep import (EuclideanSamples, PeriodicSamples, TaylorFunction,
                      TorusSamples, x_norm)
from .spaces import SpaceDescriptor, build_family, weighted_x_norm


# ---------------------------------------------------------------------------
# circle / torus smoothing
# ---------------------------------------------------------------------------

def _poisson_members(f, rs) -> list:
    """Poisson smoothing of circle or torus samples at each radius in rs: the
    multiplier r^(|k_1| + ... + |k_d|) applied to one forward transform, one
    inverse per radius.  Real samples take the real transform, so their
    members come out exactly real."""
    for r in rs:
        if not (0.0 <= r < 1.0):
            raise ConfigError(f"smoothing radius must lie in [0, 1), got {r}")
    real = not np.iscomplexobj(f.values)
    forward, inverse = ((np.fft.rfftn, np.fft.irfftn) if real
                        else (np.fft.fftn, np.fft.ifftn))
    shape = f.values.shape
    axes = tuple(range(len(shape)))
    freqs = [np.abs(np.fft.fftfreq(n, d=1.0 / n)) for n in shape]
    if real:
        freqs[-1] = np.fft.rfftfreq(shape[-1], d=1.0 / shape[-1])
    k = sum(np.ix_(*freqs))
    spectrum = forward(f.values, axes=axes)
    return [type(f)(inverse(spectrum * r ** k, shape, axes=axes)) for r in rs]


def poisson_circle(f: PeriodicSamples, r: float) -> PeriodicSamples:
    """Convolution with the radius-r Poisson kernel as a Fourier multiplier."""
    return _poisson_members(f, [r])[0]


def poisson_torus2(F: TorusSamples, r: float) -> TorusSamples:
    """Double Poisson smoothing on the torus: multiplier r^(|j|+|k|)."""
    return _poisson_members(F, [r])[0]


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
        coeffs = f.coeffs * r ** np.arange(1, f.coeffs.size + 1)
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

def _extend_by_projection(f: EuclideanSamples, pad: int) -> np.ndarray:
    """f composed with the projection onto the box, sampled on the grid padded
    by pad nodes per side.  Clamping grid indices is the Euclidean projection
    onto an axis-aligned box, which is 1-Lipschitz, so the extension equals f
    on the box and keeps its grid Hoelder constant exactly."""
    return np.pad(f.values, pad, mode="edge")


def _poisson_kernel_nd(ndim: int, t: float, step: float, pad: int):
    """Discrete truncated kernel with unit mass, plus the mass left outside."""
    offs = step * np.arange(-pad, pad + 1)
    if ndim == 1:
        raw = t / (t * t + offs ** 2) / np.pi
        outside = 1.0 - (2.0 / np.pi) * math.atan(pad * step / t)
    else:
        r2 = offs[:, None] ** 2 + offs[None, :] ** 2
        raw = t / (t * t + r2) ** 1.5 / (2.0 * np.pi)
        outside = t / math.sqrt(t * t + (pad * step) ** 2)
    kernel = raw * step ** ndim
    return kernel / kernel.sum(), float(outside)


def _fft_convolve_same(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Linear convolution, centre-aligned output of the input's shape."""
    full = [v + k - 1 for v, k in zip(values.shape, kernel.shape)]
    sizes = [1 << int(np.ceil(np.log2(s))) for s in full]
    axes = list(range(values.ndim))
    fv = np.fft.rfftn(values, sizes, axes=axes)
    fk = np.fft.rfftn(kernel, sizes, axes=axes)
    conv = np.fft.irfftn(fv * fk, sizes, axes=axes)
    start = [(k - 1) // 2 for k in kernel.shape]
    sel = tuple(slice(s, s + v) for s, v in zip(start, values.shape))
    return conv[sel]


def lip_smooth(f: EuclideanSamples, t: float, *,
               pad_factor: float = 4.0) -> EuclideanSamples:
    """Mollified approximant: extend, convolve at scale t, restrict.

    Refused for alpha = 1 and for kernels finer than the grid step.
    """
    samples, _ = lip_smooth_with_info(f, t, pad_factor=pad_factor)
    return samples


def lip_smooth_with_info(f: EuclideanSamples, t: float, *,
                         pad_factor: float = 4.0):
    """lip_smooth plus the truncated kernel mass (reported, not hidden)."""
    if f.alpha >= 1.0:
        raise ConfigError("little space may be trivial")
    if t <= 0:
        raise ConfigError(f"kernel scale must be positive, got {t}")
    if t < f.domain.step:
        raise ConfigError("kernel under-resolved")
    dom = f.domain
    pad = pad_factor * dom.diameter / dom.step
    if not 0.0 <= pad <= COUNT_CAP:
        raise ConfigError(f"pad factor must be >= 0 and pad at most {COUNT_CAP} "
                          f"nodes, got {pad_factor}")
    pad = int(math.ceil(pad))
    ext = _extend_by_projection(f, pad)
    kernel, outside = _poisson_kernel_nd(dom.ndim, t, dom.step, pad)
    smoothed = _fft_convolve_same(ext, kernel)
    sel = tuple(slice(pad, pad + s) for s in dom.shape)
    return EuclideanSamples(dom, smoothed[sel], f.alpha), outside


# ---------------------------------------------------------------------------
# ladders
# ---------------------------------------------------------------------------

@dataclass
class ApproxFamily:
    """A generated ladder of approximants in the input's representation."""

    kind: str
    parameters: list
    members: list
    kernel_truncation: float = 0.0     # the largest over the members

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
                      pad_factor: float = 4.0) -> ApproxFamily:
    ts, members, outside = [], [], []
    for m in range(levels):
        t = t0 * 2.0 ** -m
        if t < f.domain.step:
            break
        g, mass = lip_smooth_with_info(f, t, pad_factor=pad_factor)
        ts.append(t)
        members.append(g)
        outside.append(mass)
    if len(ts) < 3:
        raise ConfigError("kernel under-resolved")
    return ApproxFamily("lip_smooth", ts, members, max(outside))


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
    ladder = config_block(cfg, "ladder")
    casts = {"levels": (int, EXPONENT_CAP)}
    if kind == "lip_smooth":
        casts.update(t0=(float, LENGTH_CAP), pad_factor=(float,))
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
    slack_allowed: float
    member_tails: list
    little_flags: list
    little_threshold: float
    x_reference: float
    x_tolerance: float
    kernel_truncation: float = 0.0
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "member_norms": self.member_norms,
            "input_norm": self.input_norm,
            "x_distances": self.x_distances,
            "verdict": "pass" if self.verdict else "fail",
            "slack_used": self.slack_used,
            "slack_allowed": self.slack_allowed,
            "member_tails": self.member_tails,
            "little_flags": self.little_flags,
            "little_threshold": self.little_threshold,
            "x_reference": self.x_reference,
            "x_tolerance": self.x_tolerance,
            "kernel_truncation": self.kernel_truncation,
            "notes": self.notes,
        }


def ambient_norm(desc: SpaceDescriptor, f) -> float:
    """||f|| in the ambient space backing the descriptor's tag."""
    if desc.tag == "weighted":
        return weighted_x_norm(desc, f)
    return x_norm(desc.tag, f)


def ambient_distance(desc: SpaceDescriptor, f, g) -> float:
    """||f - g|| in the same ambient space."""
    return ambient_norm(desc, f - g)


def assumption_check(desc: SpaceDescriptor, f, fam: ApproxFamily,
                     slack: float = 1e-3, x_tol_rel: float = 1e-2,
                     grid=None) -> AssumptionReport:
    """Run the approximation-property check for f against a generated ladder."""
    if grid is None:
        grid = build_family(desc)
    input_norm = float(np.max(grid.evaluate_all(f)))
    threshold = certification_threshold(input_norm)
    slack_allowed = slack + fam.kernel_truncation
    member_norms, member_tails, little_flags, x_distances = [], [], [], []
    for g in fam.members:
        vals = grid.evaluate_all(g)
        member_norms.append(float(np.max(vals)))
        profile = tail_profile(grid, g, values=vals)
        est, _ = limsup_estimate(profile)
        member_tails.append(est)
        little_flags.append(bool(est <= threshold))
        x_distances.append(ambient_distance(desc, f, g))
    x_ref = ambient_norm(desc, f)
    x_tol = x_tol_rel * x_ref
    norms_ok = max(member_norms) <= input_norm * (1.0 + slack_allowed) + 1e-15
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
        verdict=bool(norms_ok and decreasing and converged and len(tail3) == 3),
        slack_used=slack_used,
        slack_allowed=slack_allowed,
        member_tails=member_tails,
        little_flags=little_flags,
        little_threshold=threshold,
        x_reference=x_ref,
        x_tolerance=x_tol,
        kernel_truncation=fam.kernel_truncation,
        notes=("ambient distances for box grids use the sup-norm proxy"
               if desc.tag == "lip" else ""),
    )
