"""Function representations shared by all spaces: samples on the circle and
torus, truncated power series on the disc, box grids in R^n, plus the
elementary evaluations (window means over arcs, derivatives, disc
automorphisms, polar quadrature, and `x_norm`, the one ambient norm of every
space) everything else is built from.  The single-arc helpers the tests use
as references (an `Arc` and its snapping to the grid) live in the tests.

Grids are uniform with power-of-two size so trapezoid sums double as exact
spectral quadrature and DFT smoothing stays alias-free for band-limited data.

Sample objects and TaylorFunction own what they hold (`_owned`): their arrays
are read-only and share no writable memory with the caller, and one object's
arrays pass to the next without a copy.  Circle, torus and box samples share
one implementation of their linear arithmetic (`_Samples`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import COUNT_CAP, ConfigError, NumericalError

TWO_PI = 2.0 * np.pi


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


# ---------------------------------------------------------------------------
# circle and torus samples, arcs
# ---------------------------------------------------------------------------

def _owned(values, dtype) -> np.ndarray:
    """The ownership rule for every array a sample object or TaylorFunction
    holds: a C-contiguous `dtype` array that owns its data and is already
    read-only is adopted as it is; anything else is copied and frozen.  So no
    holder shares writable memory with its caller, none makes the caller's
    array read-only, and values passed from one holder to the next are not
    copied again."""
    if not (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.flags.owndata and values.flags.c_contiguous
            and not values.flags.writeable):
        values = np.array(values, dtype=dtype, order="C")
        values.setflags(write=False)
    return values


def _frozen(values: np.ndarray) -> np.ndarray:
    """A fresh result that nothing else holds, made read-only so that
    `_owned` adopts it instead of copying it."""
    values.setflags(write=False)
    return values


def _held_samples(values) -> np.ndarray:
    """The storage rule for circle and torus samples: float64 when every
    imaginary part is exactly 0, else complex128, held by `_owned`.  The
    kernels are dtype-generic; real storage halves their memory traffic and
    makes |d| an absolute value instead of a hypot."""
    values = np.asarray(values)
    if np.iscomplexobj(values) and values.imag.any():
        return _owned(values, complex)
    return _owned(values.real, float)


class _Samples:
    """Held sample `values` and the linear arithmetic every sample class
    shares.  Instances are immutable: each result is a new object of the same
    class on the same grid, built by `_like`."""

    def _like(self, values) -> "_Samples":
        return type(self)(values)

    def scaled(self, c) -> "_Samples":
        return self._like(_frozen(self.values * c))

    def __mul__(self, c) -> "_Samples":
        return self.scaled(c)

    __rmul__ = __mul__

    def __add__(self, other: "_Samples") -> "_Samples":
        return self._like(_frozen(self.values + self._same_grid(other).values))

    def __sub__(self, other: "_Samples") -> "_Samples":
        return self._like(_frozen(self.values - self._same_grid(other).values))

    def _same_grid(self, other) -> "_Samples":
        if not isinstance(other, type(self)) or other.values.shape != self.values.shape:
            raise ConfigError("samples live on different grids")
        return other


class _PeriodicGrid(_Samples):
    """Samples on the uniform grid theta_j = 2*pi*j/N of every axis of the
    `ndim`-torus (N a power of two, at least 8), held by `_held_samples`."""

    def __init__(self, values):
        values = _held_samples(values)
        if values.ndim != self.ndim or len(set(values.shape)) != 1:
            raise ConfigError(f"{type(self).__name__} expects a "
                              f"{'square ' if self.ndim > 1 else ''}{self.ndim}-d array")
        n = values.shape[0]
        if n < 8 or not _is_pow2(n):
            raise ConfigError(f"grid size must be a power of two >= 8, got {n}")
        self.values = values
        self.n = n
        self.step = TWO_PI / n


class PeriodicSamples(_PeriodicGrid):
    """Samples of a function on the uniform circle grid theta_j = 2*pi*j/N."""

    ndim = 1


class TorusSamples(_PeriodicGrid):
    """Samples on the uniform N x N grid of the 2-torus."""

    ndim = 2


class _WindowLayout(NamedTuple):
    """Where the periodic arcs [starts, starts + ncells] of an n-node axis
    sit: the distinct nodes their ends fall on (node 0 included), in
    ascending order, each arc's start and end as an index into them, which
    arcs wrap past node 0, and the arcs' cell counts.  It depends on the arcs
    alone, so a grid lays it out once and `_window_means` reads it per call."""

    nodes: np.ndarray
    start_at: np.ndarray
    end_at: np.ndarray
    wraps: np.ndarray
    ncells: np.ndarray


def _window_layout(starts: np.ndarray, ncells: np.ndarray, n: int) -> _WindowLayout:
    """The layout of the arcs [starts, starts + ncells] on an n-node axis."""
    count = starts.size
    starts = starts % n
    nodes, at = np.unique(np.concatenate([[0], starts, (starts + ncells) % n]),
                          return_inverse=True)
    return _WindowLayout(nodes, at[1:count + 1], at[count + 1:],
                        starts + ncells >= n, ncells)


def _window_means(values: np.ndarray, arcs: _WindowLayout, axis: int) -> np.ndarray:
    """Trapezoid means of `values` over the periodic arcs laid out in `arcs`
    along `axis`, one per arc, with the arc axis first.

    Prefix sums are formed only at the arcs' end nodes: `_node_sums` gives
    the sums between consecutive nodes and the values at them,
    `_node_prefix` the prefix and `_arc_means` each arc's mean.
    """
    return _arc_means(_node_prefix(*([x] for x in _node_sums(values, arcs.nodes, axis))),
                      arcs)


def _node_sums(values: np.ndarray, nodes: np.ndarray,
               axis: int) -> tuple[np.ndarray, np.ndarray]:
    """The sums of `values` along `axis` between consecutive `nodes`, the
    last running to the end of the axis (one reduceat), and its values at
    the nodes, node axis first."""
    return (np.moveaxis(np.add.reduceat(values, nodes, axis=axis), axis, 0),
            np.moveaxis(np.take(values, nodes, axis=axis), axis, 0))


def _node_prefix(segments: list, at_nodes: list) -> np.ndarray:
    """q_k = prefix(node_k) + v[node_k] / 2 at every node k, with the axis
    total as a last row, from the `_node_sums` of an axis given as lists of
    per-block pieces, each read straight into q."""
    q = np.concatenate([segments[0][:1], *segments])
    q[0] = 0
    np.cumsum(q[1:], axis=0, out=q[1:])
    for v, at in zip(at_nodes, np.cumsum([0, *map(len, at_nodes)])):
        q[at:at + len(v)] += v / 2
    return q


def _arc_means(q: np.ndarray, arcs: _WindowLayout, sel=slice(None)) -> np.ndarray:
    """Trapezoid means of the arcs `sel` of the layout from its `_node_prefix`:
    an arc's sum is q[end] - q[start], plus the axis total when it wraps past
    node 0."""
    sums = q[arcs.end_at[sel]] - q[arcs.start_at[sel]]
    sums[arcs.wraps[sel]] += q[-1]
    return sums / arcs.ncells[sel].reshape((-1,) + (1,) * (sums.ndim - 1))


# ---------------------------------------------------------------------------
# truncated power series on the unit disc
# ---------------------------------------------------------------------------

def _tail_radius(coeffs: np.ndarray, tol: float = 1e-8) -> float:
    """Largest radius where the geometric tail bound from the last retained
    coefficient stays below tol."""
    mags = np.abs(coeffs)
    c = mags[-1] if mags.size and mags[-1] > 0 else mags.max(initial=0.0)
    if c == 0.0:
        return 1.0
    n = coeffs.size
    lo, hi = 0.0, 1.0 - 1e-15
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if c * mid ** (n + 1) / (1.0 - mid) <= tol:
            lo = mid
        else:
            hi = mid
    return lo


class TaylorFunction:
    """Analytic function on the disc held as truncated Taylor coefficients
    a_1..a_N (no constant term stored in `coeffs`), optionally backed by
    closed-form value/derivative evaluators.

    `const` carries a constant offset for the one space that admits f(0) != 0;
    the analytic-space norms ignore it (they act modulo constants).  Without
    closed forms, evaluation is trusted only up to `radius_cap`, the radius
    where the geometric truncation-tail estimate exceeds 1e-8.
    """

    def __init__(self, coeffs=None, value_fn: Optional[Callable] = None,
                 deriv_fn: Optional[Callable] = None, const: complex = 0.0,
                 radius_cap: Optional[float] = None):
        if coeffs is None and (value_fn is None or deriv_fn is None):
            raise ConfigError("TaylorFunction needs coefficients or closed forms")
        if coeffs is not None:
            coeffs = _owned(coeffs, complex)
            if coeffs.ndim != 1:
                raise ConfigError("coefficients must be a 1-d array")
        self.coeffs = coeffs
        self.value_fn = value_fn
        self.deriv_fn = deriv_fn
        self.const = complex(const)
        if radius_cap is None:
            radius_cap = _tail_radius(coeffs) if coeffs is not None else 1.0
        self.radius_cap = float(radius_cap)

    @classmethod
    def polynomial(cls, coeffs, const: complex = 0.0) -> "TaylorFunction":
        """Exact polynomial: no truncation tail, evaluable everywhere."""
        return cls(coeffs, const=const, radius_cap=np.inf)

    @property
    def has_closed_form(self) -> bool:
        return self.value_fn is not None and self.deriv_fn is not None

    @property
    def exact(self) -> bool:
        """Held coefficients with no truncation tail (trusted radius inf)."""
        return self.coeffs is not None and self.radius_cap == np.inf

    @property
    def evaluable_on_disc(self) -> bool:
        """True when values are trusted on the whole closed disc (closed form
        present, or an exact polynomial with no truncation tail)."""
        return self.has_closed_form or (self.coeffs is not None
                                        and self.radius_cap >= 1.0)

    def _check_radius(self, z: np.ndarray) -> None:
        """Refuse z beyond the trusted radius; an exact polynomial (cap inf)
        is trusted everywhere, and its z is not read."""
        if self.exact:
            return
        r = np.abs(z)
        if np.any(r > self.radius_cap + 1e-13):
            raise ConfigError(
                f"evaluation at |z| = {r.max():.6g} beyond trusted radius "
                f"{self.radius_cap:.6g} without closed form")

    def value(self, z):
        """f(z), vectorised; prefers the closed form when present.

        Horner's rule on the coefficients runs in two z-sized buffers: each
        sum is taken in place, each product written to the other buffer.
        That is the out-of-place loop's arithmetic bit for bit; an in-place
        product would not be, since numpy rounds the complex product of a
        one-element array differently in place."""
        z = np.asarray(z, dtype=complex)
        if self.value_fn is not None:
            return self.value_fn(z) + 0j
        self._check_radius(z)
        acc, spare = np.zeros_like(z), np.empty_like(z)
        for a in self.coeffs[::-1]:
            acc += a
            np.multiply(acc, z, out=spare)
            acc, spare = spare, acc
        return acc + self.const

    def deriv(self, z):
        """f'(z), vectorised; prefers the closed form when present, else
        Horner's rule in two buffers as in `value`."""
        z = np.asarray(z, dtype=complex)
        if self.deriv_fn is not None:
            return self.deriv_fn(z) + 0j
        self._check_radius(z)
        acc, spare = np.zeros_like(z), np.empty_like(z)
        for k in range(self.coeffs.size, 0, -1):
            np.multiply(acc, z, out=spare)
            acc, spare = spare, acc
            acc += k * self.coeffs[k - 1]
        return acc[()]

    def scaled(self, c) -> "TaylorFunction":
        c = complex(c)
        vf = (lambda z, f=self.value_fn: c * f(z)) if self.value_fn else None
        df = (lambda z, f=self.deriv_fn: c * f(z)) if self.deriv_fn else None
        coeffs = None if self.coeffs is None else self.coeffs * c
        return TaylorFunction(coeffs, vf, df, const=c * self.const,
                              radius_cap=self.radius_cap)

    def __mul__(self, c) -> "TaylorFunction":
        return self.scaled(c)

    __rmul__ = __mul__

    def __sub__(self, other: "TaylorFunction") -> "TaylorFunction":
        if not isinstance(other, TaylorFunction):
            return NotImplemented
        coeffs = None
        if self.coeffs is not None and other.coeffs is not None:
            n = max(self.coeffs.size, other.coeffs.size)
            coeffs = np.zeros(n, dtype=complex)
            coeffs[:self.coeffs.size] = self.coeffs
            coeffs[:other.coeffs.size] -= other.coeffs
        cap = min(self.radius_cap, other.radius_cap)
        if ((self.has_closed_form or other.has_closed_form)
                and self.evaluable_on_disc and other.evaluable_on_disc):
            # route through the methods so exact polynomials mix with closed
            # forms; the difference of two exact polynomials stays exact
            vf = lambda z, a=self, b=other: a.value(z) - b.value(z)
            df = lambda z, a=self, b=other: a.deriv(z) - b.deriv(z)
            return TaylorFunction(coeffs, vf, df, const=self.const - other.const,
                                  radius_cap=np.inf if self.exact and other.exact else 1.0)
        return TaylorFunction(coeffs, const=self.const - other.const, radius_cap=cap)


# ---------------------------------------------------------------------------
# box grids in R^n
# ---------------------------------------------------------------------------

class BoxDomain:
    """Axis-aligned box [lo, hi] in R^n (n = 1 or 2) with uniform step h.

    The grid is required to cover the box exactly: (hi - lo)/h integral.
    """

    def __init__(self, lo, hi, step: float):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size not in (1, 2):
            raise ConfigError("box domain must be 1- or 2-dimensional")
        if step <= 0 or np.any(hi <= lo):
            raise ConfigError("box domain needs hi > lo and step > 0")
        # each axis is bounded before the quotient is taken, so none overflows
        if not (np.all((hi - lo) / COUNT_CAP <= step)
                and np.prod((hi - lo) / step + 1) <= COUNT_CAP):
            raise ConfigError(f"box grid needs at most {COUNT_CAP} nodes")
        counts = (hi - lo) / step
        if np.any(np.abs(counts - np.rint(counts)) > 1e-9 * np.maximum(1, counts)):
            raise ConfigError("grid step does not cover the box exactly")
        self.lo = lo
        self.hi = hi
        self.step = float(step)
        self.shape = tuple(int(np.rint(c)) + 1 for c in counts)
        self.ndim = lo.size

    def axes(self) -> list[np.ndarray]:
        """Node coordinates per axis, counted in steps from the node k0
        nearest 0.  Where 0 is a node (to the tolerance the box is covered
        to), node k sits at exactly step * (k - k0): a sample's coordinate is
        then the same product as a pair distance (step times an integer
        offset), not lo + step * k with an ulp of lo in it."""
        axes = []
        for lo, size in zip(self.lo, self.shape):
            at = -lo / self.step
            k0 = min(max(round(at), 0), size - 1)
            origin = lo + self.step * k0
            if abs(at - k0) <= 1e-9 * max(1.0, abs(at)):
                # a numpy zero, as lo is: with a Python float numpy adds in
                # place into the product's buffer, which moves the allocator's
                # state and raised one workload's peak RSS by 5 MiB
                origin = np.float64(0.0)
            axes.append(origin + self.step * np.arange(-k0, size - k0))
        return axes


class EuclideanSamples(_Samples):
    """Real samples of a function over a BoxDomain grid, held by `_owned`,
    tagged with the Hoelder exponent they are meant to be measured against."""

    def __init__(self, domain: BoxDomain, values, alpha: float):
        values = _owned(values, float)
        if values.shape != domain.shape:
            raise ConfigError(
                f"values of shape {values.shape} do not match grid {domain.shape}")
        if not (0.0 < alpha <= 1.0):
            raise ConfigError(f"alpha must lie in (0, 1], got {alpha}")
        self.domain = domain
        self.values = values
        self.alpha = float(alpha)

    def _like(self, values) -> "EuclideanSamples":
        return EuclideanSamples(self.domain, values, self.alpha)

    def scaled(self, c) -> "EuclideanSamples":
        return self._like(_frozen(self.values * float(c)))


# ---------------------------------------------------------------------------
# disc automorphisms
# ---------------------------------------------------------------------------

def mobius_apply(a: complex, lam: complex, z):
    """Disc automorphism lam*(a - z)/(1 - conj(a) z) and its derivative.

    Returns (value, derivative); z may be an array.
    """
    a = complex(a)
    lam = complex(lam)
    if abs(a) >= 1.0:
        raise ConfigError("automorphism centre must lie inside the disc")
    if abs(abs(lam) - 1.0) > 1e-12:
        raise ConfigError("rotation factor must be unimodular")
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) > 1.0 + 1e-12):
        raise ConfigError("argument outside the closed disc")
    den = 1.0 - np.conj(a) * z
    value = lam * (a - z) / den
    deriv = lam * (abs(a) ** 2 - 1.0) / den ** 2
    return value, deriv


# ---------------------------------------------------------------------------
# polar quadrature on the disc
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Polar product rule: n_r Gauss-Legendre radial nodes mapped to (0, 1)
    (open: no node at r = 0) times n_theta uniform angles."""

    n_r: int = 48
    n_theta: int = 128

    def __post_init__(self):
        if self.n_r < 2 or self.n_theta < 4:
            raise ConfigError("quadrature rule too small")

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Flattened complex nodes and dA-weights (weights include the r factor)."""
        x, w = np.polynomial.legendre.leggauss(self.n_r)
        r = 0.5 * (x + 1.0)
        wr = 0.5 * w * r
        th = TWO_PI * np.arange(self.n_theta) / self.n_theta
        wt = TWO_PI / self.n_theta
        z = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
        weights = np.broadcast_to((wr * wt)[:, None], (self.n_r, self.n_theta)).ravel()
        return z, weights.copy()


def disk_quadrature(g: Callable, rule: QuadratureRule = QuadratureRule()) -> float:
    """Approximate the area integral of g over the unit disc.

    g receives an array of complex nodes and must return finite values there;
    the open radial rule keeps the potentially singular point r = 0 node-free.
    """
    z, w = rule.nodes()
    vals = np.asarray(g(z), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("singular node")
    return float(np.dot(w, vals))


# ---------------------------------------------------------------------------
# ambient-space norms
# ---------------------------------------------------------------------------

def x_norm(desc, f) -> float:
    """Ambient-space norm of f for the space `desc` describes (its `tag`, its
    `representation`, and for weighted its `weight`), the norm approximation
    errors are measured in.

    bmo_circle: L2 of the circle with the mean removed; rect_bmo: mean-removed
    L2 of the torus; bloch: Bergman norm from coefficients; qk: Hardy norm
    (the K(t) = t ambient norm up to a constant); weighted: area-weighted L2
    with density v^2 / pi on the unit disc; lip: sup over the box grid (a
    recorded proxy for the ambient Sobolev norm).
    """
    tag = desc.tag
    if not isinstance(f, desc.representation):
        raise ConfigError(f"representation mismatch for space '{tag}'")
    if tag in ("bmo_circle", "rect_bmo"):
        centred = f.values - f.values.mean()
        return float(np.sqrt(np.sum(np.abs(centred) ** 2) * f.step ** f.ndim))
    if tag == "lip":
        return float(np.max(np.abs(f.values)))
    if tag == "weighted":
        if desc.weight.domain["kind"] != "disc":
            raise ConfigError("weighted ambient norm implemented on the disc only")
        val = disk_quadrature(
            lambda z: np.abs(f.value(z)) ** 2 * desc.weight(z) ** 2 / np.pi,
            QuadratureRule(48, 64))
        return float(np.sqrt(val))
    if f.coeffs is None:
        name = "Bergman" if tag == "bloch" else "Hardy"
        raise ConfigError(f"{name} norm needs explicit coefficients")
    if tag == "bloch":
        k = np.arange(1, f.coeffs.size + 1)
        return float(np.sqrt(np.pi * np.sum(np.abs(f.coeffs) ** 2 / (k + 1))))
    return float(np.sqrt(np.sum(np.abs(f.coeffs) ** 2)))
