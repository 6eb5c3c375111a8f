"""Single-entry references for the family kernels: one arc, one disc centre
or one smoothing radius at a time, and the out-of-place Horner loops the
package's in-place ones must match.  Only the tests call them; the package
evaluates whole grids at once."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from oscillometer.approx import _poisson_members
from oscillometer.errors import ConfigError, NumericalError
from oscillometer.funcrep import (TWO_PI, PeriodicSamples, QuadratureRule,
                                  TaylorFunction, TorusSamples, _window_layout,
                                  _window_means, mobius_apply)
from oscillometer.spaces import KKernel, _direct_osc


@dataclass(frozen=True)
class Arc:
    """Arc of the circle given by midpoint angle and length.

    length lies in (0, 2*pi]; all full-circle arcs are identified (their
    midpoint is canonicalised to 0).
    """

    midpoint: float
    length: float

    def __post_init__(self):
        if not (0.0 < self.length <= TWO_PI + 1e-12):
            raise ConfigError(f"arc length must lie in (0, 2*pi], got {self.length}")
        length = min(self.length, TWO_PI)
        midpoint = self.midpoint % TWO_PI
        if length == TWO_PI:
            midpoint = 0.0
        object.__setattr__(self, "length", float(length))
        object.__setattr__(self, "midpoint", float(midpoint))


def snap_arc(samples: PeriodicSamples | TorusSamples, arc: Arc) -> tuple[int, int]:
    """Snap arc endpoints to the nearest nodes of the circle grid (of either
    axis, for torus samples, whose two axes share n and step).

    Returns (start_node, ncells).  Arcs spanning fewer than 2 cells after
    snapping are rejected.
    """
    h = samples.step
    start = int(np.rint((arc.midpoint - arc.length / 2.0) / h))
    ncells = int(np.rint(arc.length / h))
    ncells = min(ncells, samples.n)
    if ncells < 2:
        raise ConfigError("arc under-resolved")
    return start % samples.n, ncells


def bmo_oscillation(f: PeriodicSamples, arc: Arc, p: float) -> float:
    """p-mean oscillation of f over the arc: (mean_I |f - f_I|^p)^(1/p).

    p = 2 closes via first/second window moments; other exponents use the
    direct trapezoid sum over the arc's samples.  Work happens on globally
    mean-centred samples (the oscillation is exactly translation invariant),
    which keeps the moment cancellation conditioned on the oscillation scale
    rather than the function scale.
    """
    if not p >= 1.0:
        raise ConfigError(f"oscillation exponent p must be >= 1, got {p}")
    start, ncells = snap_arc(f, arc)
    starts, cells = np.array([start]), np.array([ncells])
    centred = f.values - f.values.mean()
    arcs = _window_layout(starts, cells, f.n)
    mean = _window_means(centred, arcs, 0)
    if p == 2.0:
        sq = _window_means(np.abs(centred) ** 2, arcs, 0).real
        return float(np.sqrt(max(sq[0] - abs(mean[0]) ** 2, 0.0)))
    window = centred[(start + np.arange(ncells + 1)) % f.n]
    return float(_direct_osc(window[None, :], mean, p)[0])


def qk_local(f: TaylorFunction, a: complex, kernel: KKernel,
             rule: QuadratureRule = QuadratureRule()) -> float:
    """Invariant integral of |f'|^2 against K(log 1/|phi_a|) over the disc.

    Computed in the automorphism-pulled-back form, which pins the kernel
    singularity at the quadrature-free origin; the rule's nodes are turned by
    arg(a) to put a node line through it, where the Jacobian concentrates.
    The unimodular rotation of the automorphism drops out, so only `a`
    matters.  Returns the squared-norm quantity (no square root).
    """
    a = complex(a)
    w, wts = rule.nodes()
    if a != 0:
        w = w * np.exp(1j * math.atan2(a.imag, a.real))
    phi, dphi = mobius_apply(a, 1.0, w)
    jac = np.abs(dphi) ** 2 * kernel(np.log(1.0 / np.abs(w)))
    vals = np.abs(f.deriv(phi)) ** 2 * jac
    if not np.all(np.isfinite(vals)):
        raise NumericalError("singular node")
    return float(np.dot(wts, vals))


def poisson(f: PeriodicSamples | TorusSamples, r: float):
    """Poisson smoothing of circle or torus samples at the one radius r."""
    return _poisson_members(f, [r])[0]


def horner(f: TaylorFunction, z) -> tuple:
    """f(z) and f'(z) from f's coefficients by Horner's rule, each step a new
    array: the same operations in the same order as TaylorFunction's
    in-place loops, so their results agree bit for bit."""
    z = np.asarray(z, dtype=complex)
    value = np.zeros_like(z)
    for a in f.coeffs[::-1]:
        value = (value + a) * z
    deriv = np.zeros_like(z)
    for k in range(f.coeffs.size, 0, -1):
        deriv = deriv * z + k * f.coeffs[k - 1]
    return value + f.const, deriv
