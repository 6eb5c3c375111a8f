"""Output checks: each returns a list of problems, empty when the output holds.

Pinned ranges are the acceptance suite's tolerances for the named builtins.
Generated inputs hold for any seed.  Random polynomials on a prebuilt grid are
held to reference values computed here from their coefficients.  The others
are held to analytic bounds worked out from the numbers they were drawn from:
an upper bound on the seminorm and one on the tail supremum at the finest
scale (the limit estimate).  Every generated input is a polynomial, a
trigonometric polynomial or a Hoelder cusp, so it lies in (or, for the cusp,
at a known distance from) the vanishing subspace, and a broken evaluator that
inflates the values near the boundary of the parameter space trips the tail
bound.
"""

from __future__ import annotations

import json
import math

import numpy as np

# acceptance-suite tolerances for the named builtins at acceptance resolution
PINNED_NORM = {
    "bloch/log_singular": (1.96, 2.0),
    "bmo_circle/step_half": (0.48, 0.52),
    "rect_bmo/step_tensor": (0.23, 0.27),
    "lip/holder_cusp": (0.99, 1.01),
    "weighted/cauchy_kernel": (1.95, 2.02),
}

# the qk values come from a quadrature rule, so the analytic bound on the
# exact integral gets this relative slack (for f(z) = z, where the bound is
# exact, the rule over-reads it by 6.4% on the finest shell, 1 - |a| = 2^-7,
# and by under 0.6% elsewhere); every other bound holds for the sampled
# values exactly and gets only a rounding slack
QK_SLACK = 0.10
ROUNDING = 1e-9


class Bounds:
    """Analytic upper bounds for one input: on its seminorm, and on every
    entry of remoteness at most `t` as the function tail_cap(t)."""

    def __init__(self, seminorm_cap: float, tail_cap, slack: float = ROUNDING):
        self.seminorm_cap = seminorm_cap
        self.tail_cap = tail_cap
        self.slack = slack


def taylor_bounds(tag: str, coeffs, const: complex = 0.0) -> Bounds:
    """Bounds for the polynomial const + sum_k a_k z^k (coeffs = a_1..a_N) on
    the disc families, whose remoteness is 1 - |z| near the circle.

    With D0 = sum |a_k| >= sup |f - const| and D1 = sum k |a_k| >= sup |f'|:
    bloch (1-|w|^2)|f'(w)| <= D1, and <= 2t D1 where 1 - |w| <= t;
    weighted (1-|z|^2)|f(z)| <= D0 + |const|, and <= 2t (D0 + |const|);
    qk: the local integral of |f'|^2 against log 1/|phi_a| is at most
    D1^2 (pi/2)(1 - |a|^2), the area integral of the Green function.
    """
    a = np.abs(np.asarray(coeffs, dtype=complex))
    d0 = float(a.sum())
    d1 = float((np.arange(1, a.size + 1) * a).sum())
    if tag == "bloch":
        return Bounds(d1, lambda t: 2.0 * t * d1)
    if tag == "weighted":
        d0 += abs(const)
        return Bounds(d0, lambda t: 2.0 * t * d0)
    if tag == "qk":
        return Bounds(d1 * math.sqrt(math.pi / 2.0),
                      lambda t: d1 * math.sqrt(math.pi * t), slack=QK_SLACK)
    raise ValueError(f"no Taylor bounds for space '{tag}'")


class Reference:
    """Values an input's seminorm and limit estimate must reproduce, each
    within a relative tolerance."""

    def __init__(self, seminorm: float, estimate: float, tol_seminorm: float,
                 tol_estimate: float):
        self.seminorm = seminorm
        self.estimate = estimate
        self.tol_seminorm = tol_seminorm
        self.tol_estimate = tol_estimate


def taylor_reference(tag: str, coeffs, nodes, remoteness, scale: float) -> Reference:
    """Exact family values of the polynomial sum_k a_k z^k (coeffs = a_1..a_N)
    at the grid's nodes, computed here independently of the package: the
    seminorm is their maximum, the limit estimate their maximum over the
    entries of remoteness at most `scale`.

    bloch (1-|w|^2)|f'(w)| and weighted (1-|z|^2)|f(z)| are evaluated
    directly.  For qk the Littlewood-Paley identity gives the local integral
    of |f'|^2 against log 1/|phi_a| in closed form, (pi/2) (P[|f|^2](a) -
    |f(a)|^2), with P the Poisson extension of the trigonometric polynomial
    |f|^2 on the circle.  The package integrates by quadrature instead: over
    30 random degree-12 polynomials its seminorm matched to 1.2e-6 and its
    finest-shell supremum to 1.5%; QK_SLACK covers the 6.4% of f(z) = z.
    """
    from numpy.polynomial import polynomial as P
    a = np.asarray(coeffs, dtype=complex)
    z = np.asarray(nodes, dtype=complex)
    poly = np.concatenate([[0.0], a])
    tol = (ROUNDING, ROUNDING)
    if tag == "bloch":
        vals = (1.0 - np.abs(z) ** 2) * np.abs(P.polyval(z, P.polyder(poly)))
    elif tag == "weighted":
        vals = (1.0 - np.abs(z) ** 2) * np.abs(P.polyval(z, poly))
    elif tag == "qk":
        n = a.size
        lag = np.array([0.0] + [np.dot(a[d:], np.conj(a[:n - d])) for d in range(1, n)])
        poisson = np.sum(np.abs(a) ** 2) + 2.0 * np.real(P.polyval(z, lag))
        local = 0.5 * np.pi * (poisson - np.abs(P.polyval(z, poly)) ** 2)
        vals, tol = np.sqrt(np.maximum(local, 0.0)), (1e-4, QK_SLACK)
    else:
        raise ValueError(f"no Taylor reference for space '{tag}'")
    tail = np.asarray(remoteness) <= scale * (1 + 1e-12)
    return Reference(float(vals.max()), float(vals[tail].max()), *tol)


def circle_bounds(sup_dev: float, lip: float) -> Bounds:
    """Bounds for a circle function with |f - c| <= sup_dev for some constant
    c and Lipschitz constant lip: a mean oscillation (p <= 2) over any arc is
    at most sup_dev, and over an arc of length at most t (the remoteness) at
    most (t/2) lip, the largest deviation from the arc's midpoint value."""
    return Bounds(sup_dev, lambda t: 0.5 * t * lip)


def trig_bounds(freqs, coeffs) -> Bounds:
    """circle_bounds of sum c_k e^{i k theta} with no constant term."""
    a = np.abs(np.asarray(coeffs, dtype=complex))
    return circle_bounds(float(a.sum()), float((np.abs(freqs) * a).sum()))


def torus_bounds(factors) -> Bounds:
    """Bounds for sum_i g_i(zeta) h_i(lambda), from the circle_bounds of each
    factor as [(g_i, h_i), ...].  The rectangular oscillation of a product
    g h over I x J is the product of their L2 oscillations over I and J; the
    remoteness is the shorter side, whose factor gets the Lipschitz bound."""
    cap = sum(g.seminorm_cap * h.seminorm_cap for g, h in factors)
    return Bounds(cap, lambda t: sum(max(g.tail_cap(t) * h.seminorm_cap,
                                         g.seminorm_cap * h.tail_cap(t))
                                     for g, h in factors))


def holder_bounds(c: float, exponent: float, alpha: float, diam: float) -> Bounds:
    """Bounds for c |x - x0|^exponent (alpha <= exponent <= 1) on a domain of
    diameter diam in the Hoelder-alpha space, whose remoteness is the pair
    distance: the quotient over a pair at distance d is at most c
    d^(exponent - alpha)."""
    return Bounds(c * diam ** (exponent - alpha),
                  lambda t: c * t ** (exponent - alpha))


def within(label: str, value: float, lo: float, hi: float) -> list:
    if not (math.isfinite(value) and lo <= value <= hi):
        return [f"{label} = {value!r} outside [{lo}, {hi}]"]
    return []


def check_norm(seminorm: float, pinned: str = None, bounds: Bounds = None,
               floor: float = None) -> list:
    """A grid seminorm against a builtin's pins, an input's analytic bound and,
    when one is known, a lower bound."""
    problems = []
    if floor is not None and not seminorm >= floor:
        problems.append(f"seminorm {seminorm!r} is below its lower bound {floor!r}")
    if pinned is not None:
        problems += within(f"{pinned} seminorm", seminorm, *PINNED_NORM[pinned])
    if bounds is not None and not seminorm <= bounds.seminorm_cap * (1.0 + bounds.slack):
        problems.append(f"seminorm {seminorm!r} exceeds its analytic bound "
                        f"{bounds.seminorm_cap!r}")
    return problems


def close(label: str, value: float, want: float, tol: float) -> list:
    if not abs(value - want) <= tol * abs(want):
        return [f"{label} {value!r} differs from the reference {want!r} by more "
                f"than {tol:.0e} of it"]
    return []


def check_distance(estimate: float, seminorm: float, scale: float,
                   pinned: str = None, bounds: Bounds = None,
                   floor: float = None, reference: Reference = None) -> list:
    """A limit estimate taken at remoteness `scale` and the seminorm: the
    seminorm as in check_norm, the estimate against the input's analytic
    tail bound, and both against reference values."""
    problems = check_norm(seminorm, pinned, bounds, floor)
    if reference is not None:
        problems += close("seminorm", seminorm, reference.seminorm, reference.tol_seminorm)
        problems += close("estimate", estimate, reference.estimate, reference.tol_estimate)
    if estimate > seminorm:
        problems.append(f"estimate {estimate!r} exceeds the seminorm {seminorm!r}")
    if bounds is not None:
        cap = bounds.tail_cap(scale)
        if not estimate <= cap * (1.0 + bounds.slack):
            problems.append(f"estimate {estimate!r} at remoteness {scale!r} exceeds "
                            f"its analytic bound {cap!r}")
    return problems


def check_sandwich(report) -> list:
    if not report.sandwich_ok:
        return [f"sandwich_ok is false: estimate {report.limsup_estimate!r} "
                f"+- {report.uncertainty!r} against best certified bound "
                f"{report.best_upper!r}"]
    return []


def check_assumption(report) -> list:
    if not report.verdict:
        return [f"assumption verdict fails: member max {max(report.member_norms)!r}"
                f" vs input {report.input_norm!r}, last ambient distance "
                f"{report.x_distances[-1]!r} vs tolerance {report.x_tolerance!r}"]
    return []


def check_cli(expected_exit: int, exit_code: int, report_text: str = None,
              pinned: str = None, bounds: Bounds = None,
              expect: dict = None) -> list:
    """Exit code against the declared one; when the job succeeded the report
    must parse, a norm or distance report must meet the pins or bounds of
    its input, and the report must carry the expected values (key -> (lo,
    hi))."""
    problems = []
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code} != declared {expected_exit}")
    if expected_exit != 0 or exit_code != 0:
        return problems
    try:
        report = json.loads(report_text)
    except (TypeError, ValueError) as exc:
        return problems + [f"report does not parse: {exc}"]
    if "tail_profile" in report:
        rows = [row for row in report["tail_profile"] if row[1] is not None]
        problems += check_distance(report["limsup_estimate"], rows[0][1], rows[-1][0],
                                   pinned, bounds)
    elif "value" in report:
        problems += check_norm(report["value"], pinned, bounds)
    for key, (lo, hi) in (expect or {}).items():
        if key not in report:
            problems.append(f"report lacks '{key}'")
        else:
            problems += within(f"report '{key}'", report[key], lo, hi)
    return problems
