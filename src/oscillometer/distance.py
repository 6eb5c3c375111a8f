"""Distance-to-the-vanishing-subspace estimation and its consistency check.

The estimator reports the tail-limit of the family evaluations as
(estimate, uncertainty) and never claims equality with the true distance:
grid suprema are one-sided.  The companion check holds the estimate to the
grid's triangle inequality est(f) <= ||f - g|| + est(g) for candidates g
certified to have small tails themselves, whose ||f - g|| bound the distance
from above.  The inequality holds on any grid of seminorm entries, so a
violation signals an implementation bug, not a mathematical possibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .family import (OperatorFamilyGrid, TailProfile, limsup_estimate,
                     tail_profile)
from .spaces import SpaceDescriptor, build_family


def certification_threshold(f_norm: float) -> float:
    """A candidate counts as vanishing if its own tail estimate stays below
    max(1e-2, 5% of ||f||): smoothed functions keep small but nonzero grid
    tails."""
    return max(1e-2, 0.05 * f_norm)


def distance_estimate(desc: SpaceDescriptor, f,
                      grid: Optional[OperatorFamilyGrid] = None):
    """Tail-limit estimate of the distance from f to the vanishing subspace.

    Returns (estimate, uncertainty, profile).
    """
    grid = grid if grid is not None else build_family(desc)
    profile = tail_profile(grid, grid.evaluate_all(f))
    estimate, uncertainty = limsup_estimate(profile)
    return estimate, uncertainty, profile


@dataclass
class DistanceReport:
    """Tail estimate, approximant upper bounds, and the consistency verdict."""

    limsup_estimate: float
    uncertainty: float
    tail_profile: TailProfile
    upper_bounds: list              # [(approximant id, ||f - g|| grid value)]
    best_upper: Optional[float]
    sandwich_ok: bool
    seminorm: float
    rejected: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return dict(vars(self), tail_profile=self.tail_profile.to_rows(),
                    upper_bounds=[{"id": i, "value": v} for i, v in self.upper_bounds],
                    rejected=[{"id": i, "tail": t, "threshold": thr}
                              for i, t, thr in self.rejected])


def sandwich_check(desc: SpaceDescriptor, f, approximants, ids=None,
                   grid: Optional[OperatorFamilyGrid] = None) -> DistanceReport:
    """Check est(f) <= ||f - g|| + est(g) + rounding for every approximant g
    whose own tail certifies it as vanishing; best_upper, the least such
    ||f - g||, bounds the true distance, and rejected g give no bound.

    Entries are seminorms and both estimates are maxima over the same tail
    entries, so the inequality holds on any grid; only a non-subadditive
    evaluator breaks it.  rounding = sqrt(eps) (||f|| + ||f - g|| + ||g||),
    sqrt(eps) = 2**-26: product sums read an entry to a few eps of its terms;
    the moment kernels (bmo at p = 2, rect, qk's Littlewood-Paley form) take
    sqrt(max(m2 - |m1|**2, 0)), which an error e in the difference moves by
    up to sqrt(e): about sqrt(eps) of the function's scale (its seminorm).
    """
    grid = grid if grid is not None else build_family(desc)
    estimate, uncertainty, profile = distance_estimate(desc, f, grid)
    # every entry counts at level 0, so its tail sup is the seminorm
    f_norm = float(profile.tail_sups[0])
    threshold = certification_threshold(f_norm)
    if ids is None:
        ids = [f"g{i}" for i in range(len(approximants))]
    if len(ids) != len(approximants):
        raise ConfigError("approximant ids and list lengths differ")
    upper_bounds, rejected = [], []
    ok = True
    for gid, g in sorted(zip(ids, approximants), key=lambda t: str(t[0])):
        g_est, _, g_profile = distance_estimate(desc, g, grid)
        if g_est > threshold:
            rejected.append((gid, g_est, threshold))
            continue
        diff_norm = float(tail_profile(grid, grid.evaluate_all(f - g)).tail_sups[0])
        upper_bounds.append((gid, diff_norm))
        rounding = 2.0 ** -26 * (f_norm + diff_norm + float(g_profile.tail_sups[0]))
        ok = ok and estimate <= diff_norm + g_est + rounding
    best = min((ub for _, ub in upper_bounds), default=None)
    return DistanceReport(
        limsup_estimate=estimate,
        uncertainty=uncertainty,
        tail_profile=profile,
        upper_bounds=upper_bounds,
        best_upper=best,
        sandwich_ok=ok,
        seminorm=f_norm,
        rejected=rejected,
    )
