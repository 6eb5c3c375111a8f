"""Distance-to-the-vanishing-subspace estimation and its consistency check.

The estimator reports the tail-limit of the family evaluations as
(estimate, uncertainty) and never claims equality with the true distance:
grid suprema are one-sided.  The companion check confronts the estimate with
approximant upper bounds ||f - g|| over candidates g certified to have small
tails themselves; the tail limit can never exceed such an upper bound beyond
the reported uncertainty (plus a small comparison slack), so a violation
signals an implementation bug, not a mathematical possibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .family import (OperatorFamilyGrid, TailProfile, limsup_estimate,
                     seminorm_sup, tail_profile)
from .spaces import SpaceDescriptor, build_family

SANDWICH_SLACK = 1e-3


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
    if grid is None:
        grid = build_family(desc)
    values = grid.evaluate_all(f)
    profile = tail_profile(grid, f, values=values)
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
    slack: float = SANDWICH_SLACK

    def to_dict(self) -> dict:
        return {
            "limsup_estimate": self.limsup_estimate,
            "uncertainty": self.uncertainty,
            "tail_profile": self.tail_profile.to_rows(),
            "upper_bounds": [{"id": i, "value": v} for i, v in self.upper_bounds],
            "best_upper": self.best_upper,
            "sandwich_ok": self.sandwich_ok,
            "seminorm": self.seminorm,
            "rejected": [{"id": i, "tail": t, "threshold": thr}
                         for i, t, thr in self.rejected],
            "slack": self.slack,
        }


def sandwich_check(desc: SpaceDescriptor, f, approximants,
                   ids=None, slack: float = SANDWICH_SLACK,
                   grid: Optional[OperatorFamilyGrid] = None) -> DistanceReport:
    """Verify the one-sided bound: tail estimate <= ||f - g|| + uncertainty + slack
    for every approximant g whose own tail certifies it as vanishing.

    Approximants failing certification are rejected with a diagnostic; they
    would not support the bound.  best_upper is an upper bound for the true
    distance and can never fall below estimate - uncertainty - slack.
    """
    if grid is None:
        grid = build_family(desc)
    values = grid.evaluate_all(f)
    profile = tail_profile(grid, f, values=values)
    estimate, uncertainty = limsup_estimate(profile)
    f_norm = float(np.max(values))
    threshold = certification_threshold(f_norm)
    if ids is None:
        ids = [f"g{i}" for i in range(len(approximants))]
    if len(ids) != len(approximants):
        raise ConfigError("approximant ids and list lengths differ")
    upper_bounds, rejected = [], []
    for gid, g in sorted(zip(ids, approximants), key=lambda t: str(t[0])):
        g_values = grid.evaluate_all(g)
        g_profile = tail_profile(grid, g, values=g_values)
        g_est, _ = limsup_estimate(g_profile)
        if g_est > threshold:
            rejected.append((gid, g_est, threshold))
            continue
        diff_norm = float(np.max(grid.evaluate_all(f - g)))
        upper_bounds.append((gid, diff_norm))
    ok = all(estimate <= ub + uncertainty + slack for _, ub in upper_bounds)
    best = min((ub for _, ub in upper_bounds), default=None)
    return DistanceReport(
        limsup_estimate=estimate,
        uncertainty=uncertainty,
        tail_profile=profile,
        upper_bounds=upper_bounds,
        best_upper=best,
        sandwich_ok=bool(ok),
        seminorm=f_norm,
        rejected=rejected,
        slack=slack,
    )
