"""Discretised operator families: grid suprema and tail-limit estimation.

A family grid holds one entry per sampled operator parameter together with a
remoteness scale rho > 0 that shrinks exactly when the parameter escapes every
compact set.  The seminorm is the exact maximum of the per-entry evaluations
over the grid; the tail profile restricts that maximum to entries with
rho <= t for a shrinking dyadic ladder of scales t, and its last level is the
reported limit estimate.  Each grid derives its ladder from its own
remoteness when it is built, the halvings of the largest rho down to the
smallest, and with it the level at which every entry enters the profile.
The readers `seminorm_sup` and `tail_profile` refuse a non-finite value; no
evaluator can give a negative one (each ends in abs or sqrt(max(., 0))).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError
from .funcrep import _owned


def thread_budget() -> int:
    """1: every family evaluator runs on the caller's thread.  Kept for
    callers that record a worker count; no variable or option sets it."""
    return 1


class OperatorFamilyGrid:
    """Sampled operator family for one space.

    entries are exposed as parallel arrays: `describe(idx)` returns the
    parameters of entries idx as an `np.recarray`, `remoteness[i]` is entry
    i's scale, and `evaluate_all(f)` returns the vector of per-entry values
    ||L_i f||, checked for its shape only; `remoteness` is held under the
    sample objects' ownership rule (`funcrep._owned`).  `default_scales` is
    the grid's dyadic tail ladder, read-only: t0 2^-k for k = 0..K, from
    t0 = max rho down to the last halving not below min rho.
    """

    def __init__(self, space_tag: str,
                 describe: Callable[[np.ndarray], np.recarray], remoteness,
                 eval_all: Callable[[object], np.ndarray],
                 allowance_rel: float):
        remoteness = _owned(remoteness, float)
        if remoteness.ndim != 1 or remoteness.size == 0:
            raise ConfigError("empty family grid: remoteness must be a non-empty vector")
        lo, t0 = remoteness.min(), remoteness.max()
        if not (lo > 0 and t0 < np.inf):    # a NaN fails both
            raise ConfigError("remoteness scales must be positive and finite")
        self.space_tag = space_tag
        self.describe = describe
        self.remoteness = remoteness
        self._eval_all = eval_all
        self.allowance_rel = float(allowance_rel)
        depth = int(np.floor(np.log2(t0 / lo) + 1e-9))
        scales = t0 * 0.5 ** np.arange(depth + 1)
        scales.setflags(write=False)
        self.default_scales = scales
        # remoteness = mant 2^exps, mant in [0.5, 1): exps numbers each entry's
        # power-of-two bin, for the coarseness check, and gives its level, 1 +
        # the finest k with remoteness <= scales[k] (1 + 1e-12), 0 if none.
        # That bound is top_mant 2^(top_exp - k) exactly, so k qualifies iff
        # exps + k < top_exp, or exps + k == top_exp and mant <= top_mant.  The
        # grid keeps the runs of equal level, found 2^16 entries at a time
        top_mant, top_exp = np.frexp(scales[0] * (1 + 1e-12))
        e_lo = np.frexp(lo)[1]
        bins = np.zeros(np.frexp(t0)[1] - e_lo + 1, np.int64)
        runs, last = [], -1
        for k in range(0, remoteness.size, 1 << 16):
            mant, exps = np.frexp(remoteness[k:k + (1 << 16)])
            bins += np.bincount(exps - e_lo, minlength=bins.size)
            levels = np.clip(top_exp - exps - (mant > top_mant) + 1, 0, scales.size)
            at = np.flatnonzero(np.not_equal(levels, np.append(last, levels[:-1])))
            runs.append((at + k, levels[at].astype(np.min_scalar_type(scales.size))))
            last = levels[-1]
        if np.count_nonzero(bins) < 6:
            raise ConfigError("family resolution too coarse: fewer than 6 dyadic levels")
        self._run_starts, self._run_levels = map(np.concatenate, zip(*runs))

    def __len__(self) -> int:
        return self.remoteness.size

    @property
    def params(self) -> list:
        """Every entry's parameters as plain tuples, in entry order."""
        return self.describe(np.arange(len(self))).tolist()

    def evaluate_all(self, f) -> np.ndarray:
        vals = np.asarray(self._eval_all(f), dtype=float)
        if vals.shape != (len(self),):
            raise NumericalError("family evaluation returned a malformed vector")
        return vals


@dataclass(frozen=True)
class SeminormReport:
    """Exact grid supremum with the first parameter attaining it (the
    witness, one `np.record`)."""

    value: float
    argmax_param: np.record
    grid_size: int

    def to_dict(self) -> dict:
        return dict(vars(self), argmax_param=_param_dict(self.argmax_param))


def _param_dict(param: np.record) -> dict:
    """The witness's fields as JSON values: complex numbers as [re, im] and
    subarray fields as lists."""
    fields = {name: param[name].tolist() for name in param.dtype.names}
    return {name: [v.real, v.imag] if isinstance(v, complex) else v
            for name, v in fields.items()}


class TailProfile:
    """Non-increasing tail suprema S(t_k) = max{ ||Lf|| : rho(L) <= t_k }.

    Levels with no qualifying entries are marked empty (NaN), not errors.
    """

    def __init__(self, scales, tail_sups, allowance_rel: float = 0.02):
        scales = np.asarray(scales, dtype=float)
        tail_sups = np.asarray(tail_sups, dtype=float)
        if scales.shape != tail_sups.shape or scales.ndim != 1:
            raise ConfigError("scales and tail sups must be parallel vectors")
        if np.any(np.diff(scales) >= 0):
            raise ConfigError("scales must be strictly decreasing")
        filled = tail_sups[~np.isnan(tail_sups)]
        if np.any(np.diff(filled) > 1e-12 * np.maximum(1.0, filled[:-1])):
            raise NumericalError("tail suprema must be non-increasing")
        self.scales = scales
        self.tail_sups = tail_sups
        self.allowance_rel = float(allowance_rel)

    def nonempty(self) -> tuple[np.ndarray, np.ndarray]:
        mask = ~np.isnan(self.tail_sups)
        return self.scales[mask], self.tail_sups[mask]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["scale", "tail_sup"])
        for t, s in zip(self.scales, self.tail_sups):
            writer.writerow([repr(float(t)), "" if np.isnan(s) else repr(float(s))])
        return buf.getvalue()

    def to_rows(self) -> list:
        return [[float(t), None if np.isnan(s) else float(s)]
                for t, s in zip(self.scales, self.tail_sups)]


def seminorm_sup(fam: OperatorFamilyGrid, f) -> SeminormReport:
    """Exact maximum of the family evaluations over the grid.

    Ties resolve to the first entry in grid order.
    """
    vals = fam.evaluate_all(f)
    idx = int(np.argmax(vals))      # the first NaN if any, else the first inf
    if not np.isfinite(vals[idx]):
        raise NumericalError("family evaluation produced non-finite values")
    return SeminormReport(float(vals[idx]), fam.describe(np.array([idx]))[0],
                          len(fam))


def tail_profile(fam: OperatorFamilyGrid, values: np.ndarray) -> TailProfile:
    """Tail suprema over the grid's dyadic ladder of the value vector
    `fam.evaluate_all(f)`."""
    scales = fam.default_scales
    # a NaN or inf carries into its run's max: refused there, before .at warns
    runs = np.maximum.reduceat(values, fam._run_starts)
    if not np.all(np.isfinite(runs)):
        raise NumericalError("family evaluation produced non-finite values")
    maxima = np.full(scales.size + 1, -np.inf)
    np.maximum.at(maxima, fam._run_levels, runs)
    # an entry counts at its finest level and every coarser one: a running
    # max from the finest level outward (max is order-free, so exact)
    sups = np.maximum.accumulate(maxima[:0:-1])[::-1]
    sups[sups == -np.inf] = np.nan
    return TailProfile(scales, sups, allowance_rel=fam.allowance_rel)


def limsup_estimate(profile: TailProfile) -> tuple[float, float]:
    """Last-level tail sup plus a one-sided uncertainty.

    The estimate is the sup at the finest non-empty scale; the uncertainty adds
    the gap to the previous level and the grid-resolution allowance.  The pair
    is always reported together.
    """
    _, sups = profile.nonempty()
    if sups.size < 3:
        raise ConfigError("insufficient tail")
    estimate = float(sups[-1])
    uncertainty = float(abs(sups[-1] - sups[-2])) + profile.allowance_rel * estimate
    return estimate, uncertainty
