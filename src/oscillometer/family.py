"""Discretised operator families: grid suprema and tail-limit estimation.

A family grid holds one entry per sampled operator parameter together with a
remoteness scale rho > 0 that shrinks exactly when the parameter escapes every
compact set.  The seminorm is the exact maximum of the per-entry evaluations
over the grid; the tail profile restricts that maximum to entries with
rho <= t for a shrinking dyadic ladder of scales t, and its last level is the
reported limit estimate.  Each grid fixes its ladder when it is built, and
with it the level at which every entry enters the profile.
"""

from __future__ import annotations

import csv
import io
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NumericalError
from .funcrep import _owned


def thread_budget() -> int:
    """Worker count from OSCILLOMETER_THREADS (0 or unset = auto)."""
    raw = os.environ.get("OSCILLOMETER_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"OSCILLOMETER_THREADS must be an integer, got {raw!r}")
    if n < 0:
        raise ConfigError("OSCILLOMETER_THREADS must be >= 0")
    if n == 0:
        return min(4, os.cpu_count() or 1)
    return n


def map_chunks(fn: Callable[[int, int], np.ndarray], size: int,
               chunks: int) -> np.ndarray:
    """fn(lo, hi) over `chunks` contiguous slices of range(size), joined.

    The slices run on thread_budget() workers; with one worker, fn(0, size)
    runs in the caller.  fn must compute each entry independently of the
    slice it is in, so the result does not depend on the thread count.
    """
    workers = thread_budget()
    if workers <= 1 or chunks <= 1:
        return fn(0, size)
    bounds = np.linspace(0, size, chunks + 1).astype(int)
    out = np.empty(size)

    def run(i):
        lo, hi = bounds[i], bounds[i + 1]
        if hi > lo:
            out[lo:hi] = fn(lo, hi)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, range(chunks)))
    return out


class OperatorFamilyGrid:
    """Sampled operator family for one space.

    entries are exposed as parallel arrays: `describe(idx)` returns the
    parameters of entries idx as an `np.recarray`, `remoteness[i]` is entry
    i's scale, and `evaluate_all(f)` returns the vector of per-entry values
    ||L_i f||; `remoteness` is held under the sample objects' ownership rule
    (`funcrep._owned`).  `default_scales` is the grid's dyadic tail ladder,
    validated and frozen here.
    """

    def __init__(self, space_tag: str,
                 describe: Callable[[np.ndarray], np.recarray], remoteness,
                 eval_all: Callable[[object], np.ndarray],
                 allowance_rel: float, default_scales):
        remoteness = _owned(remoteness, float)
        if remoteness.ndim != 1 or remoteness.size == 0:
            raise ConfigError("empty family grid: remoteness must be a non-empty vector")
        if not np.all((remoteness > 0) & (remoteness < np.inf)):
            raise ConfigError("remoteness scales must be positive and finite")
        # remoteness = mant 2^exps with mant in [0.5, 1): exps numbers the
        # power-of-two bin of each entry, for the coarseness check and the levels
        mant, exps = np.frexp(remoteness)
        if np.count_nonzero(np.bincount(exps - exps.min())) < 6:
            raise ConfigError("family resolution too coarse: fewer than 6 dyadic levels")
        self.space_tag = space_tag
        self.describe = describe
        self.remoteness = remoteness
        self._eval_all = eval_all
        self.allowance_rel = float(allowance_rel)
        scales = np.array(default_scales, dtype=float)
        if scales.ndim != 1 or scales.size == 0 or np.any(scales <= 0):
            raise ConfigError("scale ladder must be a positive vector")
        if np.any(scales[1:] * 2 != scales[:-1]):
            raise ConfigError("scale ladder must be dyadic (each level half the last)")
        scales.setflags(write=False)
        self.default_scales = scales
        # per entry, 1 + the finest level k with remoteness <= scales[k]
        # (1 + 1e-12), 0 if none: the level it enters the tail profile at.
        # That bound is top_mant 2^(top_exp - k) exactly, so k qualifies iff
        # exps + k < top_exp, or exps + k == top_exp and mant <= top_mant
        top_mant, top_exp = np.frexp(scales[0] * (1 + 1e-12))
        levels = np.clip(top_exp - exps - (mant > top_mant) + 1, 0, scales.size)
        self._entry_levels = levels.astype(np.min_scalar_type(scales.size))

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
        if not np.all(np.isfinite(vals)):
            raise NumericalError("family evaluation produced non-finite values")
        if np.any(vals < 0):
            raise NumericalError("family evaluation produced negative values")
        return vals


def dyadic_scales(t0: float, t_min: float, max_levels: int = 24) -> np.ndarray:
    """Ladder t0, t0/2, ... down to the last level >= t_min (at most max_levels)."""
    if t0 <= 0 or t_min <= 0 or t_min > t0:
        raise ConfigError("invalid scale ladder bounds")
    k = min(int(np.floor(np.log2(t0 / t_min) + 1e-9)), max_levels - 1)
    return t0 * 0.5 ** np.arange(k + 1)


@dataclass(frozen=True)
class SeminormReport:
    """Exact grid supremum with the first parameter attaining it (the
    witness, one `np.record`)."""

    value: float
    argmax_param: np.record
    grid_size: int

    def to_dict(self) -> dict:
        return {"value": self.value, "argmax_param": _param_dict(self.argmax_param),
                "grid_size": self.grid_size}


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


def seminorm_sup(fam: OperatorFamilyGrid, f,
                 values: Optional[np.ndarray] = None) -> SeminormReport:
    """Exact maximum of the family evaluations over the grid.

    Ties resolve to the first entry in grid order.  A precomputed value vector
    may be passed to share work with tail_profile.
    """
    if len(fam) == 0:
        raise ConfigError("empty family grid")
    vals = fam.evaluate_all(f) if values is None else values
    idx = int(np.argmax(vals))
    return SeminormReport(float(vals[idx]), fam.describe(np.array([idx]))[0],
                          len(fam))


def tail_profile(fam: OperatorFamilyGrid, f,
                 values: Optional[np.ndarray] = None) -> TailProfile:
    """Tail suprema of the family evaluations over the grid's dyadic ladder."""
    vals = fam.evaluate_all(f) if values is None else values
    scales = fam.default_scales
    maxima = np.full(scales.size + 1, -np.inf)
    np.maximum.at(maxima, fam._entry_levels, vals)
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
