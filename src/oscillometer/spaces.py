"""The six concrete space instantiations: one family builder per space.

Each builder samples the space's operator parameters (arcs, disc points,
automorphism centres, point pairs, arc pairs) on a grid with a remoteness
scale rho > 0 shrinking exactly when the parameter escapes to infinity, from
which the grid derives its tail ladder, and returns one vectorised evaluator
giving ||L f|| for every entry at once:

    bmo_circle   arcs, rho = |I|
    bloch        disc points, rho = 1 - |w|
    qk           automorphism centres, rho = 1 - |a|
    weighted     domain points, rho = min(dist to boundary, 1/(1+|z|))
    lip          point pairs, rho = |x - y|
    rect_bmo     arc pairs, rho = min(|I|, |J|)

Disc grids mix a uniform radial fill with dyadic boundary shells: the shells
feed the tail levels while the fill keeps interior maxima resolved.  All
angular grids are rotation-closed (uniform), which several contraction tests
rely on.  The single-entry references the tests check the kernels against
(`bmo_oscillation`, `qk_local`) live in the tests, not here.

`_SPACES`, at the end, is the one table of spaces: each record holds a
space's builder, input representation, allowance, resolution keys and
config keys, and every other module reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (COUNT_CAP, EXPONENT_CAP, LENGTH_CAP, ConfigError,
                     check_keys, config_block, config_number, config_numbers)
from .family import OperatorFamilyGrid
from .funcrep import (TWO_PI, BoxDomain, EuclideanSamples, PeriodicSamples,
                      QuadratureRule, TaylorFunction, TorusSamples,
                      _arc_means, _node_prefix, _node_sums, _window_layout,
                      _window_means, disk_quadrature, mobius_apply)

# ---------------------------------------------------------------------------
# kernels and weights
# ---------------------------------------------------------------------------

class KKernel:
    """Kernel K: (0, inf) -> [0, inf) for the invariant-integral space.

    Construction checks (by sampling) that K is non-negative and
    non-decreasing, and that K(log 1/|z|) has a finite disc integral.
    `exponent` is s when K is known to be t**s (the config's power kernel),
    else None; the name is only a label.
    """

    def __init__(self, eval_fn: Callable, name: str = "custom",
                 exponent: Optional[float] = None):
        self.eval_fn = eval_fn
        self.name = name
        self.exponent = exponent
        t = np.concatenate([np.logspace(-6, 1, 200), [20.0, 50.0]])
        # a sample that overflows is refused below as non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(eval_fn(t), dtype=float)
        if np.any(~np.isfinite(vals)) or np.any(vals < -1e-15):
            raise ConfigError(f"kernel '{name}' must be finite and non-negative")
        if np.any(np.diff(vals) < -1e-12 * np.maximum(1.0, np.abs(vals[:-1]))):
            raise ConfigError(f"kernel '{name}' must be non-decreasing")
        if not np.any(vals > 0):
            raise ConfigError(f"kernel '{name}' must not vanish identically")
        mass = disk_quadrature(lambda z: self(np.log(1.0 / np.abs(z))),
                               QuadratureRule(32, 64))
        if not np.isfinite(mass):
            raise ConfigError(f"kernel '{name}': K(log 1/|z|) not integrable")

    def __call__(self, t):
        return np.asarray(self.eval_fn(np.asarray(t, dtype=float)), dtype=float)


def kernel_from_config(cfg) -> KKernel:
    """{"name": "power", "exponent": s} -> K(t) = t**s;  {"name": "one"} -> 1."""
    if isinstance(cfg, KKernel):
        return cfg
    if cfg is None:
        cfg = {"name": "power", "exponent": 1.0}
    name = cfg.get("name", "power")
    if name == "power":
        check_keys(cfg, ("name", "exponent"), "for kernel 'power'")
        s = config_number(cfg, "exponent", 1.0)
        if s <= 0:
            raise ConfigError("power kernel needs a positive exponent")
        return KKernel(lambda t, s=s: t ** s, name=f"power[{s}]", exponent=s)
    if name == "one":
        check_keys(cfg, ("name",), "for kernel 'one'")
        return KKernel(lambda t: np.ones_like(t), name="one")
    if name == "min_t_1":
        check_keys(cfg, ("name",), "for kernel 'min_t_1'")
        return KKernel(lambda t: np.minimum(t, 1.0), name="min_t_1")
    raise ConfigError(f"unknown kernel '{name}'")


# the (lower, upper) bound pairs each weighted domain kind reads
_DOMAIN_BOUNDS = {"disc": (), "annulus": (("r0", "r1"),),
                  "box": (("x0", "x1"), ("y0", "y1"))}


class WeightV:
    """Strictly positive continuous weight on a planar domain.

    boundary_remoteness(z) = min(dist(z, boundary), 1/(1+|z|)) so escape both
    toward the boundary and toward infinity drives the scale to zero.
    """

    def __init__(self, eval_fn: Callable, domain: dict, name: str = "custom"):
        self.eval_fn = eval_fn
        self.name = name
        kind = domain.get("kind", "disc")
        if not isinstance(kind, str) or kind not in _DOMAIN_BOUNDS:
            raise ConfigError(f"unsupported weighted domain '{kind}'")
        check_keys(domain, ("kind", *sum(_DOMAIN_BOUNDS[kind], ())), f"for domain '{kind}'")
        self.domain = dict(domain, kind=kind)
        for lo, hi in _DOMAIN_BOUNDS[kind]:
            a, b = (config_number(domain, key, None, float, LENGTH_CAP)
                    for key in (lo, hi))
            if not a < b:
                raise ConfigError(f"{kind} domain needs {lo} < {hi}, got {a} and {b}")
            self.domain.update({lo: a, hi: b})
        if kind == "annulus" and self.domain["r0"] < 0:
            raise ConfigError(f"annulus domain needs r0 >= 0, got {self.domain['r0']}")

    def __call__(self, z):
        return np.asarray(self.eval_fn(np.asarray(z, dtype=complex)), dtype=float)

    def boundary_distance(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        kind = self.domain["kind"]
        if kind == "disc":
            return 1.0 - np.abs(z)
        if kind == "annulus":
            r0, r1 = self.domain["r0"], self.domain["r1"]
            return np.minimum(np.abs(z) - r0, r1 - np.abs(z))
        x0, x1 = self.domain["x0"], self.domain["x1"]
        y0, y1 = self.domain["y0"], self.domain["y1"]
        return np.minimum(np.minimum(z.real - x0, x1 - z.real),
                          np.minimum(z.imag - y0, y1 - z.imag))

    def boundary_remoteness(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        return np.minimum(self.boundary_distance(z), 1.0 / (1.0 + np.abs(z)))


def weight_from_config(cfg) -> WeightV:
    if isinstance(cfg, WeightV):
        return cfg
    if cfg is None:
        cfg = {"name": "one_minus_r2"}
    name = cfg.get("name", "one_minus_r2")
    domain = config_block(cfg, "domain")
    if name == "one_minus_r2":
        check_keys(cfg, ("name", "domain"), "for weight 'one_minus_r2'")
        return WeightV(lambda z: 1.0 - np.abs(z) ** 2, domain, name=name)
    if name == "power_dist":
        check_keys(cfg, ("name", "exponent", "domain"), "for weight 'power_dist'")
        s = config_number(cfg, "exponent", 1.0)
        w = WeightV(lambda z: np.ones(np.shape(z)), domain, name=name)
        return WeightV(lambda z, w=w, s=s: w.boundary_distance(z) ** s, domain, name=name)
    raise ConfigError(f"unknown weight '{name}'")


# ---------------------------------------------------------------------------
# descriptor
# ---------------------------------------------------------------------------

@dataclass
class SpaceDescriptor:
    """Complete recipe for one space: which triple to build and how finely."""

    tag: str
    p: float = 1.0
    alpha: float = 0.5
    kernel: Optional[KKernel] = None
    weight: Optional[WeightV] = None
    lip_domain: Optional[BoxDomain] = None
    resolution: dict = field(default_factory=dict)

    def __post_init__(self):
        _space(self.tag)
        if self.tag == "bmo_circle" and not self.p >= 1.0:
            raise ConfigError(f"oscillation exponent p must be >= 1, got {self.p}")
        if self.tag == "lip":
            if not (0.0 < self.alpha <= 1.0):
                raise ConfigError(f"alpha must lie in (0, 1], got {self.alpha}")
            if self.lip_domain is None:
                self.lip_domain = BoxDomain([0.0], [1.0], 0.01)
        if self.tag == "qk" and self.kernel is None:
            self.kernel = kernel_from_config(None)
        if self.tag == "weighted" and self.weight is None:
            self.weight = weight_from_config(None)
        # each value takes its default's type and lies in [least, cap];
        # bmo midpoints may be "all", and qk's extra centre radii in [0, 1)
        keys = _SPACES[self.tag].resolution
        merged = {key: default for key, (default, _, _) in keys.items()}
        for key, value in self.resolution.items():
            if key not in keys:
                raise ConfigError(f"unknown resolution key '{key}' for space "
                                  f"'{self.tag}'")
            default, least, cap = keys[key]
            if isinstance(default, tuple):
                value = tuple(config_numbers(self.resolution, key))
                if not all(least <= r < cap for r in value):
                    raise ConfigError(f"resolution '{key}' must lie in [{least}, "
                                      f"{cap}), got {list(value)}")
            elif not (self.tag == "bmo_circle" and key == "midpoints"
                      and value == "all"):
                value = config_number(self.resolution, key, None, type(default), cap)
                if value < least:
                    raise ConfigError(f"resolution '{key}' must be at least "
                                      f"{least}, got {value!r}")
            merged[key] = value
        self.resolution = merged

    @property
    def representation(self) -> type:
        """The one input representation the space takes."""
        return _SPACES[self.tag].representation

    @classmethod
    def from_config(cls, cfg: dict) -> "SpaceDescriptor":
        if "space" not in cfg:
            raise ConfigError("space config needs a 'space' key")
        tag = cfg["space"]
        check_keys(cfg, ("space", "resolution", *_space(tag).keys), f"for space '{tag}'")
        kwargs = {"tag": tag, "resolution": dict(config_block(cfg, "resolution"))}
        if "p" in cfg:
            kwargs["p"] = config_number(cfg, "p", None)
        if "alpha" in cfg:
            kwargs["alpha"] = config_number(cfg, "alpha", None)
        if tag == "qk":
            kwargs["kernel"] = kernel_from_config(config_block(cfg, "K"))
        if tag == "weighted":
            kwargs["weight"] = weight_from_config(config_block(cfg, "weight"))
        if tag == "lip" and "domain" in cfg:
            d = config_block(cfg, "domain", ("lo", "hi", "step"))
            kwargs["lip_domain"] = BoxDomain(
                config_numbers(d, "lo", cap=LENGTH_CAP),
                config_numbers(d, "hi", cap=LENGTH_CAP),
                config_number(d, "step", None, float, LENGTH_CAP))
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# the automorphism composition
# ---------------------------------------------------------------------------

def compose_mobius(f: TaylorFunction, a: complex, lam: complex = 1.0) -> TaylorFunction:
    """g = f o phi - f(phi(0)) for the automorphism phi with centre a.

    Closed-form only: g'(z) = f'(phi(z)) phi'(z); used by the invariance check.
    phi is validated (by `mobius_apply`) before f is evaluated anywhere.
    """
    phi0, _ = mobius_apply(a, lam, 0.0)
    centre_val = complex(np.asarray(f.value(phi0)).item())

    def value(z):
        phi, _ = mobius_apply(a, lam, z)
        return f.value(phi) - centre_val

    def deriv(z):
        phi, dphi = mobius_apply(a, lam, z)
        return f.deriv(phi) * dphi

    return TaylorFunction(None, value_fn=value, deriv_fn=deriv)


# ---------------------------------------------------------------------------
# rectangular oscillation
# ---------------------------------------------------------------------------

# about this many values of the torus are centred and reduced at a time
_RECT_BLOCK = 1 << 16


def _rect_values(F: TorusSamples, arcs_i, arcs_j, block: int = _RECT_BLOCK) -> np.ndarray:
    """Rectangular oscillations of F over each arc pair I x J, with the I
    arcs (zeta) and J arcs (lambda) given by their `_window_layout`s, J-major
    order: the square root of the I x J mean of |F - F_J(zeta) - F_I(lambda)
    + F_IxJ|^2.

    Two-way centring first removes any g(zeta) + h(lambda), to which the
    oscillation is exactly invariant: the moment cancellation is then
    conditioned on the oscillation scale, and one-variable inputs vanish
    identically.  Every pair comes from four moments of I x J means:
    q^2 = E|F|^2 - E_I |F_J|^2 - E_J |F_I|^2 + |F_IxJ|^2, where F_J(zeta)
    and F_I(lambda) are the one-variable means.

    One pass reads the torus in blocks of whole zeta-segments (the rows
    between consecutive I-arc end nodes): each block is centred into one
    buffer, its J means A and U are taken, and F, A, U and |A|^2 are
    reduced per segment (`_node_sums`).  These are the pieces of the tables
    `_window_means` reduces over the whole torus, so the I means come out
    bit for bit, whatever `block` is, and one block is the whole-torus
    sequence.  No n x n temporary is formed: F_I(lambda) is formed a
    block's worth of I arcs at a time.
    """
    vals = F.values
    n = vals.shape[0]
    rowm = vals.mean(axis=1, keepdims=True)
    colm = vals.mean(axis=0, keepdims=True)
    colm = colm - colm.mean()
    nodes = arcs_i.nodes
    rows = max(1, block // n)
    # a block holds the segments whose first rows lie in one span of `rows`
    cuts = [0, *(np.flatnonzero(np.diff(nodes // rows)) + 1), nodes.size]
    ends = np.append(nodes, n)
    buf = np.empty((max(np.diff(ends[cuts])), n), vals.dtype)
    sums = [[], [], [], []]         # per block: the node sums of F, A, U, |A|^2
    for k0, k1 in zip(cuts[:-1], cuts[1:]):
        r0, r1 = ends[k0], ends[k1]
        at = nodes[k0:k1] - r0
        Fb = np.subtract(vals[r0:r1], rowm[r0:r1], out=buf[:r1 - r0])
        Fb -= colm
        A = _window_means(Fb, arcs_j, axis=1)                  # F_J per zeta
        U = _window_means(np.abs(Fb) ** 2, arcs_j, axis=1)     # J-mean of |F|^2
        for got, x, axis in zip(sums, (Fb, A, U, np.abs(A) ** 2), (0, 1, 1, 1)):
            got.append(_node_sums(x, at, axis))
    del buf, Fb, A, U
    # a prefix holds half its pieces: F's and A's go first, U's and |A|^2's as read
    prefixes = (_node_prefix(*map(list, zip(*sums.pop(0)))) for _ in range(4))
    q_f, q_a = next(prefixes), next(prefixes)
    # E_{IxJ} |F|^2 - E_I |F_J|^2 - E_J |F_I|^2 + |F_IxJ|^2, J-major
    q2 = np.subtract(_arc_means(next(prefixes), arcs_i).T,
                     _arc_means(next(prefixes), arcs_i).T, order="C")
    # E_J |F_I|^2, from `rows` I arcs (a block's size) at a time
    for lo in range(0, arcs_i.ncells.size, rows):
        B = _arc_means(q_f, arcs_i, slice(lo, lo + rows))      # F_I per lambda
        q2[:, lo:lo + rows] -= _window_means(np.abs(B) ** 2, arcs_j, axis=1)
    del q_f, B
    q2 += np.abs(_arc_means(q_a, arcs_i).T) ** 2
    return np.sqrt(np.maximum(q2, 0.0, out=q2), out=q2).ravel()


# ---------------------------------------------------------------------------
# family builders
# ---------------------------------------------------------------------------

def _records(**columns: np.ndarray) -> np.recarray:
    """One record per row of the columns, fields in keyword order.  A (k, d)
    column becomes a (d,)-subarray field: without the explicit dtype,
    np.rec.fromarrays would build a (k, d) array of records instead."""
    dtype = [(name, col.dtype, col.shape[1:]) for name, col in columns.items()]
    return np.rec.fromarrays(list(columns.values()), dtype=dtype)


def _check_size(count: int, what: str) -> None:
    """Refuse an array of more than COUNT_CAP entries before it is allocated;
    `what` names the resolution values the count is computed from."""
    if count > COUNT_CAP:
        raise ConfigError(f"{what} gives {count} entries, more than {COUNT_CAP}")


def build_family(desc: SpaceDescriptor) -> OperatorFamilyGrid:
    """Discretise the space's operator family per the descriptor's resolution."""
    space = _SPACES[desc.tag]
    describe, remoteness, eval_all = space.build(desc)
    # the builder's own fresh array, made read-only so that the grid adopts it
    # under the ownership rule: copying a large remoteness vector and freeing
    # the original shifts the allocator's state and slows later tasks
    remoteness.setflags(write=False)
    return OperatorFamilyGrid(desc.tag, describe, remoteness, eval_all,
                              space.allowance_rel)


def _arc_layout(n: int, midpoints: int, kmin: int, kmax: int):
    """Midpoint nodes x dyadic lengths, snapped exactly to the grid: the
    (start, ncells, midpoint, length) arrays, level by level."""
    if kmax - kmin + 1 < 6:
        raise ConfigError("family resolution too coarse: fewer than 6 dyadic levels")
    if midpoints < 1 or n % midpoints != 0:
        raise ConfigError("midpoint count must be a positive divisor of the grid size")
    if n * 2 ** -(kmax + 1) < 1:
        raise ConfigError(f"finest arcs under-resolved on a grid of {n}")
    levels = np.arange(kmin, kmax + 1)
    _check_size(midpoints * levels.size, "'midpoints' x 'min_len_exp'..'max_len_exp'")
    mids = np.arange(midpoints) * (n // midpoints)
    ncells = np.repeat(n >> levels, midpoints)
    starts = (np.tile(mids, levels.size) - ncells // 2) % n
    midpoint = np.tile(mids * TWO_PI / n, levels.size)
    length = np.repeat(TWO_PI * 2.0 ** -levels.astype(float), midpoints)
    return starts, ncells, midpoint, length


# the sorted path pays once a block holds this many nodes: below it the
# per-pair search costs more than the strided scan of the block it replaces
_SORTED_MIN_SPACING = 32
# the grid holds one block index per (arc, block) pair of its sorted levels
# (4 bytes each); a grid with more pairs than this keeps the direct path
_SORTED_PAIR_CAP = 1 << 20
# pairs searched at a time: a group's temporaries stay near 64 KiB each
_SORTED_GROUP = 1 << 13


def _build_bmo(desc: SpaceDescriptor):
    res = desc.resolution
    n = res["n_samples"]
    mids = n if res["midpoints"] == "all" else res["midpoints"]
    kmin, kmax = res["min_len_exp"], res["max_len_exp"]
    starts, ncells, midpoint, length = _arc_layout(n, mids, kmin, kmax)
    p = desc.p
    spacing = n // mids
    levels = [(i * mids, n >> k) for i, k in enumerate(range(kmin, kmax + 1))]
    # at p = 1, real samples on a level whose arcs are whole blocks of
    # `spacing` nodes plus the end node are read from sorted blocks
    blocked = [(off, nc) for off, nc in levels
               if p == 1.0 and spacing >= _SORTED_MIN_SPACING
               and nc % (2 * spacing) == 0]
    if mids * sum(nc for _, nc in blocked) // spacing > _SORTED_PAIR_CAP:
        blocked = []
    direct = [level for level in levels if level not in blocked]
    sorted_osc = _sorted_levels(n, spacing, blocked, starts, ncells) if blocked else None
    arcs = _window_layout(starts, ncells, n)

    def describe(idx: np.ndarray) -> np.recarray:
        return _records(midpoint=midpoint[idx], length=length[idx])

    def eval_all(f: PeriodicSamples) -> np.ndarray:
        if not isinstance(f, PeriodicSamples) or f.n != n:
            raise ConfigError("function does not match the family's circle grid")
        centred = f.values - f.values.mean()
        mean = _window_means(centred, arcs, 0)
        if p == 2.0:
            msq = _window_means(np.abs(centred) ** 2, arcs, 0).real
            return np.sqrt(np.maximum(msq - np.abs(mean) ** 2, 0.0))
        out = np.empty(ncells.size)
        todo = levels
        if sorted_osc and centred.dtype == float:
            sorted_osc(centred, mean, out)
            todo = direct
        if not todo:
            return out
        # the longest arcs left start `lead` nodes before their midpoints:
        # node j sits at j + lead, so every arc is one contiguous run
        lead = todo[0][1] // 2
        wrapped = np.concatenate([centred[n - lead:], centred, centred[:lead]])
        for off, nc in todo:
            sel = slice(off, off + mids)
            # one level's arcs start `spacing` nodes apart: strided windows
            first = lead - nc // 2
            windows = sliding_window_view(wrapped[first:], nc + 1)[::spacing][:mids]
            out[sel] = _direct_osc(windows, mean[sel], p)
        return out

    return describe, ncells * TWO_PI / n, eval_all


def _sorted_levels(n: int, spacing: int, levels: list, starts: np.ndarray,
                   ncells: np.ndarray) -> Callable:
    """The p = 1 evaluator of real samples on the bmo levels (off, nc) whose
    arcs are whole blocks of `spacing` nodes plus their end node.

    The (arc, block) pairs depend on the grid alone and are laid out here:
    arc by arc, each arc's blocks in order, in groups of whole arcs of at
    most _SORTED_GROUP pairs (more only for one arc of more blocks).

    Per call each block of B values is sorted once and split at its median
    med (the midpoint of its two middle values) into two halves, each held
    as its distances |x - med| in ascending order with their prefix sums:
    A_k sums a half's k smallest distances (`prefix`), A the whole half
    (`totals`).  An arc mean m
    lies a = |m - med| from the median.  Every value of the far half (the
    side away from m) lies its distance + a from m; of the near half, the k
    values with distance below a lie a - distance from m, the rest
    distance - a:

        sum |x - m| = (B/2 a + A_far) + ((k a - A_k) + ((A_near - A_k) - (B/2 - k) a))

    Every pair of a group finds its k in one vectorised binary search over
    B/2 values.  f -> -f swaps the halves and mirrors m, so the same sums
    come out bit for bit (a sum of prefix sums over one sorted order would
    not), as do scalings by powers of two.  The trapezoid end weights add
    (|f_last - m| - |f_first - m|) / 2 per arc."""
    entries = np.concatenate([off + np.arange(n // spacing) for off, _ in levels])
    first = starts[entries]
    last = (first + ncells[entries]) % n
    per_arc = ncells[entries] // spacing
    runs = np.concatenate([[0], np.cumsum(per_arc)])
    # arc i covers the per_arc[i] blocks from first[i] // spacing on
    blocks = ((np.repeat(first // spacing - runs[:-1], per_arc) + np.arange(runs[-1]))
              % (n // spacing)).astype(np.int32)
    # a group holds the arcs whose runs start in one span of _SORTED_GROUP pairs
    cuts = [0, *(np.flatnonzero(np.diff(runs[:-1] // _SORTED_GROUP)) + 1),
            entries.size]
    groups = [(slice(a, b), slice(runs[a], runs[b]), runs[a:b] - runs[a])
              for a, b in zip(cuts, cuts[1:])]
    half = spacing // 2

    def oscillations(centred: np.ndarray, means: np.ndarray, out: np.ndarray) -> None:
        d = np.sort(centred.reshape(-1, spacing), axis=1)
        med = (d[:, half - 1] + d[:, half]) / 2
        d -= med[:, None]
        np.abs(d, out=d)
        d[:, :half] = d[:, half - 1::-1]    # the lower half, outward
        # half h of block b is row 2 b + h (h = 1 upper) of d and of A
        d = d.reshape(-1, half)
        prefix = np.zeros((d.shape[0], half + 1))
        np.cumsum(d, axis=1, out=prefix[:, 1:])
        d, prefix, totals = d.ravel(), prefix.ravel(), prefix[:, -1].copy()
        for arcs, pairs, offsets in groups:
            m = means[entries[arcs]]
            blk = blocks[pairs]
            c = np.repeat(m, per_arc[arcs]) - med[blk]
            a = np.abs(c)
            near = 2 * blk + (c >= 0)
            k = _count_below(d, near * half, a, half)
            below = prefix.take(near * (half + 1) + k)
            dev = ((half * a + totals[near ^ 1])
                   + ((k * a - below) + ((totals[near] - below) - (half - k) * a)))
            total = np.add.reduceat(dev, offsets) + 0.5 * (
                np.abs(centred[last[arcs]] - m) - np.abs(centred[first[arcs]] - m))
            out[entries[arcs]] = np.maximum(total, 0.0) / ncells[entries[arcs]]

    return oscillations


def _count_below(srt: np.ndarray, base: np.ndarray, c: np.ndarray,
                 width: int) -> np.ndarray:
    """Per entry i, how many of the `width` sorted values srt[base[i]:
    base[i] + width] lie below c[i]: a branchless binary search whose probe
    offsets depend on width alone, so every entry moves in one vector step."""
    pos = base.astype(np.intp)
    size = width
    while size > 1:
        half = size // 2
        pos += (srt.take(pos + half) < c) * half
        size -= half
    pos += srt.take(pos) < c
    return pos - base


def _direct_osc(windows: np.ndarray, means: np.ndarray, p: float,
                chunk: int = 1 << 16) -> np.ndarray:
    """Direct trapezoid p-oscillation of each row of `windows` (the ncells + 1
    nodes of one arc, usually a strided view) about its mean.  It computes
    the tests' single-arc `bmo_oscillation` and every bmo level at p != 1,
    2, on complex samples, on grids whose blocks hold fewer than
    _SORTED_MIN_SPACING nodes or whose whole-block levels hold more than
    _SORTED_PAIR_CAP (arc, block) pairs, and on levels whose arcs are not
    whole blocks; the rest of p = 1 on real samples comes from
    `_sorted_levels`.  Rows are reduced a
    block of at most max(chunk, ncells + 1) elements at a time in one
    difference and one deviation buffer that every block reuses; the values
    do not depend on `chunk`.  The trapezoid weights are applied as a row
    sum minus half the two end nodes, not as a matrix product, which would
    hand the memory-bound reduction to a multi-threaded BLAS.  For p != 1
    rows are scaled by their largest deviation before the power, so no p
    over- or underflows: as p grows the value tends to that deviation."""
    count, width = windows.shape
    out, top = np.empty(count), np.ones(count)
    rows = min(count, max(1, chunk // width))
    diff = np.empty((rows, width), np.result_type(windows, means))
    dev = np.empty((rows, width))
    for lo in range(0, count, rows):
        hi = min(lo + rows, count)
        d, v = diff[:hi - lo], dev[:hi - lo]
        np.subtract(windows[lo:hi], means[lo:hi, None], out=d)
        np.abs(d, out=v)
        if p != 1.0:
            v.max(axis=1, out=top[lo:hi])
            np.divide(v, top[lo:hi, None], out=v, where=top[lo:hi, None] > 0)
            v **= p
        out[lo:hi] = (v.sum(axis=1) - 0.5 * (v[:, 0] + v[:, -1])) / (width - 1)
    return out ** (1.0 / p) * top


def _disc_radii(uniform: int, shells: int, shell_from: int = 1,
                extra=()) -> np.ndarray:
    radii = set(float(r) for r in extra)
    if uniform > 0:
        radii.update(np.arange(uniform) / uniform)
    radii.update(1.0 - 2.0 ** -np.arange(shell_from, shells + 1, dtype=float))
    return np.array(sorted(radii))


_DISC_KEYS = "'uniform_radii' and 'shells' radii x 'angles'"


def _build_bloch(desc: SpaceDescriptor):
    res = desc.resolution
    n_ang = res["angles"]
    radii = _disc_radii(res["uniform_radii"], res["shells"])
    w = _disc_nodes(radii, n_ang, _DISC_KEYS)
    modulus = np.abs(w)
    weight = 1.0 - modulus ** 2

    def eval_all(f: TaylorFunction) -> np.ndarray:
        if not isinstance(f, TaylorFunction):
            raise ConfigError("the analytic family needs a TaylorFunction")
        if _folds(f, n_ang):
            slopes = np.arange(1, f.coeffs.size + 1) * f.coeffs    # f' = sum k a_k z^(k-1)
            return weight * np.abs(_ring_fold(slopes, radii, n_ang))
        return weight * np.abs(f.deriv(w))

    return (lambda idx: _records(w=w[idx])), 1.0 - modulus, eval_all


def _disc_nodes(radii: np.ndarray, n_ang: int, keys: str) -> np.ndarray:
    _check_size(radii.size * n_ang, keys)
    angles = TWO_PI * np.arange(n_ang) / n_ang
    pts = [np.array([0.0 + 0.0j])] if radii[0] == 0.0 else []
    rest = radii[radii > 0]
    pts.append((rest[:, None] * np.exp(1j * angles)[None, :]).ravel())
    return np.concatenate(pts)


# an exact input with closed forms as well folds up to this many whole
# turns: the fold costs a pass over the grid per turn, lacunary's closed
# forms one squaring per doubling of the degree, and they cross at 8 turns
# on 64 angles, 16 on 128 and 32 on 512 (measured on bloch grids)
_CLOSED_FORM_TURNS = 8


def _folds(f: TaylorFunction, n_ang: int) -> bool:
    """Whether bloch or weighted rings of n_ang angles read f by `_ring_fold`:
    every exact f of any degree, unless its closed forms cost less."""
    return f.exact and (not f.has_closed_form or f.coeffs.size <= _CLOSED_FORM_TURNS * n_ang)


def _ring_fold(series: np.ndarray, radii: np.ndarray, n_ang: int) -> np.ndarray:
    """The power series sum_j s_j z^j of each row of `series` (of any length;
    an empty one reads 0) at every node of `_disc_nodes(radii, n_ang)`, radii
    in [0, 1].  On the ring z = rho e^{2 pi i m / n_ang}, term j = q n_ang + r
    folds into slot r with weight rho^(q n_ang) rho^r: Horner's rule in
    rho^n_ang sums the whole turns q (a BLAS product stalled 16 ms a call on
    its threads), and one unnormalised inverse FFT per ring reads the ring
    off.  The powers rho^r are taken per call, up to one turn's worth (a grid
    that never folds pays nothing for them), and none past the first exact 0
    (as in `approx._powers`: an underflowing pow costs ten normal ones).  A
    centre (radius 0) holds s_0 at every angle; the output starts at the last."""
    lead, size = series.shape[:-1], series.shape[-1]
    slots = np.arange(float(min(size, n_ang)))
    with np.errstate(divide="ignore"):
        stop = 2.0 + 1075.0 / np.abs(np.log2(radii))
    ring = np.power(radii[:, None], slots, out=np.zeros((radii.size, slots.size)),
                    where=slots < stop[:, None])
    if size <= n_ang:
        folded = series[..., None, :] * ring
    else:
        turns = -(-size // n_ang)
        whole = np.zeros(lead + (turns, 1, n_ang), complex)
        whole.reshape(lead + (-1,))[..., :size] = series
        step = radii[:, None] ** float(n_ang)
        folded = whole[..., -1, :, :] * step
        for q in range(turns - 2, 0, -1):
            folded += whole[..., q, :, :]
            folded *= step
        folded += whole[..., 0, :, :]
        folded *= ring
    flat = np.fft.ifft(folded, n_ang, norm="forward").reshape(lead + (-1,))
    return flat[..., n_ang - 1:] if radii[0] == 0.0 else flat


def _build_qk(desc: SpaceDescriptor):
    res = desc.resolution
    n_ang = res["angles"]
    rule = QuadratureRule(res["quad_nr"], res["quad_ntheta"])
    if rule.n_theta % n_ang != 0:
        raise ConfigError("quadrature angles must be a multiple of the family angles")
    radii = _disc_radii(0, res["shell_to"], res["shell_from"],
                        extra=(0.0,) + tuple(res["extra_radii"]))
    centres = _disc_nodes(radii, n_ang, "'shell_from'..'shell_to' and "
                                        "'extra_radii' radii x 'angles'")
    # the Gauss-Legendre companion matrix; a template of the rule's nodes per
    # radius, and a ring's centres, one template's nodes each, at evaluation
    _check_size(rule.n_r ** 2, "'quad_nr' squared")
    _check_size(max(radii.size, n_ang) * rule.n_r * rule.n_theta,
                "radii or 'angles' x 'quad_nr' x 'quad_ntheta'")
    kernel = desc.kernel

    # one pulled-back template per radius: with the quadrature's angular grid
    # rotated along arg(a), the nodes for a = rho e^{i beta} are exactly
    # e^{i beta} times the template for rho, with identical weights
    wn, wts = rule.nodes()
    k_vals = kernel(np.log(1.0 / np.abs(wn)))
    angles = np.exp(1j * TWO_PI * np.arange(n_ang) / n_ang)
    rows = []          # per radius: template nodes, weights, rotations
    for rho in radii:
        phi, dphi = mobius_apply(rho, 1.0, wn)
        rots = np.array([1.0 + 0.0j]) if rho == 0.0 else angles
        rows.append((phi, wts * np.abs(dphi) ** 2 * k_vals, rots))

    def pointwise(f: TaylorFunction) -> np.ndarray:
        """Every entry from f' at its centre's pulled-back nodes, one centre
        at a time, so the working set is one template."""
        out = np.empty(centres.size)
        k = 0
        for phi, jac, rots in rows:
            for rot in rots:
                out[k] = (np.abs(f.deriv(rot * phi)) ** 2 * jac).sum()
                k += 1
        return out

    def littlewood_paley(coeffs: np.ndarray) -> np.ndarray:
        """Every entry of the exact polynomial sum_k a_k z^k under K(t) = t,
        where the local integral is (pi/2) (P[|f|^2](a) - |f(a)|^2): P the
        Poisson extension of |f|^2 = sum_m l_m e^{im theta} + conj, with the
        lags l_m = sum_k a_{k+m} conj(a_k) from one FFT long enough not to
        wrap.  Both sums, sum_m l_m a^m and f(a), are read on the centres'
        rings by `_ring_fold`."""
        a = np.concatenate([[0.0], coeffs])     # constants do not count
        spectrum = np.fft.fft(a, 1 << (2 * a.size - 1).bit_length())
        lags = np.fft.ifft(np.abs(spectrum) ** 2)[:a.size]
        lag_sum, value = _ring_fold(np.stack([lags, a]), radii, n_ang)
        return 0.5 * np.pi * (2.0 * lag_sum.real - lags[0].real - np.abs(value) ** 2)

    # with K(t) = t (the default kernel) the space is BMOA, and an exact
    # polynomial's entries are Garsia's closed form; every other input takes
    # the quadrature, and so does a polynomial whose lag FFT would exceed
    # COUNT_CAP entries (GiBs; the quadrature reads its closed forms if any)
    garsia = kernel.exponent == 1.0

    def eval_all(f: TaylorFunction) -> np.ndarray:
        if not isinstance(f, TaylorFunction):
            raise ConfigError("the invariant-integral family needs a TaylorFunction")
        if garsia and f.exact and f.coeffs.size < COUNT_CAP // 2:
            vals = littlewood_paley(f.coeffs)
        else:
            vals = pointwise(f)
        # a NaN stays NaN through max(., 0), and the profile refuses it
        return np.sqrt(np.maximum(vals, 0.0))

    return (lambda idx: _records(a=centres[idx])), 1.0 - np.abs(centres), eval_all


def _build_weighted(desc: SpaceDescriptor):
    res = desc.resolution
    v = desc.weight
    kind = v.domain["kind"]
    n_ang = res["angles"]
    if kind == "disc":
        radii = _disc_radii(res["uniform_radii"], res["shells"])
        z = _disc_nodes(radii, n_ang, _DISC_KEYS)
    elif kind == "annulus":
        r0, r1 = v.domain["r0"], v.domain["r1"]
        gap = (r1 - r0) / 2.0
        # disc radius r maps to the offset (1 - r) gap from each circle: the
        # dyadic shells sit gap 2^-k from the boundary, the centre at the midline
        offs = (1.0 - _disc_radii(res["uniform_radii"], res["shells"])) * gap
        offs = offs[offs < gap]
        radii = np.unique(np.concatenate([r0 + offs, r1 - offs, [r0 + gap]]))
        z = _disc_nodes(radii, n_ang, _DISC_KEYS)
    else:
        radii = None
        m = res["box_nodes"]
        _check_size(m * m, "'box_nodes' squared")
        x = np.linspace(v.domain["x0"], v.domain["x1"], m + 2)[1:-1]
        y = np.linspace(v.domain["y0"], v.domain["y1"], m + 2)[1:-1]
        z = (x[:, None] + 1j * y[None, :]).ravel()
    vv = v(z)
    if np.any(vv <= 0):
        raise ConfigError("weight must be strictly positive on the grid")
    remoteness = v.boundary_remoteness(z)
    # rings within |z| <= 1 may fold; past it the powers of the radii
    # overflow, and inf times a zero coefficient is NaN
    rings = radii is not None and radii[-1] <= 1.0

    def eval_all(f: TaylorFunction) -> np.ndarray:
        if not isinstance(f, TaylorFunction):
            raise ConfigError("the weighted family needs a TaylorFunction")
        if rings and _folds(f, n_ang):
            series = np.concatenate([[f.const], f.coeffs])
            return vv * np.abs(_ring_fold(series, radii, n_ang))
        return vv * np.abs(f.value(z))

    return (lambda idx: _records(z=z[idx])), remoteness, eval_all


def _pair_index(idx, n: int) -> np.ndarray:
    """Indices into n pairs, negative ones from the end; else IndexError."""
    idx = np.asarray(idx, dtype=np.int64)
    idx = idx + n * (idx < 0)
    if np.any((idx < 0) | (idx >= n)):
        raise IndexError(f"pair index out of range for {n} pairs")
    return idx


# an all-pairs row with fewer pairs than this is gathered, not sliced: a slice
# costs about 1 us, what gathering a few hundred pairs costs, and the gathered
# ends stay under 128^2 x 8 bytes
_MIN_ROW_PAIRS = 128


def _build_lip(desc: SpaceDescriptor):
    """Every node pair when they fit under the cap, else the strata.  All
    pairs come in np.triu_indices order: row i, the entries starts[i] ..
    starts[i + 1] - 1, pairs flat node i with each j > i.  A pair's distance
    is the step times the norm of its integer offset, so all pairs of one
    offset enter the tail profile at one level (differences of rounded
    coordinates scatter by a few ulps, enough to move a level)."""
    dom, alpha, coords = desc.lip_domain, desc.alpha, _grid_coords(desc.lip_domain)
    n = math.prod(dom.shape)
    if n * (n - 1) // 2 > desc.resolution["pair_cap"]:
        return _build_lip_strata(dom, desc.resolution["pair_cap"], alpha, coords)
    starts = np.concatenate([[0], np.cumsum(np.arange(n - 1, -1, -1))])
    size = int(starts[-1])
    # the rows from `short` on: their first nodes, then their second
    short = max(n - _MIN_ROW_PAIRS, 0)
    tail = np.concatenate(np.triu_indices(n - short, k=1)) + short
    cuts = starts[:short + 1].tolist()

    def differences(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """v[i] - v[j] for every pair (i, j), in entry order."""
        for i in range(short):
            np.subtract(v[i], v[i + 1:], out=out[cuts[i]:cuts[i + 1]])
        ends = v[tail]
        np.subtract(ends[:ends.size // 2], ends[ends.size // 2:], out=out[cuts[-1]:])
        return out

    # the squared integer offsets, summed exactly in floats axis by axis
    dist, gap = np.zeros(size), np.empty(size)
    for u in np.unravel_index(np.arange(n), dom.shape):
        dist += np.square(differences(u.astype(float), gap), out=gap)
    del gap
    dist = np.multiply(np.sqrt(dist, out=dist), dom.step, out=dist)
    denom = dist ** alpha

    def describe(idx: np.ndarray) -> np.recarray:
        idx = _pair_index(idx, size)
        row = np.searchsorted(starts, idx, side="right") - 1
        return _records(x=coords[row], y=coords[idx - starts[row] + row + 1])

    def eval_all(f: EuclideanSamples) -> np.ndarray:
        with np.errstate(over="ignore"):    # inf, refused by the profile
            out = differences(_box_values(f, dom), np.empty(size))
            return np.divide(np.abs(out, out=out), denom, out=out)

    return describe, dist, eval_all


def _build_lip_strata(dom: BoxDomain, cap: int, alpha: float, coords: np.ndarray):
    """The strata family: each stratum's quotients come from strided views
    of the samples (or, where its views would be many and small, from its
    sources), divided by the stratum's one denominator."""
    strata = _strata(dom, cap)
    sizes = [st.size for st in strata]
    n = sum(sizes)
    dists = dom.step * np.array([st.reach for st in strata])
    # one power per stratum, taken over an array as the per-pair powers
    # were: a Python float's ** can differ from numpy's in the last bit
    denoms = dists ** alpha
    firsts = np.array([st.first for st in strata])
    offs = np.array([st.off for st in strata])

    def describe(idx: np.ndarray) -> np.recarray:
        idx = _pair_index(idx, n)
        which = np.searchsorted(firsts, idx, side="right") - 1
        ia = np.empty(idx.shape, np.int64)
        for k in np.unique(which):
            at = which == k
            ia[at] = strata[k].sources(idx[at] - firsts[k], dom.shape)
        return _records(x=coords[ia], y=coords[ia + offs[which]])

    def eval_all(f: EuclideanSamples) -> np.ndarray:
        flat = _box_values(f, dom)
        out = np.empty(n)
        # the differences, then each stratum's over its denominator, then
        # one abs: d > 0 and division rounds symmetrically, so this is
        # |f(x) - f(x + off)| / d bit for bit
        for st, d in zip(strata, denoms):
            gap = 8 * st.off
            for shape, at, strides, src, src_strides in st.views:
                np.subtract(np.ndarray(shape, flat.dtype, flat, src, src_strides),
                            np.ndarray(shape, flat.dtype, flat, src + gap, src_strides),
                            out=np.ndarray(shape, out.dtype, out, at, strides))
            at, src = st.gather
            out[at] = flat[src] - flat[src + st.off]
            with np.errstate(over="ignore"):    # inf, refused by the profile
                out[st.first:st.first + st.size] /= d
        return np.abs(out, out=out)

    return describe, np.repeat(dists, sizes), eval_all


def _box_values(f: EuclideanSamples, dom: BoxDomain) -> np.ndarray:
    """f's samples in flat (C) order, refused unless on the family's grid."""
    if not isinstance(f, EuclideanSamples) or f.domain.shape != dom.shape:
        raise ConfigError("function does not match the family's box grid")
    return f.values.ravel()


def _grid_coords(dom: BoxDomain) -> np.ndarray:
    """Node coordinates, one row per node in C (flat-index) order."""
    return np.stack([g.ravel() for g in np.meshgrid(*dom.axes(), indexing="ij")],
                    axis=1)


# a stratum whose strided views would hold fewer than this many picks each,
# on average, is gathered through its sources instead: setting up a view
# (about 4.5 us) costs about what slicing a thousand picks instead of
# gathering them saves
_MIN_VIEW_PICKS = 1024


class _Stratum(NamedTuple):
    """The pairs (x, x + off) of one dyadic offset, entries first ..
    first + size - 1, in the flat order of x.

    The main picks are every stride-th node of the sub-grid `sub` of the
    sources (the nodes x with x + off on the grid), in C order.  The anchor
    extras, with sources `extra_src`, sit among them at the stratum
    positions `extra_at`.  `views` lays the main picks out as strided blocks
    (shape, entry, entry strides, source, source strides), counted in
    bytes of float64; `gather` is (entries, sources) of the rest: the
    extras, or every entry when the stratum has no views."""

    first: int
    size: int
    off: int
    reach: float
    stride: int
    sub: tuple
    extra_at: np.ndarray
    extra_src: np.ndarray
    views: tuple
    gather: tuple

    def sources(self, pos: np.ndarray, shape: tuple) -> np.ndarray:
        """Flat indices of the sources x of the entries at stratum positions
        pos, on the grid of the given shape."""
        before = np.searchsorted(self.extra_at, pos)
        extra = np.isin(pos, self.extra_at)
        picks = np.where(extra, 0, pos - before)
        src = np.ravel_multi_index(np.unravel_index(picks * self.stride, self.sub), shape)
        src[extra] = self.extra_src[before[extra]]
        return src


def _strata(dom: BoxDomain, cap: int) -> tuple:
    """Dyadic-offset pair strata with per-stratum striding under the cap.

    Offsets are 2^j times each axis, then the diagonal (in 1-D the same
    direction), kept while they fit inside the grid.  A stratum pairs every
    stride-th node x, in C order over the nodes with x + off on the grid,
    with x + off.  Every stratum keeps the pairs anchored at the node
    nearest the origin so cusp-type extremal quotients survive subsampling.
    Returns one `_Stratum` per offset, in entry order.
    """
    shape = np.array(dom.shape)
    units = dict.fromkeys([*map(tuple, np.eye(dom.ndim, dtype=np.int64)),
                           (1,) * dom.ndim])
    top = int(math.log2(shape.max() - 1)) + 1
    offsets = [off for off in ((1 << j) * np.array(u) for j in range(top) for u in units)
               if np.all(off < shape)]
    budget = max(1, cap // len(offsets))
    # on a tensor grid the first node nearest the origin is the first node
    # nearest 0 on each axis
    anchor = np.array([np.argmin(np.abs(axis)) for axis in dom.axes()])
    strata, first = [], 0
    for off in offsets:
        sub = tuple(int(s) for s in shape - off)
        count = math.prod(sub)
        stride = max(1, int(math.ceil(count / budget)))
        picks = -(-count // stride)
        # the anchor extras, ascending, go in at their sorted places unless
        # already picked: ceil(pos / stride) picks come before sub-grid
        # position pos, and each earlier extra moves it one place on
        extras = np.array([anchor - off, anchor])
        extras = extras[np.all((extras >= 0) & (extras < sub), axis=1)]
        pos = np.ravel_multi_index(tuple(extras.T), sub)
        new = pos % stride != 0
        at = -(-pos[new] // stride)
        extra_at = at + np.arange(at.size)
        extra_src = np.ravel_multi_index(tuple(extras[new].T), dom.shape)
        views = _pick_views(first, sub, dom.shape[-1], stride, at.tolist())
        size = picks + at.size
        st = _Stratum(first, size, int(np.ravel_multi_index(tuple(off), dom.shape)),
                      float(np.sqrt(off @ off)), stride, sub, extra_at, extra_src,
                      views, (first + extra_at, extra_src))
        if len(views) * _MIN_VIEW_PICKS > picks:
            st = st._replace(views=(), gather=(slice(first, first + size),
                                               st.sources(np.arange(size), dom.shape)))
        strata.append(st)
        first += size
    return tuple(strata)


def _pick_views(first: int, sub: tuple, n1: int, stride: int, at: list) -> tuple:
    """The `views` of the stratum from entry `first` (see _Stratum): its
    main picks, sub-grid positions 0, stride, 2 stride, ... in C order on a
    grid of rows of n1 nodes, as strided blocks, each entry moved on by the
    extras inserted before picks `at`.

    A sub-grid row r's first pick sits at column (-r s1) mod stride, s1 the
    sub-grid row length, so rows equal mod P = stride / gcd(stride, s1) start
    at one column: each such class of rows is one block, its rows P apart in
    the samples and s1 / gcd(stride, s1) picks apart in the entries.
    """
    s1 = sub[-1]
    rows = math.prod(sub[:-1])
    period = stride // math.gcd(stride, s1)
    step = s1 // math.gcd(stride, s1)
    # a block: (first pick, rows, picks a row, first source, source row
    # step); its rows lie `step` picks apart, its picks `stride` nodes apart
    blocks = [((r * s1 + c) // stride, -(-(rows - r) // period), -(-(s1 - c) // stride),
               r * n1 + c, period * n1)
              for r, c in ((r, -r * s1 % stride) for r in range(min(period, rows)))
              if c < s1]
    # split the blocks at each extra's place: the picks from `a` on move one
    # entry further on for every extra before them
    parts = [(b, 0) for b in blocks]
    for a in at:
        parts = [(part, shift + moved) for b, shift in parts
                 for part, moved in _split(b, step, stride, a)]
    return tuple(((nr, nc), 8 * (first + k + shift), (8 * step, 8), 8 * src,
                  (8 * rs, 8 * stride))
                 for (k, nr, nc, src, rs), shift in parts)


def _split(block: tuple, step: int, stride: int, a: int) -> list:
    """A block's non-empty parts as (part, 0) before pick a and (part, 1)
    from pick a on.  Only the last row that starts before a can hold picks
    on both sides of it."""
    k, rows, cols, src, rs = block
    q = min(max(-(-(a - k) // step), 0), rows)
    j = min(a - k - (q - 1) * step, cols) if q else cols

    def part(q0, q1, c0, c1, moved):
        return ((k + q0 * step + c0, q1 - q0, c1 - c0, src + q0 * rs + c0 * stride, rs),
                moved)

    parts = [part(0, q - 1, 0, cols, 0), part(q - 1, q, 0, j, 0),
             part(q - 1, q, j, cols, 1), part(q, rows, 0, cols, 1)] if q else [(block, 1)]
    return [(p, moved) for p, moved in parts if p[1] > 0 and p[2] > 0]


def _build_rect(desc: SpaceDescriptor):
    res = desc.resolution
    n = res["n_samples"]
    starts, ncells, midpoint, length = _arc_layout(
        n, res["midpoints"], res["min_len_exp"], res["max_len_exp"])
    count = ncells.size
    _check_size(count ** 2, "('midpoints' x 'min_len_exp'..'max_len_exp') squared")
    arcs = _window_layout(starts, ncells, n)
    lengths = ncells * TWO_PI / n
    remoteness = np.empty(count ** 2)
    np.minimum.outer(lengths, lengths, out=remoteness.reshape(count, -1))

    def describe(idx: np.ndarray) -> np.recarray:
        # entry j * count + i pairs I-arc i with J-arc j
        j, i = np.divmod(idx, count)
        return _records(mid_zeta=midpoint[i], len_zeta=length[i],
                        mid_lambda=midpoint[j], len_lambda=length[j])

    def eval_all(F: TorusSamples) -> np.ndarray:
        if not isinstance(F, TorusSamples) or F.n != n:
            raise ConfigError("function does not match the family's torus grid")
        return _rect_values(F, arcs, arcs)

    return describe, remoteness, eval_all


# ---------------------------------------------------------------------------
# the table of spaces
# ---------------------------------------------------------------------------

class _Space(NamedTuple):
    """Everything one space is: its family builder, the one input
    representation it takes, its declared one-sided grid-resolution
    allowance (a fraction of the estimate), its resolution keys as
    key -> (default, least value, cap), and the keys its config block takes
    besides 'space' and 'resolution'."""

    build: Callable
    representation: type
    allowance_rel: float
    resolution: dict
    keys: tuple = ()


def _space(tag) -> _Space:
    """The record of the space `tag`, refused when there is none."""
    # a list or dict tag is unhashable: check the type before the lookup
    if not isinstance(tag, str) or tag not in _SPACES:
        raise ConfigError(f"unknown space '{tag}'")
    return _SPACES[tag]


# counts are at least 1 and at most COUNT_CAP (2**24), dyadic exponents at
# least 0 and at most EXPONENT_CAP (53); a torus input holds n_samples**2
# values and is sampled before any grid is built, so rect_bmo's side is capped
# at the square root; qk's extra centre radii lie in [0, 1), the cap excluded.
# The arc-parametrised spaces sample midpoints sparsely, so their suprema
# carry more slack than the densely filled disc and pair grids
_DISC_RESOLUTION = {"uniform_radii": (128, 0, COUNT_CAP),
                    "shells": (12, 1, EXPONENT_CAP), "angles": (512, 1, COUNT_CAP)}
_SPACES = {
    "bmo_circle": _Space(_build_bmo, PeriodicSamples, 0.05, {
        "n_samples": (131072, 1, COUNT_CAP), "midpoints": (128, 1, COUNT_CAP),
        "min_len_exp": (2, 0, EXPONENT_CAP), "max_len_exp": (8, 0, EXPONENT_CAP)},
        ("p",)),
    "bloch": _Space(_build_bloch, TaylorFunction, 0.02, _DISC_RESOLUTION),
    "qk": _Space(_build_qk, TaylorFunction, 0.02, {
        "shell_from": (2, 0, EXPONENT_CAP), "shell_to": (7, 0, EXPONENT_CAP),
        "extra_radii": ((0.25, 0.5), 0, 1), "angles": (64, 1, COUNT_CAP),
        "quad_nr": (48, 1, COUNT_CAP), "quad_ntheta": (256, 1, COUNT_CAP)}, ("K",)),
    "weighted": _Space(_build_weighted, TaylorFunction, 0.02,
                       dict(_DISC_RESOLUTION, box_nodes=(64, 1, COUNT_CAP)), ("weight",)),
    "lip": _Space(_build_lip, EuclideanSamples, 0.02,
                  {"pair_cap": (1_000_000, 1, COUNT_CAP)}, ("alpha", "domain")),
    "rect_bmo": _Space(_build_rect, TorusSamples, 0.05, {
        "n_samples": (1024, 1, math.isqrt(COUNT_CAP)), "midpoints": (64, 1, COUNT_CAP),
        "min_len_exp": (1, 0, EXPONENT_CAP), "max_len_exp": (6, 0, EXPONENT_CAP)}),
}
