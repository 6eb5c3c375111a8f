import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as P
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings, strategies as st

from oscillometer.errors import ConfigError
from oscillometer.funcrep import (TWO_PI, BoxDomain, EuclideanSamples,
                                  PeriodicSamples, QuadratureRule,
                                  TaylorFunction, TorusSamples,
                                  _window_layout, _window_means)
from oscillometer.spaces import (_SORTED_MIN_SPACING, KKernel, SpaceDescriptor,
                                 _arc_layout, _build_lip_strata, _direct_osc,
                                 _disc_radii, _grid_coords, _rect_values,
                                 _strata_pairs, build_family, compose_mobius,
                                 kernel_from_config, lip_pair_indices,
                                 weight_from_config)
from oscillometer.family import OperatorFamilyGrid, seminorm_sup, tail_profile
from oscillometer import spaces as spaces_module
from oscillometer.builtins import (circle_builtin, lacunary, log_singular,
                                   make_function, step_half_values,
                                   taylor_builtin, torus_builtin)
from oracles import Arc, bmo_oscillation, horner, qk_local, snap_arc


def direct_oscillation(values, start, ncells, p):
    """Independent trapezoid oracle for the p-mean oscillation of one arc."""
    n = values.shape[0]
    w = np.ones(ncells + 1)
    w[0] = w[-1] = 0.5
    idx = (start + np.arange(ncells + 1)) % n
    window = values[idx]
    mean = np.dot(w, window) / ncells
    dev = np.dot(w, np.abs(window - mean) ** p) / ncells
    return dev ** (1.0 / p)


def arc_layout_loop(n, midpoints, kmin, kmax):
    """Oracle for the arc layout: the per-arc loop, one (start, ncells,
    midpoint, length) tuple per arc, level by level."""
    mids = np.arange(midpoints) * (n // midpoints)
    arcs = []
    for k in range(kmin, kmax + 1):
        ncells = n >> k
        half = ncells // 2
        for m in mids:
            arcs.append((int(m - half) % n, ncells, float(m * TWO_PI / n),
                         TWO_PI * 2.0 ** -k))
    return arcs


def bitwise_equal(got, want) -> bool:
    """Same dtype, shape and bytes: no tolerance and no -0.0 == 0.0."""
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def disc_nodes(radii, n_ang):
    """Oracle for the disc grid nodes: the centre if radius 0 is listed, then
    each positive radius times the uniform ring of n_ang angles."""
    ring = np.exp(1j * (2 * np.pi * np.arange(n_ang) / n_ang))
    centre = [0j] if radii[0] == 0.0 else []
    return np.concatenate([np.array(centre, dtype=complex),
                           (radii[radii > 0][:, None] * ring).ravel()])


def direct_rect_square(values, arc_i, arc_j):
    """Independent oracle for the squared rectangular oscillation of one arc
    pair: the trapezoid I x J mean of |F - F_J - F_I + F_IxJ|^2, summed
    directly over the (ncells + 1)^2 nodes."""
    n = values.shape[0]

    def nodes(arc):
        start, ncells = arc
        w = np.ones(ncells + 1)
        w[0] = w[-1] = 0.5
        return (start + np.arange(ncells + 1)) % n, w / ncells

    ii, wi = nodes(arc_i)
    jj, wj = nodes(arc_j)
    block = values[np.ix_(ii, jj)]
    dev = block - (block @ wj)[:, None] - (wi @ block)[None, :] + wi @ block @ wj
    return wi @ np.abs(dev) ** 2 @ wj


def direct_strata(shape, lo, step, cap):
    """Independent oracle for the capped lip pair strata, from the
    definition: offsets 2^j along each axis, then the diagonal, that fit in
    the grid; for each, every stride-th source x in C order with x + off on
    the grid (stride = ceil(sources / (cap // offsets))), plus the pairs
    (anchor, anchor + off) and (anchor - off, anchor) that fit, anchor being
    the first node nearest the origin; sources sorted and unique."""
    ndim = len(shape)
    units = [tuple(int(i == k) for i in range(ndim)) for k in range(ndim)]
    if ndim > 1:
        units.append((1,) * ndim)
    top = int(np.log2(max(shape) - 1)) + 1
    offsets = [tuple(2 ** j * u for u in unit) for j in range(top) for unit in units]
    offsets = [off for off in offsets if all(o < n for o, n in zip(off, shape))]
    budget = max(1, cap // len(offsets))
    nodes = list(np.ndindex(*shape))
    anchor = min(nodes, key=lambda x: np.hypot.reduce(np.add(lo, np.multiply(step, x))))

    def on_grid(x):
        return all(0 <= c < n for c, n in zip(x, shape))

    ia, ib = [], []
    for off in offsets:
        sources = [x for x in nodes if on_grid(np.add(x, off))]
        picked = set(sources[::-(-len(sources) // budget)])
        picked.update(tuple(x) for x in (anchor, np.subtract(anchor, off))
                      if on_grid(x) and on_grid(np.add(x, off)))
        for x in sorted(picked):
            ia.append(np.ravel_multi_index(x, shape))
            ib.append(np.ravel_multi_index(tuple(np.add(x, off)), shape))
    return np.array(ia, dtype=np.int64), np.array(ib, dtype=np.int64)


@st.composite
def strata_grids(draw):
    """A 1-D or 2-D box grid of 2..40 nodes per axis (any aspect, so some
    offsets outrun the shorter axis), its corner anywhere on a half-step
    lattice around the origin, and a pair cap from 1 to 4000.  An odd
    half-step puts the origin midway between two nodes of that axis, so the
    anchor ties; with step 0.25 every coordinate is exact in binary."""
    ndim = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.lists(st.integers(2, 40), min_size=ndim, max_size=ndim)))
    step = 0.25
    lo = [step / 2 * draw(st.integers(-100, 20)) for _ in shape]
    hi = [a + step * (n - 1) for a, n in zip(lo, shape)]
    return BoxDomain(lo, hi, step), draw(st.integers(1, 4000))


@st.composite
def torus_arc_pairs(draw):
    """A real or complex torus sample grid with a large constant offset, and
    I- and J-arcs of any start and 2..N cells (full circles and wrapping arcs
    included)."""
    n = draw(st.sampled_from([8, 16, 32, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.uniform(-1, 1, (n, n)) + draw(st.floats(-1e3, 1e3))
    if not draw(st.booleans()):
        values = values + 1j * (rng.uniform(-1, 1, (n, n)) + draw(st.floats(-1e3, 1e3)))
    arcs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(2, n)),
                    min_size=1, max_size=5)
    return values, draw(arcs), draw(arcs)


class TestBmoOscillation:
    def test_constant_zero(self):
        f = PeriodicSamples(np.full(256, 1.7 + 0.3j))
        for p in (1.0, 2.0, 3.0):
            assert bmo_oscillation(f, Arc(0.4, 1.0), p) == pytest.approx(0.0, abs=1e-13)

    def test_step_jump_arc_p1(self):
        # continuum oracle 2 s (1-s) at s = 1/2 gives 1/2; on the grid the
        # trapezoid drops exactly one interior node: 0.5 (n-1)/n
        n = 256
        f = PeriodicSamples(step_half_values(n))
        arc = Arc(0.0, np.pi / 2)
        start, ncells = snap_arc(f, arc)
        grid_oracle = direct_oscillation(f.values, start, ncells, 1.0)
        assert grid_oracle == pytest.approx(0.5 * (ncells - 1) / ncells)
        assert bmo_oscillation(f, arc, 1.0) == pytest.approx(grid_oracle, rel=1e-13)

    def test_step_jump_arc_p2(self):
        # continuum oracle sqrt(s(1-s)) at s = 1/2 gives 1/2
        n = 4096
        f = PeriodicSamples(step_half_values(n))
        got = bmo_oscillation(f, Arc(0.0, np.pi / 2), 2.0)
        assert got == pytest.approx(0.5, abs=2e-3)

    def test_moment_path_matches_direct_on_random_arcs(self):
        rng = np.random.default_rng(5)
        n = 1024
        f = PeriodicSamples(rng.normal(size=n) + 1j * rng.normal(size=n))
        for _ in range(100):
            arc = Arc(rng.uniform(0, 2 * np.pi),
                      rng.uniform(8 * 2 * np.pi / n, 2 * np.pi))
            start, ncells = snap_arc(f, arc)
            want = direct_oscillation(f.values, start, ncells, 2.0)
            got = bmo_oscillation(f, arc, 2.0)
            assert abs(got - want) <= 1e-12 * max(1.0, want)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        n = 512
        vals = rng.normal(size=n)
        f = PeriodicSamples(vals)
        shift = 37
        g = PeriodicSamples(np.roll(vals, shift))
        arc = Arc(1.0, 0.75)
        moved = Arc(1.0 + shift * 2 * np.pi / n, 0.75)
        a = bmo_oscillation(f, arc, 2.0)
        b = bmo_oscillation(g, moved, 2.0)
        assert abs(a - b) <= 1e-12 * max(1.0, a)

    def test_p_validation(self):
        f = PeriodicSamples(np.ones(64))
        with pytest.raises(ConfigError):
            bmo_oscillation(f, Arc(0, 1.0), 0.5)


BMO_EXPONENTS = (1.0, 1.5, 4.0, 64.0, 1100.0, 1e308)


@pytest.fixture(scope="module")
def bmo_exponent_grids():
    res = {"n_samples": 1024, "midpoints": 32, "min_len_exp": 1, "max_len_exp": 7}
    return [build_family(SpaceDescriptor("bmo_circle", p=p, resolution=res))
            for p in BMO_EXPONENTS]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1.0), min_size=1, max_size=8),
       st.floats(1e-3, 1e-1), st.booleans())
def test_bmo_nondecreasing_in_p(bmo_exponent_grids, coeffs, amplitude, real):
    # the trapezoid weights of an arc sum to 1, so by the power-mean
    # inequality every entry, and with it the seminorm, is non-decreasing in
    # p; small amplitudes put dev**p far below the smallest float for large p
    theta = TWO_PI * np.arange(1024) / 1024
    values = amplitude * sum(c * np.exp(1j * k * theta)
                             for k, c in enumerate(coeffs, start=1))
    f = PeriodicSamples(values.real if real else values)
    rows = [grid.evaluate_all(f) for grid in bmo_exponent_grids]
    for lo, hi in zip(rows, rows[1:]):
        assert np.all(hi >= lo * (1.0 - 1e-12))


def grid_entries(desc, f):
    """Every entry's parameters (describe) and value (evaluate_all) on the
    grid built from desc."""
    grid = build_family(desc)
    return grid.describe(np.arange(len(grid))), grid.evaluate_all(f)


# radii 0, 0.1, ..., 0.9 plus the dyadic shells; angle 0 puts a node on each
DISC_TENTHS = {"uniform_radii": 10, "shells": 6, "angles": 8}


class TestBlochTerm:
    """Entries (1 - |w|^2) |f'(w)| of the bloch grid."""

    def entry(self, f, w):
        params, vals = grid_entries(SpaceDescriptor("bloch", resolution=DISC_TENTHS), f)
        return vals[params.w == w].item()

    def test_z_at_origin(self):
        assert self.entry(taylor_builtin("monomial", degree=1), 0.0) == \
            pytest.approx(1.0)

    def test_z_at_point(self):
        assert self.entry(taylor_builtin("monomial", degree=1), 0.6) == \
            pytest.approx(0.64)

    def test_log_singular(self):
        assert self.entry(log_singular(), 0.9) == pytest.approx(1.9)


class TestQkLocal:
    def test_z_at_origin_power_kernel(self):
        K = kernel_from_config({"name": "power", "exponent": 1.0})
        got = qk_local(taylor_builtin("monomial", degree=1), 0.0, K)
        assert got == pytest.approx(np.pi / 2, abs=1e-5)

    def test_z_at_origin_flat_kernel(self):
        K = kernel_from_config({"name": "one"})
        got = qk_local(taylor_builtin("monomial", degree=1), 0.0, K)
        assert got == pytest.approx(np.pi, abs=1e-6)

    def test_far_centre_small(self):
        K = kernel_from_config({"name": "power", "exponent": 1.0})
        got = qk_local(taylor_builtin("monomial", degree=1), 0.99, K)
        assert got < 0.05

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("a", [0.0, 0.3, 0.5 + 0.4j, 0.9])
    def test_monomial_closed_form(self, m, a):
        # potential-theory oracle: the integral for z^m at centre a equals
        # (pi/2)(1 - |a|^(2m)) for the K(t) = t kernel
        K = kernel_from_config({"name": "power", "exponent": 1.0})
        got = qk_local(taylor_builtin("monomial", degree=m), a, K)
        want = (np.pi / 2) * (1 - abs(a) ** (2 * m))
        assert got == pytest.approx(want, rel=2e-5)

    def test_lambda_independence_via_centre_only(self):
        # the family fixes the rotation part: the integral only sees |phi|
        K = kernel_from_config({"name": "power", "exponent": 1.0})
        f = taylor_builtin("poly", coeffs=[[1, 0], [0.5, -0.25]])
        a = 0.4 + 0.1j
        v1 = qk_local(f, a, K)
        v2 = qk_local(f, a, K, QuadratureRule(48, 256))
        assert v1 == pytest.approx(v2, rel=1e-4)


class TestWeightedTerm:
    """Entries v(z) |f(z)| of the weighted disc grid."""

    def entry(self, f, z):
        desc = SpaceDescriptor("weighted", weight=weight_from_config({"name": "one_minus_r2"}),
                               resolution=DISC_TENTHS)
        params, vals = grid_entries(desc, f)
        return vals[params.z == z].item()

    def test_taylor_class_vanishes_at_origin(self):
        assert self.entry(taylor_builtin("monomial", degree=1), 0.0) == 0.0

    def test_cauchy_kernel(self):
        f = taylor_builtin("cauchy_kernel")
        assert self.entry(f, 0.9) == pytest.approx(1.9)
        assert self.entry(f, 0.0) == pytest.approx(1.0)


class TestLipQuotient:
    """Entries |f(x) - f(y)| / |x - y|^alpha of the lip grid (all pairs)."""

    def test_identity_map(self):
        dom = BoxDomain([0.0], [1.0], 0.01)
        f = EuclideanSamples(dom, dom.axes()[0], 1.0)
        _, vals = grid_entries(SpaceDescriptor("lip", alpha=1.0, lip_domain=dom), f)
        assert vals == pytest.approx(np.ones(101 * 50))

    def test_cusp_pairs_through_origin(self):
        dom = BoxDomain([-1.0], [1.0], 0.01)
        f = EuclideanSamples(dom, np.abs(dom.axes()[0]) ** 0.5, 0.5)
        params, vals = grid_entries(SpaceDescriptor("lip", alpha=0.5, lip_domain=dom), f)
        through = (params.x[:, 0] == 0.0) | (params.y[:, 0] == 0.0)
        assert np.count_nonzero(through) == 200
        assert vals[through] == pytest.approx(np.ones(200))

    def test_square_endpoint_pair(self):
        dom = BoxDomain([0.0], [1.0], 0.01)
        f = EuclideanSamples(dom, dom.axes()[0] ** 2, 1.0)
        params, vals = grid_entries(SpaceDescriptor("lip", alpha=1.0, lip_domain=dom), f)
        assert vals[(params.x[:, 0] == 0.0) & (params.y[:, 0] == 1.0)].item() == \
            pytest.approx(1.0)

    def test_same_node_rejected(self):
        # no entry pairs a node with itself, and a grid given one is refused
        dom = BoxDomain([0.0], [1.0], 0.01)
        grid = build_family(SpaceDescriptor("lip", alpha=1.0, lip_domain=dom))
        assert np.all(grid.remoteness > 0)
        with pytest.raises(ConfigError, match="positive"):
            OperatorFamilyGrid("lip", grid.describe, np.append(grid.remoteness, 0.0),
                               grid.evaluate_all, 0.02)


class TestRectOscillation:
    """rect_bmo grid entries: the square root of the I x J mean of |F - F_J -
    F_I + F_IxJ|^2."""

    RES = {"n_samples": 64, "midpoints": 8, "min_len_exp": 0, "max_len_exp": 5}

    def entries(self, F, **res):
        desc = SpaceDescriptor("rect_bmo", resolution=dict(self.RES, **res))
        return grid_entries(desc, F)

    def test_constant_zero(self):
        F = TorusSamples(np.full((64, 64), 2.0 + 1.0j))
        _, vals = self.entries(F)
        assert np.all(vals <= 1e-12)

    def test_one_variable_degenerate(self):
        for F in (torus_builtin("one_variable", 64), torus_builtin("additive", 64)):
            _, vals = self.entries(F)
            assert np.all(vals <= 1e-10)

    def test_product_identity_random(self):
        rng = np.random.default_rng(7)
        n = 256
        g = rng.normal(size=n) + 1j * rng.normal(size=n)
        h = rng.normal(size=n) + 1j * rng.normal(size=n)
        params, got = self.entries(TorusSamples(np.outer(g, h)), n_samples=n)
        arcs = set(zip(params.mid_zeta, params.len_zeta))
        og, oh = ({arc: bmo_oscillation(PeriodicSamples(v), Arc(*arc), 2.0) for arc in arcs}
                  for v in (g, h))
        want = np.array([og[p.mid_zeta, p.len_zeta] * oh[p.mid_lambda, p.len_lambda]
                         for p in params])
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, want))

    def test_step_tensor_jump_arcs(self):
        # product identity reduces the 2-d value to two 1-d p=2 sweeps
        n = 512
        params, vals = self.entries(torus_builtin("step_tensor", n), n_samples=n)
        s = PeriodicSamples(step_half_values(n))
        want = bmo_oscillation(s, Arc(0.0, np.pi / 2), 2.0) ** 2
        at = ((params.mid_zeta == 0.0) & (params.len_zeta == np.pi / 2)
              & (params.mid_lambda == 0.0) & (params.len_lambda == np.pi / 2))
        assert vals[at].item() == pytest.approx(want, rel=1e-10)
        assert want == pytest.approx(0.25, abs=2e-3)


def builder_ladder(desc, grid):
    """The tail ladder each builder used to compute from its resolution keys:
    the closed forms of the arc and disc spaces, and the halvings of the
    largest remoteness, at most 24 levels, down to the smallest for lip, or
    for weighted no deeper than `shells` halvings."""
    res = desc.resolution
    if desc.tag in ("bmo_circle", "rect_bmo"):
        return TWO_PI * 2.0 ** -np.arange(res["min_len_exp"], res["max_len_exp"] + 1,
                                          dtype=float)
    if desc.tag in ("bloch", "qk"):
        deepest = res["shells" if desc.tag == "bloch" else "shell_to"]
        return 2.0 ** -np.arange(0, deepest + 1, dtype=float)
    t0, t_min = float(grid.remoteness.max()), float(grid.remoteness.min())
    if desc.tag == "weighted":
        t_min = max(t_min, t0 * 2.0 ** -res["shells"])
    return t0 * 0.5 ** np.arange(min(int(np.floor(np.log2(t0 / t_min) + 1e-9)), 23) + 1)


_ANNULUS = {"kind": "annulus", "r0": 0.25, "r1": 0.75}
_BOX = {"kind": "box", "x0": -0.5, "x1": 0.5, "y0": -0.5, "y1": 0.5}
# every space's default grid, and the grids bench/workloads.py builds
LADDER_GRIDS = {
    **{tag: (lambda tag=tag: SpaceDescriptor(tag)) for tag in spaces_module._SPACES},
    "bmo_16384": lambda: SpaceDescriptor("bmo_circle", resolution={"n_samples": 16384}),
    "bmo_all": lambda: SpaceDescriptor("bmo_circle", resolution={"midpoints": "all"}),
    "qk_light": lambda: SpaceDescriptor("qk", resolution={
        "shell_from": 2, "shell_to": 6, "extra_radii": (0.25, 0.5), "angles": 64,
        "quad_nr": 32, "quad_ntheta": 64}),
    "weighted_annulus": lambda: SpaceDescriptor(
        "weighted", weight=weight_from_config({"domain": _ANNULUS})),
    "weighted_box": lambda: SpaceDescriptor(
        "weighted", weight=weight_from_config({"domain": _BOX})),
    "lip_1e-4": lambda: SpaceDescriptor(
        "lip", alpha=0.5, lip_domain=BoxDomain([-1.0], [1.0], 1e-4)),
    "lip_1e-5": lambda: SpaceDescriptor(
        "lip", alpha=0.5, lip_domain=BoxDomain([-1.0], [1.0], 1e-5)),
    "lip_2d": lambda: SpaceDescriptor(
        "lip", alpha=0.5, lip_domain=BoxDomain([-1.0, -1.0], [1.0, 1.0], 2.0 / 32)),
    "rect_256": lambda: SpaceDescriptor("rect_bmo", resolution={
        "n_samples": 256, "midpoints": 32}),
}


class TestTailLadder:
    """Each grid derives its ladder from its remoteness: on every default and
    benchmark grid it is the builders' former ladder, bit for bit."""

    @pytest.mark.parametrize("key", sorted(LADDER_GRIDS))
    def test_matches_builder_ladder(self, key):
        desc = LADDER_GRIDS[key]()
        grid = build_family(desc)
        assert bitwise_equal(grid.default_scales, builder_ladder(desc, grid))

    def test_disc_without_centre_starts_at_half(self):
        # with no uniform fill the shallowest shell, |w| = 1/2, is the top:
        # the former top row t = 1 held the same entries as t = 1/2
        grid = build_family(SpaceDescriptor("bloch", resolution={
            "uniform_radii": 0, "shells": 8, "angles": 64}))
        assert bitwise_equal(grid.default_scales, 2.0 ** -np.arange(1, 9, dtype=float))

    def test_qk_extra_radius_deepens_ladder(self):
        # a centre ring at 1 - 2^-8, deeper than shell_to = 6
        grid = build_family(SpaceDescriptor("qk", resolution={
            "shell_to": 6, "extra_radii": (0.5, 1 - 2.0 ** -8), "angles": 16,
            "quad_nr": 16, "quad_ntheta": 32}))
        assert bitwise_equal(grid.default_scales, 2.0 ** -np.arange(0, 9, dtype=float))

    def test_deep_ladder_not_cut(self):
        # 30 shells give 31 levels, past the former cap of 24
        grid = build_family(SpaceDescriptor("weighted", resolution={
            "uniform_radii": 4, "shells": 30, "angles": 8}))
        assert bitwise_equal(grid.default_scales, 2.0 ** -np.arange(0, 31, dtype=float))

    def test_box_ladder_ignores_shells(self):
        # the box grid has no shells: its 64 x 64 nodes reach 1/65 of the
        # side from the boundary, 5 halvings below the top however small
        # `shells` is (2 used to stop the ladder after 3 levels)
        grid = build_family(SpaceDescriptor("weighted", resolution={"shells": 2},
                                            weight=weight_from_config({"domain": _BOX})))
        t0 = grid.remoteness.max()
        assert bitwise_equal(grid.default_scales, t0 * 0.5 ** np.arange(6))
        assert grid.remoteness.min() == pytest.approx(1 / 65, rel=1e-12)


class TestBuildFamily:
    def test_bmo_count(self):
        res = {"n_samples": 4096, "midpoints": 256, "min_len_exp": 0,
               "max_len_exp": 10}
        fam = build_family(SpaceDescriptor("bmo_circle", p=1.0, resolution=res))
        assert len(fam) == 256 * 11

    def test_bloch_count(self):
        res = {"uniform_radii": 0, "shells": 12, "angles": 256}
        fam = build_family(SpaceDescriptor("bloch", resolution=res))
        assert len(fam) == 12 * 256

    def test_lip_count(self):
        desc = SpaceDescriptor("lip", alpha=1.0,
                               lip_domain=BoxDomain([0.0], [1.0], 0.01))
        assert len(build_family(desc)) == 5050

    def test_too_coarse_rejected(self):
        res = {"n_samples": 4096, "midpoints": 16, "min_len_exp": 0,
               "max_len_exp": 3}
        with pytest.raises(ConfigError, match="coarse"):
            build_family(SpaceDescriptor("bmo_circle", resolution=res))

    def test_lip_pair_cap_respected(self):
        desc = SpaceDescriptor("lip", alpha=0.5,
                               lip_domain=BoxDomain([-1.0], [1.0], 1e-4),
                               resolution={"pair_cap": 200000})
        fam = build_family(desc)
        assert len(fam) <= 200000 + 64  # anchors may add a handful
        # extremal cusp pairs survive subsampling
        f = EuclideanSamples(desc.lip_domain,
                             np.abs(desc.lip_domain.axes()[0]) ** 0.5, 0.5)
        assert seminorm_sup(fam, f).value == pytest.approx(1.0)

    @pytest.mark.parametrize("dom", [
        BoxDomain([-1.0], [1.0], 1e-4),                   # strata
        BoxDomain([-1.0, -1.0], [1.0, 1.0], 0.0625)],     # all pairs
        ids=["1d-strata", "2d-all-pairs"])
    def test_lip_distances_from_integer_offsets(self, dom):
        # rounded coordinate differences scatter by a few ulps of the
        # coordinates; step * |offset| puts every pair at its offset's level
        desc = SpaceDescriptor("lip", alpha=0.5, lip_domain=dom)
        fam = build_family(desc)
        ia, ib, _ = lip_pair_indices(dom, desc.resolution["pair_cap"])
        offsets = np.subtract(np.unravel_index(ib, dom.shape),
                              np.unravel_index(ia, dom.shape))
        reach = np.sqrt(np.sum(offsets ** 2, axis=0))
        assert bitwise_equal(fam.remoteness, dom.step * reach)
        if dom.ndim == 1:
            assert bitwise_equal(fam.remoteness, 1e-4 * np.abs(ib - ia).astype(float))
        levels = np.repeat(fam._run_levels,
                           np.diff(np.append(fam._run_starts, len(fam))))
        assert np.all(levels[reach == 1] == fam.default_scales.size)

    @pytest.mark.parametrize("step", [1e-4, 1e-5])
    def test_lip_cusp_reads_exactly_one(self, step):
        # nodes sit at exact multiples of the step from the node at 0, the
        # same products as the pair distances: every quotient through the
        # origin is |x|^(1/2) / |x|^(1/2), so the cusp's sup is exactly 1
        dom = BoxDomain([-1.0], [1.0], step)
        axis = dom.axes()[0]
        k0 = int(np.argmin(np.abs(axis)))
        assert bitwise_equal(axis, step * (np.arange(axis.size) - k0))
        desc = SpaceDescriptor("lip", alpha=0.5, lip_domain=dom)
        f = make_function({"kind": "builtin", "name": "holder_cusp"}, desc)
        assert seminorm_sup(build_family(desc), f).value == 1.0
        # without 0 among the nodes, node k stays at lo + step * k
        off = BoxDomain([0.25], [1.25], 0.5).axes()[0]
        assert bitwise_equal(off, 0.25 + 0.5 * np.arange(3))

    @pytest.mark.parametrize("n,mids,kmin,kmax", [
        (128, 8, 1, 6), (1024, 1024, 2, 7), (4096, 128, 0, 10), (64, 1, 0, 5)])
    def test_arc_layout_matches_per_arc_loop(self, n, mids, kmin, kmax):
        want = arc_layout_loop(n, mids, kmin, kmax)
        got = _arc_layout(n, mids, kmin, kmax)
        for col, dtype, column in zip(got, (np.int64, np.int64, float, float),
                                      zip(*want)):
            assert bitwise_equal(col, np.array(column, dtype=dtype))

    def test_rect_params_match_product_list(self):
        fam = build_family(SpaceDescriptor("rect_bmo", resolution={
            "n_samples": 128, "midpoints": 8, "min_len_exp": 1, "max_len_exp": 6}))
        arcs = [(a[2], a[3]) for a in arc_layout_loop(128, 8, 1, 6)]
        # J-major: entry j * len(arcs) + i pairs I-arc i with J-arc j
        want = [(mi, li, mj, lj) for mj, lj in arcs for mi, li in arcs]
        assert len(fam) == len(want) == 48 * 48
        got = fam.describe(np.arange(len(fam)))
        assert got.dtype.names == ("mid_zeta", "len_zeta", "mid_lambda", "len_lambda")
        for name, column in zip(got.dtype.names, zip(*want)):
            assert bitwise_equal(got[name], np.array(column, dtype=np.float64))
        assert fam.describe(np.array([-1]))[0].tolist() == want[-1]
        with pytest.raises(IndexError):
            fam.describe(np.array([len(fam)]))

    @pytest.mark.parametrize("case", ["bloch", "qk", "disc", "annulus", "box"])
    def test_node_params_match_node_array(self, case):
        # each space takes only its own resolution keys: box_nodes is weighted's
        res = {"uniform_radii": 8, "shells": 7, "angles": 16}
        domains = {"disc": {"kind": "disc"},
                   "annulus": {"kind": "annulus", "r0": 0.25, "r1": 0.75},
                   "box": {"kind": "box", "x0": -0.5, "x1": 0.5,
                           "y0": -0.25, "y1": 0.5}}
        if case == "bloch":
            desc, field = SpaceDescriptor("bloch", resolution=res), "w"
            w = disc_nodes(_disc_radii(8, 7), 16)
        elif case == "qk":
            desc, field = SpaceDescriptor("qk", resolution=QK_LIGHT_RES), "a"
            w = disc_nodes(_disc_radii(0, 7, 2, extra=(0.0, 0.5)), 16)
        else:
            dom = domains[case]
            weight = weight_from_config({"name": "one_minus_r2", "domain": dom})
            desc = SpaceDescriptor("weighted", resolution=dict(res, box_nodes=64),
                                   weight=weight)
            field = "z"
            if case == "disc":
                w = disc_nodes(_disc_radii(8, 7), 16)
            elif case == "annulus":
                offs = (1.0 - _disc_radii(8, 7)) * 0.25
                offs = offs[offs < 0.25]
                w = disc_nodes(np.unique(np.concatenate([0.25 + offs, 0.75 - offs,
                                                         [0.5]])), 16)
            else:
                x = np.linspace(-0.5, 0.5, 66)[1:-1]
                y = np.linspace(-0.25, 0.5, 66)[1:-1]
                w = (x[:, None] + 1j * y[None, :]).ravel()
        fam = build_family(desc)
        assert len(fam) == w.size
        got = fam.describe(np.arange(len(fam)))
        assert got.dtype.names == (field,)
        assert got[field].dtype == np.complex128
        assert bitwise_equal(got[field], w)
        backward = fam.describe(-np.arange(1, len(fam) + 1))
        assert bitwise_equal(backward[field], w[::-1])
        with pytest.raises(IndexError):
            fam.describe(np.array([len(fam)]))

    def test_annulus_shells_reach_both_circles(self):
        # a light grid (8 uniform radii, 7 shells) on the annulus 1/4 < |z| <
        # 3/4: the dyadic shells sit gap 2^-k inside each circle, so the
        # remoteness reaches gap 2^-7 on both sides and the ladder has 8 levels
        r0, r1, gap = 0.25, 0.75, 0.25
        desc = SpaceDescriptor("weighted", resolution={
            "uniform_radii": 8, "shells": 7, "angles": 16},
            weight=weight_from_config({"name": "one_minus_r2", "domain": {
                "kind": "annulus", "r0": r0, "r1": r1}}))
        fam = build_family(desc)
        radii = np.abs(fam.describe(np.arange(len(fam))).z)
        for k in range(1, 8):
            for circle in (r0 + gap * 2.0 ** -k, r1 - gap * 2.0 ** -k):
                assert np.any(np.abs(radii - circle) <= 1e-15)
        assert len(fam.default_scales) == 8
        finest = fam.remoteness == fam.remoteness.min()
        assert fam.remoteness.min() == pytest.approx(gap * 2.0 ** -7, rel=1e-12)
        assert radii[finest].min() < 0.5 < radii[finest].max()

    @pytest.mark.parametrize("key", ["bmo_p1.0", "bloch", "qk", "weighted",
                                     "lip_1d", "rect_bmo"],
                             ids=["bmo_circle", "bloch", "qk", "weighted", "lip",
                                  "rect_bmo"])
    def test_wrong_representation_rejected(self, small_grids, key):
        # every grid refuses each representation but the one its space takes,
        # sized to the other grids so that only the representation differs
        desc, fam = small_grids[key]
        inputs = [PeriodicSamples(np.ones(1024)), TorusSamples(np.ones((128, 128))),
                  TaylorFunction.polynomial([1.0, 0.5]),
                  EuclideanSamples(BoxDomain([-1.0], [1.0], 0.02), np.ones(101), 0.5)]
        wrong = [f for f in inputs if not isinstance(f, desc.representation)]
        assert len(wrong) == 3
        for f in wrong:
            with pytest.raises(ConfigError):
                fam.evaluate_all(f)


EPS = np.finfo(float).eps
QK_LIGHT_RES = {"shell_from": 2, "shell_to": 7, "extra_radii": (0.5,),
                "angles": 16, "quad_nr": 16, "quad_ntheta": 32}


class TestFamilyKernels:
    """Every entry of the vectorised evaluators against the single-entry
    references, with tolerances set from float64 rounding."""

    @pytest.mark.parametrize("degree", [0, 1, 2, 12, 17])
    def test_qk_entries_match_qk_local(self, degree):
        # degree 0 is the zero polynomial; 17 exceeds the 16 family angles
        desc = SpaceDescriptor("qk", resolution=QK_LIGHT_RES)
        fam = build_family(desc)
        rng = np.random.default_rng(degree)
        coeffs = rng.normal(size=max(degree, 1)) + 1j * rng.normal(size=max(degree, 1))
        f = TaylorFunction.polynomial(coeffs if degree else np.zeros(3))
        centres = fam.describe(np.arange(len(fam))).a
        # K(t) = t on an exact polynomial: Garsia's form against the direct
        # lag sums.  Every lag, folded sum and value is a sum of at most
        # 2 (degree + 1) terms of size (sum |a_k|)^2 (or its root), each
        # off by a few eps; the FFTs add log2 of their lengths
        want = littlewood_paley_squares(f.coeffs, centres)
        tol = 32 * (degree + 1) * EPS * np.abs(f.coeffs).sum() ** 2
        assert np.all(np.abs(fam.evaluate_all(f) ** 2 - want) <= tol)
        # the quadrature: the same function in closed form under K(t) = t,
        # and the polynomial under K = 1
        closed = TaylorFunction(None, value_fn=f.value, deriv_fn=f.deriv)
        flat = SpaceDescriptor("qk", resolution=QK_LIGHT_RES,
                               kernel=kernel_from_config({"name": "one"}))
        rule = QuadratureRule(16, 32)
        n_nodes = 16 * 32
        c_abs = np.abs(np.trim_zeros(f.coeffs, "b") * np.arange(1, degree + 1)).sum()
        for d, g in ((desc, closed), (flat, f)):
            vals = build_family(d).evaluate_all(g)
            for val, a in zip(vals, centres):
                want = qk_local(g, a, d.kernel, rule)
                # sum_n jac_n over the centre's nodes (f' = 1) times the
                # majorant (sum |c_k|)^2 of |f'|^2 bounds every term; Horner,
                # node rotation and the n-term sum each add O(d + n) eps of it
                mass = qk_local(TaylorFunction.polynomial([1.0]), a, d.kernel, rule)
                tol = (16 * degree + n_nodes) * EPS * c_abs ** 2 * mass
                assert abs(val ** 2 - want) <= tol

    def test_qk_garsia_path_chosen_by_exponent_not_name(self):
        # a kernel named like the config's K(t) = t but equal to 1 takes the
        # quadrature, as K = 1 does: the display name chooses nothing
        f = TaylorFunction.polynomial([1.0, 0.5])
        named = KKernel(lambda t: np.ones_like(t), name="power[1.0]")
        one = kernel_from_config({"name": "one"})
        t = kernel_from_config({"name": "power", "exponent": 1})
        assert (named.exponent, one.exponent, t.exponent) == (None, None, 1.0)

        def entries(kernel):
            desc = SpaceDescriptor("qk", resolution=QK_LIGHT_RES, kernel=kernel)
            return build_family(desc).evaluate_all(f)

        assert bitwise_equal(entries(named), entries(one))
        # Garsia's K = t entries lie far below the K = 1 quadrature's
        assert np.max(entries(t)) < 0.6 * np.max(entries(one))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
    def test_qk_exact_polynomials_match_littlewood_paley(self, qk_default, degree, seed):
        fam, centres = qk_default
        f = _qk_polynomial(degree, seed)
        want = littlewood_paley_squares(f.coeffs, centres)
        got = fam.evaluate_all(f) ** 2
        assert np.all(np.abs(got - want) <= 1e-12 * want.max())

    def test_qk_lacunary_reads_exactly(self, qk_default):
        # the degree-1024 lacunary polynomial on the default grid: 256
        # quadrature angles alias |f'|^2, whose angular degree reaches 2046,
        # and read 5.053763 at a = 0; its complete coefficients read exactly
        fam, centres = qk_default
        f = lacunary()
        want = littlewood_paley_squares(f.coeffs, centres)
        got = fam.evaluate_all(f)
        assert np.all(np.abs(got ** 2 - want) <= 1e-12 * want.max())
        assert got[centres == 0][0] == pytest.approx(4.156773, abs=5e-7)
        assert got.max() == pytest.approx(4.572118, abs=5e-7)
        # bloch too reads its complete coefficients, through the ring fold,
        # not its closed forms; the two agree to the closed forms' rounding,
        # 8 N eps of the majorant sum k |a_k| |w|^(k-1) (see the funcrep test
        # of the closed forms against Horner)
        bloch = build_family(SpaceDescriptor("bloch"))
        got = bloch.evaluate_all(f)
        assert bitwise_equal(got, bloch.evaluate_all(TaylorFunction.polynomial(f.coeffs)))
        closed = TaylorFunction(None, value_fn=f.value_fn, deriv_fn=f.deriv_fn)
        r = np.abs(bloch.describe(np.arange(len(bloch))).w)[:, None]
        powers = 2 ** np.arange(11)
        major = (1.0 - r[:, 0] ** 2) * (powers * r ** (powers - 1)).sum(axis=1)
        assert np.all(np.abs(got - bloch.evaluate_all(closed)) <= 8 * 1024 * EPS * major)

    @pytest.mark.parametrize("p,mids,real", [
        pytest.param(p, mids, real, id=f"{p}-{mids}" + ("-real" if real else ""))
        for real in (False, True) for p in (1.0, 1.5, 2.0) for mids in (64, "all")])
    def test_bmo_entries_match_direct_oscillation(self, p, mids, real):
        n = 1024
        fam = build_family(SpaceDescriptor("bmo_circle", p=p, resolution={
            "n_samples": n, "midpoints": mids, "min_len_exp": 2, "max_len_exp": 7}))
        rng = np.random.default_rng(9)
        values = rng.normal(size=n) + (0 if real else 1j * rng.normal(size=n)) + 0.5
        f = PeriodicSamples(values)
        assert f.values.dtype == (np.float64 if real else np.complex128)
        scale = 2.0 * np.abs(f.values).max()    # bounds |f| and |f - mean f|
        vals = fam.evaluate_all(f)
        for val, param in zip(vals, fam.describe(np.arange(len(fam)))):
            start, ncells = snap_arc(f, Arc(param.midpoint, param.length))
            want = direct_oscillation(f.values, start, ncells, p)
            # window means from prefix sums: two differenced cumsums of up to n
            # terms, divided by ncells; plus the direct sum over ncells + 1 nodes
            bound = (2.0 * n * n / ncells + 8.0 * (ncells + 1)) * EPS * scale
            if p == 2.0:
                # moment path: the error lands on the square
                assert abs(val ** 2 - want ** 2) <= 4.0 * scale * bound
            else:
                # the p-mean deviation is 1-Lipschitz in the mean
                assert abs(val - want) <= 2.0 * bound

    @settings(max_examples=60, deadline=None)
    @given(torus_arc_pairs())
    def test_rect_entries_match_direct_sum(self, case):
        values, arcs_i, arcs_j = case
        n = values.shape[0]
        F = TorusSamples(values)
        assert F.values.dtype == values.dtype    # real input stays float64
        got = _rect_values(F, *(_window_layout(*np.array(arcs).T, n)
                                for arcs in (arcs_i, arcs_j)))
        want = [direct_rect_square(values, i, j) for j in arcs_j for i in arcs_i]
        # every moment is a window mean: a difference of prefix sums of at most
        # n terms, each at most 16 max|F|^2 after two-way centring, over
        # ncells >= 2 cells; four moments, the centring and the oracle's own
        # sums stay below 64 n^2 eps max|F|^2.  Compared on the square, since
        # the moment form's absolute error blows up under the root near 0.
        tol = 64 * n * n * EPS * np.abs(values).max() ** 2
        assert np.all(np.abs(got ** 2 - np.array(want)) <= tol)


@pytest.mark.parametrize("p", [1.0, 2.5])
@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_direct_osc_independent_of_chunk(p, real):
    # strided windows of one vector, as the bmo family reads them; 10 rows
    # leave a partial last block at 3 rows per block
    rng = np.random.default_rng(11)
    values = rng.normal(size=400) + (0 if real else 1j * rng.normal(size=400))
    width = 33
    windows = sliding_window_view(values, width)[::29][:10]
    means = windows.mean(axis=1)
    results = [_direct_osc(windows, means, p, chunk)
               for chunk in (width, 3 * width + 1, 2 ** 16)]
    assert windows.shape[0] % 3 != 0
    assert all(bitwise_equal(got, results[0]) for got in results[1:])


def direct_path_entries(values, res, p):
    """Oracle: every bmo entry through `_direct_osc` alone, as the grid read
    them all before sorted blocks, from each arc's gathered window about its
    prefix-sum mean."""
    n = values.size
    mids = n if res["midpoints"] == "all" else res["midpoints"]
    starts, ncells, _, _ = _arc_layout(n, mids, res["min_len_exp"], res["max_len_exp"])
    centred = values - values.mean()
    means = _window_means(centred, _window_layout(starts, ncells, n), 0)
    out = np.empty(starts.size)
    for nc in np.unique(ncells):
        sel = np.flatnonzero(ncells == nc)
        windows = centred[(starts[sel, None] + np.arange(nc + 1)) % n]
        out[sel] = _direct_osc(windows, means[sel], p)
    return out


# (n, midpoints, min_len_exp): block sizes 128, 64 and 32 take sorted
# blocks on their levels of whole blocks; 16 and 1 ("all") stay direct; at
# min_len_exp 0 and 1 arcs reach round the whole and half the circle
SORTED_GRIDS = [(1024, 8, 0), (2048, 16, 1), (2048, 32, 2), (1024, 32, 1),
                (1024, 64, 2), (256, "all", 1)]
assert {n // (n if m == "all" else m) >= _SORTED_MIN_SPACING
        for n, m, _ in SORTED_GRIDS} == {True, False}


@pytest.fixture(scope="module")
def sorted_grids():
    grids = {}
    for n, mids, kmin in SORTED_GRIDS:
        res = {"n_samples": n, "midpoints": mids, "min_len_exp": kmin,
               "max_len_exp": kmin + 5}
        for p in (1.0, 1.5):
            grids[n, mids, p] = res, build_family(
                SpaceDescriptor("bmo_circle", p=p, resolution=res))
    return grids


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(SORTED_GRIDS), st.sampled_from(["ints", "steps", "noise"]),
       st.integers(0, 2 ** 32 - 1), st.floats(-1e3, 1e3))
def test_bmo_sorted_blocks_match_direct_path(sorted_grids, grid, kind, seed, const):
    n, mids, _ = grid
    res, fam = sorted_grids[n, mids, 1.0]
    rng = np.random.default_rng(seed)
    if kind == "ints":
        # few distinct values: plateaus, and ties at many an arc's mean
        values = rng.integers(-2, 3, size=n).astype(float)
    elif kind == "steps":
        jumps = np.sort(rng.integers(0, n, size=rng.integers(1, 6)))
        values = np.cumsum(np.isin(np.arange(n), jumps) * rng.normal(size=n))
    else:
        values = rng.normal(size=n)
    # a random rotation carries the features across node 0, where arcs wrap
    values = np.roll(values * 10.0 ** rng.integers(-3, 4) + const, rng.integers(n))
    got = fam.evaluate_all(PeriodicSamples(values))
    want = direct_path_entries(values, res, 1.0)
    ncells = n * fam.remoteness / TWO_PI
    scale = 2.0 * np.abs(values).max()
    # the bound of test_bmo_entries_match_direct_oscillation
    bound = (2.0 * n * n / ncells + 8.0 * (ncells + 1)) * EPS * scale
    assert np.all(got >= 0)
    assert np.all(np.abs(got - want) <= 2.0 * bound)
    assert bitwise_equal(fam.evaluate_all(PeriodicSamples(-values)), got)
    assert not fam.evaluate_all(PeriodicSamples(np.full(n, const))).any()
    # complex samples and p != 1 keep the direct path, bit for bit
    cplx = values + 1j * np.roll(values, 1)
    assert bitwise_equal(fam.evaluate_all(PeriodicSamples(cplx)),
                         direct_path_entries(cplx, res, 1.0))
    res, fam = sorted_grids[n, mids, 1.5]
    for v in (values, cplx):
        assert bitwise_equal(fam.evaluate_all(PeriodicSamples(v)),
                             direct_path_entries(v, res, 1.5))


def test_bmo_pair_cap_keeps_direct_path(monkeypatch):
    # a grid whose whole-block levels hold more (arc, block) pairs than the
    # cap keeps no pair layout and reads every level directly
    res = {"n_samples": 2048, "midpoints": 16, "min_len_exp": 1, "max_len_exp": 6}
    desc = SpaceDescriptor("bmo_circle", resolution=res)
    f = PeriodicSamples(np.random.default_rng(4).normal(size=2048))
    want = direct_path_entries(f.values, res, 1.0)
    assert not bitwise_equal(build_family(desc).evaluate_all(f), want)
    # 16 arcs per level over 8, 4 and 2 blocks of 128 nodes: 224 pairs
    monkeypatch.setattr(spaces_module, "_SORTED_PAIR_CAP", 223)
    assert bitwise_equal(build_family(desc).evaluate_all(f), want)


def _qk_polynomial(degree, seed, closed=False):
    """A random complex polynomial a_1 z + ... + a_d z^d of exactly degree d
    (the zero polynomial for d = 0, whose f' is empty), as exact
    coefficients or, when `closed`, as closed forms only."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(2)
    if degree:
        coeffs = rng.normal(size=degree) + 1j * rng.normal(size=degree)
    f = TaylorFunction.polynomial(coeffs)
    return TaylorFunction(None, value_fn=f.value, deriv_fn=f.deriv) if closed else f


def littlewood_paley_squares(coeffs, a):
    """Independent oracle for the qk entries' squares under K(t) = t at the
    centres a, for f = sum_k a_k z^k (coeffs a_1..a_N): the Littlewood-Paley
    identity (pi/2) (P[|f|^2](a) - |f(a)|^2), the lags l_m = sum_k a_{k+m}
    conj(a_k) of P summed directly."""
    c = np.asarray(coeffs, dtype=complex)
    lags = np.array([np.dot(c[m:], np.conj(c[:c.size - m])) for m in range(c.size)])
    poisson = 2.0 * np.real(P.polyval(a, lags)) - lags[0].real
    value = P.polyval(a, np.concatenate([[0.0], c]))
    return 0.5 * np.pi * (poisson - np.abs(value) ** 2)


@pytest.fixture(scope="module")
def qk_default():
    """The default qk grid (K(t) = t) and its centres."""
    fam = build_family(SpaceDescriptor("qk"))
    return fam, fam.describe(np.arange(len(fam))).a


class TestQkGridReuse:
    """A qk grid gives every caller the values a fresh grid gives."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, QK_LIGHT_RES["angles"] + 1),
                              st.integers(0, 2 ** 32 - 1), st.booleans()),
                    min_size=1, max_size=6))
    def test_reused_grid_matches_fresh_grids(self, inputs):
        # exact polynomials read Garsia's form, their closed-form twins the
        # quadrature: neither path may leave anything behind for the next call
        desc = SpaceDescriptor("qk", resolution=QK_LIGHT_RES)
        reused = build_family(desc)
        for degree, seed, closed in inputs + inputs[:1]:
            f = _qk_polynomial(degree, seed, closed)
            assert bitwise_equal(reused.evaluate_all(f),
                                 build_family(desc).evaluate_all(f))

    def test_concurrent_callers_of_mixed_degrees(self):
        # more threads than cores, each switching input on every call, with a
        # short switch interval: state shared between calls would hand one
        # caller values computed from another's input
        import sys
        import threading
        desc = SpaceDescriptor("qk", resolution=QK_LIGHT_RES)
        inputs = [_qk_polynomial(degree, degree, closed=degree == 7)
                  for degree in (3, 7, 12, 16)]
        want = [build_family(desc).evaluate_all(f) for f in inputs]
        fam = build_family(desc)
        failures = []

        def worker(shift):
            for k in range(40):
                i = (k + shift) % len(inputs)
                try:
                    if not bitwise_equal(fam.evaluate_all(inputs[i]), want[i]):
                        failures.append(i)
                except Exception as exc:       # a thread's exception is lost
                    failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestStrataPairsProperty:
    @settings(max_examples=80, deadline=None)
    @given(strata_grids())
    def test_matches_definition(self, case):
        dom, cap = case
        ia, ib, reach = _strata_pairs(dom, cap)
        want_a, want_b = direct_strata(dom.shape, dom.lo, dom.step, cap)
        assert ia.dtype == ib.dtype == np.int64
        assert np.array_equal(ia, want_a)
        assert np.array_equal(ib, want_b)
        # the offset norm of each pair, from its own two multi-indices
        offsets = np.subtract(np.unravel_index(want_b, dom.shape),
                              np.unravel_index(want_a, dom.shape))
        assert bitwise_equal(reach, np.sqrt(np.sum(offsets ** 2, axis=0)))


class TestStrataEvaluationProperty:
    # the strata family reads each stratum as strided views of the samples,
    # or, where its views would be many and small, gathers it from its
    # sources; each way must give the pair-list quotients bit for bit
    @pytest.mark.parametrize("min_view_picks", [1, 2 ** 62], ids=["views", "gathered"])
    @settings(max_examples=80, deadline=None)
    @given(case=strata_grids(), alpha=st.sampled_from([0.5, 1.0]) | st.floats(0.01, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_pair_gather(self, min_view_picks, case, alpha, seed):
        dom, cap = case
        coords = _grid_coords(dom)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spaces_module, "_MIN_VIEW_PICKS", min_view_picks)
            describe, dist, eval_all = _build_lip_strata(dom, cap, alpha, coords)
        ia, ib, reach = _strata_pairs(dom, cap)
        assert bitwise_equal(dist, dom.step * reach)
        rng = np.random.default_rng(seed)
        values = rng.normal(size=dom.shape)
        flat = values.ravel()
        want = np.abs(flat[ia] - flat[ib]) / (dom.step * reach) ** alpha
        assert bitwise_equal(eval_all(EuclideanSamples(dom, values, 0.5)), want)
        for idx in (np.arange(ia.size), rng.integers(-ia.size, ia.size, 9)):
            got = describe(idx)
            assert bitwise_equal(got.x, coords[ia[idx]])
            assert bitwise_equal(got.y, coords[ib[idx]])
        with pytest.raises(IndexError):
            describe(np.array([ia.size]))


class TestHomogeneity:
    CASES = {
        "bmo_circle": lambda: (SpaceDescriptor(
            "bmo_circle", p=1.0, resolution={"n_samples": 4096, "midpoints": 64,
                                             "min_len_exp": 2, "max_len_exp": 7}),
            PeriodicSamples(step_half_values(4096))),
        "bloch": lambda: (SpaceDescriptor("bloch"), log_singular()),
        "qk": lambda: (SpaceDescriptor("qk", resolution={
            "shell_from": 2, "shell_to": 7, "extra_radii": (0.5,),
            "angles": 16, "quad_nr": 16, "quad_ntheta": 32}),
            taylor_builtin("poly", coeffs=[[1, 0], [0, 0], [1, 0]])),
        "weighted": lambda: (SpaceDescriptor("weighted"),
                             taylor_builtin("cauchy_kernel")),
        "lip": lambda: (SpaceDescriptor(
            "lip", alpha=0.5, lip_domain=BoxDomain([-1.0], [1.0], 0.01)),
            None),
        "rect_bmo": lambda: (SpaceDescriptor(
            "rect_bmo", resolution={"n_samples": 256, "midpoints": 32,
                                    "min_len_exp": 1, "max_len_exp": 6}),
            torus_builtin("step_tensor", 256)),
    }

    @pytest.mark.parametrize("tag", sorted(CASES))
    def test_degree_one(self, tag):
        # entries computed by square-root moment formulas (rect, qk) carry a
        # sqrt-of-eps noise floor on near-degenerate windows, so per-entry
        # equivariance is checked against it; the sup is always eps-clean
        desc, f = self.CASES[tag]()
        if f is None:
            f = EuclideanSamples(desc.lip_domain,
                                 np.abs(desc.lip_domain.axes()[0]) ** 0.5, 0.5)
        fam = build_family(desc)
        c = 2.75
        v1 = fam.evaluate_all(f)
        v2 = fam.evaluate_all(f * c)
        scale = max(1.0, float(v1.max()) * c)
        floor = 1e-6 * scale if desc.tag in ("rect_bmo", "qk") else 1e-12 * scale
        assert np.max(np.abs(v2 - c * v1)) <= floor
        assert abs(float(v2.max()) - c * float(v1.max())) <= 1e-12 * scale

    def test_qk_local_degree_two(self):
        K = kernel_from_config({"name": "power", "exponent": 1.0})
        f = taylor_builtin("poly", coeffs=[[1, 0], [0.3, 0.4]])
        a = 0.2 + 0.1j
        assert qk_local(f * 3.0, a, K) == pytest.approx(9 * qk_local(f, a, K),
                                                        rel=1e-12)


_SMALL_DISC = {"uniform_radii": 16, "shells": 8, "angles": 64}
_SMALL_SPACES = {
    **{f"bmo_p{p}": SpaceDescriptor("bmo_circle", p=p, resolution={
        "n_samples": 1024, "midpoints": 32, "min_len_exp": 1, "max_len_exp": 7})
       for p in (1.0, 1.5, 2.0)},
    "bloch": SpaceDescriptor("bloch", resolution=_SMALL_DISC),
    "weighted": SpaceDescriptor("weighted", resolution=dict(_SMALL_DISC, box_nodes=16)),
    "qk": SpaceDescriptor("qk", resolution={
        "shell_from": 2, "shell_to": 7, "extra_radii": (0.5,),
        "angles": 16, "quad_nr": 16, "quad_ntheta": 32}),
    "lip_1d": SpaceDescriptor("lip", alpha=0.5,
                              lip_domain=BoxDomain([-1.0], [1.0], 0.02)),
    "lip_2d": SpaceDescriptor("lip", alpha=0.5,
                              lip_domain=BoxDomain([-1.0, -1.0], [1.0, 1.0], 0.0625)),
    "rect_bmo": SpaceDescriptor("rect_bmo", resolution={
        "n_samples": 128, "midpoints": 16, "min_len_exp": 1, "max_len_exp": 6}),
}


@pytest.fixture(scope="module")
def small_grids():
    return {key: (desc, build_family(desc)) for key, desc in _SMALL_SPACES.items()}


class TestDescribe:
    @pytest.mark.parametrize("key", sorted(_SMALL_SPACES))
    def test_describe_gives_one_record_per_index(self, small_grids, key):
        desc, fam = small_grids[key]
        rng = np.random.default_rng(5)
        for idx in (np.array([], dtype=np.int64), np.array([0]),
                    rng.integers(0, len(fam), 7), np.arange(len(fam))):
            got = fam.describe(idx)
            assert isinstance(got, np.recarray)
            assert got.shape == (len(idx),)
            if desc.tag == "lip":
                # without an explicit dtype this would be a (k, ndim) array
                # of records, and a witness's JSON would still look right
                ndim = desc.lip_domain.ndim
                assert got.x.shape == got.y.shape == (len(idx), ndim)
                assert got.dtype["x"].shape == (ndim,)

    @pytest.mark.parametrize("key", ["bloch", "qk", "weighted"])
    def test_params_lead_with_the_node(self, small_grids, key):
        # the benchmark reads each entry's node as params[k][0]
        _, fam = small_grids[key]
        nodes = fam.describe(np.arange(len(fam)))[{"bloch": "w", "qk": "a",
                                                   "weighted": "z"}[key]]
        params = fam.params
        assert all(type(p) is tuple and type(p[0]) is complex for p in params)
        assert bitwise_equal(np.array([p[0] for p in params]), nodes)


# lip grids with more pairs than their cap: the strata branch of the builder
_STRATA_SPACES = {
    "lip_1d_strata": SpaceDescriptor("lip", alpha=0.5, resolution={"pair_cap": 1000},
                                     lip_domain=BoxDomain([-1.0], [1.0], 0.02)),
    "lip_2d_strata": SpaceDescriptor("lip", alpha=0.5, resolution={"pair_cap": 20000},
                                     lip_domain=BoxDomain([-1.0, -1.0], [1.0, 1.0], 0.0625)),
}


@pytest.mark.parametrize("key", sorted(_SMALL_SPACES) + sorted(_STRATA_SPACES))
def test_evaluator_closure_cells_are_bound(small_grids, key):
    # whatever branch built it, every name the evaluator closes over is
    # bound: reading the cells (as the benchmark's array count does) must not
    # raise "Cell is empty"
    desc, grid = small_grids.get(key) or (_STRATA_SPACES[key],
                                          build_family(_STRATA_SPACES[key]))
    if desc.tag == "lip":
        # the small lip grids take every pair, the strata grids fewer
        nodes = math.prod(desc.lip_domain.shape)
        assert (len(grid) == nodes * (nodes - 1) // 2) == (key in _SMALL_SPACES)
    for cell in grid._eval_all.__closure__ or ():
        cell.cell_contents


def _random_input(desc, kind: str, rng):
    """Real or complex samples, a random Taylor polynomial or log_singular,
    in the representation the descriptor's space takes."""
    if desc.tag in ("bloch", "qk", "weighted"):
        if kind == "log_singular":
            return log_singular()
        degree = int(rng.integers(1, 13))
        return TaylorFunction.polynomial(rng.normal(size=degree)
                                         + 1j * rng.normal(size=degree))
    if desc.tag == "lip":
        return EuclideanSamples(desc.lip_domain,
                                rng.normal(size=desc.lip_domain.shape), desc.alpha)
    n = desc.resolution["n_samples"]
    shape = (n,) if desc.tag == "bmo_circle" else (n, n)
    values = rng.normal(size=shape)
    if kind == "complex":
        values = values + 1j * rng.normal(size=shape)
    return (PeriodicSamples if desc.tag == "bmo_circle" else TorusSamples)(values)


class TestHomogeneityProperty:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(_SMALL_SPACES)),
           st.sampled_from(["real", "complex", "log_singular"]),
           st.integers(-8, 8), st.sampled_from([1.0, -1.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_power_of_two_scaling(self, small_grids, key, kind, k, sign, seed):
        # c = +-2^k scales every entry by |c| with no rounding, through the
        # shared sample arithmetic and the Taylor closed forms alike.  For
        # p = 1.5 the terms pass through pow, which rounds 2^(1.5 k) |d|^1.5
        # afresh: a few ulps per term and per root, kept below 1e-13 of the
        # largest entry (a sum of non-negative terms keeps its relative error)
        desc, grid = small_grids[key]
        f = _random_input(desc, kind, np.random.default_rng(seed))
        c = sign * 2.0 ** k
        values, scaled = grid.evaluate_all(f), grid.evaluate_all(f * c)
        if desc.tag == "bmo_circle" and desc.p not in (1.0, 2.0):
            assert np.all(np.abs(scaled - abs(c) * values)
                          <= 1e-13 * abs(c) * values.max())
        else:
            assert np.array_equal(scaled, abs(c) * values)
        for vals in (values, scaled):
            _, sups = tail_profile(grid, vals).nonempty()
            assert np.all(np.diff(sups) <= 0)


@pytest.mark.parametrize("key", sorted(_SMALL_SPACES))
@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(["real", "complex", "log_singular"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_level_zero_is_the_seminorm(small_grids, key, kind, seed):
    # the ladder starts at the largest remoteness, so every entry counts at
    # level 0: the seminorm readers take it from there, not from a max pass.
    # No reader checks signs: every kernel ends in abs or sqrt(max(., 0)), so
    # no entry is negative, and seminorm_sup's argmax is the vector's max
    desc, grid = small_grids[key]
    f = _random_input(desc, kind, np.random.default_rng(seed))
    values = grid.evaluate_all(f)
    assert values.min() >= 0
    assert bitwise_equal(tail_profile(grid, values).tail_sups[:1], values.max(keepdims=True))
    rep = seminorm_sup(grid, f)
    assert bitwise_equal(np.array([rep.value]), values.max(keepdims=True))
    assert rep.argmax_param.tobytes() == grid.describe(np.array([np.argmax(values)])).tobytes()


def _within_rounding(key, got, want):
    """got equals want entry by entry to 1e-13 of the largest entry; rect_bmo
    to 1e-12, since it reads each entry from moments of windows as small as
    3 x 3 nodes (measured up to 1.5e-13 over 1000 random inputs)."""
    bound = 1e-12 if key == "rect_bmo" else 1e-13
    return np.all(np.abs(got - want) <= bound * want.max())


def _ring_turn(grid, key):
    """The permutation taking each disc grid entry to the entry one grid
    angle further round its ring (the centre point stays), and that angle."""
    nodes = grid.describe(np.arange(len(grid)))[{"bloch": "w", "qk": "a",
                                                 "weighted": "z"}[key]]
    n_ang = _SMALL_SPACES[key].resolution["angles"]
    head = int(nodes[0] == 0)
    rings = np.arange(head, len(grid)).reshape(-1, n_ang)
    perm = np.concatenate([np.arange(head), np.roll(rings, -1, axis=1).ravel()])
    turn = np.exp(1j * TWO_PI / n_ang)
    assert np.max(np.abs(nodes[perm] - turn * nodes)) <= 1e-15
    return perm, turn


_FOLD_ANNULUS = SpaceDescriptor("weighted", resolution=_SMALL_DISC, weight=weight_from_config(
    {"name": "one_minus_r2", "domain": {"kind": "annulus", "r0": 0.25, "r1": 0.75}}))


class TestRingFold:
    """bloch, and weighted on the disc and the annulus, read an exact
    polynomial of at least log2(angles) coefficients (6 on the small grids'
    64 angles) through `_ring_fold`: one inverse FFT per ring, not Horner's
    rule at every node."""

    @pytest.fixture(scope="class")
    def fold_grids(self, small_grids):
        return {"bloch": small_grids["bloch"], "weighted": small_grids["weighted"],
                "annulus": (_FOLD_ANNULUS, build_family(_FOLD_ANNULUS))}

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["bloch", "weighted", "annulus"]),
           st.sampled_from(["taylor", "lacunary"]), st.integers(6, 3 * 64),
           st.integers(0, 2 ** 32 - 1))
    def test_fold_matches_horner(self, fold_grids, key, kind, degree, seed):
        # degrees from the rule's threshold up to 3 whole turns, and lacunary
        # up to the 8 turns it folds: every entry lies within 4 degree eps of
        # the majorant (sum |a_k| |z|^k, or sum k |a_k| |w|^(k-1) for f') of
        # Horner's entry, about the rounding Horner's rule carries itself
        # (measured: under 0.9 degree eps over 450 inputs)
        desc, grid = fold_grids[key]
        rng = np.random.default_rng(seed)
        if kind == "lacunary":
            f = lacunary(int(rng.integers(3, 10)))
        else:
            f = TaylorFunction.polynomial(rng.normal(size=degree) + 1j * rng.normal(size=degree),
                                          const=complex(*rng.normal(size=2)))
        assert spaces_module._folds(f, desc.resolution["angles"])
        nodes = grid.describe(np.arange(len(grid)))["w" if key == "bloch" else "z"]
        r = np.abs(nodes)[:, None]
        k = np.arange(1, f.coeffs.size + 1)
        value, deriv = horner(f, nodes)
        if key == "bloch":
            want, major = np.abs(deriv), (k * np.abs(f.coeffs) * r ** (k - 1)).sum(axis=1)
        else:
            want, major = np.abs(value), abs(f.const) + (np.abs(f.coeffs) * r ** k).sum(axis=1)
        weight = 1.0 - r[:, 0] ** 2         # bloch's, and the weight 1 - |z|^2
        bound = 4 * f.coeffs.size * EPS * weight * major
        assert np.all(np.abs(grid.evaluate_all(f) - weight * want) <= bound)

    @pytest.mark.parametrize("key", ["bloch", "weighted"])
    def test_fold_rule(self, small_grids, monkeypatch, key):
        # the rule reads the coefficients: 6 = log2(64) exact ones fold, 5
        # and a truncated series do not; lacunary folds up to 8 whole turns
        # (512 coefficients) and takes its closed forms past them
        _, grid = small_grids[key]
        calls = []
        fold = spaces_module._ring_fold
        monkeypatch.setattr(spaces_module, "_ring_fold",
                            lambda *args: calls.append(args) or fold(*args))
        truncated = TaylorFunction(0.5 ** np.arange(1, 65))
        assert truncated.radius_cap < 1.0
        for f, folds in [(TaylorFunction.polynomial(np.ones(5)), False),
                         (TaylorFunction.polynomial(np.ones(6)), True),
                         (truncated, False), (lacunary(9), True), (lacunary(10), False)]:
            calls.clear()
            grid.evaluate_all(f)
            assert len(calls) == folds

    def test_empty_series_on_one_angle(self):
        # on one angle log2(1) = 0 coefficients fold: the empty polynomial
        # folds no turn at all and reads 0 everywhere, as Horner's rule does
        grid = build_family(SpaceDescriptor("bloch", resolution=dict(_SMALL_DISC, angles=1)))
        empty = TaylorFunction.polynomial([])
        assert np.array_equal(grid.evaluate_all(empty), np.zeros(len(grid)))

    def test_annulus_past_the_unit_circle_keeps_horner(self):
        # on 0.5 < |z| < 2 the powers of the outer radii grow without bound
        # (and overflow at high degrees, where inf times a zero coefficient
        # is NaN): those rings keep Horner's rule, whose entries the oracle
        # gives bit for bit, and no warning is raised
        desc = SpaceDescriptor("weighted", resolution=_SMALL_DISC, weight=weight_from_config(
            {"name": "power_dist", "exponent": 1.0,
             "domain": {"kind": "annulus", "r0": 0.5, "r1": 2.0}}))
        grid = build_family(desc)
        rng = np.random.default_rng(20)
        f = TaylorFunction.polynomial(rng.normal(size=20) + 1j * rng.normal(size=20))
        z = grid.describe(np.arange(len(grid))).z
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = grid.evaluate_all(f)
        assert bitwise_equal(got, desc.weight(z) * np.abs(horner(f, z)[0]))


class TestInvarianceProperties:
    """Symmetries of the spaces that each grid carries over to its entries,
    checked to rounding (`_within_rounding`) on every `_SMALL_SPACES` grid
    they apply to."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["bloch", "weighted", "qk", "qk-closed-form"]),
           st.integers(0, 2 ** 32 - 1))
    def test_rotation_by_one_grid_angle(self, small_grids, case, seed):
        # f(turn z), with coefficients a_k turn^k, has at w the entry f has at
        # turn w: on qk both as an exact polynomial (Garsia's form) and read
        # through its closed forms, which takes the quadrature.  Degrees reach
        # 3 whole turns of the grid's angles, so the ring folds of bloch,
        # weighted and Garsia's form fold several turns
        key = case.split("-")[0]
        desc, grid = small_grids[key]
        perm, turn = _ring_turn(grid, key)
        rng = np.random.default_rng(seed)
        degree = int(rng.integers(1, 3 * desc.resolution["angles"] + 1))
        coeffs = rng.normal(size=degree) + 1j * rng.normal(size=degree)
        f, g = (TaylorFunction.polynomial(c) for c in
                (coeffs, coeffs * turn ** np.arange(1, degree + 1)))
        if case == "qk-closed-form":
            f, g = (TaylorFunction(None, value_fn=h.value, deriv_fn=h.deriv)
                    for h in (f, g))
        assert _within_rounding(key, grid.evaluate_all(g), grid.evaluate_all(f)[perm])

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["bmo_p1.0", "bmo_p1.5", "bmo_p2.0", "rect_bmo"]),
           st.sampled_from(["real", "complex"]), st.integers(0, 2 ** 32 - 1))
    def test_roll_by_midpoint_spacing(self, small_grids, key, kind, seed):
        # samples rolled by the midpoint spacing (on both axes of the torus)
        # move every arc's midpoint to the next: each level's entries roll by
        # one, and on the torus each pair's two arcs do
        desc, grid = small_grids[key]
        f = _random_input(desc, kind, np.random.default_rng(seed))
        mids = desc.resolution["midpoints"]
        spacing = desc.resolution["n_samples"] // mids
        axes = tuple(range(f.values.ndim))
        g = type(f)(np.roll(f.values, (spacing,) * len(axes), axis=axes))
        narcs = math.isqrt(len(grid)) if key == "rect_bmo" else len(grid)
        perm = np.roll(np.arange(narcs).reshape(-1, mids), 1, axis=1).ravel()
        if key == "rect_bmo":
            perm = (perm[:, None] * narcs + perm[None, :]).ravel()
        assert _within_rounding(key, grid.evaluate_all(g), grid.evaluate_all(f)[perm])

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["lip_1d", "lip_2d"]), st.integers(0, 2 ** 32 - 1))
    def test_lip_reflection(self, small_grids, key, seed):
        # x -> -x maps the grid of the box [-1, 1]^d onto itself and its pair
        # set onto itself: the same quotients, so the same sorted entries and
        # the same tail profile, to the bit (as measured)
        desc, grid = small_grids[key]
        f = _random_input(desc, "real", np.random.default_rng(seed))
        g = EuclideanSamples(desc.lip_domain, np.flip(f.values), desc.alpha)
        vf, vg = grid.evaluate_all(f), grid.evaluate_all(g)
        assert bitwise_equal(np.sort(vg), np.sort(vf))
        assert bitwise_equal(tail_profile(grid, vg).tail_sups,
                             tail_profile(grid, vf).tail_sups)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(set(_SMALL_SPACES) - {"weighted"})),
           st.sampled_from(["real", "complex", "log_singular"]),
           st.floats(-4.0, 4.0), st.integers(0, 2 ** 32 - 1))
    def test_adding_a_constant(self, small_grids, key, kind, shift, seed):
        # every space but weighted (where f(0) counts) acts modulo constants;
        # the constant is drawn at the samples' own scale, since rounding
        # f + shift loses bits of f in proportion to |shift|
        desc, grid = small_grids[key]
        f = _random_input(desc, kind, np.random.default_rng(seed))
        if isinstance(f, TaylorFunction):
            g = TaylorFunction(f.coeffs, f.value_fn, f.deriv_fn,
                               const=f.const + shift, radius_cap=f.radius_cap)
        elif isinstance(f, EuclideanSamples):
            g = EuclideanSamples(desc.lip_domain, f.values + shift, desc.alpha)
        else:
            g = type(f)(f.values + shift)
        assert _within_rounding(key, grid.evaluate_all(g), grid.evaluate_all(f))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(_SMALL_SPACES)),
           st.sampled_from(["real", "complex", "log_singular"]),
           st.floats(0.1, 10.0), st.sampled_from([1.0, -1.0]),
           st.integers(0, 2 ** 32 - 1))
    def test_general_scaling(self, small_grids, key, kind, size, sign, seed):
        # c f has |c| times every entry of f, for any real c
        desc, grid = small_grids[key]
        f = _random_input(desc, kind, np.random.default_rng(seed))
        c = sign * size
        assert _within_rounding(key, grid.evaluate_all(f * c),
                                abs(c) * grid.evaluate_all(f))


class TestMobiusInvariance:
    def test_polynomial_sup_invariant_within_grid_error(self):
        desc = SpaceDescriptor("qk")
        fam = build_family(desc)
        for coeffs, centre in [([[0, 0], [1, 0]], 0.3 + 0.2j),
                               ([[1, 0], [0, 0], [1, 0]], -0.25 + 0.35j)]:
            f = taylor_builtin("poly", coeffs=coeffs)
            base = seminorm_sup(fam, f).value
            moved = seminorm_sup(fam, compose_mobius(f, centre)).value
            assert abs(moved - base) <= 0.02 * base


class TestKernelAndWeightValidation:
    def test_decreasing_kernel_rejected(self):
        with pytest.raises(ConfigError):
            kernel_from_config({"name": "power", "exponent": -1.0})

    def test_negative_kernel_rejected(self):
        from oscillometer.spaces import KKernel
        with pytest.raises(ConfigError):
            KKernel(lambda t: -np.ones_like(t), name="neg")

    def test_zero_kernel_rejected(self):
        from oscillometer.spaces import KKernel
        with pytest.raises(ConfigError):
            KKernel(lambda t: np.zeros_like(t), name="zero")

    def test_unknown_weight(self):
        with pytest.raises(ConfigError):
            weight_from_config({"name": "nope"})

    def test_descriptor_validation(self):
        with pytest.raises(ConfigError):
            SpaceDescriptor("bmo_circle", p=0.5)
        with pytest.raises(ConfigError):
            SpaceDescriptor("lip", alpha=1.5)
        with pytest.raises(ConfigError):
            SpaceDescriptor("nope")

    @pytest.mark.parametrize("tag", sorted(spaces_module._SPACES))
    def test_only_own_resolution_keys(self, tag):
        # every key of every other space, and a misspelling, is refused by name
        own = spaces_module._SPACES[tag].resolution
        others = {key for space in spaces_module._SPACES.values()
                  for key in space.resolution} - set(own)
        for key in sorted(others) + ["angels"]:
            with pytest.raises(ConfigError, match=f"unknown resolution key '{key}' "
                                                  f"for space '{tag}'"):
                SpaceDescriptor(tag, resolution={key: 4})
        assert SpaceDescriptor(tag).resolution == {
            key: default for key, (default, _, _) in own.items()}


def test_readme_resolution_table_matches_spaces():
    # the README's table of resolution keys states `_SPACES` in words: each
    # row's spaces (blank: the row above's), keys, defaults, least and cap
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table, tags = {}, []

    def number(text):
        base, _, exp = text.partition("**")
        return int(base) ** int(exp or 1)

    for line in readme.splitlines():
        cells = line.split("|")[1:-1]
        if len(cells) != 5 or "`" not in cells[1]:
            continue
        tags = re.findall(r"`(\w+)`", cells[0]) or tags
        keys = re.findall(r"`(\w+)`", cells[1])
        defaults = [float(x) for x in re.findall(r"\d[\d.]*", cells[2])]
        if len(defaults) > len(keys):
            defaults = [tuple(defaults)]
        least, cap = map(number, re.findall(r"\d+(?:\*\*\d+)?", cells[3] + cells[4]))
        for tag in tags:
            for key, default in zip(keys, defaults, strict=True):
                table[tag, key] = (default, least, cap)
    assert table == {(tag, key): spec for tag, space in spaces_module._SPACES.items()
                     for key, spec in space.resolution.items()}
