import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillometer.approx import dilate
from oscillometer.errors import ConfigError, NumericalError
from oscillometer.funcrep import (BoxDomain, EuclideanSamples,
                                  PeriodicSamples, QuadratureRule,
                                  TaylorFunction, TorusSamples, _window_layout,
                                  _window_means, disk_quadrature, mobius_apply,
                                  x_norm)
from oscillometer.builtins import lacunary, log_singular, step_half_values
from oscillometer.family import OperatorFamilyGrid
from oscillometer.spaces import SpaceDescriptor, weight_from_config
from oracles import Arc, horner, snap_arc

EPS = np.finfo(float).eps


def direct_arc_average(values, start, ncells):
    """Independent trapezoid oracle: explicit loop over the window."""
    n = values.shape[0]
    h = 2 * np.pi / n
    total = 0.0
    for j in range(ncells + 1):
        w = 0.5 if j in (0, ncells) else 1.0
        total += w * values[(start + j) % n]
    return total * h / (ncells * h)


class TestPeriodicSamples:
    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            PeriodicSamples(np.ones(7))
        with pytest.raises(ConfigError):
            PeriodicSamples(np.ones(48))  # not a power of two

    def test_immutable(self):
        f = PeriodicSamples(np.ones(8))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_arithmetic(self):
        f = PeriodicSamples(np.arange(8, dtype=float))
        g = (2.0 * f) - f
        assert np.allclose(g.values, f.values)


@pytest.mark.parametrize("cls,shape", [(PeriodicSamples, (16,)),
                                       (TorusSamples, (16, 16))],
                         ids=["circle", "torus"])
def test_storage_rule(cls, shape):
    rng = np.random.default_rng(4)
    re = rng.normal(size=shape)
    f = cls(re + 0j)        # complex, every imaginary part exactly 0
    assert f.values.dtype == np.float64 and not f.values.flags.writeable
    assert np.array_equal(f.values, re)
    assert cls(re).values.dtype == np.float64
    z = re + 0j
    z.flat[5] += 1e-300j    # one nonzero imaginary part
    assert cls(z).values.dtype == np.complex128
    assert np.array_equal(cls(z).values, z)
    g = cls(rng.normal(size=shape))
    assert (f * 2.0).values.dtype == np.float64
    assert (f - g).values.dtype == np.float64
    assert (f * 1j).values.dtype == np.complex128


_BOX = BoxDomain([0.0, 0.0], [1.0, 1.0], 1.0 / 15)
_HOLDERS = {
    "circle": (lambda v: PeriodicSamples(v).values, (16,), (float, complex)),
    "torus": (lambda v: TorusSamples(v).values, (16, 16), (float, complex)),
    "box": (lambda v: EuclideanSamples(_BOX, v, 0.5).values, (16, 16), (float,)),
    "taylor": (lambda v: TaylorFunction(v).coeffs, (16,), (float, complex)),
    "grid": (lambda v: OperatorFamilyGrid("x", None, v, None, 0.02).remoteness,
             (16,), (float,)),
}


def _positive(rng, shape):
    """Distinct powers of two: data every holder takes, the grid's remoteness
    (positive, over at least 6 dyadic levels) included."""
    return 2.0 ** -rng.permutation(int(np.prod(shape))).reshape(shape)


@pytest.mark.parametrize("holder", sorted(_HOLDERS))
@pytest.mark.parametrize("view", [False, True], ids=["owned", "view"])
def test_holders_never_alias_the_caller(holder, view):
    make, shape, dtypes = _HOLDERS[holder]
    rng = np.random.default_rng(9)
    for dtype in dtypes:
        base = _positive(rng, shape).astype(dtype)
        if dtype is complex:
            base += 1j * rng.normal(size=shape)
        given = base[:] if view else base
        before = given.copy()
        held = make(given)
        assert not np.shares_memory(held, base)
        assert base.flags.writeable and given.flags.writeable
        assert not held.flags.writeable
        base[...] = 5.0
        assert np.array_equal(held, before)


@pytest.mark.parametrize("holder", sorted(_HOLDERS))
def test_holders_adopt_read_only_owned_arrays(holder):
    make, shape, _ = _HOLDERS[holder]
    # in the dtype each holder stores: complex coefficients, real samples
    scale = 1 + 1j if holder == "taylor" else 1.0
    frozen = _positive(np.random.default_rng(10), shape) * scale
    frozen.setflags(write=False)
    assert make(frozen) is frozen
    # a read-only view is still copied: its base may be written elsewhere
    assert make(frozen[:]) is not frozen


def snapped_means(f, arcs):
    """_window_means over the given arcs, each snapped to f's grid."""
    starts, ncells = np.array([snap_arc(f, arc) for arc in arcs]).T
    return _window_means(f.values, _window_layout(starts, ncells, f.n), 0)


class TestArcAverage:
    def test_constant(self):
        f = PeriodicSamples(np.full(64, 3.5 + 1j))
        assert snapped_means(f, [Arc(1.3, 0.7)])[0] == pytest.approx(3.5 + 1j)

    def test_zero_mean_full_circle(self):
        n = 64
        theta = 2 * np.pi * np.arange(n) / n
        f = PeriodicSamples(np.cos(theta))
        assert abs(snapped_means(f, [Arc(0.0, 2 * np.pi)])[0]) < 1e-14

    def test_step_half_on_symmetric_arc(self):
        # oracle: direct sum over samples
        n = 256
        f = PeriodicSamples(step_half_values(n))
        arc = Arc(0.0, np.pi)  # [-pi/2, pi/2)
        start, ncells = snap_arc(f, arc)
        oracle = direct_arc_average(f.values, start, ncells)
        assert oracle == pytest.approx(0.5, abs=1e-15)
        assert snapped_means(f, [arc])[0] == pytest.approx(oracle, abs=1e-14)

    def test_prefix_matches_direct_on_random_arcs(self):
        rng = np.random.default_rng(1)
        n = 1024
        f = PeriodicSamples(rng.normal(size=n) + 1j * rng.normal(size=n))
        arcs = [Arc(rng.uniform(0, 2 * np.pi), rng.uniform(4 * 2 * np.pi / n, 2 * np.pi))
                for _ in range(100)]
        want = np.array([direct_arc_average(f.values, *snap_arc(f, arc)) for arc in arcs])
        got = snapped_means(f, arcs)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_under_resolved(self):
        f = PeriodicSamples(np.ones(64))
        with pytest.raises(ConfigError, match="under-resolved"):
            snap_arc(f, Arc(0.0, 2 * np.pi / 64))

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([8, 16, 64, 256]), st.integers(0, 2 ** 32 - 1),
           st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)), st.data())
    def test_window_means_match_direct(self, n, seed, offset, data):
        # any start, 2..n cells: full circles and arcs wrapping past node 0
        rng = np.random.default_rng(seed)
        values = (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
                  + complex(*offset))
        arcs = data.draw(st.lists(st.tuples(st.integers(-2 * n, 2 * n),
                                            st.integers(2, n)),
                                  min_size=1, max_size=8))
        starts, ncells = (np.array(c, dtype=np.int64) for c in zip(*arcs))
        got = _window_means(values, _window_layout(starts, ncells, n), 0)
        want = [direct_arc_average(values, s, c) for s, c in arcs]
        # a prefix sum of at most n terms with components below V = max|v| is
        # off by at most n^2 u V per component (u = eps / 2); a mean takes two
        # of them plus the row total when it wraps, over ncells >= 2 cells.
        # The oracle's direct sum over ncells + 1 nodes adds (ncells + 1) u V.
        # With the complex modulus (sqrt 2): below (3 n^2 / ncells + 2
        # (ncells + 1)) eps V.
        tol = (3.0 * n * n / ncells + 2.0 * (ncells + 1)) * EPS * np.abs(values).max()
        assert np.all(np.abs(got - np.array(want)) <= tol)

    def test_full_circle_arcs_identified(self):
        a = Arc(1.0, 2 * np.pi)
        b = Arc(2.0, 2 * np.pi)
        assert a == b


class TestEvalDeriv:
    """TaylorFunction.deriv at single points."""

    def test_linear(self):
        f = TaylorFunction.polynomial([1.0])
        assert f.deriv(0.3 + 0.1j) == pytest.approx(1.0)

    def test_square(self):
        f = TaylorFunction.polynomial([0.0, 1.0])
        assert f.deriv(0.5) == pytest.approx(1.0)

    def test_log_closed_form(self):
        f = log_singular()
        assert f.deriv(0.9) == pytest.approx(10.0)

    def test_truncated_radius_guard(self):
        # slowly decaying coefficients without closed forms: reject near the
        # rim, in value and derivative, also once dilated (a finite cap / r)
        f = TaylorFunction(1.0 / np.arange(1, 257))
        assert f.radius_cap < 1.0
        for g in (f, dilate(f, 0.99)):
            z = np.array([0.1, 0.999999j])
            for read in (g.value, g.deriv):
                with pytest.raises(ConfigError, match="beyond trusted radius"):
                    read(z)
                read(z[:1])

    @pytest.mark.parametrize("kind", ["polynomial", "truncated", "dilated"])
    def test_horner_matches_out_of_place(self, kind):
        # the package's two-buffer loops against the out-of-place reference,
        # bit for bit, with a nonzero constant, on a 2-d array, a one-element
        # array and a 0-d point (numpy's in-place complex product of one
        # element rounds differently, so these two pin the buffer swap)
        rng = np.random.default_rng(23)
        k = np.arange(1, 65)
        coeffs = (rng.normal(size=64) + 1j * rng.normal(size=64)) * 0.7 ** k
        f = {"polynomial": TaylorFunction.polynomial(coeffs, const=0.75 - 0.5j),
             "truncated": TaylorFunction(coeffs, const=0.75 - 0.5j),
             "dilated": dilate(TaylorFunction(coeffs, const=0.75 - 0.5j), 0.9)}[kind]
        assert (f.radius_cap == np.inf) == (kind == "polynomial")
        reach = min(1.0, f.radius_cap)
        z = (reach * np.sqrt(rng.uniform(size=(8, 16)))
             * np.exp(2j * np.pi * rng.uniform(size=(8, 16))))
        for point in (z, z[3, 5:6], z[3, 5]):
            value, deriv = horner(f, point)
            assert np.asarray(f.value(point)).tobytes() == np.asarray(value).tobytes()
            assert np.asarray(f.deriv(point)).tobytes() == np.asarray(deriv).tobytes()

    def test_polynomial_evaluable_everywhere(self):
        f = TaylorFunction.polynomial(np.ones(8))
        assert np.isfinite(f.deriv(0.999999))


class TestTaylorFunction:
    def test_needs_data(self):
        with pytest.raises(ConfigError):
            TaylorFunction()

    def test_subtraction_merges_closed_forms_with_polynomials(self):
        f = log_singular()
        g = TaylorFunction.polynomial([0.5])
        d = f - g
        z = 0.999
        assert d.value(z) == pytest.approx(-np.log(1 - z) - 0.5 * z)
        assert d.deriv(z) == pytest.approx(1 / (1 - z) - 0.5)

    def test_difference_of_exact_polynomials_with_closed_forms_stays_exact(self):
        # lacunary and its dilations hold complete coefficients and closed
        # forms: their difference keeps both, and trusts the coefficients
        # everywhere, so the ring grids may read it exactly
        f = lacunary() * 1.5
        g = dilate(f, 0.75)
        d = f - g
        assert d.has_closed_form and d.radius_cap == np.inf
        z = np.array([0.3 + 0.2j, -0.6j])
        assert np.array_equal(d.deriv(z), f.deriv(z) - g.deriv(z))
        assert np.array_equal(d.coeffs, f.coeffs - g.coeffs)

    def test_difference_with_a_truncated_series_keeps_cap_one(self):
        # log_singular's coefficients are truncated: the difference is
        # trusted on the disc through its closed forms only
        d = log_singular() - TaylorFunction.polynomial([0.5, 0.25])
        assert d.has_closed_form and d.radius_cap == 1.0

    def test_difference_of_polynomials_stays_coefficient_only(self):
        rng = np.random.default_rng(11)
        p = TaylorFunction.polynomial(rng.normal(size=12) + 1j * rng.normal(size=12),
                                      const=0.5)
        q = TaylorFunction.polynomial(rng.normal(size=7) + 1j * rng.normal(size=7))
        d = p - q
        assert not d.has_closed_form
        assert d.radius_cap == np.inf
        z = 0.999 * np.exp(2j * np.pi * rng.uniform(size=50)) * rng.uniform(size=50)
        # |p|, |q| <= 0.5 + sum |coefficients| on the disc
        scale = 0.5 + np.abs(p.coeffs).sum() + np.abs(q.coeffs).sum()
        assert np.max(np.abs(d.value(z) - (p.value(z) - q.value(z)))) <= 1e-14 * scale
        assert np.max(np.abs(d.deriv(z) - (p.deriv(z) - q.deriv(z)))) <= 1e-14 * 12 * scale

    def test_lacunary_closed_forms_match_horner(self):
        # repeated squaring against Horner on the coefficients (degree
        # N = 1024).  z^(2^j) after j complex squarings is off by at most
        # (2^j - 1) sqrt(5) u relatively, u = eps / 2, the product of the lower
        # powers in the derivative by at most 2^j sqrt(5) u; Horner adds about
        # (1 + sqrt(5)) N u, and summation (j + 1) u, all relative to the
        # majorants sum |a_k| |z|^k and sum k |a_k| |z|^(k-1): below 8 N eps.
        f = lacunary(10)
        horner = TaylorFunction.polynomial(f.coeffs)
        rng = np.random.default_rng(3)
        z = (0.999 * np.sqrt(rng.uniform(size=2000))
             * np.exp(2j * np.pi * rng.uniform(size=2000)))
        z = np.concatenate([z, 0.999 * np.exp(2j * np.pi * np.arange(256) / 256)])
        powers = 2 ** np.arange(11)
        r = np.abs(z)[:, None]
        value_major = (r ** powers).sum(axis=1)
        deriv_major = (powers * r ** (powers - 1)).sum(axis=1)
        tol = 8 * 1024 * EPS
        assert np.all(np.abs(f.value(z) - horner.value(z)) <= tol * value_major)
        assert np.all(np.abs(f.deriv(z) - horner.deriv(z)) <= tol * deriv_major)

    def test_scaling(self):
        f = log_singular()
        g = f * 2.0
        assert g.value(0.5) == pytest.approx(2 * f.value(0.5))
        assert np.allclose(g.coeffs, 2 * f.coeffs)


class TestMobius:
    def test_basic_values(self):
        val, _ = mobius_apply(0.0, 1.0, 0.5)
        assert val == pytest.approx(-0.5)
        a = 0.3 + 0.2j
        val, _ = mobius_apply(a, 1j, a)
        assert abs(val) < 1e-15
        val, _ = mobius_apply(a, 1j, 0.0)
        assert val == pytest.approx(1j * a)

    def test_involution_on_random_points(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            a = (rng.uniform(0, 0.95) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            z = (rng.uniform(0, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            w, _ = mobius_apply(a, 1.0, z)
            back, _ = mobius_apply(a, 1.0, w)
            assert abs(back - z) < 1e-12

    def test_derivative_formula(self):
        a, z = 0.4 - 0.1j, 0.2 + 0.3j
        _, d = mobius_apply(a, 1.0, z)
        eps = 1e-7
        v1, _ = mobius_apply(a, 1.0, z + eps)
        v0, _ = mobius_apply(a, 1.0, z - eps)
        assert d == pytest.approx((v1 - v0) / (2 * eps), rel=1e-6)

    def test_preconditions(self):
        with pytest.raises(ConfigError):
            mobius_apply(1.0, 1.0, 0.0)
        with pytest.raises(ConfigError):
            mobius_apply(0.5, 2.0, 0.0)
        with pytest.raises(ConfigError):
            mobius_apply(0.5, 1.0, 1.5)


class TestXNorm:
    def test_bergman_of_z(self):
        # oracle: the area integral of |z|^2 over the disc is pi/2
        f = TaylorFunction.polynomial([1.0])
        assert x_norm(SpaceDescriptor("bloch"), f) == pytest.approx(np.sqrt(np.pi / 2))

    def test_hardy_of_z(self):
        f = TaylorFunction.polynomial([1.0])
        assert x_norm(SpaceDescriptor("qk"), f) == pytest.approx(1.0)

    def test_l2_circle_of_sin(self):
        # oracle: integral of sin^2 over the circle is pi
        n = 512
        theta = 2 * np.pi * np.arange(n) / n
        f = PeriodicSamples(np.sin(theta))
        assert x_norm(SpaceDescriptor("bmo_circle"), f) == pytest.approx(np.sqrt(np.pi))

    def test_parseval_for_trig_polynomials(self):
        rng = np.random.default_rng(3)
        n = 256
        theta = 2 * np.pi * np.arange(n) / n
        coeffs = rng.normal(size=10) + 1j * rng.normal(size=10)
        vals = np.zeros(n, dtype=complex)
        for k, c in enumerate(coeffs, start=1):
            vals += c * np.exp(1j * k * theta)
        f = PeriodicSamples(vals + 7.7)  # constant removed by the norm
        want = np.sqrt(2 * np.pi * np.sum(np.abs(coeffs) ** 2))
        assert abs(x_norm(SpaceDescriptor("bmo_circle"), f) - want) < 1e-10 * want

    def test_mismatch(self):
        # each space measures one representation and refuses the other three
        inputs = [PeriodicSamples(np.ones(8)), TorusSamples(np.ones((8, 8))),
                  TaylorFunction.polynomial([1.0]),
                  EuclideanSamples(BoxDomain([0.0], [1.0], 0.25), np.ones(5), 0.5)]
        for tag in ("bmo_circle", "bloch", "qk", "weighted", "lip", "rect_bmo"):
            desc = SpaceDescriptor(tag)
            wrong = [f for f in inputs if not isinstance(f, desc.representation)]
            assert len(wrong) == 3
            for f in wrong:
                with pytest.raises(ConfigError, match="representation mismatch"):
                    x_norm(desc, f)

    @pytest.mark.parametrize("tag", ["nope", ["bloch"], {"space": "bloch"}, None])
    def test_unknown_tag_makes_no_descriptor(self, tag):
        # a list or dict tag is refused, not a TypeError from the table lookup
        with pytest.raises(ConfigError, match="unknown space"):
            SpaceDescriptor(tag)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 10, 20])
    def test_weighted_monomial_exact(self, k):
        # v = 1 - |z|^2 and density v^2 / pi: ||z^k||^2 = 2 int_0^1
        # r^(2k+1) (1 - r^2)^2 dr = 2 / ((k+1)(k+2)(k+3)), a polynomial of
        # degree 2k + 5 in r that 48 Gauss-Legendre nodes integrate exactly
        f = TaylorFunction.polynomial(np.eye(k)[-1])
        want = np.sqrt(2.0 / ((k + 1) * (k + 2) * (k + 3)))
        got = x_norm(SpaceDescriptor("weighted"), f)
        assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("domain", [
        {"kind": "annulus", "r0": 0.25, "r1": 0.75},
        {"kind": "box", "x0": -0.5, "x1": 0.5, "y0": -0.5, "y1": 0.5}])
    def test_weighted_off_disc_refused(self, domain):
        desc = SpaceDescriptor("weighted", weight=weight_from_config(
            {"name": "power_dist", "domain": domain}))
        with pytest.raises(ConfigError, match="disc only"):
            x_norm(desc, TaylorFunction.polynomial([1.0]))


class TestDiskQuadrature:
    def test_area(self):
        assert disk_quadrature(lambda z: np.ones_like(z, dtype=float)) == \
            pytest.approx(np.pi)

    def test_log_kernel(self):
        # oracle: 2 pi * int_0^1 r log(1/r) dr = pi/2
        got = disk_quadrature(lambda z: np.log(1.0 / np.abs(z)))
        assert got == pytest.approx(np.pi / 2, abs=1e-5)

    def test_abs_square(self):
        got = disk_quadrature(lambda z: np.abs(z) ** 2)
        assert got == pytest.approx(np.pi / 2, rel=1e-12)

    @pytest.mark.parametrize("m", range(7))
    def test_even_monomials_exact(self, m):
        rule = QuadratureRule(32, 64)
        got = disk_quadrature(lambda z: np.abs(z) ** (2 * m), rule)
        want = np.pi / (m + 1)  # 2 pi int r^(2m+1) dr
        assert abs(got - want) < 1e-8

    def test_singular_node(self):
        with pytest.raises(NumericalError, match="singular node"):
            with np.errstate(divide="ignore"):
                disk_quadrature(lambda z: 1.0 / (np.abs(z) - np.abs(z)))


class TestBoxDomain:
    def test_exact_cover(self):
        with pytest.raises(ConfigError):
            BoxDomain([0.0], [1.0], 0.3)
        dom = BoxDomain([0.0], [1.0], 0.01)
        assert dom.shape == (101,)

    def test_2d(self):
        dom = BoxDomain([0.0, 0.0], [1.0, 2.0], 0.25)
        assert dom.shape == (5, 9)

    def test_samples_shape_check(self):
        dom = BoxDomain([0.0], [1.0], 0.5)
        with pytest.raises(ConfigError):
            EuclideanSamples(dom, np.ones(5), 0.5)
        with pytest.raises(ConfigError):
            EuclideanSamples(dom, np.ones(3), 1.5)


class TestTorusSamples:
    def test_validation(self):
        with pytest.raises(ConfigError):
            TorusSamples(np.ones((8, 16)))
        with pytest.raises(ConfigError):
            TorusSamples(np.ones((6, 6)))
