import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillometer.approx import (ApproxFamily, assumption_check, dilate,
                                 dilation_family, family_from_config,
                                 fejer_family, fejer_taylor, lip_smooth,
                                 lip_smooth_family, poisson_family,
                                 poisson_torus_family, _powers, _smooth_axis)
from oscillometer.builtins import (box_builtin, circle_builtin, log_singular,
                                   step_half_values, taylor_builtin,
                                   torus_builtin)
from oscillometer.errors import ConfigError
from oscillometer.family import seminorm_sup
from oscillometer.funcrep import (BoxDomain, EuclideanSamples,
                                  PeriodicSamples, TaylorFunction,
                                  TorusSamples)
from oscillometer.spaces import SpaceDescriptor, build_family
from oracles import lip_pair_indices, poisson

EPS = np.finfo(float).eps


def lip_const(f: EuclideanSamples, cap: int = 1_000_000) -> float:
    """Grid Hoelder constant of f over the lip family's pair set."""
    ia, ib, dist = lip_pair_indices(f.domain, cap)
    flat = f.values.ravel()
    return float(np.max(np.abs(flat[ia] - flat[ib]) / dist ** f.alpha))


class TestPoissonCircle:
    def test_single_mode_multiplier(self):
        n = 64
        theta = 2 * np.pi * np.arange(n) / n
        f = PeriodicSamples(np.cos(theta))
        g = poisson(f, 0.5)
        assert np.allclose(g.values, 0.5 * np.cos(theta), atol=1e-13)

    def test_constant_fixed(self):
        f = PeriodicSamples(np.full(32, 2.0 - 1.0j))
        g = poisson(f, 0.7)
        assert np.allclose(g.values, f.values, atol=1e-13)

    def test_r_zero_returns_mean(self):
        rng = np.random.default_rng(8)
        f = PeriodicSamples(rng.normal(size=64))
        g = poisson(f, 0.0)
        assert np.allclose(g.values, f.values.mean(), atol=1e-13)

    def test_radius_validation(self):
        f = PeriodicSamples(np.ones(8))
        with pytest.raises(ConfigError):
            poisson(f, 1.0)


class TestPoissonTorus:
    def test_constant_fixed(self):
        F = TorusSamples(np.full((16, 16), 3.0))
        assert np.allclose(poisson(F, 0.6).values, 3.0)

    def test_single_mode(self):
        n = 32
        theta = 2 * np.pi * np.arange(n) / n
        F = TorusSamples(np.cos(theta)[:, None] * np.ones(n)[None, :])
        G = poisson(F, 0.5)
        assert np.allclose(G.values, 0.5 * np.cos(theta)[:, None], atol=1e-13)

    def test_multiplier_factorises_over_tensor_products(self):
        rng = np.random.default_rng(9)
        n = 32
        g = rng.normal(size=n)
        h = rng.normal(size=n)
        F = TorusSamples(np.outer(g, h))
        left = poisson(F, 0.6).values
        gs = poisson(PeriodicSamples(g), 0.6).values
        hs = poisson(PeriodicSamples(h), 0.6).values
        assert np.allclose(left, np.outer(gs, hs), atol=1e-12)


@pytest.mark.parametrize("make,ladder,one", [
    (lambda: circle_builtin("step_half", 131072), poisson_family, poisson),
    (lambda: torus_builtin("triangle_tensor", 64), poisson_torus_family, poisson),
], ids=["circle", "torus"])
class TestPoissonLadder:
    def test_members_are_one_radius_calls(self, make, ladder, one):
        f = make()
        rng = np.random.default_rng(2)
        z = type(f)(f.values + 1j * rng.normal(size=f.values.shape))
        for g, dtype in ((f, np.float64), (z, np.complex128)):
            fam = ladder(g, 13)
            for r, member in zip(fam.parameters, fam.members):
                assert member.values.dtype == dtype
                assert np.array_equal(member.values, one(g, r).values)

    def test_real_members_match_complex_transform(self, make, ladder, one):
        # Each side is a forward FFT, the multiplier r^|k| and an inverse FFT.
        # A radix-2 FFT of size 2^L is within L * 6 eps of the exact transform
        # in the 2-norm (Higham, Accuracy and Stability of Numerical
        # Algorithms, Thm 24.2), the multiplier within 2 eps per mode, and the
        # exact smoothing is a contraction: each side is within
        # (12 L + 3) eps ||v||_2 of the exact members, in the 2-norm and so
        # in the max-norm.
        f = make()
        v = f.values
        assert v.dtype == np.float64
        axes = tuple(range(v.ndim))
        k = sum(np.ix_(*[np.abs(np.fft.fftfreq(n, d=1.0 / n)) for n in v.shape]))
        spectrum = np.fft.fftn(v.astype(complex), axes=axes)
        tol = 2 * (12 * np.log2(v.size) + 3) * EPS * np.linalg.norm(v)
        fam = ladder(f, 13)
        for r, member in zip(fam.parameters, fam.members):
            assert member.values.dtype == np.float64
            old = np.fft.ifftn(spectrum * r ** k, axes=axes)
            assert np.abs(member.values - old).max() <= tol


class TestPowerTable:
    @pytest.mark.parametrize("m", range(1, 21))
    def test_table_is_pow_on_float_exponents(self, m):
        # every ladder radius 1 - 2^-m, on the frequency sums of circles
        # (0..n/2) and tori (0..n) of sizes 2^3..2^17, bit for bit; each
        # radius is checked from 0 to 2^17, so the j on either side of its
        # first zero (1075 for m = 1, 95004 for m = 7) are read
        r = 1.0 - 2.0 ** -m
        full = r ** np.arange(2.0 ** 17 + 1)
        zeros = np.flatnonzero(full == 0.0)
        assert not zeros.size or np.all(full[zeros[0]:] == 0.0)
        for top in sorted({t for e in range(3, 18) for t in (2 ** e // 2, 2 ** e)}):
            table = _powers(r, top)
            # the table stops at the first zero, or at top when there is none
            stop = zeros[0] if zeros.size and zeros[0] <= top else top
            assert table.size == stop + 1
            got = table.take(np.arange(top + 1), mode="clip")
            assert got.tobytes() == full[:top + 1].tobytes()

    def test_radius_zero(self):
        assert _powers(0.0, 5).tobytes() == np.array([1.0, 0.0]).tobytes()

    @pytest.mark.parametrize("n, ndim", [(8, 1), (1024, 1), (16, 2), (128, 2)])
    def test_members_match_float_frequency_multiplier(self, n, ndim):
        # the members against the multiplier r ** k on the float frequency
        # sums, bit for bit, for real and complex samples
        rng = np.random.default_rng(n + ndim)
        shape = (n,) * ndim
        cls = PeriodicSamples if ndim == 1 else TorusSamples
        for values in (rng.normal(size=shape),
                       rng.normal(size=shape) + 1j * rng.normal(size=shape)):
            real = not np.iscomplexobj(values)
            forward, inverse = ((np.fft.rfftn, np.fft.irfftn) if real
                                else (np.fft.fftn, np.fft.ifftn))
            freqs = [np.abs(np.fft.fftfreq(n, d=1.0 / n)) for _ in shape]
            if real:
                freqs[-1] = np.fft.rfftfreq(n, d=1.0 / n)
            k = sum(np.ix_(*freqs))
            axes = tuple(range(ndim))
            spectrum = forward(values, axes=axes)
            fam = (poisson_family if ndim == 1 else poisson_torus_family)(cls(values), 12)
            for r, member in zip(fam.parameters, fam.members):
                want = inverse(spectrum * r ** k, shape, axes=axes)
                assert member.values.tobytes() == want.tobytes()

    def test_dilation_coefficients_match_pow(self):
        coeffs = np.linspace(1.0, 2.0, 3000) * (1 - 1j)
        f = TaylorFunction.polynomial(coeffs)
        for r in (0.0, 0.5, 0.875, 0.999):
            want = coeffs * r ** np.arange(1, coeffs.size + 1)
            assert dilate(f, r).coeffs.tobytes() == want.tobytes()


class TestDilate:
    def test_coefficients(self):
        f = taylor_builtin("monomial", degree=2)
        assert np.allclose(dilate(f, 0.5).coeffs, [0.0, 0.25])

    def test_identity_and_zero(self):
        f = taylor_builtin("poly", coeffs=[[1, 0], [2, 0]])
        assert dilate(f, 1.0) is f
        z = dilate(f, 0.0)
        assert np.allclose(z.coeffs, 0.0)

    def test_closed_form_composition(self):
        f = log_singular()
        g = dilate(f, 0.5)
        assert g.value(0.8) == pytest.approx(-np.log(1 - 0.4))
        assert g.deriv(0.8) == pytest.approx(0.5 / (1 - 0.4))


class TestFejer:
    # coefficient damping follows the Cesaro formula (1 - k/(n+1)) a_k
    def test_monomial_within_range(self):
        for k, n in [(1, 1), (2, 4), (3, 8)]:
            f = taylor_builtin("monomial", degree=k)
            g = fejer_taylor(f, n)
            assert g.coeffs[k - 1] == pytest.approx(1 - k / (n + 1))

    def test_monomial_beyond_range_truncates_to_zero(self):
        f = taylor_builtin("monomial", degree=5)
        g = fejer_taylor(f, 3)
        assert np.allclose(g.coeffs, 0.0)

    def test_z_order_one(self):
        g = fejer_taylor(taylor_builtin("monomial", degree=1), 1)
        assert g.coeffs[0] == pytest.approx(0.5)

    def test_coefficientwise_convergence(self):
        f = taylor_builtin("poly", coeffs=[[0.3, 0.1], [0, 0], [-0.7, 0.2]])
        for k in (1, 3):
            a_k = f.coeffs[k - 1]
            for n in (10, 100, 1000):
                g = fejer_taylor(f, n)
                assert abs(g.coeffs[k - 1] - a_k) == pytest.approx(
                    abs(a_k) * k / (n + 1))

    def test_truncated_coefficients_refused(self):
        f = TaylorFunction(1.0 / np.arange(1, 9))  # truncated, no closed form
        with pytest.raises(ConfigError, match="unavailable"):
            fejer_taylor(f, 20)


class TestLipSmooth:
    def test_alpha_one_refused(self):
        dom = BoxDomain([0.0], [1.0], 0.01)
        f = EuclideanSamples(dom, dom.axes()[0], 1.0)
        with pytest.raises(ConfigError, match="little space may be trivial"):
            lip_smooth(f, 0.1)

    def test_kernel_under_resolved(self):
        dom = BoxDomain([0.0], [1.0], 0.01)
        f = EuclideanSamples(dom, dom.axes()[0] ** 2, 0.5)
        with pytest.raises(ConfigError, match="kernel under-resolved"):
            lip_smooth(f, 0.001)

    def test_constant_preserved(self):
        dom = BoxDomain([0.0], [1.0], 0.01)
        f = EuclideanSamples(dom, np.full(101, 4.2), 0.5)
        g = lip_smooth(f, 0.05)
        assert np.allclose(g.values, 4.2, atol=1e-10)

    def test_zero_preserved(self):
        dom = BoxDomain([0.0], [1.0], 0.01)
        f = EuclideanSamples(dom, np.zeros(101), 0.5)
        assert np.allclose(lip_smooth(f, 0.05).values, 0.0, atol=1e-12)

    def test_cosine_eigenfunction(self):
        # the scale-t kernel damps frequency-1 content by e^{-t}; the grid
        # value differs by the extension mismatch in the kernel tails
        dom = BoxDomain([-1.0], [1.0], 2e-3)
        x = dom.axes()[0]
        f = EuclideanSamples(dom, np.cos(x), 0.9)
        g = lip_smooth(f, 0.01)
        inner = np.abs(x) <= 0.25
        err = np.max(np.abs(g.values[inner] - np.exp(-0.01) * np.cos(x[inner])))
        assert err < 0.03

    def test_contractivity_of_discrete_kernel(self):
        # unit-mass positive kernel: quotients never grow past the extension
        # constant
        dom = BoxDomain([-1.0], [1.0], 1e-3)
        f = box_builtin("holder_cusp", dom, 0.5)
        lam = lip_const(f)
        desc = SpaceDescriptor("lip", alpha=0.5, lip_domain=dom)
        fam = build_family(desc)
        base = seminorm_sup(fam, f).value
        for t in (0.1, 0.01, 0.002):
            g = lip_smooth(f, t)
            assert seminorm_sup(fam, g).value <= base * (1 + 1e-12)
        assert base == pytest.approx(lam)

    @staticmethod
    def _all_pairs_hoelder(values, step, alpha):
        coords = np.argwhere(np.ones(values.shape, dtype=bool)) * step
        ia, ib = np.triu_indices(values.size, k=1)
        dist = np.linalg.norm(coords[ia] - coords[ib], axis=1)
        flat = values.ravel()
        return float(np.max(np.abs(flat[ia] - flat[ib]) / dist ** alpha))

    @pytest.mark.parametrize("ndim", [1, 2])
    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 201),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(0.0, 1.0), st.integers(0, 2 ** 32 - 1))
    def test_projection_extension_keeps_hoelder_constant(self, ndim, n, alpha,
                                                         u, seed):
        # random walks on 1-D grids of at most 201 nodes or 2-D grids of at
        # most 17^2, smoothed at t in [step, 1]: a positive kernel of unit
        # mass applied to the projection extension, so the all-pairs grid
        # Hoelder constant never grows
        if ndim == 2:
            n = 3 + n % 15
        step = 1.0 / (n - 1)
        dom = BoxDomain([0.0] * ndim, [1.0] * ndim, step)
        t = step + u * (1.0 - step)
        rng = np.random.default_rng(seed)
        walk = rng.normal(size=(n,) * ndim)
        for axis in range(ndim):
            walk = np.cumsum(walk, axis=axis)
        f = EuclideanSamples(dom, walk, alpha)
        base = self._all_pairs_hoelder(f.values, step, alpha)
        smoothed = self._all_pairs_hoelder(lip_smooth(f, t).values, step, alpha)
        assert smoothed <= base * (1 + 1e-12)
        c = rng.uniform(-10.0, 10.0)
        flat = lip_smooth(EuclideanSamples(dom, np.full(dom.shape, c), alpha), t)
        assert np.all(np.abs(flat.values - c) <= 1e-13 * abs(c))
        # the 1-D weights themselves: row i of the smoothing matrix is node
        # i's weights, tails folded onto the edge nodes
        weights = _smooth_axis(np.eye(n), 0, t, step)
        assert weights.min() >= 0.0
        assert np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-13)

    @pytest.mark.parametrize("t", [1.0 / 32, 0.1, 0.5])
    def test_closed_form_tails_match_padded_sum(self, t):
        # reference: the grid padded by P edge values per side and a direct
        # sum with the normalised weights on offsets |m| <= P; it misses only
        # the weights beyond +-P, whose share is at most their mass times
        # 2 max|f|
        P = 10 ** 5
        dom = BoxDomain([-1.0], [1.0], 1.0 / 32)
        x = dom.axes()[0]
        f = EuclideanSamples(dom, np.sqrt(np.abs(x - 0.3)) + 0.5 * x, 0.5)
        h = dom.step
        m = h * np.arange(-P, P + 1)
        w = np.tanh(np.pi * t / h) * t * h / (np.pi * (t * t + m * m))
        ext = np.concatenate([np.full(P, f.values[0]), f.values,
                              np.full(P, f.values[-1])])
        want = np.convolve(ext, w, mode="valid")
        outside = 1.0 - w.sum()
        err = np.max(np.abs(lip_smooth(f, t).values - want))
        assert err <= outside * 2.0 * np.abs(f.values).max() + 1e-13

    @pytest.mark.parametrize("n", [17, 65])
    def test_smoothing_2d(self, n):
        dom = BoxDomain([0.0, 0.0], [1.0, 1.0], 1.0 / (n - 1))
        xx, yy = np.meshgrid(dom.axes()[0], dom.axes()[1], indexing="ij")
        f = EuclideanSamples(dom, np.hypot(xx - 0.5, yy - 0.5) ** 0.5, 0.5)
        g = lip_smooth(f, 0.25)
        assert g.values.shape == dom.shape
        assert np.all(np.isfinite(g.values))
        assert lip_const(g) <= lip_const(f) * (1 + 1e-12)


class TestLadders:
    def test_family_from_config(self):
        f = PeriodicSamples(step_half_values(1024))
        fam = family_from_config({"kind": "poisson_circle",
                                  "ladder": {"levels": 4}}, f)
        assert fam.kind == "poisson_circle"
        assert fam.parameters == [0.5, 0.75, 0.875, 0.9375]
        assert len(fam.members) == 4

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            family_from_config({"kind": "nope"}, None)

    def test_representation_mismatch_refused(self):
        inputs = {
            "PeriodicSamples": PeriodicSamples(np.ones(64)),
            "TorusSamples": TorusSamples(np.ones((16, 16))),
            "TaylorFunction": taylor_builtin("monomial", degree=1),
            "EuclideanSamples": box_builtin(
                "holder_cusp", BoxDomain([-1.0], [1.0], 0.01), 0.5),
        }
        accepts = {"poisson_circle": "PeriodicSamples",
                   "poisson_torus": "TorusSamples", "dilation": "TaylorFunction",
                   "fejer": "TaylorFunction", "lip_smooth": "EuclideanSamples"}
        for kind, wanted in accepts.items():
            for name, f in inputs.items():
                if name != wanted:
                    with pytest.raises(ConfigError, match=f"needs {wanted}"):
                        family_from_config({"kind": kind}, f)

    @pytest.mark.parametrize("ladder", [{"levels": "abc"}, {"levels": None},
                                        {"t0": "x"}])
    def test_bad_ladder_number_refused(self, ladder):
        f = box_builtin("holder_cusp", BoxDomain([-1.0], [1.0], 0.01), 0.5)
        with pytest.raises(ConfigError, match="must be a finite number"):
            family_from_config({"kind": "lip_smooth", "ladder": ladder}, f)

    def test_lip_ladder_stops_at_grid_step(self):
        dom = BoxDomain([-1.0], [1.0], 1e-3)
        f = box_builtin("holder_cusp", dom, 0.5)
        fam = lip_smooth_family(f, levels=12, t0=0.1)
        assert all(t >= 1e-3 for t in fam.parameters)
        assert len(fam.members) < 12


# coefficients of a random polynomial: each of modulus at most 2, some of
# them (possibly all) zero
_COEFFS = st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=29)


@pytest.fixture(scope="module")
def bmo_all_midpoints():
    # dense midpoints and p = 2: the smoothed arcs stay inside the family,
    # so the grid comparison inherits the continuum contraction
    res = {"n_samples": 4096, "midpoints": "all", "min_len_exp": 2,
           "max_len_exp": 8}
    return build_family(SpaceDescriptor("bmo_circle", p=2.0, resolution=res))


@pytest.fixture(scope="module")
def qk_light():
    # the light grid of acceptance criterion 8
    return build_family(SpaceDescriptor("qk", resolution={
        "shell_from": 2, "shell_to": 6, "extra_radii": (0.25, 0.5),
        "angles": 64, "quad_nr": 32, "quad_ntheta": 64}))


class TestPoissonContractivity:
    @settings(max_examples=40, deadline=None)
    @given(coeffs=_COEFFS)
    def test_random_trig_polynomials(self, bmo_all_midpoints, coeffs):
        n = 4096
        theta = 2 * np.pi * np.arange(n) / n
        vals = np.zeros(n, dtype=complex)
        for k, c in enumerate(coeffs, start=1):
            vals += c * np.exp(1j * k * theta)
        f = PeriodicSamples(vals)
        base = seminorm_sup(bmo_all_midpoints, f).value
        for r in (0.5, 0.9, 0.99):
            val = seminorm_sup(bmo_all_midpoints, poisson(f, r)).value
            assert val <= base * (1 + 1e-3)


class TestFejerContractivity:
    @settings(max_examples=100, deadline=None)
    @given(coeffs=_COEFFS.map(lambda c: c[:12]))
    def test_random_polynomials(self, qk_light, coeffs):
        f = TaylorFunction.polynomial(coeffs)
        base = seminorm_sup(qk_light, f).value
        for n in (2, 4, 8):
            val = seminorm_sup(qk_light, fejer_taylor(f, n)).value
            assert val <= base * (1 + 1e-3)


class TestDilationLittleness:
    def test_dilated_members_have_vanishing_tails(self):
        from oscillometer.family import limsup_estimate, tail_profile
        desc = SpaceDescriptor("bloch")
        grid = build_family(desc)
        f = log_singular()
        prof_f = tail_profile(grid, grid.evaluate_all(f))
        for r in (0.5, 0.75, 0.875):
            g = dilate(f, r)
            est, _ = limsup_estimate(tail_profile(grid, grid.evaluate_all(g)))
            # the dilated tail at the finest level is controlled by f's
            # profile near scale 1 - r, and vanishes as the tail refines
            scales, sups = prof_f.nonempty()
            level = np.searchsorted(-scales, -(1 - r))
            assert est <= sups[min(level, len(sups) - 1)] + 1e-9
            assert est < 0.05


class TestAssumptionCheck:
    def test_bmo_triangle_poisson_passes(self):
        # spectrum ~ k^-2, so the dyadic ladder converges in the ambient norm
        # well before the multiplier hits grid Nyquist effects; the step
        # function needs the acceptance-scale grid and is checked there
        res = {"n_samples": 4096, "midpoints": 128, "min_len_exp": 2,
               "max_len_exp": 8}
        desc = SpaceDescriptor("bmo_circle", p=1.0, resolution=res)
        f = circle_builtin("triangle", 4096)
        fam = poisson_family(f, levels=8)
        rep = assumption_check(desc, f, fam)
        assert rep.verdict
        assert max(rep.member_norms) <= rep.input_norm * (1 + 1e-3)
        assert rep.x_distances[-1] <= rep.x_tolerance

    def test_bloch_polynomial_dilation_passes(self):
        desc = SpaceDescriptor("bloch")
        f = taylor_builtin("poly", coeffs=[[1, 0], [0, 0], [1, 0]])
        fam = dilation_family(f, levels=8)
        rep = assumption_check(desc, f, fam)
        assert rep.verdict
        assert rep.slack_used == 0.0

    def test_zero_function_passes(self):
        desc = SpaceDescriptor("bloch")
        f = TaylorFunction.polynomial([0.0])
        fam = dilation_family(f, levels=6)
        rep = assumption_check(desc, f, fam)
        assert rep.verdict
        assert rep.input_norm == 0.0

    def test_report_serialises(self):
        desc = SpaceDescriptor("bloch")
        f = taylor_builtin("monomial", degree=1)
        rep = assumption_check(desc, f, dilation_family(f, levels=8))
        d = rep.to_dict()
        assert d["verdict"] == "pass"
        assert len(d["member_norms"]) == 8
