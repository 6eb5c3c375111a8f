import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oscillometer.approx import ApproxFamily, assumption_check
from oscillometer.distance import distance_estimate, sandwich_check
from oscillometer.errors import ConfigError, NumericalError
from oscillometer.family import (OperatorFamilyGrid, TailProfile, limsup_estimate,
                                 seminorm_sup, tail_profile)
from oscillometer.funcrep import (TWO_PI, BoxDomain, EuclideanSamples, PeriodicSamples,
                                  QuadratureRule, mobius_apply)
from oscillometer.spaces import (SpaceDescriptor, _disc_radii, build_family,
                                 kernel_from_config)
from oscillometer.builtins import (log_singular, step_half_values, taylor_builtin,
                                   torus_builtin)


def profile_of(grid, f):
    return tail_profile(grid, grid.evaluate_all(f))


class _Values:
    """A synthetic function that a synthetic grid reads as its value vector;
    its difference with any function reads `difference`."""

    def __init__(self, values, difference=None):
        self.values, self.difference = values, difference

    def __sub__(self, other):
        return _Values(self.difference)


def _ladder(member):
    """A three-member approximation family, each member `member`."""
    return ApproxFamily("x", [0, 1, 2], [member] * 3)


def by_index(idx):
    """The describe of a synthetic grid: one record holding each index."""
    return np.rec.fromarrays([idx], names="k")


@pytest.fixture(scope="module")
def bloch_grid():
    return build_family(SpaceDescriptor("bloch"))


@pytest.fixture(scope="module")
def bmo_grid():
    res = {"n_samples": 4096, "midpoints": 128, "min_len_exp": 2, "max_len_exp": 7}
    return build_family(SpaceDescriptor("bmo_circle", p=1.0, resolution=res))


class TestSeminormSup:
    def test_bloch_z_attains_at_origin(self, bloch_grid):
        rep = seminorm_sup(bloch_grid, taylor_builtin("monomial", degree=1))
        assert rep.value == pytest.approx(1.0)
        assert rep.argmax_param.w == 0.0
        assert rep.grid_size == len(bloch_grid)

    def test_constant_has_zero_oscillation(self, bmo_grid):
        f = PeriodicSamples(np.full(4096, 2.5))
        assert seminorm_sup(bmo_grid, f).value == pytest.approx(0.0, abs=1e-13)

    def test_bloch_log_singular_close_to_two(self, bloch_grid):
        # sup (1-|w|^2)/|1-w| = 1+|w| along the positive axis; shells reach
        # 1 - 2^-12
        rep = seminorm_sup(bloch_grid, log_singular())
        assert rep.value == pytest.approx(2.0 - 2.0 ** -12, rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            OperatorFamilyGrid("x", by_index, np.array([]), lambda f: np.array([]),
                               0.02)


class TestTailProfile:
    def test_bloch_z_profile_follows_shells(self, bloch_grid):
        prof = profile_of(bloch_grid, taylor_builtin("monomial", degree=1))
        scales, sups = prof.nonempty()
        # S(t) = max over 1-|w| <= t of (1-|w|^2): attained at the shallowest
        # qualifying shell, so S(t) = 2t - t^2 for dyadic t matching shells
        want = 2 * scales - scales ** 2
        assert np.allclose(sups, want, rtol=1e-12)

    def test_step_profile_flat_at_half(self, bmo_grid):
        # jump-centred arcs at every scale: the trapezoid drops the single
        # interior jump node, so S(t_k) = 0.5 (n_k - 1)/n_k for n_k cells
        f = PeriodicSamples(step_half_values(4096))
        prof = profile_of(bmo_grid, f)
        scales, sups = prof.nonempty()
        ncells = np.rint(scales / f.step)
        assert np.allclose(sups, 0.5 * (ncells - 1) / ncells, rtol=1e-12)

    def test_monotone_exact(self, bloch_grid):
        prof = profile_of(bloch_grid, log_singular())
        _, sups = prof.nonempty()
        assert np.all(np.diff(sups) <= 0.0)

    def test_empty_levels_marked(self):
        # a level no entry reaches is NaN in the profile: left out of its
        # nonempty part and of the estimate, an empty cell in the CSV
        prof = TailProfile(2.0 ** -np.arange(5.0), [1.0, 0.75, 0.5, 0.5, np.nan])
        scales, sups = prof.nonempty()
        assert np.array_equal(scales, 2.0 ** -np.arange(4.0))
        assert np.array_equal(sups, [1.0, 0.75, 0.5, 0.5])
        assert limsup_estimate(prof)[0] == 0.5
        assert prof.to_csv().splitlines()[-1] == "0.0625,"
        assert prof.to_rows()[-1] == [0.0625, None]

    def test_grid_holds_its_own_ladder(self, bloch_grid):
        # the halvings of the largest remoteness (the centre, 1) down to the
        # deepest shell, 2^-12, frozen with the grid
        assert not bloch_grid.default_scales.flags.writeable
        with pytest.raises(ValueError):
            bloch_grid.default_scales[0] = 2.0
        prof = profile_of(bloch_grid, taylor_builtin("monomial", degree=1))
        assert np.array_equal(prof.scales, 2.0 ** -np.arange(0, 13, dtype=float))

    def test_csv_round_trip(self, bloch_grid):
        prof = profile_of(bloch_grid, taylor_builtin("monomial", degree=1))
        text = prof.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "scale,tail_sup"
        assert len(lines) == prof.scales.size + 1


@st.composite
def remoteness_and_ladder(draw):
    """Remoteness with many ties, values, and the dyadic ladder the grid
    derives from it: top t0 (a few mantissas times a power of two) and at
    least 6 levels, t0 and the last level t_K among the entries.  The
    remoteness also holds every level's bound t (1 + 1e-12) and its two float
    neighbours below t0, and the float just below t_K, so an off-by-one at a
    level boundary, or a ladder that stops a level short or long, shows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(1, 300))
    t0 = draw(st.sampled_from([1.0, 0.6, 0.75, 2 * np.pi])) * 2.0 ** draw(st.integers(-14, 3))
    ladder = t0 * 0.5 ** np.arange(draw(st.integers(6, 20)))
    bounds = ladder[1:] * (1 + 1e-12)
    rho = t0 * rng.choice([0.5, 0.625, 0.75]) ** rng.integers(0, ladder.size, size)
    rho = np.concatenate([ladder, rho[rho >= ladder[-1]], bounds, np.nextafter(bounds, 0),
                          np.nextafter(bounds, np.inf), [np.nextafter(ladder[-1], 0)]])
    vals = rng.choice([0.0, 0.5, 1.0, 2.0], rho.size) + rng.uniform(0, 1, rho.size)
    return rho, vals, ladder


class TestTailProfileProperty:
    @settings(max_examples=80, deadline=None)
    @given(remoteness_and_ladder())
    def test_levels_are_direct_maxima(self, case):
        rho, vals, ladder = case
        # the sorted copy gives long runs of entries of one level
        for remote in (rho, np.sort(rho)):
            fam = OperatorFamilyGrid("x", by_index, remote, lambda f: vals, 0.02)
            assert np.array_equal(fam.default_scales, ladder)
            for values in (vals, vals[::-1].copy()):
                got = tail_profile(fam, values).tail_sups
                want = [values[remote <= t * (1 + 1e-12)].max() for t in ladder]
                assert np.array_equal(got, want)


def direct_runs(remoteness):
    """The grid's ladder, run starts and run levels from the whole-vector
    formula, or None for a grid too coarse (fewer than 6 dyadic levels)."""
    mant, exps = np.frexp(remoteness)
    if np.count_nonzero(np.bincount(exps - exps.min())) < 6:
        return None
    t0 = remoteness.max()
    depth = int(np.floor(np.log2(t0 / remoteness.min()) + 1e-9))
    scales = t0 * 0.5 ** np.arange(depth + 1)
    top_mant, top_exp = np.frexp(scales[0] * (1 + 1e-12))
    levels = np.clip(top_exp - exps - (mant > top_mant) + 1, 0, scales.size)
    starts = np.flatnonzero(np.diff(levels, prepend=-1))
    return scales, starts, levels[starts].astype(np.min_scalar_type(scales.size))


@st.composite
def remoteness_runs(draw):
    """Up to six runs, each one value or values scattered over a few
    binary exponents, some longer than the 2^16 entries the grid levels at a
    time and some ending at, before or after a multiple of 2^16, so runs
    cross chunk boundaries.  The values draw on 3 to 10 binary exponents,
    so some grids have fewer than 6 dyadic levels."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    top, spread = draw(st.integers(-20, 3)), draw(st.integers(3, 10))
    parts = []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.sampled_from([1, 7, 1000, 65535, 65536, 65537, 90000]))
        exps = top - rng.integers(0, spread, 1 if draw(st.booleans()) else size)
        parts.append(np.broadcast_to(rng.uniform(0.5, 1.0, exps.size) * 2.0 ** exps, size))
    return np.concatenate(parts)


class TestLevelRunsProperty:
    # a grid levels its remoteness 2^16 entries at a time, carrying the
    # last level across each chunk boundary: its ladder and runs must be
    # those of the whole-vector formula bit for bit, and it must refuse the
    # same grids
    @settings(max_examples=40, deadline=None)
    @given(remoteness_runs())
    @example(np.repeat([1.0, 2.0 ** -3, 2.0 ** -6], [65535, 3, 65537]))
    @example(np.repeat(2.0 ** -np.arange(6), [65536, 1, 1, 1, 1, 65536]))
    @example(np.repeat(2.0 ** -np.arange(5), [65536, 1, 1, 1, 70000]))
    def test_matches_whole_vector(self, rho):
        want = direct_runs(rho)
        if want is None:
            with pytest.raises(ConfigError, match="fewer than 6 dyadic levels"):
                OperatorFamilyGrid("x", by_index, rho, None, 0.02)
            return
        fam = OperatorFamilyGrid("x", by_index, rho, None, 0.02)
        for got, expected in zip((fam.default_scales, fam._run_starts, fam._run_levels),
                                 want):
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0, np.inf])
    @pytest.mark.parametrize("at", [0, 70000, -1])
    def test_refuses_nonpositive_and_nonfinite(self, bad, at):
        # min and max stand in for the per-entry check: a NaN anywhere
        # makes both NaN
        rho = np.repeat(2.0 ** -np.arange(8), 10000)
        rho[at] = bad
        with pytest.raises(ConfigError, match="positive and finite"):
            OperatorFamilyGrid("x", by_index, rho, None, 0.02)


class TestLimsupEstimate:
    def test_constant_tail(self):
        prof = TailProfile(2.0 ** -np.arange(4, dtype=float),
                           np.full(4, 0.5), allowance_rel=0.02)
        est, unc = limsup_estimate(prof)
        assert est == pytest.approx(0.5)
        assert unc == pytest.approx(0.02 * 0.5)

    def test_bloch_z_estimate_small(self, bloch_grid):
        prof = profile_of(bloch_grid, taylor_builtin("monomial", degree=1))
        est, _ = limsup_estimate(prof)
        assert est <= 2.0 * 2.0 ** -12

    def test_bloch_log_singular_estimate(self, bloch_grid):
        prof = profile_of(bloch_grid, log_singular())
        est, unc = limsup_estimate(prof)
        assert est == pytest.approx(2.0, abs=0.01)
        assert unc < 0.05

    def test_insufficient_tail(self):
        prof = TailProfile(np.array([1.0, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(ConfigError, match="insufficient tail"):
            limsup_estimate(prof)


class TestInvariants:
    def test_tail_never_exceeds_sup(self, bloch_grid, bmo_grid):
        f = log_singular()
        vals = bloch_grid.evaluate_all(f)
        prof = tail_profile(bloch_grid, vals)
        est, _ = limsup_estimate(prof)
        assert est <= vals.max()
        g = PeriodicSamples(step_half_values(4096))
        gvals = bmo_grid.evaluate_all(g)
        gprof = tail_profile(bmo_grid, gvals)
        gest, _ = limsup_estimate(gprof)
        assert gest <= gvals.max()

    def test_scaling_equivariance(self, bmo_grid):
        rng = np.random.default_rng(4)
        vals = rng.normal(size=4096)
        f = PeriodicSamples(vals)
        g = f * 3.5
        vf = bmo_grid.evaluate_all(f)
        vg = bmo_grid.evaluate_all(g)
        assert np.max(np.abs(vg - 3.5 * vf)) <= 1e-12 * max(1.0, vf.max())

    def test_nonfinite_evaluations_rejected(self):
        # evaluate_all returns the raw vector, and every reader of it refuses
        # a non-finite entry: NaN everywhere, or +inf in the finest run alone,
        # read as f, as an approximant or as a ladder member
        fam = OperatorFamilyGrid("x", by_index, 2.0 ** -np.arange(8, dtype=float),
                                 lambda f: f.values, 0.02)
        desc, good = SpaceDescriptor("bloch"), _Values(np.zeros(8))
        for values in (np.full(8, np.nan), np.append(np.zeros(7), np.inf)):
            f = _Values(values)
            assert fam.evaluate_all(f).tobytes() == values.tobytes()
            for read in (
                    lambda: seminorm_sup(fam, f),
                    lambda: tail_profile(fam, fam.evaluate_all(f)),
                    lambda: distance_estimate(desc, f, fam),
                    lambda: sandwich_check(desc, f, [good], grid=fam),
                    lambda: sandwich_check(desc, good, [f], grid=fam),
                    lambda: assumption_check(desc, f, _ladder(good), grid=fam),
                    lambda: assumption_check(desc, good, _ladder(f), grid=fam)):
                with pytest.raises(NumericalError, match="non-finite values"):
                    read()
        # f and g finite, g certified, but f - g reads NaN: the sandwich
        # refuses it, where max(NaN) would have failed the check
        f = _Values(np.ones(8), difference=np.full(8, np.nan))
        with pytest.raises(NumericalError, match="non-finite values"):
            sandwich_check(desc, f, [good], grid=fam)


class TestThreads:
    """qk's quadrature runs on the caller's thread, one centre at a time."""

    def test_results_independent_of_parallelism(self):
        # each entry is reduced on its own template row, so the per-centre
        # loop gives the bits that a whole ring of centres at once gives,
        # rows reduced along their axis as a block or a worker pool would
        res = {"shell_from": 2, "shell_to": 7, "extra_radii": (0.5,),
               "angles": 16, "quad_nr": 16, "quad_ntheta": 32}
        kernel = kernel_from_config({"name": "one"})
        grid = build_family(SpaceDescriptor("qk", resolution=res, kernel=kernel))
        wn, wts = QuadratureRule(16, 32).nodes()
        k_vals = kernel(np.log(1.0 / np.abs(wn)))
        turns = np.exp(1j * TWO_PI * np.arange(16) / 16)
        # a closed form, and a polynomial, which takes the quadrature under K = 1
        for f in (log_singular(), taylor_builtin("monomial", degree=2)):
            rings = []
            for rho in _disc_radii(0, 7, 2, extra=(0.0, 0.5)):
                phi, dphi = mobius_apply(rho, 1.0, wn)
                rots = turns if rho > 0 else np.ones(1, dtype=complex)
                jac = wts * np.abs(dphi) ** 2 * k_vals
                deriv_sq = np.abs(f.deriv(rots[:, None] * phi[None, :])) ** 2
                rings.append((deriv_sq * jac[None, :]).sum(axis=1))
            want = np.sqrt(np.maximum(np.concatenate(rings), 0.0))
            assert grid.evaluate_all(f).tobytes() == want.tobytes()

    @pytest.mark.parametrize("threads", [1, 4])
    def test_qk_pointwise_memory_bounded(self, threads):
        # the pointwise path holds one centre's template at a time (12,288
        # nodes, about 200 KiB complex per temporary): its traced peak must
        # not grow with the shell size, only with the number of callers that
        # evaluate at once, and concurrent callers get the serial bits
        grid = build_family(SpaceDescriptor("qk"))
        f = log_singular()
        want = grid.evaluate_all(f)
        got = [None] * threads

        def call(i):
            got[i] = grid.evaluate_all(f)

        tracemalloc.start()
        try:
            callers = [threading.Thread(target=call, args=(i,))
                       for i in range(threads)]
            for t in callers:
                t.start()
            for t in callers:
                t.join()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= threads * 2 * 2 ** 20
        for vals in got:
            assert vals.tobytes() == want.tobytes()


def test_bmo_sorted_memory_bounded():
    # p = 1 on real samples holds the centred samples, their sorted blocks
    # and prefix sums, and one group of (arc, block) pairs at a time: four
    # sample vectors' worth, never one array of all pairs
    grid = build_family(SpaceDescriptor("bmo_circle"))
    f = PeriodicSamples(step_half_values(131072))
    grid.evaluate_all(f)
    tracemalloc.start()
    try:
        grid.evaluate_all(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 131072 * 8


@pytest.mark.parametrize("scale, bound_mib", [(1.0, 7.0), (1 + 1j, 10.5)],
                         ids=["real", "complex"])
def test_rect_memory_bounded(scale, bound_mib):
    # the torus is read in blocks of about 2**16 values (16 at n = 1024), so
    # an evaluation holds the per-segment tables, the count^2 moments and
    # one block, never an n x n temporary, and each prefix is read from its
    # pieces with no joined copy: under one 16 MiB complex input (6.24 and
    # 9.52 MiB measured, bounds 12% and 10% above; joining the pieces first
    # read 6.62 and 11.28 MiB, the whole-torus form 27.1 and 41.6 MiB)
    grid = build_family(SpaceDescriptor("rect_bmo"))
    f = torus_builtin("step_tensor", 1024) * scale
    grid.evaluate_all(f)
    tracemalloc.start()
    try:
        grid.evaluate_all(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2 ** 20 < 1024 ** 2 * 16


def test_lip_strata_memory_bounded():
    # each stratum is read as strided views of the samples straight into the
    # output vector, and the family makes no pass over it that allocates: an
    # evaluation holds the output and little else (1.0003 measured; an n-byte
    # mask would read 1.125, a gather through per-pair index vectors 2.0)
    dom = BoxDomain([-1.0], [1.0], 1e-5)
    grid = build_family(SpaceDescriptor("lip", alpha=0.5, lip_domain=dom))
    f = EuclideanSamples(dom, np.abs(dom.axes()[0]) ** 0.5, 0.5)
    grid.evaluate_all(f)
    tracemalloc.start()
    try:
        grid.evaluate_all(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.0625 * 8 * len(grid)



def _kept_bytes(grid) -> int:
    """Bytes of the arrays a grid keeps: its remoteness, ladder and runs,
    and every array its evaluator and describe close over, nested functions
    included."""
    stack = [grid.remoteness, grid.default_scales, grid._run_starts,
             grid._run_levels, grid._eval_all, grid.describe]
    seen, total = set(), 0
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += item.nbytes
        elif callable(item):
            stack.extend(cell.cell_contents for cell in item.__closure__ or ())
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return total


def test_lip_all_pairs_memory_bounded():
    # the all-pairs family keeps its distances and denominators, no pair
    # index: a build holds those, one scratch vector while the squared
    # offsets are summed and one 2^16-entry level chunk (1.20 measured; the
    # pair-index build read 1.95 of the arrays it kept, ia and ib among
    # them), and an evaluation writes each long row straight into the
    # output (1.028 measured; the pair gather 2.0)
    dom = BoxDomain([-1.0, -1.0], [1.0, 1.0], 0.0625)
    desc = SpaceDescriptor("lip", alpha=0.5, lip_domain=dom)
    build_family(desc)
    tracemalloc.start()
    try:
        grid = build_family(desc)
        _, build_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert build_peak <= 1.25 * _kept_bytes(grid)
    f = EuclideanSamples(dom, np.random.default_rng(0).normal(size=dom.shape), 0.5)
    grid.evaluate_all(f)
    tracemalloc.start()
    try:
        grid.evaluate_all(f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.0625 * 8 * len(grid)


def test_level_runs_memory_bounded():
    # a grid finds its levels and runs 2^16 entries at a time: beyond its
    # input it holds one chunk's temporaries and the runs (1.76 MiB measured
    # on the 862,921 strata entries; the whole-vector form read 26.3 MiB)
    dom = BoxDomain([-1.0], [1.0], 1e-5)
    rho = build_family(SpaceDescriptor("lip", alpha=0.5, lip_domain=dom)).remoteness
    OperatorFamilyGrid("lip", by_index, rho, None, 0.02)
    tracemalloc.start()
    try:
        OperatorFamilyGrid("lip", by_index, rho, None, 0.02)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20
