import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillometer.errors import ConfigError, NumericalError
from oscillometer.family import (OperatorFamilyGrid, TailProfile, dyadic_scales,
                                 limsup_estimate, map_chunks, seminorm_sup,
                                 tail_profile, thread_budget)
from oscillometer.funcrep import PeriodicSamples
from oscillometer.spaces import SpaceDescriptor, build_family
from oscillometer.builtins import log_singular, step_half_values, taylor_builtin


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
                               0.02, [1.0])


class TestTailProfile:
    def test_bloch_z_profile_follows_shells(self, bloch_grid):
        prof = tail_profile(bloch_grid, taylor_builtin("monomial", degree=1))
        scales, sups = prof.nonempty()
        # S(t) = max over 1-|w| <= t of (1-|w|^2): attained at the shallowest
        # qualifying shell, so S(t) = 2t - t^2 for dyadic t matching shells
        want = 2 * scales - scales ** 2
        assert np.allclose(sups, want, rtol=1e-12)

    def test_step_profile_flat_at_half(self, bmo_grid):
        # jump-centred arcs at every scale: the trapezoid drops the single
        # interior jump node, so S(t_k) = 0.5 (n_k - 1)/n_k for n_k cells
        f = PeriodicSamples(step_half_values(4096))
        prof = tail_profile(bmo_grid, f)
        scales, sups = prof.nonempty()
        ncells = np.rint(scales / f.step)
        assert np.allclose(sups, 0.5 * (ncells - 1) / ncells, rtol=1e-12)

    def test_monotone_exact(self, bloch_grid):
        prof = tail_profile(bloch_grid, log_singular())
        _, sups = prof.nonempty()
        assert np.all(np.diff(sups) <= 0.0)

    def test_empty_levels_marked(self, bloch_grid):
        deep = OperatorFamilyGrid(
            "bloch", bloch_grid.describe, bloch_grid.remoteness, bloch_grid.evaluate_all,
            0.02, 2.0 ** -np.arange(0, 16, dtype=float))  # deeper than the grid
        prof = tail_profile(deep, taylor_builtin("monomial", degree=1))
        assert np.isnan(prof.tail_sups[-1])

    def test_requires_dyadic_scales(self, bloch_grid):
        with pytest.raises(ConfigError, match="dyadic"):
            OperatorFamilyGrid("bloch", bloch_grid.describe, bloch_grid.remoteness,
                               bloch_grid.evaluate_all, 0.02, [1.0, 0.4])

    def test_near_dyadic_ladder_refused(self, bloch_grid):
        # levels come from binary exponents, which needs each level exactly
        # half the last
        with pytest.raises(ConfigError, match="dyadic"):
            OperatorFamilyGrid("bloch", bloch_grid.describe, bloch_grid.remoteness,
                               bloch_grid.evaluate_all, 0.02,
                               (0.5 * (1 + 1e-10)) ** np.arange(8.0))

    @pytest.mark.parametrize("scales", [[], [1.0, 0.5, -0.25]])
    def test_requires_positive_scales(self, bloch_grid, scales):
        with pytest.raises(ConfigError, match="positive"):
            OperatorFamilyGrid("bloch", bloch_grid.describe, bloch_grid.remoteness,
                               bloch_grid.evaluate_all, 0.02, scales)

    def test_grid_holds_its_own_ladder(self, bloch_grid):
        ladder = 2.0 ** -np.arange(0, 14, dtype=float)
        grid = OperatorFamilyGrid("bloch", bloch_grid.describe, bloch_grid.remoteness,
                                  bloch_grid.evaluate_all, 0.02, ladder)
        ladder[:] = 1.0
        assert not grid.default_scales.flags.writeable
        prof = tail_profile(grid, taylor_builtin("monomial", degree=1))
        assert np.array_equal(prof.scales, 2.0 ** -np.arange(0, 14, dtype=float))

    def test_csv_round_trip(self, bloch_grid):
        prof = tail_profile(bloch_grid, taylor_builtin("monomial", degree=1))
        text = prof.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "scale,tail_sup"
        assert len(lines) == prof.scales.size + 1


@st.composite
def remoteness_and_ladders(draw):
    """Remoteness with many ties (a few mantissas times powers of two, so it
    spans at least 6 dyadic bins), values, and two dyadic ladders whose tops
    lie above, inside or below the remoteness range.  The remoteness also
    holds every level's bound t (1 + 1e-12) and its two float neighbours, so
    an off-by-one at a level boundary shows."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(1, 300))
    ladders = [draw(st.sampled_from([1.0, 0.6, 0.75, 2 * np.pi]))
               * 2.0 ** draw(st.integers(-14, 3)) * 0.5 ** np.arange(draw(st.integers(1, 20)))
               for _ in range(2)]
    bounds = np.concatenate(ladders) * (1 + 1e-12)
    rho = rng.choice([1.0, 1.25, 1.5]) * 2.0 ** -rng.integers(0, 12, size)
    rho = np.concatenate([2.0 ** -np.arange(6.0), rho, bounds,
                          np.nextafter(bounds, 0), np.nextafter(bounds, np.inf)])
    vals = rng.choice([0.0, 0.5, 1.0, 2.0], rho.size) + rng.uniform(0, 1, rho.size)
    return rho, vals, ladders


class TestTailProfileProperty:
    @settings(max_examples=80, deadline=None)
    @given(remoteness_and_ladders())
    def test_levels_are_direct_maxima(self, case):
        rho, vals, ladders = case
        # two grids per remoteness vector, one per ladder; the sorted copy
        # gives long runs of entries of one level
        for remote in (rho, np.sort(rho)):
            grids = [OperatorFamilyGrid("x", by_index, remote, lambda f: vals, 0.02,
                                        scales) for scales in ladders]
            for fam, scales in zip(grids + grids, ladders + ladders):
                for values in (vals, vals[::-1].copy()):
                    got = tail_profile(fam, None, values=values).tail_sups
                    want = [values[remote <= t * (1 + 1e-12)].max()
                            if np.any(remote <= t * (1 + 1e-12)) else np.nan
                            for t in scales]
                    assert np.array_equal(got, want, equal_nan=True)


class TestLimsupEstimate:
    def test_constant_tail(self):
        prof = TailProfile(2.0 ** -np.arange(4, dtype=float),
                           np.full(4, 0.5), allowance_rel=0.02)
        est, unc = limsup_estimate(prof)
        assert est == pytest.approx(0.5)
        assert unc == pytest.approx(0.02 * 0.5)

    def test_bloch_z_estimate_small(self, bloch_grid):
        prof = tail_profile(bloch_grid, taylor_builtin("monomial", degree=1))
        est, _ = limsup_estimate(prof)
        assert est <= 2.0 * 2.0 ** -12

    def test_bloch_log_singular_estimate(self, bloch_grid):
        prof = tail_profile(bloch_grid, log_singular())
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
        prof = tail_profile(bloch_grid, f, values=vals)
        est, _ = limsup_estimate(prof)
        assert est <= vals.max()
        g = PeriodicSamples(step_half_values(4096))
        gvals = bmo_grid.evaluate_all(g)
        gprof = tail_profile(bmo_grid, g, values=gvals)
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
        fam = OperatorFamilyGrid(
            "x", by_index, 2.0 ** -np.arange(8, dtype=float),
            lambda f: np.full(8, np.nan), 0.02, dyadic_scales(1.0, 2.0 ** -7))
        with pytest.raises(NumericalError):
            fam.evaluate_all(None)


class TestThreads:
    def test_budget_parsing(self, monkeypatch):
        monkeypatch.setenv("OSCILLOMETER_THREADS", "3")
        assert thread_budget() == 3
        monkeypatch.setenv("OSCILLOMETER_THREADS", "0")
        assert thread_budget() >= 1
        monkeypatch.setenv("OSCILLOMETER_THREADS", "x")
        with pytest.raises(ConfigError):
            thread_budget()

    def test_results_independent_of_parallelism(self, monkeypatch):
        grid = build_family(SpaceDescriptor("qk", resolution={
            "shell_from": 2, "shell_to": 7, "extra_radii": (0.5,),
            "angles": 16, "quad_nr": 16, "quad_ntheta": 32}))
        # a polynomial takes Garsia's closed form, a closed-form input the
        # blocked pointwise path
        for f in (taylor_builtin("monomial", degree=2), log_singular()):
            monkeypatch.setenv("OSCILLOMETER_THREADS", "1")
            serial = grid.evaluate_all(f)
            monkeypatch.setenv("OSCILLOMETER_THREADS", "4")
            parallel = grid.evaluate_all(f)
            assert np.array_equal(serial, parallel)
        # map_chunks itself: row sums of 101 rows, each reduced on its own
        rows = np.random.default_rng(3).normal(size=(101, 37))
        want = rows.sum(axis=1)
        for block in (1, 7, rows.shape[0]):
            seen = []

            def fn(lo, hi):
                seen.append((lo, hi))
                return rows[lo:hi].sum(axis=1)

            for threads in ("1", "4"):
                monkeypatch.setenv("OSCILLOMETER_THREADS", threads)
                seen.clear()
                got = map_chunks(fn, rows.shape[0], block)
                assert got.tobytes() == want.tobytes()
                assert sorted(seen) == [(lo, min(lo + block, rows.shape[0]))
                                        for lo in range(0, rows.shape[0], block)]

    @pytest.mark.parametrize("threads", ["1", "4"])
    def test_qk_pointwise_memory_bounded(self, monkeypatch, threads):
        # the pointwise path runs a fixed number of centres per block: its
        # traced peak must not grow with the shell size or the thread count
        grid = build_family(SpaceDescriptor("qk"))
        f = log_singular()
        monkeypatch.setenv("OSCILLOMETER_THREADS", threads)
        grid.evaluate_all(f)
        tracemalloc.start()
        try:
            grid.evaluate_all(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20


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


def test_dyadic_scales_ladder():
    s = dyadic_scales(1.0, 2.0 ** -10)
    assert s[0] == 1.0
    assert np.allclose(s[1:] / s[:-1], 0.5)
    assert s[-1] == 2.0 ** -10
