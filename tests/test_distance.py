import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscillometer import cli
from oscillometer.approx import (dilate, dilation_family, fejer_family,
                                 lip_smooth_family, poisson_family,
                                 poisson_torus_family)
from oscillometer.builtins import (circle_builtin, log_singular,
                                   step_half_values, taylor_builtin)
from oscillometer.distance import (certification_threshold, distance_estimate,
                                   sandwich_check)
from oscillometer.family import (OperatorFamilyGrid, limsup_estimate,
                                 seminorm_sup, tail_profile)
from oscillometer.funcrep import PeriodicSamples
from oscillometer.spaces import SpaceDescriptor, build_family
from test_spaces import _SMALL_SPACES, _random_input, small_grids  # noqa: F401


def triangle_gap(grid, f, g):
    """est(f) - (sup_grid(f - g) + est(g)), which the grid triangle inequality
    keeps at or below 0, and the rounding bound sandwich_check allows it:
    sqrt(eps) (||f|| + ||f - g|| + ||g||), fixed from float error analysis
    (see its docstring)."""
    fv, gv, dv = (grid.evaluate_all(h) for h in (f, g, f - g))

    def est(values):
        return limsup_estimate(tail_profile(grid, values))[0]

    gap = est(fv) - float(dv.max()) - est(gv)
    return gap, 2.0 ** -26 * float(fv.max() + dv.max() + gv.max())


def assert_triangle_for_certified(grid, f, rep, members):
    by_id = dict(members)
    for gid, _ in rep.upper_bounds:
        gap, rounding = triangle_gap(grid, f, by_id[gid])
        assert gap <= rounding


@pytest.fixture(scope="module")
def bloch():
    desc = SpaceDescriptor("bloch")
    return desc, build_family(desc)


@pytest.fixture(scope="module")
def bmo():
    res = {"n_samples": 8192, "midpoints": 128, "min_len_exp": 2,
           "max_len_exp": 8}
    desc = SpaceDescriptor("bmo_circle", p=1.0, resolution=res)
    return desc, build_family(desc)


class TestDistanceEstimate:
    def test_bloch_polynomial_vanishes(self, bloch):
        desc, grid = bloch
        f = taylor_builtin("poly", coeffs=[[1, 0], [0, 0], [1, 0]])
        est, unc, prof = distance_estimate(desc, f, grid=grid)
        assert est <= 1e-2
        assert prof.scales.size >= 3

    def test_bloch_log_singular(self, bloch):
        desc, grid = bloch
        est, unc, _ = distance_estimate(desc, log_singular(), grid=grid)
        assert est == pytest.approx(2.0, abs=0.01)
        assert unc <= 0.05

    def test_bmo_step(self, bmo):
        desc, grid = bmo
        f = circle_builtin("step_half", 8192)
        est, unc, _ = distance_estimate(desc, f, grid=grid)
        assert est == pytest.approx(0.5, abs=0.02)

    def test_homogeneity(self, bloch):
        desc, grid = bloch
        f = log_singular()
        est1, unc1, _ = distance_estimate(desc, f, grid=grid)
        est2, unc2, _ = distance_estimate(desc, f * 3.0, grid=grid)
        assert est2 == pytest.approx(3 * est1, rel=1e-12)

    def test_tail_below_seminorm(self, bloch):
        desc, grid = bloch
        for f in (log_singular(), taylor_builtin("monomial", degree=3)):
            vals = grid.evaluate_all(f)
            est, _, _ = distance_estimate(desc, f, grid=grid)
            assert est <= float(vals.max()) + 1e-12


class TestSandwich:
    def test_bloch_log_singular_dilations(self, bloch):
        desc, grid = bloch
        f = log_singular()
        fam = dilation_family(f, levels=6)
        ids = [f"r={r}" for r in fam.parameters]
        rep = sandwich_check(desc, f, fam.members, ids=ids, grid=grid)
        assert rep.sandwich_ok
        assert rep.upper_bounds  # dilations certify on this grid
        # the tail estimate equals the full norm here: every certified bound
        # keeps est(f) <= ||f - g|| + est(g)
        assert_triangle_for_certified(grid, f, rep, zip(ids, fam.members))

    def test_polynomial_approximates_itself(self, bloch):
        desc, grid = bloch
        f = taylor_builtin("poly", coeffs=[[1, 0], [0, 0], [1, 0]])
        rep = sandwich_check(desc, f, [f], ids=["self"], grid=grid)
        assert rep.sandwich_ok
        assert rep.best_upper == 0.0
        assert rep.limsup_estimate <= 1e-2

    def test_bmo_step_poisson(self, bmo):
        desc, grid = bmo
        f = circle_builtin("step_half", 8192)
        fam = poisson_family(f, levels=5)
        ids = [f"r={r}" for r in fam.parameters]
        rep = sandwich_check(desc, f, fam.members, ids=ids, grid=grid)
        assert rep.sandwich_ok
        assert rep.best_upper is not None
        norm = seminorm_sup(grid, f).value
        # the tail limit is at most every certified ||f - g|| plus g's tail
        assert_triangle_for_certified(grid, f, rep, zip(ids, fam.members))
        assert rep.best_upper <= norm + 1e-12

    def test_non_little_approximant_rejected(self, bloch):
        desc, grid = bloch
        f = log_singular()
        rep = sandwich_check(desc, f, [f], ids=["itself"], grid=grid)
        assert rep.rejected and rep.rejected[0][0] == "itself"
        assert not rep.upper_bounds
        assert rep.sandwich_ok  # vacuous: no certified bounds to violate

    def test_report_sorted_and_serialisable(self, bloch):
        desc, grid = bloch
        f = log_singular()
        fam = dilation_family(f, levels=4)
        ids = ["d", "a", "c", "b"]
        rep = sandwich_check(desc, f, fam.members, ids=ids, grid=grid)
        listed = [i for i, _ in rep.upper_bounds] + [i for i, _, _ in rep.rejected]
        assert listed == sorted(listed)
        d = rep.to_dict()
        assert set(d) >= {"limsup_estimate", "uncertainty", "tail_profile",
                          "upper_bounds", "best_upper", "sandwich_ok"}


    def test_eight_dilation_levels(self, bloch, tmp_path):
        # g6 (r = 1 - 2^-7) certifies with a tail of 0.060, more than the
        # estimate's uncertainty: the inequality counts that tail
        desc, grid = bloch
        f = log_singular()
        fam = dilation_family(f, levels=8)
        rep = sandwich_check(desc, f, fam.members, grid=grid)
        assert rep.sandwich_ok
        assert len(rep.upper_bounds) == 7
        code, report = _cli_distance(tmp_path, levels=8)
        assert code == cli.EXIT_OK
        assert report["sandwich_ok"] is True and "slack" not in report

    def test_non_subadditive_evaluator_fails(self, bloch, tmp_path, monkeypatch):
        desc, grid = bloch
        f = log_singular()
        planted = _square_one_fine_entry(grid, f)
        fam = dilation_family(f, levels=8)
        assert not sandwich_check(desc, f, fam.members, grid=planted).sandwich_ok
        monkeypatch.setattr(cli, "build_family", lambda desc: planted)
        code, report = _cli_distance(tmp_path, levels=8)
        assert code == cli.EXIT_CHECK_FAILED
        assert report["sandwich_ok"] is False


def _cli_distance(tmp_path, levels):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "space": {"space": "bloch"},
        "function": {"kind": "builtin", "name": "log_singular"},
        "approximants": {"kind": "dilation", "ladder": {"levels": levels}}}))
    code = cli.main(["distance", "--config", str(cfg), "--out", str(tmp_path)])
    return code, json.loads((tmp_path / "report.json").read_text())


def _square_one_fine_entry(grid, f):
    """The grid with one finest-level entry squared in every evaluation: the
    one where f attains its tail estimate, a value near 2, so the squared
    entry outgrows the sum of the squared parts it splits into."""
    finest = np.flatnonzero(grid.remoteness <= grid.default_scales[-1])
    index = finest[np.argmax(grid.evaluate_all(f)[finest])]

    def eval_all(h):
        values = grid.evaluate_all(h).copy()
        values[index] **= 2
        return values

    return OperatorFamilyGrid(grid.space_tag, grid.describe, grid.remoteness,
                              eval_all, grid.allowance_rel)


def _ladder(desc, f):
    """A short approximation ladder of the space's representation."""
    if desc.tag == "bmo_circle":
        return poisson_family(f, 4)
    if desc.tag == "rect_bmo":
        return poisson_torus_family(f, 4)
    if desc.tag == "qk":
        return fejer_family(f, 4)
    if desc.tag == "lip":
        return lip_smooth_family(f, levels=3, t0=0.25)
    return dilation_family(f, 5)


class TestTriangleProperty:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(_SMALL_SPACES)),
           st.sampled_from(["real", "complex", "log_singular"]),
           st.integers(0, 2 ** 32 - 1))
    def test_tail_estimate_within_triangle_bound(self, small_grids, key, kind,
                                                 seed):
        # est(f) <= sup_grid(f - g) + est(g) for every ladder member g,
        # certified or not: each entry is a seminorm on any grid
        desc, grid = small_grids[key]
        f = _random_input(desc, kind, np.random.default_rng(seed))
        for g in _ladder(desc, f).members:
            gap, rounding = triangle_gap(grid, f, g)
            assert gap <= rounding


class TestTranslationByLittle:
    def test_distance_shift_bounded_by_little_tail(self, bloch):
        desc, grid = bloch
        f = log_singular()
        g = dilate(f, 0.875)  # certified little on this grid
        g_est, _ = limsup_estimate(tail_profile(grid, grid.evaluate_all(g)))
        est_f, _, _ = distance_estimate(desc, f, grid=grid)
        est_sum, _, _ = distance_estimate(desc, f - g, grid=grid)
        allowance = grid.allowance_rel * max(est_f, est_sum)
        assert abs(est_sum - est_f) <= g_est + allowance + 1e-9


def test_certification_threshold_formula():
    assert certification_threshold(0.0) == 1e-2
    assert certification_threshold(1.0) == pytest.approx(0.05)
    assert certification_threshold(0.1) == 1e-2
