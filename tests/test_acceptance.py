"""Acceptance suite: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line per
criterion.  Tolerances are pinned here, not configurable.
"""

import json

import numpy as np
import pytest

from oscillometer.approx import (assumption_check, dilation_family,
                                 fejer_family, fejer_taylor,
                                 lip_smooth_family, poisson_family,
                                 poisson_torus_family)
from oscillometer.builtins import (box_builtin, circle_builtin, lacunary,
                                   log_singular, taylor_builtin,
                                   torus_builtin)
from oscillometer.cli import main as cli_main
from oscillometer.distance import distance_estimate, sandwich_check
from oscillometer.family import limsup_estimate, seminorm_sup, tail_profile
from oscillometer.funcrep import (BoxDomain, EuclideanSamples,
                                  PeriodicSamples, TaylorFunction)
from oscillometer.spaces import (SpaceDescriptor, build_family, compose_mobius,
                                 kernel_from_config)
from oracles import Arc, bmo_oscillation, qk_local, snap_arc

BMO_N = 131072
RECT_N = 1024
LIP_STEP = 1e-5


def announce(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def bloch():
    desc = SpaceDescriptor("bloch")
    return desc, build_family(desc)


@pytest.fixture(scope="module")
def bmo():
    desc = SpaceDescriptor("bmo_circle", p=1.0,
                           resolution={"n_samples": BMO_N})
    return desc, build_family(desc)


@pytest.fixture(scope="module")
def rect():
    desc = SpaceDescriptor("rect_bmo", resolution={"n_samples": RECT_N})
    return desc, build_family(desc)


@pytest.fixture(scope="module")
def lip():
    dom = BoxDomain([-1.0], [1.0], LIP_STEP)
    desc = SpaceDescriptor("lip", alpha=0.5, lip_domain=dom)
    return desc, build_family(desc)


@pytest.fixture(scope="module")
def weighted():
    desc = SpaceDescriptor("weighted")
    return desc, build_family(desc)


@pytest.fixture(scope="module")
def qk():
    desc = SpaceDescriptor("qk")
    return desc, build_family(desc)


def test_criterion_1_bloch_log_singular(tmp_path):
    # grid shells reach 1 - 2^-12, so the analytic sup (1+|w|) is capped just
    # below 2; both the norm and the tail estimate must sit at that cap
    space = {"space": "bloch"}
    func = {"kind": "builtin", "name": "log_singular"}
    cfg = tmp_path / "norm.json"
    cfg.write_text(json.dumps({"space": space, "function": func,
                               "output": {"report": "n.json"}}))
    assert cli_main(["norm", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    norm = json.loads((tmp_path / "n.json").read_text())["value"]
    cfg = tmp_path / "dist.json"
    cfg.write_text(json.dumps({"space": space, "function": func,
                               "output": {"report": "d.json",
                                          "profile": "d.csv"}}))
    assert cli_main(["distance", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "d.json").read_text())
    ok = (1.96 <= norm <= 2.0
          and 1.95 <= rep["limsup_estimate"] <= 2.02
          and rep["uncertainty"] <= 0.05)
    announce(1, ok, f"bloch log-singular norm {norm:.5f}, "
                    f"distance {rep['limsup_estimate']:.5f} "
                    f"+- {rep['uncertainty']:.4f}")


def test_criterion_2_bloch_polynomial(bloch):
    desc, grid = bloch
    f = taylor_builtin("poly", coeffs=[[1, 0], [0, 0], [1, 0]])
    est, _, _ = distance_estimate(desc, f, grid=grid)
    announce(2, est <= 1e-2, f"bloch z+z^3 distance estimate {est:.2e} <= 1e-2")


def test_criterion_3_bmo_step(bmo):
    desc, grid = bmo
    f = circle_builtin("step_half", BMO_N)
    vals = grid.evaluate_all(f)
    norm = float(vals.max())
    est, _ = limsup_estimate(tail_profile(grid, vals))
    ok = abs(norm - 0.5) <= 0.02 and abs(est - 0.5) <= 0.02
    announce(3, ok, f"bmo(p=1) step norm {norm:.5f}, distance {est:.5f} "
                    "(both 0.5 +- 0.02)")


def test_criterion_4_rect_step_tensor(rect):
    desc, grid = rect
    F = torus_builtin("step_tensor", RECT_N)
    vals = grid.evaluate_all(F)
    norm = float(vals.max())
    est, _ = limsup_estimate(tail_profile(grid, vals))
    G = torus_builtin("one_variable", RECT_N)
    onevar = float(grid.evaluate_all(G).max())
    ok = (abs(norm - 0.25) <= 0.02 and abs(est - 0.25) <= 0.02
          and onevar <= 1e-10)
    announce(4, ok, f"rect step-tensor norm {norm:.5f}, distance {est:.5f} "
                    f"(0.25 +- 0.02); one-variable norm {onevar:.1e}")


def test_criterion_5_lip_cusp(lip):
    desc, grid = lip
    f = box_builtin("holder_cusp", desc.lip_domain, 0.5)
    vals = grid.evaluate_all(f)
    norm = float(vals.max())
    est, _ = limsup_estimate(tail_profile(grid, vals))
    ok = abs(norm - 1.0) <= 0.01 and abs(est - 1.0) <= 0.02
    announce(5, ok, f"lip(1/2) cusp norm {norm:.5f} (1 +- 0.01), "
                    f"distance {est:.5f} (1 +- 0.02)")


def test_criterion_6_weighted_cauchy(weighted):
    desc, grid = weighted
    f = taylor_builtin("cauchy_kernel")
    vals = grid.evaluate_all(f)
    norm = float(vals.max())
    est, _ = limsup_estimate(tail_profile(grid, vals))
    ok = 1.95 <= norm <= 2.02 and 1.95 <= est <= 2.02
    announce(6, ok, f"weighted (1-|z|^2) Cauchy-kernel norm {norm:.5f}, "
                    f"distance {est:.5f} (both in [1.95, 2.02])")


def test_criterion_7_qk_quadrature():
    z = taylor_builtin("monomial", degree=1)
    power = kernel_from_config({"name": "power", "exponent": 1.0})
    flat = kernel_from_config({"name": "one"})
    got_power = qk_local(z, 0.0, power)
    got_flat = qk_local(z, 0.0, flat)
    ok = (abs(got_power - np.pi / 2) <= 1e-3 and abs(got_flat - np.pi) <= 1e-3)
    announce(7, ok, f"qk quadrature: K(t)=t gives {got_power:.7f} "
                    f"(pi/2 +- 1e-3), K=1 gives {got_flat:.7f} (pi +- 1e-3)")


def test_criterion_8_fejer_contractivity():
    light = SpaceDescriptor("qk", resolution={
        "shell_from": 2, "shell_to": 6, "extra_radii": (0.25, 0.5),
        "angles": 64, "quad_nr": 32, "quad_ntheta": 64})
    grid = build_family(light)
    rng = np.random.default_rng(20260810)
    violations = 0
    worst = 0.0
    for _ in range(50):
        deg = int(rng.integers(1, 13))
        coeffs = rng.uniform(-1, 1, deg) + 1j * rng.uniform(-1, 1, deg)
        f = TaylorFunction.polynomial(coeffs)
        base = seminorm_sup(grid, f).value
        for n in (2, 4, 8):
            ratio = seminorm_sup(grid, fejer_taylor(f, n)).value / base
            worst = max(worst, ratio)
            if ratio > 1 + 1e-3:
                violations += 1
    announce(8, violations == 0,
             f"Fejer contractivity over 150 seeded cases: worst ratio "
             f"{worst:.6f}, {violations} violations of 1+1e-3")


def test_criterion_9_mobius_invariance(qk):
    desc, grid = qk
    f = taylor_builtin("monomial", degree=2)
    base = seminorm_sup(grid, f).value
    moved = seminorm_sup(grid, compose_mobius(f, 0.3 + 0.2j)).value
    dev = abs(moved - base) / base
    announce(9, dev <= 0.02,
             f"qk sup invariance under centre 0.3+0.2i: deviation {dev:.2e} <= 2%")


def test_criterion_10_sandwich_suite(bloch, bmo, rect, lip, weighted, qk,
                                     tmp_path):
    suite = []
    desc, grid = bmo
    for name in ("step_half", "triangle"):
        f = circle_builtin(name, BMO_N)
        suite.append((desc, grid, f"bmo/{name}", f, poisson_family(f, 4)))
    desc, grid = bloch
    for name, f in [("z", taylor_builtin("monomial", degree=1)),
                    ("z+z^3", taylor_builtin("poly",
                                             coeffs=[[1, 0], [0, 0], [1, 0]])),
                    ("log_singular", log_singular()),
                    ("lacunary", lacunary())]:
        suite.append((desc, grid, f"bloch/{name}", f, dilation_family(f, 5)))
    desc, grid = qk
    for name, f in [("z^2", taylor_builtin("monomial", degree=2)),
                    ("z+z^3", taylor_builtin("poly",
                                             coeffs=[[1, 0], [0, 0], [1, 0]])),
                    ("log_singular", log_singular())]:
        suite.append((desc, grid, f"qk/{name}", f, fejer_family(f, 4)))
    desc, grid = weighted
    for name, f in [("cauchy", taylor_builtin("cauchy_kernel")),
                    ("z", taylor_builtin("monomial", degree=1))]:
        suite.append((desc, grid, f"weighted/{name}", f, dilation_family(f, 5)))
    desc, grid = rect
    for name in ("step_tensor", "triangle_tensor"):
        F = torus_builtin(name, RECT_N)
        suite.append((desc, grid, f"rect/{name}", F, poisson_torus_family(F, 4)))
    desc, grid = lip
    f = box_builtin("holder_cusp", desc.lip_domain, 0.5)
    suite.append((desc, grid, "lip/cusp", f,
                  lip_smooth_family(f, levels=5, t0=0.1)))

    failures = []
    certified_total = 0
    for desc, grid, label, f, fam in suite:
        rep = sandwich_check(desc, f, fam.members,
                             ids=[str(p) for p in fam.parameters], grid=grid)
        certified_total += len(rep.upper_bounds)
        if not rep.sandwich_ok:
            failures.append(label)

    # the CLI surfaces a sandwich failure as exit code 4; it must not trigger
    cfg = tmp_path / "sw.json"
    cfg.write_text(json.dumps({
        "space": {"space": "bloch"},
        "function": {"kind": "builtin", "name": "log_singular"},
        "approximants": {"kind": "dilation", "ladder": {"levels": 4}},
        "output": {"report": "sw.json", "profile": "sw.csv"}}))
    exit_code = cli_main(["distance", "--config", str(cfg),
                          "--out", str(tmp_path)])
    ok = not failures and exit_code == 0 and certified_total > 0
    announce(10, ok,
             f"sandwich suite over {len(suite)} space/function rows: "
             f"{certified_total} certified bounds, violations {failures or 'none'}, "
             f"cli exit {exit_code}")


def test_criterion_11_assumption_suite(bmo, rect, bloch, qk, lip):
    rows = []
    desc, grid = bmo
    rows.append(("bmo+poisson", desc, grid, circle_builtin("step_half", BMO_N),
                 lambda f: poisson_family(f, 13)))
    desc, grid = rect
    rows.append(("rect+poisson", desc, grid,
                 torus_builtin("triangle_tensor", RECT_N),
                 lambda f: poisson_torus_family(f, 8)))
    desc, grid = bloch
    rows.append(("bloch+dilation", desc, grid,
                 taylor_builtin("poly", coeffs=[[1, 0], [0, 0], [1, 0]]),
                 lambda f: dilation_family(f, 8)))
    desc, grid = qk
    rows.append(("qk+fejer", desc, grid,
                 taylor_builtin("poly", coeffs=[[1, 0], [0, 0], [1, 0]]),
                 lambda f: fejer_family(f, 9)))
    desc, grid = lip
    rows.append(("lip+smooth", desc, grid,
                 box_builtin("holder_cusp", desc.lip_domain, 0.5),
                 lambda f: lip_smooth_family(f, levels=13, t0=0.1)))
    failures = []
    details = []
    for label, desc, grid, f, make in rows:
        rep = assumption_check(desc, f, make(f), slack=1e-3, grid=grid)
        rel = rep.x_distances[-1] / rep.x_reference if rep.x_reference else 0.0
        details.append(f"{label} x-dist {rel:.4f}")
        if not (rep.verdict and rel < 1e-2):
            failures.append(label)
    announce(11, not failures,
             f"approximation-property suite: {'; '.join(details)}; "
             f"failures {failures or 'none'}")


def test_criterion_12_metamorphic_micro_suite(bloch, bmo, rect, lip, weighted,
                                              qk):
    ok = True
    notes = []
    c = 3.25

    # homogeneity of every seminorm and distance, relative 1e-12
    cases = [
        (bmo, circle_builtin("step_half", BMO_N)),
        (bloch, log_singular()),
        (qk, taylor_builtin("poly", coeffs=[[1, 0], [0, 0], [1, 0]])),
        (weighted, taylor_builtin("cauchy_kernel")),
        (rect, torus_builtin("step_tensor", RECT_N)),
        (lip, None),
    ]
    for (desc, grid), f in cases:
        if f is None:
            f = box_builtin("holder_cusp", desc.lip_domain, 0.5)
        v1 = grid.evaluate_all(f)
        v2 = grid.evaluate_all(f * c)
        n1, n2 = float(v1.max()), float(v2.max())
        e1, _ = limsup_estimate(tail_profile(grid, v1))
        e2, _ = limsup_estimate(tail_profile(grid, v2))
        if abs(n2 - c * n1) > 1e-12 * c * n1 or abs(e2 - c * e1) > 1e-12 * c * max(e1, 1e-300):
            ok = False
            notes.append(f"homogeneity broke for {desc.tag}")
        sups = tail_profile(grid, v1).tail_sups
        filled = sups[~np.isnan(sups)]
        if np.any(np.diff(filled) > 0):
            ok = False
            notes.append(f"tail profile not monotone for {desc.tag}")

    # prefix-sum vs direct-sum oscillation agreement on 100 random arcs
    rng = np.random.default_rng(12)
    n = 4096
    f = PeriodicSamples(rng.normal(size=n) + 1j * rng.normal(size=n))
    worst = 0.0
    for _ in range(100):
        arc = Arc(rng.uniform(0, 2 * np.pi), rng.uniform(16 * 2 * np.pi / n, 2 * np.pi))
        start, ncells = snap_arc(f, arc)
        w = np.ones(ncells + 1)
        w[0] = w[-1] = 0.5
        idx = (start + np.arange(ncells + 1)) % n
        window = f.values[idx]
        mean = np.dot(w, window) / ncells
        direct = np.sqrt(np.dot(w, np.abs(window - mean) ** 2) / ncells)
        got = bmo_oscillation(f, arc, 2.0)
        worst = max(worst, abs(got - direct) / max(direct, 1e-300))
    if worst > 1e-12:
        ok = False
        notes.append(f"prefix vs direct oscillation deviated by {worst:.2e}")

    announce(12, ok, "homogeneity 1e-12, exact tail monotonicity, prefix-vs-"
                     f"direct {worst:.1e} on 100 random arcs"
                     + (f" [{'; '.join(notes)}]" if notes else ""))
