import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from oscillometer.cli import main

BLOCH_LIGHT = {"space": "bloch",
               "resolution": {"uniform_radii": 64, "shells": 8, "angles": 128}}
QK_LIGHT = {"space": "qk",
            "resolution": {"shell_from": 2, "shell_to": 7,
                           "extra_radii": [0.25, 0.5], "angles": 32,
                           "quad_nr": 24, "quad_ntheta": 64}}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, payload, seed=0):
    cfg = write_config(tmp_path, f"{command}.json", payload)
    return main([command, "--config", cfg, "--out", str(tmp_path),
                 "--seed", str(seed)])


class TestNorm:
    def test_bloch_monomial(self, tmp_path):
        code = run(tmp_path, "norm", {
            "space": BLOCH_LIGHT,
            "function": {"kind": "builtin", "name": "monomial", "degree": 1},
            "output": {"report": "r.json"},
        })
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["value"] == pytest.approx(1.0)
        assert report["grid_size"] > 0

    def test_deterministic_bytes(self, tmp_path):
        payload = {
            "space": QK_LIGHT,
            "function": {"kind": "builtin", "name": "poly",
                         "coeffs": [[1, 0], [0, 0], [0.5, -0.5]]},
            "output": {"report": "r.json"},
        }
        run(tmp_path, "norm", payload, seed=3)
        first = (tmp_path / "r.json").read_bytes()
        run(tmp_path, "norm", payload, seed=3)
        assert (tmp_path / "r.json").read_bytes() == first

    def test_missing_config(self, tmp_path):
        assert main(["norm", "--config", str(tmp_path / "nope.json")]) == 2

    def test_task_mismatch(self, tmp_path):
        code = run(tmp_path, "norm", {
            "space": BLOCH_LIGHT,
            "function": {"kind": "builtin", "name": "monomial", "degree": 1},
            "task": "distance",
        })
        assert code == 2

    def test_bad_function_name(self, tmp_path):
        code = run(tmp_path, "norm", {
            "space": BLOCH_LIGHT,
            "function": {"kind": "builtin", "name": "step_half"},
        })
        assert code == 2


class TestDistance:
    def test_bloch_log_singular_with_sandwich(self, tmp_path):
        code = run(tmp_path, "distance", {
            "space": {"space": "bloch"},
            "function": {"kind": "builtin", "name": "log_singular"},
            "approximants": {"kind": "dilation", "ladder": {"levels": 4}},
            "output": {"report": "d.json", "profile": "d.csv"},
        })
        assert code == 0
        report = json.loads((tmp_path / "d.json").read_text())
        assert report["sandwich_ok"] is True
        assert 1.95 <= report["limsup_estimate"] <= 2.02
        csv_text = (tmp_path / "d.csv").read_text()
        assert csv_text.splitlines()[0] == "scale,tail_sup"

    def test_estimate_only(self, tmp_path):
        code = run(tmp_path, "distance", {
            "space": BLOCH_LIGHT,
            "function": {"kind": "builtin", "name": "monomial", "degree": 2},
            "output": {"report": "d.json", "profile": "d.csv"},
        })
        assert code == 0
        report = json.loads((tmp_path / "d.json").read_text())
        assert report["limsup_estimate"] <= 0.05


class TestCheck:
    def test_assumption_check_passes(self, tmp_path):
        code = run(tmp_path, "check", {
            "space": {"space": "bmo_circle", "p": 1,
                      "resolution": {"n_samples": 4096, "midpoints": 128,
                                     "min_len_exp": 2, "max_len_exp": 8}},
            "function": {"kind": "builtin", "name": "triangle"},
            "task": "assumption-check",
            "family": {"kind": "poisson_circle", "ladder": {"levels": 8}},
            "output": {"report": "a.json"},
        })
        assert code == 0
        report = json.loads((tmp_path / "a.json").read_text())
        assert report["verdict"] == "pass"

    def test_lip_alpha_one_refused(self, tmp_path):
        code = run(tmp_path, "check", {
            "space": {"space": "lip", "alpha": 1.0,
                      "domain": {"lo": [-1.0], "hi": [1.0], "step": 0.01}},
            "function": {"kind": "builtin", "name": "holder_cusp",
                         "exponent": 1.0},
            "task": "assumption-check",
            "family": {"kind": "lip_smooth", "ladder": {"levels": 5}},
        })
        assert code == 2

    def test_invariance_check(self, tmp_path):
        code = run(tmp_path, "check", {
            "space": {"space": "qk"},
            "function": {"kind": "builtin", "name": "monomial", "degree": 2},
            "task": "invariance-check",
            "phi": {"a": [0.3, 0.2], "lambda": [1.0, 0.0]},
            "tolerance": 0.02,
            "output": {"report": "i.json"},
        })
        assert code == 0
        report = json.loads((tmp_path / "i.json").read_text())
        assert report["relative_deviation"] <= 0.02

    def test_invariance_exact_polynomial(self, tmp_path):
        # phi_a(z) = (a - z)/(1 - conj(a) z) turns z into a rotation-free
        # Moebius image of itself, whose sup the grid reads as it reads z;
        # both sides go through the quadrature, so they agree to rounding
        code = run(tmp_path, "check", {
            "space": {"space": "qk"},
            "function": {"kind": "builtin", "name": "monomial", "degree": 1},
            "task": "invariance-check",
            "phi": {"a": [0.0, 0.5]},
            "output": {"report": "i.json"},
        })
        assert code == 0
        report = json.loads((tmp_path / "i.json").read_text())
        assert report["relative_deviation"] <= 1e-12

    def test_invariance_failure_exit_code(self, tmp_path):
        # an absurdly tight tolerance forces the failure path
        code = run(tmp_path, "check", {
            "space": QK_LIGHT,
            "function": {"kind": "builtin", "name": "monomial", "degree": 2},
            "task": "invariance-check",
            "phi": {"a": [0.3, 0.2], "lambda": [1.0, 0.0]},
            "tolerance": 1e-12,
        })
        assert code == 4

    def test_check_requires_task(self, tmp_path):
        code = run(tmp_path, "check", {
            "space": BLOCH_LIGHT,
            "function": {"kind": "builtin", "name": "monomial", "degree": 1},
        })
        assert code == 2

    def test_no_partial_files_on_failure(self, tmp_path):
        code = run(tmp_path, "check", {
            "space": {"space": "lip", "alpha": 1.0},
            "function": {"kind": "builtin", "name": "linear"},
            "task": "assumption-check",
            "family": {"kind": "lip_smooth", "ladder": {"levels": 5}},
            "output": {"report": "never.json"},
        })
        assert code == 2
        assert not (tmp_path / "never.json").exists()
        assert not list(tmp_path.glob("*.tmp"))


LIP_SMOOTH_CHECK = {"space": {"space": "lip", "alpha": 0.5},
                    "function": {"kind": "builtin", "name": "holder_cusp",
                                 "exponent": 0.5},
                    "task": "assumption-check",
                    "family": {"kind": "lip_smooth", "ladder": {"levels": 5}}}
BLOCH_NORM = {"space": BLOCH_LIGHT,
              "function": {"kind": "builtin", "name": "monomial", "degree": 1}}
BLOCH_DISTANCE = dict(BLOCH_NORM, approximants={"kind": "dilation",
                                                "ladder": {"levels": 4}})
QK_INVARIANCE = {"space": QK_LIGHT,
                 "function": {"kind": "builtin", "name": "monomial", "degree": 2},
                 "task": "invariance-check",
                 "phi": {"a": [0.3, 0.2], "lambda": [1.0, 0.0]}}
WEIGHTED_ANNULUS = {"space": {"space": "weighted", "weight": {
                        "name": "one_minus_r2",
                        "domain": {"kind": "annulus", "r0": 0.25, "r1": 0.75}}},
                    "function": {"kind": "builtin", "name": "cauchy_kernel"}}
RECT_NORM = {"space": {"space": "rect_bmo"},
             "function": {"kind": "builtin", "name": "step_tensor"}}


def _with(base, **changes):
    payload = json.loads(json.dumps(base))
    for key, value in changes.items():
        block = payload
        *path, last = key.split(".")
        for part in path:
            block = block[part]
        block[last] = value
    return payload


def run_process(tmp_path, command, payload, out=None):
    """The CLI run as a process, so an uncaught exception shows as a traceback
    on stderr; with warnings raised as errors, so a numpy warning does too.
    The output directory is a fresh `out` unless one is given."""
    cfg = write_config(tmp_path, f"{command}.json", payload)
    if out is None:
        out = tmp_path / "out"
        out.mkdir()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "oscillometer.cli",
                           command, "--config", cfg, "--out", str(out)],
                          capture_output=True, text=True, env=env)
    return proc, out


@pytest.mark.parametrize("command,payload", [
    ("check", _with(LIP_SMOOTH_CHECK, family={"kind": "dilation"})),
    ("check", _with(LIP_SMOOTH_CHECK, **{"family.ladder.t0": "x"})),
    ("check", _with(LIP_SMOOTH_CHECK, **{"family.ladder.t0": float("nan")})),
    ("check", _with(LIP_SMOOTH_CHECK, slack="x")),
    ("check", _with(LIP_SMOOTH_CHECK, x_tol_rel="x")),
    ("distance", _with(BLOCH_DISTANCE, **{"approximants.ladder.levels": "abc"})),
    ("norm", _with(BLOCH_NORM, tolerance="x")),
    ("norm", _with(BLOCH_NORM, seed="x")),
    ("check", _with(LIP_SMOOTH_CHECK, **{"family.ladder": 5})),
    ("check", _with(LIP_SMOOTH_CHECK, family="lip_smooth")),
    ("norm", _with(BLOCH_NORM, output="x")),
    ("norm", _with(BLOCH_NORM, space=3)),
    ("norm", _with(BLOCH_NORM, space={"space": "qk", "resolution": "fine"})),
    ("check", _with(LIP_SMOOTH_CHECK, space={"space": "lip", "domain": [0, 1]})),
    ("norm", _with(BLOCH_NORM, function={"kind": "taylor", "coeffs": 5})),
    ("norm", _with(BLOCH_NORM, function="monomial")),
    ("norm", _with(BLOCH_NORM, space={"space": "bmo_circle", "p": "x"})),
    ("norm", _with(BLOCH_NORM, **{"space.resolution.angles": "x"})),
    ("norm", _with(RECT_NORM, space={"space": "rect_bmo",
                                     "resolution": {"midpoints": "x"}})),
    ("norm", _with(RECT_NORM, space={"space": "rect_bmo",
                                     "resolution": {"midpoints": 0}})),
    ("check", _with(QK_INVARIANCE, **{"space.resolution.extra_radii": "x"})),
    ("norm", _with(BLOCH_NORM, **{"function.degree": "x"})),
    ("norm", _with(BLOCH_NORM, function={"kind": "builtin", "name": "log_singular",
                                         "n_coeffs": "x"})),
    ("check", _with(LIP_SMOOTH_CHECK, **{"function.exponent": "x"})),
    ("norm", _with(BLOCH_NORM, output={"report": 5})),
    ("norm", _with(BLOCH_NORM, output={"report": ""})),
    ("check", _with(QK_INVARIANCE, phi={"a": "x"})),
    ("check", _with(QK_INVARIANCE, **{"phi.lambda": [1.0]})),
    ("check", _with(LIP_SMOOTH_CHECK, space={
        "space": "lip", "domain": {"lo": "a", "hi": [1], "step": 0.1}})),
    ("norm", {"space": {"space": "bmo_circle"},
              "function": {"kind": "samples", "values": "x"}}),
    ("norm", {"space": {"space": "bmo_circle", "resolution": {"n_samples": -8}},
              "function": {"kind": "builtin", "name": "step_half"}}),
    ("norm", _with(RECT_NORM, space={"space": "rect_bmo",
                                     "resolution": {"n_samples": -8}})),
    ("norm", {"space": {"space": "lip", "resolution": {"pair_cap": -1}},
              "function": {"kind": "builtin", "name": "linear"}}),
    ("norm", {"space": {"space": "weighted", "resolution": {"uniform_radii": -3}},
              "function": {"kind": "builtin", "name": "cauchy_kernel"}}),
    ("norm", _with(WEIGHTED_ANNULUS, **{"space.weight.domain.r0": "x"})),
    ("norm", _with(WEIGHTED_ANNULUS, **{"space.weight.domain": {
        "kind": "annulus", "r0": 0.25}})),
    ("norm", _with(WEIGHTED_ANNULUS, **{"space.weight.domain": {
        "kind": "box", "x0": -0.5, "x1": 0.5, "y0": -0.5}})),
    ("norm", _with(BLOCH_NORM, function={"kind": "taylor"})),
    ("norm", _with(BLOCH_NORM, function={"kind": "builtin", "name": "poly"})),
    ("norm", _with(WEIGHTED_ANNULUS, **{"space.weight.domain.r0": 0.9})),
    ("norm", _with(WEIGHTED_ANNULUS, **{"space.weight.domain.r0": -0.5})),
    ("norm", _with(BLOCH_NORM, **{"function.name": [1]})),
    ("norm", _with(BLOCH_NORM, **{"function.name": {}})),
    ("distance", _with(BLOCH_DISTANCE, approximants={"kind": [1]})),
    ("check", _with(LIP_SMOOTH_CHECK, family={"kind": {}})),
    ("norm", _with(WEIGHTED_ANNULUS, **{"space.weight.domain.kind": [1]})),
    ("norm", _with(BLOCH_NORM, function={"kind": "builtin", "name": "lacunary",
                                         "top_exp": -1})),
    ("norm", _with(BLOCH_NORM, function={"kind": "builtin", "name": "lacunary",
                                         "top_exp": 10 ** 30})),
    ("check", _with(LIP_SMOOTH_CHECK, space={
        "space": "lip", "domain": {"lo": [0], "hi": [1], "step": 1e-300}})),
    # grid sizes of 1 TiB and more: refused before anything is allocated
    ("norm", _with(RECT_NORM, **{"space.resolution": {"n_samples": 2 ** 24}})),
    ("norm", _with(BLOCH_NORM, **{"space.resolution.uniform_radii": 4096,
                                  "space.resolution.angles": 2 ** 24})),
    ("norm", _with(WEIGHTED_ANNULUS, **{
        "space.weight.domain": {"kind": "box", "x0": -0.5, "x1": 0.5,
                                "y0": -0.5, "y1": 0.5},
        "space.resolution": {"box_nodes": 2 ** 24}})),
    ("check", _with(QK_INVARIANCE, **{"space.resolution.quad_nr": 2 ** 22})),
    # float ladder and domain values whose kernels or node counts overflow
    ("check", _with(LIP_SMOOTH_CHECK, **{"family.ladder.t0": 1e308})),
    ("check", _with(LIP_SMOOTH_CHECK, space={
        "space": "lip", "domain": {"lo": [0], "hi": [1e308], "step": 0.1}})),
    # function data whose evaluation overflows or divides by zero
    ("norm", _with(BLOCH_NORM, function={"kind": "taylor",
                                         "coeffs": [[1, float("inf")], [0, 0.5]]})),
    ("norm", _with(WEIGHTED_ANNULUS, function={"kind": "taylor",
                                               "coeffs": [1e308, 1e308]})),
    ("norm", _with(BLOCH_NORM, function={"kind": "taylor", "coeffs": [10 ** 400]})),
    ("norm", {"space": {"space": "bmo_circle", "p": 1, "resolution": {
                  "n_samples": 1024, "midpoints": 32, "min_len_exp": 1,
                  "max_len_exp": 7}},
              "function": {"kind": "samples",
                           "values": [[1e308 * (j % 2), 0] for j in range(1024)]}}),
    ("norm", {"space": {"space": "bmo_circle"},
              "function": {"kind": "samples", "values": [[10 ** 400, 0]]}}),
    ("norm", {"space": {"space": "lip"},
              "function": {"kind": "builtin", "name": "holder_cusp", "exponent": -1}}),
    ("norm", {"space": {"space": "lip", "domain": {"lo": [-2], "hi": [2], "step": 0.01}},
              "function": {"kind": "builtin", "name": "holder_cusp",
                           "exponent": 1e308}}),
    ("check", _with(QK_INVARIANCE, **{"phi.a": [0.3, 1e308]})),
    ("check", _with(QK_INVARIANCE, **{"phi.lambda": [1e308, 0]})),
    ("check", _with(QK_INVARIANCE, **{"space.resolution.extra_radii": [-0.5]})),
    ("check", _with(QK_INVARIANCE, **{"space.K": {"name": "power", "exponent": 1000}})),
    ("check", _with(QK_INVARIANCE, **{"space.K": {"name": "power", "exponent": 1e6}})),
    ("distance", _with(BLOCH_DISTANCE, output={"report": "r.json",
                                               "profile": "./r.json"})),
], ids=["lip-dilation", "t0-text", "t0-nan", "slack-text",
        "x-tol-rel-text", "levels-text", "tolerance-text", "seed-text",
        "ladder-number", "family-text", "output-text", "space-number",
        "resolution-text", "domain-list", "coeffs-number", "function-text",
        "p-text", "angles-text", "rect-midpoints-text", "rect-midpoints-zero",
        "extra-radii-text", "degree-text", "n-coeffs-text", "exponent-text",
        "report-number", "report-empty", "phi-a-text", "phi-lambda-short",
        "domain-text", "samples-text", "bmo-n-samples-negative",
        "rect-n-samples-negative", "pair-cap-negative", "uniform-radii-negative",
        "annulus-r0-text", "annulus-no-r1", "box-no-y1", "taylor-no-coeffs",
        "poly-no-coeffs", "annulus-reversed", "annulus-r0-negative",
        "name-list", "name-object", "approximants-kind-list", "family-kind-object",
        "domain-kind-list", "top-exp-negative", "top-exp-huge", "box-step-tiny",
        "torus-side-huge", "disc-nodes-huge", "box-nodes-huge",
        "quad-nr-huge", "t0-huge", "hi-huge", "coeffs-inf", "coeffs-huge",
        "coeffs-int-huge", "samples-huge", "samples-int-huge",
        "cusp-exponent-negative", "cusp-exponent-huge", "phi-a-huge",
        "phi-lambda-huge", "extra-radii-negative", "kernel-exponent-1000",
        "kernel-exponent-1e6", "profile-is-report"])
def test_bad_config_exit_code(tmp_path, command, payload):
    proc, out = run_process(tmp_path, command, payload)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "configuration error" in proc.stderr
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("path,value,key", [
    ("space.p", True, "p"), ("space.p", "2", "p"), ("seed", 2.7, "seed"),
    ("space.resolution.n_samples", True, "n_samples"),
    ("space.resolution.midpoints", 32.5, "midpoints"),
    ("function.degree", "3", "degree")])
def test_non_number_refused_naming_key(tmp_path, path, value, key):
    # only a JSON number is a number, and an int key takes only an integral
    # one: each of these used to be cast (true -> 1.0, "2" -> 2.0, 2.7 -> 2)
    base = dict(BMO_STEP, seed=0)
    if path.startswith("function"):
        base = dict(BLOCH_NORM, function={"kind": "builtin", "name": "monomial"})
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(tmp_path, "norm", _with(base, **{path: value}))
    assert code == 2
    assert f"configuration error: '{key}' must be" in err.getvalue()


@pytest.mark.parametrize("case", ["report-under-file", "out-is-file"])
def test_unwritable_output_exit_code(tmp_path, case):
    # a report whose directory is a regular file, and --out naming one: exit
    # 2 before anything is written, the profile staged beside the report too
    plain = tmp_path / "plainfile"
    payload = BLOCH_DISTANCE
    if case == "report-under-file":
        (tmp_path / "out").mkdir()
        plain = tmp_path / "out" / "plainfile"
        payload = _with(BLOCH_DISTANCE, output={"report": "plainfile/x.json"})
    plain.write_text("kept")
    proc, out = run_process(tmp_path, "distance", payload,
                            out=plain if case == "out-is-file" else tmp_path / "out")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "cannot write report" in proc.stderr
    assert plain.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
        ["distance.json", "plainfile"] + (["out"] if case == "report-under-file" else []))


def test_huge_bmo_exponent_exits_cleanly(tmp_path):
    # each arc's deviations are scaled by their largest before the power, so
    # p = 1e308 neither overflows nor underflows: it reads the sup deviation,
    # which for the 1-Lipschitz hat is pi/2, at the ends of a half circle
    proc, out = run_process(tmp_path, "norm", {
        "space": {"space": "bmo_circle", "p": 1e308, "resolution": {
            "n_samples": 1024, "midpoints": 32, "min_len_exp": 1, "max_len_exp": 7}},
        "function": {"kind": "builtin", "name": "triangle"}})
    assert proc.returncode == 0, proc.stderr
    value = json.loads((out / "report.json").read_text())["value"]
    assert value == pytest.approx(math.pi / 2, rel=1e-12)


# cheap jobs of every command and space, the base of the exit-code property;
# the last one names its outputs, one in a subdirectory, and its kernel
QK_OUTPUT = {"space": dict(QK_LIGHT, K={"name": "power", "exponent": 1.0}),
             "function": {"kind": "builtin", "name": "monomial", "degree": 2},
             "output": {"report": "r.json", "profile": "x/p.csv"}}
LIP_DEFAULTS = {"space": {"space": "lip"},
                "function": {"kind": "builtin", "name": "holder_cusp"}}
SMALL_BMO = {"space": "bmo_circle", "p": 1,
             "resolution": {"n_samples": 1024, "midpoints": 32,
                            "min_len_exp": 1, "max_len_exp": 7}}
BMO_STEP = {"space": SMALL_BMO, "function": {"kind": "builtin", "name": "step_half"}}
SMALL_RECT = {"space": "rect_bmo",
              "resolution": {"n_samples": 128, "midpoints": 16,
                             "min_len_exp": 1, "max_len_exp": 6}}
CONTRACT_BASES = [
    ("norm", LIP_DEFAULTS),
    ("distance", BMO_STEP),
    ("distance", {"space": SMALL_BMO,
                  "function": {"kind": "samples",
                               "values": [[(j % 5) / 4, 0.5] for j in range(1024)]},
                  "approximants": {"kind": "poisson_circle", "ladder": {"levels": 4}}}),
    ("distance", BLOCH_DISTANCE),
    ("norm", _with(WEIGHTED_ANNULUS, **{"space.resolution": {
        "uniform_radii": 16, "shells": 8, "angles": 64, "box_nodes": 16}})),
    ("norm", {"space": QK_LIGHT, "function": {"kind": "taylor",
                                              "coeffs": [[1, 0], [0, 0.5], [0.25, -0.5]]}}),
    ("distance", {"space": SMALL_RECT,
                  "function": {"kind": "builtin", "name": "one_variable",
                               "profile": "triangle"}}),
    ("check", {"space": SMALL_BMO, "function": {"kind": "builtin", "name": "triangle"},
               "task": "assumption-check",
               "family": {"kind": "poisson_circle", "ladder": {"levels": 4}}}),
    ("check", _with(LIP_SMOOTH_CHECK, **{"family.ladder": {"levels": 3, "t0": 0.1}})),
    ("check", dict(QK_INVARIANCE, tolerance=0.02)),
    ("distance", QK_OUTPUT),
]
# sample values that are not all JSON numbers: a boolean and a numeric string
# on the circle, a boolean among integers (numpy reads [true, 0] as the
# integers [1, 0]), and a boolean on the box grid
NON_NUMBER_SAMPLES = {
    "bmo-bool-and-text": {"space": SMALL_BMO, "function": {
        "kind": "samples", "values": [[True, 0], ["2", 0]] + [[0.5, 0]] * 1022}},
    "bmo-bool-among-ints": {"space": SMALL_BMO, "function": {
        "kind": "samples", "values": [[True, 0]] + [[j % 3, 0] for j in range(1023)]}},
    "lip-bool": {"space": {"space": "lip"}, "function": {
        "kind": "samples", "values": [True] + [0.5] * 100}},
}
# Taylor coefficients that are not all JSON numbers: a numeric string, a
# boolean, a boolean inside an [re, im] pair, and a pair of three parts
NON_NUMBER_COEFFS = {
    "text": ["2", 0.5],
    "bool": [True, 0.5],
    "bool-in-pair": [[True, 0], [1, 0]],
    "triple": [[1, 0, 0], [0.5, 0]],
}
MUTANTS = [None, "x", -1, -0.5, 0, 1, 2.5, float("nan"), float("inf"), [], {},
           True, [1], {"a": 1}, 10 ** 30, 1e308]
_DELETE = object()


def _leaf_paths(node, path=()):
    """Paths to every value that is not itself an object or a list."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else None)
    if items is None:
        return [path]
    return [p for key, child in items for p in _leaf_paths(child, path + (key,))]


@st.composite
def mutated_configs(draw):
    """A base job with 1-2 leaves deleted or replaced from a fixed set of
    values, huge ones included: a count, exponent or ladder length of 10**30
    or 1e308 is refused against its cap before anything is allocated."""
    command, base = draw(st.sampled_from(CONTRACT_BASES))
    payload = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 2))):
        paths = _leaf_paths(payload)
        if not paths:
            break
        *parents, last = draw(st.sampled_from(paths))
        block = payload
        for key in parents:
            block = block[key]
        value = draw(st.sampled_from([_DELETE] + MUTANTS))
        if value is _DELETE:
            del block[last]
        else:
            block[last] = copy.deepcopy(value)
    return command, payload


@settings(max_examples=200, deadline=None)
@given(mutated_configs())
# a negative centre radius, a kernel sample that overflows, and a report
# where the profile's directory goes
@example(("distance", _with(QK_OUTPUT, **{"space.resolution.extra_radii": [-0.5]})))
@example(("distance", _with(QK_OUTPUT, **{"space.K.exponent": 1e308})))
@example(("distance", _with(QK_OUTPUT, **{"output.report": "x"})))
# a boolean, a numeric string and a fractional seed or count are not numbers
@example(("distance", _with(BMO_STEP, **{"space.p": True})))
@example(("distance", _with(BMO_STEP, **{"space.p": "2"})))
@example(("distance", _with(BMO_STEP, seed=2.7)))
@example(("distance", _with(BMO_STEP, **{"space.resolution.n_samples": True})))
@example(("distance", NON_NUMBER_SAMPLES["bmo-bool-and-text"]))
@example(("norm", NON_NUMBER_SAMPLES["lip-bool"]))
@example(("norm", {"space": BLOCH_LIGHT, "function": {
    "kind": "taylor", "coeffs": NON_NUMBER_COEFFS["text"]}}))
@example(("distance", _with(BLOCH_DISTANCE, function={
    "kind": "builtin", "name": "poly", "coeffs": NON_NUMBER_COEFFS["bool-in-pair"]})))
# a space tag that is a list, a resolution key of another space, and a
# builtin parameter named like the grid argument the builtin is called with
@example(("norm", _with(LIP_DEFAULTS, **{"space.space": ["lip"]})))
@example(("distance", _with(BMO_STEP, **{"space.resolution.angles": 64})))
@example(("distance", _with(BMO_STEP, **{"function.n": 8})))
# keys no block takes: a misspelled top-level block, another space's key, a
# misspelled builtin parameter and kernel key, and Taylor input off the disc
@example(("distance", _with(BMO_STEP, aproximants={"kind": "poisson_circle"})))
@example(("distance", _with(BLOCH_DISTANCE, **{"space.p": 7})))
@example(("distance", _with(BLOCH_DISTANCE, **{"function.degre": 3})))
@example(("distance", _with(QK_OUTPUT, **{"space.K.exp": 2})))
@example(("distance", _with(BMO_STEP, function={"kind": "taylor", "coeffs": [1]})))
# blocks the running command or check task does not read: a ladder for the
# assumption check or an automorphism on distance, and distance's ladder or
# an automorphism on the assumption check
@example(("distance", _with(BLOCH_DISTANCE, family={"kind": "dilation"})))
@example(("distance", _with(BLOCH_DISTANCE, phi={"a": [0.3, 0.2]})))
@example(("check", _with(LIP_SMOOTH_CHECK, approximants={"kind": "lip_smooth"})))
@example(("check", _with(LIP_SMOOTH_CHECK, phi={"a": [0.3, 0.2]})))
def test_exit_code_contract(job):
    # exit 0 success, 2 configuration, 3 numerical, 4 failed check: never a
    # traceback or a warning, never the grid's own shape check (no input may
    # make a grid and its evaluator disagree), no output on 2 or 3, and on 0
    # or 4 only the named outputs, each of which parses
    command, payload = job
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        out = os.path.join(tmp, "out")
        os.mkdir(out)
        with open(cfg, "w") as fh:
            json.dump(payload, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, "--config", cfg, "--out", out])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert "malformed" not in err.getvalue()
        if code in (2, 3):
            assert os.listdir(out) == []
            return
        output = payload.get("output") or {}
        kinds = {output.get("profile", "profile.csv"): "csv",
                 output.get("report", "report.json"): "json"}
        written = [os.path.relpath(os.path.join(top, name), out)
                   for top, _, names in os.walk(out) for name in names]
        assert output.get("report", "report.json") in written
        for name in written:
            with open(os.path.join(out, name)) as fh:
                text = fh.read()
            if kinds[name] == "csv":
                assert text.splitlines()[0] == "scale,tail_sup"
            else:
                json.loads(text)


@pytest.mark.parametrize("case", sorted(NON_NUMBER_SAMPLES))
def test_sample_values_must_be_numbers(tmp_path, case):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(tmp_path, "norm", NON_NUMBER_SAMPLES[case])
    assert code == 2
    assert "configuration error: sample 'values' must be numbers" in err.getvalue()


@pytest.mark.parametrize("case", sorted(NON_NUMBER_COEFFS))
def test_taylor_coeffs_must_be_numbers(tmp_path, case):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(tmp_path, "norm", {"space": BLOCH_LIGHT, "function": {
            "kind": "taylor", "coeffs": NON_NUMBER_COEFFS[case]}})
    assert code == 2
    assert "configuration error: 'coeffs' must be a list of numbers" in err.getvalue()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("space, key", [("bloch", "angels"), ("bloch", "n_samples"),
                                        ("lip", "shells"), ("rect_bmo", "box_nodes")])
def test_unknown_resolution_key_exit_code(tmp_path, space, key):
    # a misspelled key, or another space's, would otherwise run on the
    # default grid as if it had been read
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(tmp_path, "norm", {"space": {"space": space, "resolution": {key: 4}},
                                      "function": {"kind": "builtin", "name": "x"}})
    assert code == 2
    assert (f"unknown resolution key '{key}' for space '{space}'"
            in err.getvalue())


PHI = {"a": [0.3, 0.2], "lambda": [1.0, 0.0]}
DILATION4 = {"kind": "dilation", "ladder": {"levels": 4}}


@pytest.mark.parametrize("command, payload, key, owner, reader", [
    ("distance", _with(BLOCH_DISTANCE, family=DILATION4), "family",
     "assumption-check", "distance"),
    ("distance", _with(BLOCH_DISTANCE, phi=PHI), "phi", "invariance-check", "distance"),
    ("norm", _with(BLOCH_NORM, approximants=DILATION4), "approximants", "distance", "norm"),
    ("check", _with(LIP_SMOOTH_CHECK, approximants=DILATION4), "approximants",
     "distance", "assumption-check"),
    ("check", _with(LIP_SMOOTH_CHECK, phi=PHI), "phi", "invariance-check",
     "assumption-check"),
    ("check", _with(QK_INVARIANCE, family=DILATION4), "family", "assumption-check",
     "invariance-check"),
])
def test_unread_block_exit_code(tmp_path, command, payload, key, owner, reader):
    # a ladder or automorphism block the command or check task does not read
    # would otherwise be dropped, and the run go on as if it had been taken
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(tmp_path, command, payload)
    assert code == 2
    assert (f"configuration error: block '{key}' is read only by {owner}, "
            f"not by {reader}") in err.getvalue()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("domain", [
    {"kind": "annulus", "r0": 0.25, "r1": 0.75},
    {"kind": "box", "x0": -0.5, "x1": 0.5, "y0": -0.5, "y1": 0.5}])
def test_weighted_ambient_norm_off_disc_exit_code(tmp_path, domain):
    # the weighted ambient norm integrates over the unit disc only, so an
    # assumption check on another domain is refused, with no report
    payload = dict(_with(WEIGHTED_ANNULUS, **{"space.weight.domain": domain}),
                   task="assumption-check",
                   family={"kind": "dilation", "ladder": {"levels": 4}})
    payload["space"]["resolution"] = {"uniform_radii": 16, "shells": 8, "angles": 64}
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(tmp_path, "check", payload)
    assert code == 2
    assert "weighted ambient norm implemented on the disc only" in err.getvalue()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command,payload,key", [
    ("distance", _with(BLOCH_DISTANCE, aproximants={"kind": "dilation"}), "aproximants"),
    ("norm", _with(BLOCH_NORM, space={"space": "bloch", "resolutoin": {"angles": 64}}),
     "resolutoin"),
    ("norm", _with(BLOCH_NORM, **{"space.p": 7}), "p"),
    ("norm", _with(BMO_STEP, **{"space.alpha": 0.5}), "alpha"),
    ("norm", _with(QK_OUTPUT, **{"space.K.exp": 2}), "exp"),
    ("norm", _with(QK_OUTPUT, **{"space.K": {"name": "one", "exponent": 2}}), "exponent"),
    ("norm", _with(WEIGHTED_ANNULUS, **{"space.weight.exponent": 2}), "exponent"),
    ("norm", _with(WEIGHTED_ANNULUS, **{"space.weight.domain.x0": 0}), "x0"),
    ("norm", _with(LIP_DEFAULTS, **{"space.domain": {"lo": [0], "hi": [1], "steps": 0.1}}),
     "steps"),
    ("check", _with(QK_INVARIANCE, **{"phi.b": [0, 0]}), "b"),
    ("norm", _with(BLOCH_NORM, output={"reports": "r.json"}), "reports"),
    ("distance", _with(BLOCH_DISTANCE, **{"approximants.levels": 4}), "levels"),
    ("distance", _with(BLOCH_DISTANCE, **{"approximants.ladder.t0": 0.1}), "t0"),
    ("check", _with(LIP_SMOOTH_CHECK, **{"family.ladder.pad_factor": 2}), "pad_factor"),
    ("norm", _with(BLOCH_NORM, **{"function.degre": 3}), "degre"),
    ("norm", _with(BLOCH_NORM, function={"kind": "taylor", "coeffs": [1], "values": [1]}),
     "values"),
    ("norm", _with(BMO_STEP, function={"kind": "samples", "values": [[0, 0]] * 1024,
                                       "coeffs": [1]}), "coeffs"),
    ("norm", _with(BMO_STEP, **{"function.freq": 2}), "freq"),
    ("norm", {"space": SMALL_RECT, "function": {"kind": "builtin", "name": "additive",
                                                "freq": 2}}, "freq"),
    ("norm", _with(LIP_DEFAULTS, **{"function.alpha": 0.5}), "alpha"),
], ids=["top-level", "space-block", "p-off-bmo", "alpha-off-lip", "kernel",
        "kernel-one-exponent", "weight-one-minus-r2-exponent", "weight-domain",
        "lip-domain", "phi", "output", "approximants-block", "ladder-t0-off-lip",
        "ladder-pad-factor", "builtin-parameter", "taylor-block", "samples-block",
        "circle-builtin", "torus-builtin", "box-builtin"])
def test_unknown_key_exit_code(tmp_path, command, payload, key):
    # a key no reader takes is refused by name, before any grid is built:
    # ignored, it would leave the run on defaults it never asked for
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(tmp_path, command, payload)
    assert code == 2
    assert f"configuration error: unknown key '{key}'" in err.getvalue()
    assert [p.name for p in tmp_path.iterdir()] == [f"{command}.json"]


def test_taylor_input_refused_off_the_disc(tmp_path):
    # refused when the function is made, not by the circle grid's evaluator
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(tmp_path, "norm", _with(BMO_STEP, function={"kind": "taylor",
                                                               "coeffs": [1]}))
    assert code == 2
    assert ("configuration error: taylor input not supported for space 'bmo_circle'"
            in err.getvalue())
