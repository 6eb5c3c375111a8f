"""The three seeded workloads.

Each workload builds what its batch shares in `setup()`, then hands out one
pass of tasks at a time from `batch(seed, pass_index)`.  A pass is a fixed
mix of task kinds in a seeded order; every task builds its input anew, so the
per-object caches (`_centred` on circle samples, `_extension_cache` on box
samples) are paid the way a CLI user pays them.  A task returns the list of
problems its output check found.

The mixes put the median and the tail rank of a pass (see run.py) inside a
cluster of task costs, not on the edge between two; the comment above each
mix gives the clusters as measured on the 2-core reference machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from typing import Callable, NamedTuple, Optional

import checks

BMO_N = 131072
RECT_N = 1024
LIP_STEP = 1e-5
LIP_DIAM = 2.0                # the grid_reuse lip domain is [-1, 1]
# a cusp's quotient over a pair through its tip equals its constant c; the
# grid thins the pairs of each offset, but the long pairs that pass next to
# the tip come within this share of c (measured: within 1e-4)
CUSP_FLOOR = 0.01

KNOWN_FALSE_EXIT_4 = (
    "bloch/log_singular with a dilation ladder of 8 levels: the certification "
    "threshold max(1e-2, 5% of ||f||) = 0.1 admits g6, whose own grid tail "
    "(0.060) exceeds the uncertainty the check adds, so sandwich_ok is false "
    "(CLI exit 4)")


class Task(NamedTuple):
    kind: str
    run: Callable[["Context"], list]
    known_defect: Optional[str] = None


class Context:
    """What a running task may use besides its own closure."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def count(self, name: str, amount: float) -> None:
        if self.tracer is not None:
            self.tracer.count(name, amount)


def _expand(mix, rng) -> list:
    """[(maker, count), ...] -> shuffled list of makers, one per task slot."""
    slots = [maker for maker, count in mix for _ in range(count)]
    order = rng.permutation(len(slots))
    return [slots[i] for i in order]


def _pass_rng(seed: int, pass_index: int):
    import numpy as np
    return np.random.default_rng([seed, pass_index])


class _SeededMix:
    """A workload whose pass is its mix(), each maker drawing from the pass's
    generator in the shuffled order."""

    def batch(self, seed: int, pass_index: int) -> list:
        rng = _pass_rng(seed, pass_index)
        return [maker(rng) for maker in _expand(self.mix(), rng)]


def _coeff_list(coeffs) -> list:
    return [[float(c.real), float(c.imag)] for c in coeffs]


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------

def trig_circle(rng, n: int, modes: int = 8):
    """Random trigonometric polynomial of degree `modes` on the n-point
    circle, and its analytic bounds."""
    import numpy as np
    from oscillometer.funcrep import PeriodicSamples
    freqs = np.concatenate([np.arange(1, modes + 1), -np.arange(1, modes + 1)])
    coeffs = rng.normal(size=2 * modes) + 1j * rng.normal(size=2 * modes)
    spec = np.zeros(n, dtype=complex)
    spec[freqs] = coeffs
    return PeriodicSamples(np.fft.ifft(spec) * n), checks.trig_bounds(freqs, coeffs)


def trig_torus(rng, n: int, terms: int = 3, modes: int = 4):
    """Sum of `terms` products of random circle trigonometric polynomials,
    and its analytic bounds."""
    import numpy as np
    from oscillometer.funcrep import TorusSamples
    vals = np.zeros((n, n), dtype=complex)
    factors = []
    for _ in range(terms):
        (g, g_bounds), (h, h_bounds) = trig_circle(rng, n, modes), trig_circle(rng, n, modes)
        vals += np.outer(g.values, h.values)
        factors.append((g_bounds, h_bounds))
    return TorusSamples(vals), checks.torus_bounds(factors)


def random_cusp(rng, domain, alpha: float):
    """Samples of c |x - x0|^alpha at a random grid node x0, and c: the
    Hoelder-alpha constant of the function."""
    import numpy as np
    x = domain.axes()[0]
    x0 = x[rng.integers(0, x.size)]
    c = float(rng.uniform(0.5, 2.0))
    return c * np.abs(x - x0) ** alpha, c


def random_coeffs(rng, degree: int):
    return rng.normal(size=degree) + 1j * rng.normal(size=degree)


def finest_scale(grid) -> float:
    """The finest level of the grid's default ladder that holds an entry: the
    level the limit estimate is taken at."""
    scales = grid.default_scales
    held = [t for t in scales if (grid.remoteness <= t * (1 + 1e-12)).any()]
    return float(held[-1])


# ---------------------------------------------------------------------------
# grid_reuse: many functions against grids built once
# ---------------------------------------------------------------------------

class GridReuse(_SeededMix):
    """distance_estimate on fresh functions against the acceptance-resolution
    grids of all six spaces, built once in setup."""

    name = "grid_reuse"

    def setup(self) -> None:
        import numpy as np
        from oscillometer.funcrep import BoxDomain
        from oscillometer.spaces import SpaceDescriptor, build_family
        descs = {
            "bmo_p1": SpaceDescriptor("bmo_circle", p=1.0,
                                      resolution={"n_samples": BMO_N}),
            "bmo_p2": SpaceDescriptor("bmo_circle", p=2.0,
                                      resolution={"n_samples": BMO_N}),
            "bloch": SpaceDescriptor("bloch"),
            "qk": SpaceDescriptor("qk"),
            "weighted": SpaceDescriptor("weighted"),
            "rect_bmo": SpaceDescriptor("rect_bmo", resolution={"n_samples": RECT_N}),
            "lip": SpaceDescriptor("lip", alpha=0.5,
                                   lip_domain=BoxDomain([-1.0], [1.0], LIP_STEP)),
        }
        self.spaces = {k: (d, build_family(d)) for k, d in descs.items()}
        # the node of each entry (w, z or the centre a), for the reference
        # values of the Taylor inputs
        self.nodes = {k: np.array([p[0] for p in self.spaces[k][1].params])
                      for k in ("bloch", "weighted", "qk")}

    # costs per task: bmo_p2, bloch, weighted under 10 ms (8 slots); lip
    # 50-65 ms (9 slots); bmo_p1 about 0.23 s (9 slots, holding the median);
    # qk 0.35-0.4 s (12 slots) and rect_bmo 0.35-0.45 s (2), holding the tail
    # rank 29.  The lip tasks are memory-bound and drift more with the
    # machine than the others, so they hold neither statistic.
    def mix(self):
        return [
            (lambda r: self._named("bmo_p2", "step_half"), 1),
            (lambda r: self._given("bmo_p2", trig_circle(r, BMO_N)), 1),
            (lambda r: self._named("bloch", "log_singular", "bloch/log_singular"), 1),
            (lambda r: self._taylor("bloch", r), 2),
            (lambda r: self._named("weighted", "cauchy_kernel", "weighted/cauchy_kernel"), 1),
            (lambda r: self._taylor("weighted", r), 2),
            (lambda r: self._named("lip", "holder_cusp", "lip/holder_cusp"), 1),
            (self._cusp, 8),
            (lambda r: self._named("bmo_p1", "step_half", "bmo_circle/step_half"), 1),
            (lambda r: self._given("bmo_p1", trig_circle(r, BMO_N)), 8),
            (lambda r: self._taylor("qk", r), 12),
            (lambda r: self._named("rect_bmo", "step_tensor", "rect_bmo/step_tensor"), 1),
            (lambda r: self._given("rect_bmo", trig_torus(r, RECT_N)), 1),
        ]

    def _estimate(self, key: str, make, pinned=None, bounds=None, floor=None,
                  reference=None) -> list:
        from oscillometer.distance import distance_estimate
        desc, grid = self.spaces[key]
        f = make(desc)
        est, _, profile = distance_estimate(desc, f, grid=grid)
        # every default ladder starts at the largest remoteness, so its first
        # level is the grid seminorm; the estimate is its last nonempty level
        scales, sups = profile.nonempty()
        return checks.check_distance(est, float(sups[0]), float(scales[-1]),
                                     pinned, bounds, floor, reference)

    def _named(self, key, name, pinned=None) -> Task:
        from oscillometer import builtins as fns
        return Task(f"{key}/{name}", lambda ctx: self._estimate(
            key, lambda d: fns.make_function({"kind": "builtin", "name": name}, d),
            pinned))

    def _taylor(self, key, rng, degree: int = 12) -> Task:
        from oscillometer import builtins as fns
        coeffs = random_coeffs(rng, degree)
        cfg = {"kind": "taylor", "coeffs": _coeff_list(coeffs)}
        # computed here, outside the timed task
        grid = self.spaces[key][1]
        reference = checks.taylor_reference(key, coeffs, self.nodes[key], grid.remoteness,
                                            finest_scale(grid))
        return Task(f"{key}/taylor", lambda ctx: self._estimate(
            key, lambda d: fns.make_function(cfg, d), reference=reference))

    def _given(self, key, made) -> Task:
        # a fresh object per run: the seeded values, none of the caches
        prototype, bounds = made
        values = prototype.values
        cls = type(prototype)
        return Task(f"{key}/trig", lambda ctx: self._estimate(
            key, lambda d: cls(values), bounds=bounds))

    def _cusp(self, rng) -> Task:
        from oscillometer.funcrep import EuclideanSamples
        desc, _ = self.spaces["lip"]
        values, c = random_cusp(rng, desc.lip_domain, desc.alpha)
        bounds = checks.holder_bounds(c, desc.alpha, desc.alpha, LIP_DIAM)
        return Task("lip/cusp", lambda ctx: self._estimate(
            "lip", lambda d: EuclideanSamples(d.lip_domain, values, d.alpha),
            bounds=bounds, floor=(1.0 - CUSP_FLOOR) * c))


# ---------------------------------------------------------------------------
# approx_ladders: one ladder per task, checked against a prebuilt grid
# ---------------------------------------------------------------------------

QK_LIGHT = {"shell_from": 2, "shell_to": 6, "extra_radii": (0.25, 0.5),
            "angles": 64, "quad_nr": 32, "quad_ntheta": 64}
APPROX_BMO_N = 16384
APPROX_RECT = {"n_samples": 256, "midpoints": 32}
LIP1_STEP = 1e-4
LIP2_NODES = 33


class ApproxLadders(_SeededMix):
    """Ladder generation plus sandwich_check / assumption_check."""

    name = "approx_ladders"

    def setup(self) -> None:
        from oscillometer.funcrep import BoxDomain
        from oscillometer.spaces import SpaceDescriptor, build_family
        step2 = 2.0 / (LIP2_NODES - 1)
        descs = {
            "bmo_circle": SpaceDescriptor("bmo_circle", p=1.0,
                                          resolution={"n_samples": APPROX_BMO_N}),
            "rect_bmo": SpaceDescriptor("rect_bmo", resolution=dict(APPROX_RECT)),
            "bloch": SpaceDescriptor("bloch"),
            "qk": SpaceDescriptor("qk", resolution=dict(QK_LIGHT)),
            "lip1": SpaceDescriptor("lip", alpha=0.5,
                                    lip_domain=BoxDomain([-1.0], [1.0], LIP1_STEP)),
            "lip2": SpaceDescriptor("lip", alpha=0.5,
                                    lip_domain=BoxDomain([-1.0, -1.0], [1.0, 1.0], step2)),
        }
        self.spaces = {k: (d, build_family(d)) for k, d in descs.items()}

    # costs per task: the bloch rows 50-70 ms and the qk sandwich 90-160 ms
    # (8 slots, ranks 1-8); the bmo sandwich 0.21-0.25 s (16 slots, ranks
    # 9-24, holding both the median, 15.5, and the tail rank 20 inside the
    # cluster; the qk rows, which run on worker threads, vary too much to
    # hold either); the bmo assumption row about 0.35 s; one each of the
    # lacunary and rect_bmo sandwiches (0.8 s), the rect_bmo assumption row
    # and the two lip rows (1.1-1.7 s)
    def mix(self):
        return [
            (self._known_defect, 1),
            (self._bloch_assumption, 6),
            (self._qk_sandwich, 1),
            (self._bmo_sandwich, 16),
            (self._bmo_assumption, 1),
            (self._lacunary_sandwich, 1),
            (self._rect_sandwich, 1),
            (self._rect_assumption, 1),
            (self._lip1_sandwich, 1),
            (self._lip2_sandwich, 1),
        ]

    def _sandwich(self, key, make_f, make_fam) -> list:
        from oscillometer.distance import sandwich_check
        desc, grid = self.spaces[key]
        f = make_f()
        fam = make_fam(f)
        report = sandwich_check(desc, f, fam.members,
                                ids=[str(p) for p in fam.parameters], grid=grid)
        return checks.check_sandwich(report)

    def _assumption(self, key, make_f, make_fam) -> list:
        from oscillometer.approx import assumption_check
        desc, grid = self.spaces[key]
        f = make_f()
        return checks.check_assumption(assumption_check(desc, f, make_fam(f),
                                                        grid=grid))

    def _known_defect(self, rng) -> Task:
        from oscillometer import approx, builtins as fns
        return Task("bloch/log_singular+dilation8/sandwich", lambda ctx: self._sandwich(
            "bloch", lambda: fns.log_singular(), lambda f: approx.dilation_family(f, 8)),
            known_defect=KNOWN_FALSE_EXIT_4)

    def _bloch_assumption(self, rng) -> Task:
        from oscillometer import approx
        from oscillometer.funcrep import TaylorFunction
        coeffs = random_coeffs(rng, 4)
        return Task("bloch/taylor+dilation10/assumption", lambda ctx: self._assumption(
            "bloch", lambda: TaylorFunction.polynomial(coeffs),
            lambda f: approx.dilation_family(f, 10)))

    def _lacunary_sandwich(self, rng) -> Task:
        from oscillometer import approx, builtins as fns
        c = float(rng.uniform(0.5, 2.0))
        return Task("bloch/lacunary+dilation5/sandwich", lambda ctx: self._sandwich(
            "bloch", lambda: fns.lacunary() * c, lambda f: approx.dilation_family(f, 5)))

    def _qk_sandwich(self, rng) -> Task:
        from oscillometer import approx, builtins as fns
        c = float(rng.uniform(0.5, 2.0))
        return Task("qk/z^2+fejer4/sandwich", lambda ctx: self._sandwich(
            "qk", lambda: fns.monomial(2) * c, lambda f: approx.fejer_family(f, 4)))

    def _bmo_sandwich(self, rng) -> Task:
        from oscillometer import approx, builtins as fns
        c = float(rng.uniform(0.5, 2.0))
        return Task("bmo_circle/step_half+poisson4/sandwich", lambda ctx: self._sandwich(
            "bmo_circle", lambda: fns.circle_builtin("step_half", APPROX_BMO_N) * c,
            lambda f: approx.poisson_family(f, 4)))

    def _bmo_assumption(self, rng) -> Task:
        from oscillometer import approx
        from oscillometer.funcrep import PeriodicSamples
        values = trig_circle(rng, APPROX_BMO_N, modes=4)[0].values
        return Task("bmo_circle/trig+poisson10/assumption", lambda ctx: self._assumption(
            "bmo_circle", lambda: PeriodicSamples(values),
            lambda f: approx.poisson_family(f, 10)))

    def _rect_sandwich(self, rng) -> Task:
        from oscillometer import approx, builtins as fns
        c = float(rng.uniform(0.5, 2.0))
        n = APPROX_RECT["n_samples"]
        return Task("rect_bmo/step_tensor+poisson4/sandwich", lambda ctx: self._sandwich(
            "rect_bmo", lambda: fns.torus_builtin("step_tensor", n) * c,
            lambda f: approx.poisson_torus_family(f, 4)))

    def _rect_assumption(self, rng) -> Task:
        from oscillometer import approx, builtins as fns
        c = float(rng.uniform(0.5, 2.0))
        n = APPROX_RECT["n_samples"]
        return Task("rect_bmo/triangle_tensor+poisson8/assumption",
                    lambda ctx: self._assumption(
                        "rect_bmo", lambda: fns.torus_builtin("triangle_tensor", n) * c,
                        lambda f: approx.poisson_torus_family(f, 8)))

    def _lip1_sandwich(self, rng) -> Task:
        from oscillometer import approx, builtins as fns
        desc, _ = self.spaces["lip1"]
        c = float(rng.uniform(0.5, 2.0))
        return Task("lip1d/holder_cusp+smooth5/sandwich", lambda ctx: self._sandwich(
            "lip1", lambda: fns.box_builtin("holder_cusp", desc.lip_domain, 0.5) * c,
            lambda f: approx.lip_smooth_family(f, levels=5, t0=0.1)))

    def _lip2_sandwich(self, rng) -> Task:
        # 17^2 has fewer than 6 dyadic levels and is refused; 33^2 is the
        # smallest 2-d grid the family accepts
        from oscillometer import approx, builtins as fns
        desc, _ = self.spaces["lip2"]
        c = float(rng.uniform(0.5, 2.0))
        return Task("lip2d/holder_cusp+smooth/sandwich", lambda ctx: self._sandwich(
            "lip2", lambda: fns.box_builtin("holder_cusp", desc.lip_domain, 0.5) * c,
            lambda f: approx.lip_smooth_family(f, levels=5, t0=0.4, pad_factor=1.0)))


# ---------------------------------------------------------------------------
# cli_jobs: oscillometer.cli.main on generated config files
# ---------------------------------------------------------------------------

TAYLOR_SPACES = ("bloch", "qk", "weighted")
ADDITIVE_ZERO = 1e-9


class CliJobs:
    """In-process CLI jobs at default resolution, each building its own grid
    and writing its reports into a scratch directory."""

    name = "cli_jobs"
    spaces: dict = {}         # every job builds its own grid

    def __init__(self, scratch: str):
        self.scratch = scratch

    def setup(self) -> None:
        import oscillometer.cli  # noqa: F401  (imports are the whole set-up)
        os.makedirs(self.scratch, exist_ok=True)

    # costs per job (a repeated job counts twice): lip jobs and the refused
    # config under 20 ms (22 slots, ranks 1-22); the bloch and weighted
    # norms and the weighted distances 70-80 ms (12 slots, ranks 23-34,
    # holding the median 28.5 in their middle); the bloch distances and the
    # distances with approximants 90-150 ms (6); qk distances about 0.17 s
    # (2); the qk norm and the bmo_circle jobs 0.22-0.3 s (9 slots, ranks
    # 43-51, holding the tail rank 46; mostly bmo_circle, since the qk norm's
    # worker threads make its cost vary more); the invariance check and
    # rect_bmo jobs 0.45-0.7 s (4) and the 13-level assumption check about
    # 3.5-4 s (1)
    def mix(self):
        return [
            (lambda r: self._job("norm", "lip", r), 12),
            (lambda r: self._job("distance", "lip", r), 6),
            (lambda r: self._job("distance", "lip", r, approximants=True), 1),
            (lambda r: self._job("distance", "lip", r, repeat=True), 1),
            (self._refused, 1),
            (lambda r: self._job("norm", "bloch", r), 4),
            (lambda r: self._job("norm", "weighted", r), 4),
            (lambda r: self._job("distance", "bloch", r), 2),
            (lambda r: self._job("distance", "weighted", r), 2),
            (lambda r: self._job("distance", "bloch", r, approximants=True), 1),
            (lambda r: self._job("distance", "weighted", r, approximants=True), 1),
            (lambda r: self._job("distance", "bloch", r, repeat=True), 1),
            (lambda r: self._job("distance", "weighted", r, repeat=True), 1),
            (lambda r: self._job("norm", "qk", r), 1),
            (lambda r: self._job("distance", "qk", r, repeat=True), 1),
            (self._invariance, 1),
            (lambda r: self._job("norm", "bmo_circle", r), 6),
            (lambda r: self._job("distance", "bmo_circle", r, repeat=True), 1),
            (lambda r: self._job("norm", "rect_bmo", r), 1),
            (lambda r: self._job("distance", "rect_bmo", r, repeat=True), 1),
            (self._assumption, 1),
        ]

    def batch(self, seed: int, pass_index: int) -> list:
        rng = _pass_rng(seed, pass_index)
        # one pass's outputs at a time: the previous pass is done with them
        self._pass_dir = os.path.join(self.scratch, "pass")
        shutil.rmtree(self._pass_dir, ignore_errors=True)
        os.makedirs(self._pass_dir)
        self._slot = 0
        self._seed = seed
        tasks = []
        for maker in _expand(self.mix(), rng):
            made = maker(rng)
            tasks.extend(made if isinstance(made, list) else [made])
        return tasks

    def _function(self, space: str, rng) -> tuple:
        """A seeded function block, with the pinned range of a named builtin
        or the analytic bounds of the input (either may be None)."""
        import numpy as np
        pick = int(rng.integers(0, 3))
        if space in TAYLOR_SPACES:
            if pick == 0:
                named = {"bloch": "log_singular", "weighted": "cauchy_kernel",
                         "qk": "log_singular"}[space]
                pin = {"bloch": "bloch/log_singular",
                       "weighted": "weighted/cauchy_kernel"}.get(space)
                return {"kind": "builtin", "name": named}, pin, None
            if pick == 1:
                degree = int(rng.integers(1, 9))
                coeffs = np.zeros(degree)
                coeffs[-1] = 1.0
                return ({"kind": "builtin", "name": "monomial", "degree": degree},
                        None, checks.taylor_bounds(space, coeffs))
            coeffs = random_coeffs(rng, 8)
            return ({"kind": "taylor", "coeffs": _coeff_list(coeffs)},
                    None, checks.taylor_bounds(space, coeffs))
        # the triangle is |theta - pi|: within pi/2 of pi/2, 1-Lipschitz
        triangle = checks.circle_bounds(np.pi / 2, 1.0)
        if space == "bmo_circle":
            if pick == 0:
                return {"kind": "builtin", "name": "step_half"}, "bmo_circle/step_half", None
            if pick == 1:
                return {"kind": "builtin", "name": "triangle"}, None, triangle
            freq = int(rng.integers(1, 17))
            return ({"kind": "builtin", "name": "cosine", "freq": freq}, None,
                    checks.trig_bounds([freq, -freq], [0.5, 0.5]))
        if space == "rect_bmo":
            if pick == 0:
                return {"kind": "builtin", "name": "step_tensor"}, "rect_bmo/step_tensor", None
            if pick == 1:
                return ({"kind": "builtin", "name": "triangle_tensor"}, None,
                        checks.torus_bounds([(triangle, triangle)]))
            # g(zeta) + g(lambda) is in the kernel of the rectangular
            # oscillation: every value vanishes up to rounding
            return ({"kind": "builtin", "name": "additive"}, None,
                    checks.Bounds(ADDITIVE_ZERO, lambda t: ADDITIVE_ZERO))
        if pick == 0:
            return {"kind": "builtin", "name": "holder_cusp"}, "lip/holder_cusp", None
        # x^e on the default domain [0, 1]
        exponent = round(float(rng.uniform(0.5, 1.0)), 6)
        return ({"kind": "builtin", "name": "holder_cusp", "exponent": exponent},
                None, checks.holder_bounds(1.0, exponent, 0.5, 1.0))

    def _write_config(self, config: dict) -> tuple:
        self._slot += 1
        job_dir = os.path.join(self._pass_dir, f"job{self._slot}")
        os.makedirs(job_dir)
        path = os.path.join(job_dir, "config.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        return path, job_dir

    def _job(self, command: str, space: str, rng, approximants: bool = False,
             repeat: bool = False):
        function, pin, bounds = self._function(space, rng)
        config = {"space": {"space": space}, "function": function,
                  "output": {"report": "report.json", "profile": "profile.csv"}}
        if approximants:
            ladder = {"bloch": ("dilation", 6), "weighted": ("dilation", 6),
                      "lip": ("lip_smooth", 5)}[space]
            config["approximants"] = {"kind": ladder[0],
                                      "ladder": {"levels": ladder[1]}}
        kind = f"{command}/{space}" + ("+approximants" if approximants else "")
        path, out = self._write_config(config)
        first = self._cli_task(kind, command, path, out, 0, pin, bounds)
        if not repeat:
            return first
        # the same job again into another directory: reports must be
        # byte-identical (the determinism contract)
        _, out2 = self._write_config(config)
        second = self._cli_task(kind + "/repeat", command, path, out2, 0, pin, bounds,
                                same_as=out)
        return [first, second]

    def _refused(self, rng) -> Task:
        config = {"space": {"space": "lip", "alpha": 1.0},
                  "function": {"kind": "builtin", "name": "linear"},
                  "task": "assumption-check",
                  "family": {"kind": "lip_smooth", "ladder": {"levels": 5}},
                  "output": {"report": "report.json"}}
        path, out = self._write_config(config)
        return self._cli_task("check/lip_alpha1_refused", "check", path, out, 2)

    def _invariance(self, rng) -> Task:
        a = [round(float(v), 6) for v in rng.uniform(-0.4, 0.4, size=2)]
        config = {"space": {"space": "qk"},
                  "function": {"kind": "builtin", "name": "monomial",
                               "degree": int(rng.integers(1, 4))},
                  "task": "invariance-check",
                  "phi": {"a": a, "lambda": [1.0, 0.0]}, "tolerance": 0.02,
                  "output": {"report": "report.json"}}
        path, out = self._write_config(config)
        return self._cli_task("check/qk_invariance", "check", path, out, 0,
                              expect={"relative_deviation": (0.0, 0.02)})

    def _assumption(self, rng) -> Task:
        # the README's example: 13 Poisson levels on the step
        config = {"space": {"space": "bmo_circle", "p": 1},
                  "function": {"kind": "builtin", "name": "step_half"},
                  "task": "assumption-check",
                  "family": {"kind": "poisson_circle", "ladder": {"levels": 13}},
                  "output": {"report": "report.json"}}
        path, out = self._write_config(config)
        return self._cli_task("check/bmo_assumption13", "check", path, out, 0)

    def _cli_task(self, kind, command, config_path, out_dir, expected_exit,
                  pin=None, bounds=None, expect=None, same_as=None) -> Task:
        seed = self._seed

        def run(ctx: Context) -> list:
            from oscillometer import cli
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = cli.main([command, "--config", config_path,
                                 "--out", out_dir, "--seed", str(seed)])
            outputs = _read_outputs(out_dir)
            ctx.count("cli.report_bytes", sum(len(b) for b in outputs.values()))
            report = outputs.get("report.json")
            problems = checks.check_cli(expected_exit, code,
                                        None if report is None else report.decode(),
                                        pin, bounds, expect)
            if "Traceback" in stderr.getvalue():
                problems.append("traceback on stderr")
            if code == 0 and command == "distance" and "profile.csv" not in outputs:
                problems.append("distance job wrote no profile")
            if same_as is not None and outputs != _read_outputs(same_as):
                problems.append("repeated job's output is not byte-identical")
            return problems

        return Task(kind, run)


def _read_outputs(directory: str) -> dict:
    """Report files a job left in its directory (the config excluded)."""
    found = {}
    for name in sorted(os.listdir(directory)):
        if name != "config.json":
            with open(os.path.join(directory, name), "rb") as fh:
                found[name] = fh.read()
    return found


def make(name: str, scratch: str):
    if name == "grid_reuse":
        return GridReuse()
    if name == "approx_ladders":
        return ApproxLadders()
    if name == "cli_jobs":
        return CliJobs(scratch)
    raise ValueError(f"unknown workload '{name}'")


WORKLOADS = ("grid_reuse", "approx_ladders", "cli_jobs")
