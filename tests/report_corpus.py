"""Run a fixed corpus of CLI jobs in process against the package under SRC
and write everything they leave under OUT.

    python tests/report_corpus.py SRC OUT

Each job gets the directory OUT/<job>: its config (config.json), the reports
it writes, and what it printed on stderr (stderr.txt).  OUT/exit_codes.txt
lists every job with its exit code.  Two trees, for example of a commit and
its parent, are compared with `diff -r OUT_PARENT OUT_CHANGE`: every report,
message and exit code that moved shows.  The script exits 1 when a job's
exit code is not the one listed for it here.

The jobs are norm, distance, distance with approximants (the sandwich) and
the assumption check on all six spaces at light resolutions, the qk
invariance check, weighted on an annulus and a box, lip in 2-d and on
strata, bmo at p = 1.5 and on every midpoint, ladders that reach past their
resolution keys, configs refused for keys no reader takes, and configs
refused for blocks the command does not read.
"""

import contextlib
import io
import json
import os
import sys

BMO = {"space": "bmo_circle", "p": 1,
       "resolution": {"n_samples": 4096, "midpoints": 128, "min_len_exp": 2,
                      "max_len_exp": 8}}
BLOCH = {"space": "bloch",
         "resolution": {"uniform_radii": 64, "shells": 8, "angles": 128}}
QK = {"space": "qk",
      "resolution": {"shell_from": 2, "shell_to": 7, "extra_radii": [0.25, 0.5],
                     "angles": 32, "quad_nr": 24, "quad_ntheta": 64}}
WEIGHTED = {"space": "weighted",
            "resolution": {"uniform_radii": 32, "shells": 8, "angles": 128}}
LIP = {"space": "lip", "alpha": 0.5}
RECT = {"space": "rect_bmo",
        "resolution": {"n_samples": 128, "midpoints": 16, "min_len_exp": 1,
                       "max_len_exp": 6}}
ANNULUS = {"kind": "annulus", "r0": 0.25, "r1": 0.75}
BOX = {"kind": "box", "x0": -0.5, "x1": 0.5, "y0": -0.5, "y1": 0.5}


def builtin(name, **params):
    return {"kind": "builtin", "name": name, **params}


def ladder(kind, levels, **extra):
    return {"kind": kind, "ladder": {"levels": levels, **extra}}


def space_jobs(tag, space, f, kind, sandwich_levels, check_f, check_levels,
               check_exit=0):
    """norm, distance, sandwich and assumption-check jobs of one space."""
    return [
        (f"{tag}-norm", "norm", {"space": space, "function": f}, 0),
        (f"{tag}-distance", "distance", {"space": space, "function": f}, 0),
        (f"{tag}-sandwich", "distance", {"space": space, "function": f,
                                         "approximants": ladder(kind, sandwich_levels)}, 0),
        (f"{tag}-assumption", "check", {"space": space, "function": check_f,
                                        "task": "assumption-check",
                                        "family": ladder(kind, check_levels)}, check_exit),
    ]


# (job, command, config, expected exit code)
JOBS = [
    *space_jobs("bmo", BMO, builtin("step_half"), "poisson_circle", 6,
                builtin("triangle"), 8),
    *space_jobs("bloch", BLOCH, builtin("log_singular"), "dilation", 4,
                {"kind": "taylor", "coeffs": [[1, 0], [0.5, -0.5], [0, 0.25]]}, 8),
    *space_jobs("qk", QK, builtin("monomial", degree=2), "fejer", 4,
                builtin("poly", coeffs=[[0, 0], [1, 0], [0, 0.5]]), 8),
    *space_jobs("weighted", WEIGHTED, builtin("cauchy_kernel"), "dilation", 6,
                builtin("monomial", degree=3), 12),
    # the cusp's smoothing ladder stops at the default grid's step before
    # its ambient distance falls under the tolerance
    *space_jobs("lip", LIP, builtin("holder_cusp"), "lip_smooth", 5,
                builtin("holder_cusp"), 5, check_exit=4),
    *space_jobs("rect", RECT, builtin("step_tensor"), "poisson_torus", 4,
                builtin("triangle_tensor"), 12),
]
JOBS += [
    ("qk-invariance", "check",
     {"space": QK, "function": builtin("monomial", degree=2),
      "task": "invariance-check", "phi": {"a": [0.3, 0.2], "lambda": [1.0, 0.0]}}, 0),
    ("weighted-annulus", "distance",
     {"space": dict(WEIGHTED, weight={"name": "one_minus_r2", "domain": ANNULUS}),
      "function": builtin("cauchy_kernel")}, 0),
    ("weighted-box", "distance",
     {"space": dict(WEIGHTED, weight={"name": "power_dist", "exponent": 1.0,
                                      "domain": BOX}),
      "function": builtin("cauchy_kernel")}, 0),
    ("lip-2d", "distance",
     {"space": dict(LIP, domain={"lo": [-1, -1], "hi": [1, 1], "step": 0.0625}),
      "function": builtin("holder_cusp")}, 0),
    ("lip-strata", "distance",
     {"space": dict(LIP, domain={"lo": [-1], "hi": [1], "step": 0.001},
                    resolution={"pair_cap": 100000}),
      "function": builtin("holder_cusp")}, 0),
    ("bmo-p1.5", "distance",
     {"space": dict(BMO, p=1.5), "function": builtin("triangle")}, 0),
    ("bmo-all-midpoints", "distance",
     {"space": dict(BMO, resolution={"n_samples": 1024, "midpoints": "all",
                                     "min_len_exp": 1, "max_len_exp": 7}),
      "function": builtin("step_half")}, 0),
    # ladders set by the remoteness, not by the resolution keys: no centre
    # point, a centre ring past shell_to, more than 24 levels, and a box that
    # reaches deeper than `shells`
    ("corner-disc-no-centre", "distance",
     {"space": dict(BLOCH, resolution={"uniform_radii": 0, "shells": 8, "angles": 128}),
      "function": builtin("log_singular")}, 0),
    ("corner-qk-deep-ring", "distance",
     {"space": dict(QK, resolution=dict(QK["resolution"], extra_radii=[0.5, 0.99609375])),
      "function": builtin("monomial", degree=2)}, 0),
    ("corner-weighted-30-shells", "distance",
     {"space": dict(WEIGHTED, resolution={"uniform_radii": 4, "shells": 30, "angles": 16}),
      "function": builtin("cauchy_kernel")}, 0),
    ("corner-weighted-box-2-shells", "distance",
     {"space": dict(WEIGHTED, weight={"domain": BOX}, resolution={"shells": 2}),
      "function": builtin("cauchy_kernel")}, 0),
    # keys no reader takes, and Taylor input on a circle space
    ("refused-top-level-key", "distance",
     {"space": BLOCH, "function": builtin("log_singular"),
      "aproximants": ladder("dilation", 4)}, 2),
    ("refused-space-key", "norm",
     {"space": {"space": "bloch", "resolutoin": {"angles": 64}},
      "function": builtin("monomial", degree=1)}, 2),
    ("refused-p-off-bmo", "norm",
     {"space": dict(BLOCH, p=7), "function": builtin("monomial", degree=1)}, 2),
    ("refused-builtin-parameter", "norm",
     {"space": BLOCH, "function": builtin("monomial", degre=3)}, 2),
    ("refused-taylor-on-circle", "norm",
     {"space": BMO, "function": {"kind": "taylor", "coeffs": [1]}}, 2),
    # blocks another command or check task reads
    ("refused-family-on-distance", "distance",
     {"space": BLOCH, "function": builtin("log_singular"),
      "family": ladder("dilation", 4)}, 2),
    ("refused-phi-on-distance", "distance",
     {"space": BLOCH, "function": builtin("log_singular"),
      "phi": {"a": [0.3, 0.2], "lambda": [1.0, 0.0]}}, 2),
    ("refused-approximants-on-check", "check",
     {"space": BLOCH, "function": builtin("log_singular"), "task": "assumption-check",
      "family": ladder("dilation", 4), "approximants": ladder("dilation", 4)}, 2),
    ("refused-phi-on-assumption-check", "check",
     {"space": BLOCH, "function": builtin("log_singular"), "task": "assumption-check",
      "family": ladder("dilation", 4),
      "phi": {"a": [0.3, 0.2], "lambda": [1.0, 0.0]}}, 2),
]


def run_job(main, out_dir, command, config) -> int:
    os.makedirs(out_dir)
    path = os.path.join(out_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh, sort_keys=True, indent=2)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", path, "--out", out_dir, "--seed", "0"])
    with open(os.path.join(out_dir, "stderr.txt"), "w") as fh:
        fh.write(err.getvalue())
    return code


def main_corpus(src: str, out: str) -> int:
    sys.path.insert(0, os.path.abspath(src))
    from oscillometer.cli import main
    os.makedirs(out, exist_ok=True)
    lines, wrong = [], []
    for name, command, config, expected in JOBS:
        code = run_job(main, os.path.join(out, name), command, config)
        lines.append(f"{name} {code}\n")
        if code != expected:
            wrong.append(f"{name}: exit {code}, listed {expected}")
    with open(os.path.join(out, "exit_codes.txt"), "w") as fh:
        fh.writelines(lines)
    print(f"{len(JOBS)} jobs written under {out}")
    for line in wrong:
        print(line)
    return 1 if wrong else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main_corpus(*sys.argv[1:]))
