"""Batch front end: configure a space, pick a function, run a task, emit
reports.

    oscillometer <norm|distance|check> --config path.json [--out dir] [--seed n]

`norm` and `distance` run the task of their name, `check` the config's task.
One table, `_TASKS`, gives each task its command, its block and its body.
Exit codes: 0 success, 2 configuration error, 4 failed check (a tail
estimate breaking the grid triangle inequality signals an implementation
bug, never a mathematical possibility), 3 numerical failure.  Reports are
JSON with sorted keys, tail profiles additionally CSV; all writes go through
a temp file and an atomic rename so failures never leave partial output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import approx, builtins as fn_registry, distance as dist_mod
from .errors import (ConfigError, NumericalError, check_keys, config_block,
                     config_number, config_numbers)
from .family import seminorm_sup
from .funcrep import TaylorFunction
from .spaces import SpaceDescriptor, build_family, compose_mobius

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4


def _atomic_write(*files: tuple[str, str]) -> None:
    """Write each (path, text) pair through a temp file beside its path, and
    rename the temp files into place only once every one is written.  An
    OSError is a configuration error ("cannot write report") that leaves no
    output: the temp files and the directories made for them go again."""
    made, staged = [], []
    try:
        for path, text in files:
            if os.path.isdir(path):
                raise IsADirectoryError(f"'{path}' is a directory")
            directory = os.path.dirname(os.path.abspath(path))
            missing, up = [], directory
            while not os.path.isdir(up):
                missing.append(up)
                up = os.path.dirname(up)
            for new in reversed(missing):
                os.mkdir(new)
                made.append(new)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            staged.append((tmp, path))
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        for new in reversed(made):
            os.rmdir(new)
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write report: {exc}") from exc
        raise


# the keys a run configuration takes, and those of its optional blocks, each
# read by one task (`_TASKS`)
_RUN_KEYS = ("space", "function", "task", "family", "approximants", "phi",
             "tolerance", "slack", "x_tol_rel", "output", "seed")
_BLOCK_KEYS = {"family": ("kind", "ladder"), "approximants": ("kind", "ladder"),
               "phi": ("a", "lambda")}


class RunConfig:
    """Validated run configuration."""

    def __init__(self, raw: dict, out_dir: str, seed: int):
        check_keys(raw, _RUN_KEYS, "in the config")
        if "space" not in raw:
            raise ConfigError("config needs a 'space' block")
        if "function" not in raw:
            raise ConfigError("config needs a 'function' block")
        if isinstance(raw["space"], str):
            space_block = {"space": raw["space"]}
        else:
            space_block = config_block(raw, "space")
        self.desc = SpaceDescriptor.from_config(space_block)
        self.function_cfg = config_block(raw, "function")
        self.task = raw.get("task")
        self.blocks = {key: config_block(raw, key, keys)
                       for key, keys in _BLOCK_KEYS.items()}
        self.tolerance = config_number(raw, "tolerance", 0.02)
        self.slack = config_number(raw, "slack", 1e-3)   # assumption-check only
        self.x_tol_rel = config_number(raw, "x_tol_rel", 1e-2)
        output = config_block(raw, "output", ("report", "profile"))
        self.report_path = _output_path(out_dir, output, "report", "report.json")
        self.profile_path = _output_path(out_dir, output, "profile", "profile.csv")
        if os.path.abspath(self.report_path) == os.path.abspath(self.profile_path):
            raise ConfigError("output 'report' and 'profile' name the same file")
        self.seed = config_number(raw, "seed", seed, int)


def _output_path(out_dir: str, output: dict, key: str, default: str) -> str:
    name = output.get(key, default)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"output '{key}' must be a file name, got {name!r}")
    return os.path.join(out_dir, name)


def _load_config(args) -> RunConfig:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return RunConfig(raw, args.out, args.seed)


def _norm(cfg: RunConfig):
    f = fn_registry.make_function(cfg.function_cfg, cfg.desc)
    return seminorm_sup(build_family(cfg.desc), f).to_dict(), True, None


def _distance(cfg: RunConfig):
    f = fn_registry.make_function(cfg.function_cfg, cfg.desc)
    grid = build_family(cfg.desc)
    if not cfg.blocks["approximants"]:
        estimate, uncertainty, profile = dist_mod.distance_estimate(
            cfg.desc, f, grid=grid)
        return ({"limsup_estimate": estimate, "uncertainty": uncertainty,
                 "tail_profile": profile.to_rows()}, True, profile)
    fam = approx.family_from_config(cfg.blocks["approximants"], f)
    report = dist_mod.sandwich_check(cfg.desc, f, fam.members, grid=grid,
                                     ids=[f"{fam.kind}[{p}]" for p in fam.parameters])
    return report.to_dict(), report.sandwich_ok, report.tail_profile


def _assumption(cfg: RunConfig):
    f = fn_registry.make_function(cfg.function_cfg, cfg.desc)
    fam = approx.family_from_config(cfg.blocks["family"], f)
    report = approx.assumption_check(cfg.desc, f, fam, slack=cfg.slack,
                                     x_tol_rel=cfg.x_tol_rel)
    payload = dict(report.to_dict(), family=fam.kind,
                   parameters=[float(p) for p in fam.parameters])
    return payload, report.verdict, None


def _invariance(cfg: RunConfig):
    a = complex(*config_numbers(cfg.blocks["phi"], "a", [0.0, 0.0], 2))
    lam_re, lam_im = config_numbers(cfg.blocks["phi"], "lambda", [1.0, 0.0], 2)
    f = fn_registry.make_function(cfg.function_cfg, cfg.desc)
    # composing validates phi, before the grid is built or f evaluated on it
    composed = compose_mobius(f, a, complex(lam_re, lam_im))
    grid = build_family(cfg.desc)
    # the composition has closed forms only, so f is read through its own
    # closed forms too: an exact polynomial would otherwise take the exact
    # Garsia entries and the check would measure the quadrature's error
    closed = TaylorFunction(None, value_fn=f.value, deriv_fn=f.deriv)
    base = seminorm_sup(grid, closed).value
    moved = seminorm_sup(grid, composed).value
    deviation = abs(moved - base) / base if base > 0 else abs(moved)
    payload = {"sup_original": base, "sup_composed": moved,
               "relative_deviation": deviation, "tolerance": cfg.tolerance,
               "phi": {"a": [a.real, a.imag], "lambda": [lam_re, lam_im]}}
    return payload, deviation <= cfg.tolerance, None


# every task: the command it runs under, the one block it reads (None for
# none) and its body, which returns the report's payload, whether the run
# passed, and the tail profile written beside the report (None for none)
_TASKS = {
    "norm": ("norm", None, _norm),
    "distance": ("distance", "approximants", _distance),
    "assumption-check": ("check", "family", _assumption),
    "invariance-check": ("check", "phi", _invariance),
}


def run(command: str, cfg: RunConfig) -> int:
    """Run the config's task under `command`, write its report (and its tail
    profile, if it has one) and return 0, or 4 when the check fails.

    Refused first, in this order: a task the command does not run, an
    invariance check off qk, a block the task does not read (the run would
    otherwise go on without it, as if it had been taken), and a check task
    without the block it reads."""
    checks = [task for task, (under, _, _) in _TASKS.items() if under == "check"]
    if command != "check":
        if cfg.task not in (None, command):
            raise ConfigError(f"config task '{cfg.task}' does not match "
                              f"subcommand '{command}'")
        task = command
    elif cfg.task in checks:
        task = cfg.task
    else:
        raise ConfigError(f"check needs task {' or '.join(map(repr, checks))}")
    _, block, body = _TASKS[task]
    if task == "invariance-check" and cfg.desc.tag != "qk":
        raise ConfigError("invariance-check runs on the invariant-integral space")
    for owner, (_, key, _) in _TASKS.items():
        if key not in (None, block) and cfg.blocks[key]:
            raise ConfigError(f"block '{key}' is read only by {owner}, "
                              f"not by {task}")
    if command == "check" and not cfg.blocks[block]:
        raise ConfigError(f"{task} needs a '{block}' block")
    payload, ok, profile = body(cfg)
    payload.update(space=cfg.desc.tag, seed=cfg.seed)
    files = [(cfg.report_path, json.dumps(payload, sort_keys=True, indent=2) + "\n")]
    if profile is not None:
        files.append((cfg.profile_path, profile.to_csv()))
    _atomic_write(*files)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oscillometer",
        description="grid seminorms, tail-limit distances and approximation "
                    "checks for oscillation-type function spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [("norm", "grid seminorm of a function"),
                            ("distance", "tail-limit distance estimate"),
                            ("check", "assumption or invariance check")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0,
                       help="seed recorded in reports and used by randomized suites")
    args = parser.parse_args(argv)
    try:
        return run(args.command, _load_config(args))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
