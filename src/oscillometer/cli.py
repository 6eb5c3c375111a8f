"""Batch front end: configure a space, pick a function, run a task, emit
reports.

    oscillometer <norm|distance|check> --config path.json [--out dir] [--seed n]

Exit codes: 0 success, 2 configuration error, 4 failed check (a tail estimate
breaking the grid triangle inequality signals an implementation bug, never a
mathematical possibility), 3 numerical failure.  Reports are JSON with sorted
keys, tail profiles additionally CSV; all writes go through a temp file and an
atomic rename so failures never leave partial output.
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


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# the keys a run configuration takes, and those of its ladder blocks
_RUN_KEYS = ("space", "function", "task", "family", "approximants", "phi",
             "tolerance", "slack", "x_tol_rel", "output", "seed")
_LADDER_BLOCK_KEYS = ("kind", "ladder")


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
        self.family_cfg = config_block(raw, "family", _LADDER_BLOCK_KEYS)
        self.approximants_cfg = config_block(raw, "approximants", _LADDER_BLOCK_KEYS)
        self.phi_cfg = config_block(raw, "phi", ("a", "lambda"))
        self.tolerance = config_number(raw, "tolerance", 0.02)
        self.slack = config_number(raw, "slack", 1e-3)   # assumption-check only
        self.x_tol_rel = config_number(raw, "x_tol_rel", 1e-2)
        output = config_block(raw, "output", ("report", "profile"))
        self.report_path = _output_path(out_dir, output, "report", "report.json")
        self.profile_path = _output_path(out_dir, output, "profile", "profile.csv")
        if os.path.abspath(self.report_path) == os.path.abspath(self.profile_path):
            raise ConfigError("output 'report' and 'profile' name the same file")
        self.seed = config_number(raw, "seed", seed, int)

    def make_function(self):
        return fn_registry.make_function(self.function_cfg, self.desc)


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


def _check_task(cfg: RunConfig, expected: str) -> None:
    if cfg.task is not None and cfg.task != expected:
        raise ConfigError(f"config task '{cfg.task}' does not match "
                          f"subcommand '{expected}'")


def cmd_norm(cfg: RunConfig) -> int:
    _check_task(cfg, "norm")
    f = cfg.make_function()
    grid = build_family(cfg.desc)
    report = seminorm_sup(grid, f)
    payload = report.to_dict()
    payload["space"] = cfg.desc.tag
    payload["seed"] = cfg.seed
    _atomic_write((cfg.report_path, _dump_json(payload)))
    return EXIT_OK


def cmd_distance(cfg: RunConfig) -> int:
    _check_task(cfg, "distance")
    f = cfg.make_function()
    grid = build_family(cfg.desc)
    if cfg.approximants_cfg:
        fam = approx.family_from_config(cfg.approximants_cfg, f)
        ids = [f"{fam.kind}[{p}]" for p in fam.parameters]
        report = dist_mod.sandwich_check(cfg.desc, f, fam.members, ids=ids,
                                         grid=grid)
        payload = report.to_dict()
        profile = report.tail_profile
        ok = report.sandwich_ok
    else:
        estimate, uncertainty, profile = dist_mod.distance_estimate(
            cfg.desc, f, grid=grid)
        payload = {"limsup_estimate": estimate, "uncertainty": uncertainty,
                   "tail_profile": profile.to_rows()}
        ok = True
    payload["space"] = cfg.desc.tag
    payload["seed"] = cfg.seed
    _atomic_write((cfg.report_path, _dump_json(payload)),
                  (cfg.profile_path, profile.to_csv()))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_check(cfg: RunConfig) -> int:
    if cfg.task == "assumption-check":
        return _run_assumption(cfg)
    if cfg.task == "invariance-check":
        return _run_invariance(cfg)
    raise ConfigError("check needs task 'assumption-check' or 'invariance-check'")


def _run_assumption(cfg: RunConfig) -> int:
    if not cfg.family_cfg:
        raise ConfigError("assumption-check needs a 'family' block")
    f = cfg.make_function()
    fam = approx.family_from_config(cfg.family_cfg, f)
    report = approx.assumption_check(cfg.desc, f, fam, slack=cfg.slack,
                                     x_tol_rel=cfg.x_tol_rel)
    payload = report.to_dict()
    payload["space"] = cfg.desc.tag
    payload["family"] = fam.kind
    payload["parameters"] = [float(p) for p in fam.parameters]
    payload["seed"] = cfg.seed
    _atomic_write((cfg.report_path, _dump_json(payload)))
    return EXIT_OK if report.verdict else EXIT_CHECK_FAILED


def _run_invariance(cfg: RunConfig) -> int:
    if cfg.desc.tag != "qk":
        raise ConfigError("invariance-check runs on the invariant-integral space")
    if not cfg.phi_cfg:
        raise ConfigError("invariance-check needs a 'phi' block")
    a = complex(*config_numbers(cfg.phi_cfg, "a", [0.0, 0.0], 2))
    lam_re, lam_im = config_numbers(cfg.phi_cfg, "lambda", [1.0, 0.0], 2)
    f = cfg.make_function()
    grid = build_family(cfg.desc)
    # the composition has closed forms only, so f is read through its own
    # closed forms too: an exact polynomial would otherwise take the exact
    # Garsia entries and the check would measure the quadrature's error
    closed = TaylorFunction(None, value_fn=f.value, deriv_fn=f.deriv)
    base = seminorm_sup(grid, closed).value
    composed = compose_mobius(f, a, complex(lam_re, lam_im))
    moved = seminorm_sup(grid, composed).value
    deviation = abs(moved - base) / base if base > 0 else abs(moved)
    payload = {
        "space": cfg.desc.tag,
        "sup_original": base,
        "sup_composed": moved,
        "relative_deviation": deviation,
        "tolerance": cfg.tolerance,
        "phi": {"a": [a.real, a.imag], "lambda": [lam_re, lam_im]},
        "seed": cfg.seed,
    }
    _atomic_write((cfg.report_path, _dump_json(payload)))
    return EXIT_OK if deviation <= cfg.tolerance else EXIT_CHECK_FAILED


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
    handler = {"norm": cmd_norm, "distance": cmd_distance, "check": cmd_check}
    try:
        cfg = _load_config(args)
        return handler[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
