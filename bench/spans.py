"""Span tracing around the public functions of the oscillometer package.

The tracer patches module attributes from outside the package: each public
function in TRACED, plus `OperatorFamilyGrid.evaluate_all`, is replaced by a
wrapper that times a span and adds it to per-name totals.  Nothing inside
`src/` is changed.  These are the layer boundaries the per-layer metrics
name; helpers they call (a ladder's member constructors, the Hoelder
extension's pair set) count toward their caller's self time.  A span's self
time is its duration minus the durations of its direct children.

Only calls made on the thread that installed the tracer are recorded: the
family evaluators run chunks on worker threads, and a function reached from
there passes straight through.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

PACKAGE = "oscillometer"
TRACED = {
    "funcrep": ("x_norm", "disk_quadrature"),
    "family": ("seminorm_sup", "tail_profile"),
    "spaces": ("build_family",),
    "approx": ("poisson_family", "poisson_torus_family", "dilation_family",
               "fejer_family", "lip_smooth_family", "lip_smooth_with_info",
               "assumption_check", "ambient_distance"),
    "distance": ("distance_estimate", "sandwich_check"),
    "builtins": ("make_function",),
    "cli": ("main",),
}


class Tracer:
    """Per-name totals of self time, wall time, CPU time, calls and counts."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.process_time):
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._owner = threading.get_ident()
        self._stack = []          # open spans: [name, start, cpu_start, child_s]
        self.self_s = defaultdict(float)
        self.wall_s = defaultdict(float)
        self.cpu_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._seen = set()
        self._keep_alive = []     # objects behind the ids in _seen
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> None:
        self._stack.append([name, self._clock(), self._cpu_clock(), 0.0])

    def end(self) -> None:
        name, start, cpu_start, child_s = self._stack.pop()
        duration = self._clock() - start
        self.self_s[name] += duration - child_s
        self.wall_s[name] += duration
        self.cpu_s[name] += self._cpu_clock() - cpu_start
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += duration

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def first_call(self, obj) -> bool:
        """True the first time `obj` is seen since the last `forget()`."""
        key = id(obj)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._keep_alive.append(obj)
        return True

    def forget(self) -> None:
        """Drop identities recorded by first_call (call between tasks)."""
        self._seen.clear()
        self._keep_alive = []

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn, label, after=None):
        owner = self._owner

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != owner:
                return fn(*args, **kwargs)
            self.begin(label(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every traced function wherever the package refers to it."""
        family = importlib.import_module(f"{PACKAGE}.family")
        replacements = {}
        for short, names in TRACED.items():
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for attr in names:
                fn = getattr(mod, attr)
                label, after = self._hooks(short, attr)
                replacements[id(fn)] = (fn, self._wrap(fn, label, after))
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._patch(mod, attr, replacements[id(value)][1])
                elif isinstance(value, dict):
                    # dispatch tables hold the functions by value
                    for key, item in list(value.items()):
                        hit = replacements.get(id(item))
                        if hit is not None and hit[0] is item:
                            self._patch_item(value, key, hit[1])
        grid_cls = family.OperatorFamilyGrid
        original = grid_cls.evaluate_all

        def after_eval(args, kwargs, result):
            self.count("family.evaluate_all.calls")
            self.count("family.entries_evaluated", len(args[0]))
            self.count(f"family.evaluate_all.{args[0].space_tag}.entries",
                       len(args[0]))

        self._patch(grid_cls, "evaluate_all", self._wrap(
            original, lambda a, k: f"family.evaluate_all.{a[0].space_tag}",
            after_eval))

    def uninstall(self) -> None:
        for undo in reversed(self._restore):
            undo()
        self._restore = []

    def _patch(self, owner, attr, value) -> None:
        old = getattr(owner, attr)
        setattr(owner, attr, value)
        self._restore.append(lambda: setattr(owner, attr, old))

    def _patch_item(self, table, key, value) -> None:
        old = table[key]
        table[key] = value
        self._restore.append(lambda: table.__setitem__(key, old))

    def _hooks(self, short: str, attr: str):
        """Span label and post-call counter for one traced function."""
        name = f"{short}.{attr}"
        label = lambda a, k: name              # noqa: E731
        after = None
        if name == "spaces.build_family":
            label = lambda a, k: f"spaces.build_family.{_arg(a, k, 0, 'desc').tag}"

            def after(a, k, grid):
                self.count(f"spaces.build_family.{grid.space_tag}.entries", len(grid))
        elif name == "cli.main":
            label = lambda a, k: f"cli.main.{_arg(a, k, 0, 'argv')[0]}"
        elif name == "approx.lip_smooth_with_info":
            def label(a, k):
                f = _arg(a, k, 0, "f")
                kind = "extend" if self.first_call(f) else "member"
                return f"approx.lip_smooth_with_info.{kind}"
        elif short == "approx" and attr.endswith("_family"):
            def after(a, k, fam):
                self.count("approx.members", len(fam.members))
        elif name == "distance.sandwich_check":
            def after(a, k, report):
                self.count("distance.approximants", len(_arg(a, k, 2, "approximants")))
                self.count("distance.certified", len(report.upper_bounds))
        return label, after

    def merge(self, other: "Tracer") -> None:
        """Add another tracer's totals to this one."""
        for mine, theirs in ((self.self_s, other.self_s), (self.wall_s, other.wall_s),
                             (self.cpu_s, other.cpu_s), (self.calls, other.calls),
                             (self.counts, other.counts)):
            for key, value in theirs.items():
                mine[key] += value


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]
