#!/usr/bin/env python3
"""oscillometer benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 bench/run.py --workload grid_reuse --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src.  One caller
runs the tasks of a workload back to back (a closed loop with one client), in
passes of a fixed seeded mix, until --seconds is used up.

--trace 0 prints the end-to-end metrics of the named workload.  --trace 1 is
the separate traced run: it runs every workload, set-up and one pass traced
between two untraced passes, and prints the per-layer metrics summed over the
traced set-ups and passes (every layer is exercised by at least one workload)
plus each workload's traced-over-untraced task rate.  The last line of
standard output is always one JSON object with the keys correct, attempted,
failed and metrics.
"""

import time

_T0 = time.perf_counter()     # set-up is timed from here: imports included

import argparse               # noqa: E402
import json                   # noqa: E402
import os                     # noqa: E402
import resource               # noqa: E402
import shutil                 # noqa: E402
import statistics             # noqa: E402
import subprocess             # noqa: E402
import sys                    # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# set-up samples: this process, then fresh ones until there are at least
# SETUP_MIN and SETUP_BUDGET_S seconds are spent (a cheap set-up is noisier
# and gets more samples), at most SETUP_MAX
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 7, 25, 5.0
THREADS1_REPEATS = 5

SPACE_TAGS = ("bmo_circle", "bloch", "qk", "weighted", "lip", "rect_bmo")
LADDERS = ("poisson_family", "poisson_torus_family", "dilation_family",
           "fejer_family", "lip_smooth_family")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_index(n: int) -> tuple:
    """(0-based index into the ascending sample, percentile) of the highest
    nearest-rank percentile that still has at least ten samples beyond it."""
    if n < 11:
        raise ValueError(f"a tail with ten samples beyond it needs 11 samples, got {n}")
    return n - 11, 100.0 * (n - 10) / n


def pass_tail(times: list) -> float:
    return sorted(times)[tail_index(len(times))[0]]


# ---------------------------------------------------------------------------
# running passes
# ---------------------------------------------------------------------------

class Record:
    """Per-task wall and CPU times and outcomes of one workload."""

    def __init__(self):
        self.wall, self.cpu, self.passes = [], [], []
        self.failures = []        # (kind, problems, known defect or None)
        self.kinds = {}

    def run_pass(self, workload, seed: int, pass_index: int, ctx) -> float:
        tasks = workload.batch(seed, pass_index)
        times = []
        for task in tasks:
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                problems = task.run(ctx)
            except Exception as exc:          # a raising task is a failed task
                problems = [f"raised {type(exc).__name__}: {exc}"]
            dt = time.perf_counter() - t0
            self.cpu.append(time.process_time() - c0)
            self.wall.append(dt)
            times.append(dt)
            self.kinds.setdefault(task.kind, []).append(dt)
            if problems:
                self.failures.append((task.kind, problems, task.known_defect))
            elif task.known_defect:
                print(f"note: known defect no longer reproduces: {task.kind}")
            if ctx.tracer is not None:
                ctx.tracer.forget()
        self.passes.append(times)
        return sum(times)

    @property
    def unexpected(self) -> list:
        return [f for f in self.failures if f[2] is None]

    def end_to_end(self, setup_s: float) -> dict:
        """Per-pass rates, tails and CPU costs, each reported as the median
        over the passes; the median task time pools every task."""
        n = len(self.wall)
        cpu, start = [], 0
        for times in self.passes:
            cpu.append(sum(self.cpu[start:start + len(times)]) / len(times))
            start += len(times)
        return {
            "setup_s": (setup_s, "s"),
            "tasks_per_s": (statistics.median(len(p) / sum(p) for p in self.passes), "1/s"),
            "task_p50_ms": (1e3 * statistics.median(self.wall), "ms"),
            "task_tail_ms": (1e3 * statistics.median(pass_tail(p) for p in self.passes), "ms"),
            "cpu_ms_per_task": (1e3 * statistics.median(cpu), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "task_ok_frac": ((n - len(self.failures)) / n, "ratio"),
        }

    def describe(self, name: str) -> None:
        n = len(self.wall)
        per_pass = len(self.passes[0])
        _, pct = tail_index(per_pass)
        print(f"{name}: {n} tasks in {len(self.passes)} passes of {per_pass}; "
              f"tail = p{pct:.2f} of each pass (10 tasks beyond it), median over passes; "
              f"failed_frac {len(self.failures) / n:.4f} "
              f"({len(self.failures)} of {n}, {len(self.unexpected)} unexpected)")
        print(f"  pass seconds: {', '.join(f'{sum(p):.3f}' for p in self.passes)}")
        for kind, times in sorted(self.kinds.items()):
            print(f"  {kind:48s} n={len(times):4d} median {1e3 * statistics.median(times):9.2f} ms")
        for kind, problems, known in self.failures:
            label = "KNOWN DEFECT" if known else "FAILED"
            print(f"  {label} {kind}: {'; '.join(problems)}")


def keep_going(budget: float, elapsed: float, rounds: int) -> bool:
    """Start another round while that ends nearer the budget than stopping."""
    return budget - elapsed >= 0.5 * elapsed / rounds


# ---------------------------------------------------------------------------
# environment and sizes
# ---------------------------------------------------------------------------

def _sys_cache(level: int) -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(base)):
            path = os.path.join(base, entry)
            with open(os.path.join(path, "level")) as fh:
                if int(fh.read()) != level:
                    continue
            with open(os.path.join(path, "type")) as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(os.path.join(path, "size")) as fh:
                return fh.read().strip()
    except OSError:
        pass
    return "unknown"


def _openblas_threads():
    """(library config, thread count) from the OpenBLAS numpy loaded."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        return None, None
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None:
                    get.restype = ctypes.c_int
                    config = None
                    if conf is not None:
                        conf.restype = ctypes.c_char_p
                        config = conf().decode()
                    return config, get()
    return None, None


def environment() -> dict:
    import importlib.util
    import numpy as np
    from oscillometer.family import thread_budget
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    config, threads = _openblas_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os.cpu_count": os.cpu_count(),
        "thread_budget": thread_budget(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_config": config,
        "openblas_threads": threads,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "l2_per_core": _sys_cache(2),
        "l3": _sys_cache(3),
    }


def array_bytes(grid) -> int:
    """Bytes of the numpy arrays a grid holds: its remoteness and whatever
    its evaluator closes over (found by inspection, so 0 if that changes)."""
    import numpy as np
    cells = getattr(getattr(grid, "_eval_all", None), "__closure__", None) or ()
    stack = [grid.remoteness] + [c.cell_contents for c in cells]
    seen, total = set(), 0
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            total += item.nbytes
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, tuple):
            stack.extend(item)
    return total


def input_bytes(desc) -> int:
    """Bytes of one sampled input on the descriptor's grid (0 for Taylor
    inputs, which are evaluated on the fly)."""
    if desc.tag == "bmo_circle":
        return 16 * int(desc.resolution["n_samples"])
    if desc.tag == "rect_bmo":
        return 16 * int(desc.resolution["n_samples"]) ** 2
    if desc.tag == "lip":
        n = 1
        for s in desc.lip_domain.shape:
            n *= s
        return 8 * n
    return 0


def print_sizes(workload) -> None:
    if not workload.spaces:
        print(f"sizes {workload.name}: each job builds its own default-resolution "
              "grid (see the space descriptors' defaults)")
        return
    sizes = {key: {"entries": len(grid), "grid_array_bytes": array_bytes(grid),
                   "input_bytes": input_bytes(desc)}
             for key, (desc, grid) in workload.spaces.items()}
    grid_total = sum(v["grid_array_bytes"] for v in sizes.values())
    largest = max(v["grid_array_bytes"] + v["input_bytes"] for v in sizes.values())
    print(f"sizes {workload.name} (computed): {json.dumps(sizes, sort_keys=True)}")
    print(f"working set {workload.name} (computed from array sizes; parameter "
          f"lists and per-call temporaries excluded): {grid_total / 2**20:.1f} MiB "
          f"of grid arrays over {len(sizes)} grids, at most {largest / 2**20:.1f} "
          f"MiB for one grid and its input; L2 per core {_sys_cache(2)}, "
          f"L3 {_sys_cache(3)}")


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------

def setup_probe(name: str, scratch: str) -> int:
    import workloads
    workloads.make(name, scratch).setup()
    print(f"{time.perf_counter() - _T0!r}")
    return 0


def setup_samples(name: str, first: float) -> list:
    samples = [first]
    t0 = time.perf_counter()
    while len(samples) < SETUP_MAX and (len(samples) < SETUP_MIN
                                        or time.perf_counter() - t0 < SETUP_BUDGET_S):
        out = subprocess.run([sys.executable, os.path.abspath(__file__),
                              "--setup-probe", "--workload", name],
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def untraced(args, scratch: str) -> dict:
    import workloads
    wl = workloads.make(args.workload, scratch)
    wl.setup()
    first = time.perf_counter() - _T0
    samples = setup_samples(args.workload, first)
    print("env " + json.dumps(environment(), sort_keys=True))
    print_sizes(wl)
    print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in samples)}")
    rec = Record()
    ctx = workloads.Context()
    elapsed, index = 0.0, 0
    while True:
        elapsed += rec.run_pass(wl, args.seed, index, ctx)
        index += 1
        if not keep_going(args.seconds, elapsed, index):
            break
    rec.describe(args.workload)
    metrics = rec.end_to_end(statistics.median(samples))
    return {"correct": not rec.unexpected, "attempted": len(rec.wall),
            "failed": len(rec.failures), "metrics": metrics}


def threads1_probe() -> dict:
    """evaluate_all on the acceptance qk and bmo_circle (p=1) grids, fresh
    function objects, with OSCILLOMETER_THREADS=1 and with the default."""
    from oscillometer.builtins import circle_builtin, log_singular
    from oscillometer.spaces import SpaceDescriptor, build_family
    import workloads
    cases = {
        "qk": (build_family(SpaceDescriptor("qk")), log_singular),
        "bmo_circle": (build_family(SpaceDescriptor(
            "bmo_circle", p=1.0, resolution={"n_samples": workloads.BMO_N})),
            lambda: circle_builtin("step_half", workloads.BMO_N)),
    }
    result = {}
    saved = os.environ.get("OSCILLOMETER_THREADS")
    try:
        for setting in ("1", "0"):
            os.environ["OSCILLOMETER_THREADS"] = setting
            for tag, (grid, make_f) in cases.items():
                times = []
                for _ in range(THREADS1_REPEATS):
                    f = make_f()
                    t0 = time.perf_counter()
                    grid.evaluate_all(f)
                    times.append(time.perf_counter() - t0)
                result[(tag, setting)] = statistics.median(times)
    finally:
        if saved is None:
            os.environ.pop("OSCILLOMETER_THREADS", None)
        else:
            os.environ["OSCILLOMETER_THREADS"] = saved
    for tag in cases:
        print(f"threads probe {tag}: evaluate_all median of {THREADS1_REPEATS} "
              f"{1e3 * result[(tag, '1')]:.1f} ms at 1 thread, "
              f"{1e3 * result[(tag, '0')]:.1f} ms at the default budget")
    return {tag: result[(tag, "1")] for tag in cases}


def traced(args, scratch: str) -> dict:
    import spans
    import workloads
    print("env " + json.dumps(environment(), sort_keys=True))
    order = [args.workload] + [w for w in workloads.WORKLOADS if w != args.workload]
    total = spans.Tracer()
    rate_ratio = {}
    attempted = failed = 0
    correct = True
    for name in order:
        tracer = spans.Tracer()
        wl = workloads.make(name, scratch)
        tracer.install()
        try:
            wl.setup()
        finally:
            tracer.uninstall()
        # exactly one traced pass, so that the summed layer metrics do not
        # depend on the speed of the program or on --seconds; an untraced pass
        # on each side of it, so that warm-up and drift do not land on one
        # side of the rate ratio
        plain, traced_rec = Record(), Record()
        plain.run_pass(wl, args.seed, 0, workloads.Context())
        tracer.install()
        try:
            traced_rec.run_pass(wl, args.seed, 1, workloads.Context(tracer))
        finally:
            tracer.uninstall()
        plain.run_pass(wl, args.seed, 2, workloads.Context())
        rate = lambda r: len(r.wall) / sum(r.wall)          # noqa: E731
        rate_ratio[name] = rate(traced_rec) / rate(plain)
        print(f"traced {name}: 2 untraced passes and 1 traced pass; "
              f"tasks_per_s {rate(plain):.4f} untraced, {rate(traced_rec):.4f} traced")
        print_layers(name, tracer)
        for rec in (plain, traced_rec):
            attempted += len(rec.wall)
            failed += len(rec.failures)
            correct = correct and not rec.unexpected
            for kind, problems, known in rec.failures:
                print(f"  {'KNOWN DEFECT' if known else 'FAILED'} {kind}: {'; '.join(problems)}")
        total.merge(tracer)
    threads1 = threads1_probe()
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": layer_metrics(total, threads1, rate_ratio)}


def print_layers(name: str, tracer) -> None:
    print(f"layers {name} (self time, calls):")
    for span in sorted(tracer.self_s, key=lambda s: -tracer.self_s[s]):
        calls = tracer.calls[span]
        line = f"  {span:48s} {tracer.self_s[span]:9.4f} s {calls:7d} calls"
        if span.startswith("family.evaluate_all."):
            line += (f"  {1e3 * tracer.wall_s[span] / calls:8.2f} ms/call, "
                     f"cpu/wall {tracer.cpu_s[span] / tracer.wall_s[span]:.2f}")
        print(line)


def layer_metrics(t, threads1: dict, rate_ratio: dict) -> dict:
    m = {}
    for tag in SPACE_TAGS:
        build, ev = f"spaces.build_family.{tag}", f"family.evaluate_all.{tag}"
        m[f"{build}.s"] = (t.self_s[build], "s")
        m[f"{build}.entries"] = (t.counts[f"{build}.entries"], "count")
        m[f"{ev}.s"] = (t.self_s[ev], "s")
        m[f"{ev}.entries_per_s"] = (t.counts[f"{ev}.entries"] / t.wall_s[ev], "1/s")
        m[f"{ev}.cpu_per_wall"] = (t.cpu_s[ev] / t.wall_s[ev], "ratio")
    for tag, seconds in threads1.items():
        m[f"family.evaluate_all.{tag}.threads1_s"] = (seconds, "s")
    m["family.evaluate_all.calls"] = (t.counts["family.evaluate_all.calls"], "count")
    m["family.entries_evaluated"] = (t.counts["family.entries_evaluated"], "count")
    for name in ("family.tail_profile", "family.seminorm_sup"):
        m[f"{name}.s"] = (t.self_s[name], "s")
    for ladder in LADDERS:
        m[f"approx.{ladder}.s"] = (t.self_s[f"approx.{ladder}"], "s")
    m["approx.lip_smooth_with_info.extend_s"] = (
        t.self_s["approx.lip_smooth_with_info.extend"], "s")
    m["approx.lip_smooth_with_info.member_s"] = (
        t.self_s["approx.lip_smooth_with_info.member"], "s")
    for name in ("approx.assumption_check", "approx.ambient_distance",
                 "distance.distance_estimate", "distance.sandwich_check",
                 "funcrep.x_norm", "funcrep.disk_quadrature",
                 "builtins.make_function"):
        m[f"{name}.s"] = (t.self_s[name], "s")
    m["approx.members"] = (t.counts["approx.members"], "count")
    m["distance.approximants"] = (t.counts["distance.approximants"], "count")
    m["distance.certified_ratio"] = (
        t.counts["distance.certified"] / t.counts["distance.approximants"], "ratio")
    for command in ("norm", "distance", "check"):
        m[f"cli.main.{command}.s"] = (t.self_s[f"cli.main.{command}"], "s")
    m["cli.report_bytes"] = (t.counts["cli.report_bytes"], "count")
    for name, ratio in rate_ratio.items():
        m[f"trace_rate_ratio.{name}"] = (ratio, "ratio")
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print the elapsed time, exit")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oscillometer", "__init__.py")):
        print(f"benchmark: no oscillometer package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    try:
        if args.setup_probe:
            return setup_probe(args.workload, scratch)
        result = traced(args, scratch) if args.trace else untraced(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} = {value!r} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
