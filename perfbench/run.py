"""weightgen benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload distill --seed 0 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` next to
this directory. Workloads are closed loops with a single caller: each
operation starts when the previous one has returned.

``--trace 0`` times the workload untraced and prints the end-to-end metrics;
``--trace 1`` wraps the package's public functions, prints the per-layer
metrics and writes the spans to ``.bench_out/``. Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import os
import sys

# BLAS threads are pinned before NumPy loads: one thread keeps timings on a
# shared two-core machine steady, and keeps all load in this process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import perlayer  # noqa: E402
from tracing import StepClock, Tracer, package_modules, summarize  # noqa: E402

SETUP_REPEATS = 3
E2E_UNITS = {"setup_s": "s", "op_s": "s", "step_ms_p50": "ms", "step_ms_p90": "ms",
             "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: str):
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def environment(np) -> dict:
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "src_lines": src_lines,
    }


def declared_units(kind: str) -> dict:
    """Metric name -> unit for "end_to_end" or "per_layer" in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Runner:
    """Counts attempted and failed operations; a failure is any exception,
    a failed output check included, and is reported on standard error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def attempt(self, what: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            print(f"FAILED {what}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None

    def setups(self, workloads, seed: int, work: str, repeats: int):
        """Run set-up `repeats` times; return the last inputs and the times."""
        times, inputs, hashes = [], None, set()
        for rep in range(repeats):
            start = time.perf_counter()
            got = self.attempt(f"setup {rep}", lambda: workloads.setup(
                seed, os.path.join(work, f"setup{rep}")))
            if got is not None:
                times.append(time.perf_counter() - start)
                inputs = got
                hashes.add(got.teacher_hash)
        if inputs is None:
            raise BenchError("every set-up failed")
        if len(hashes) > 1:
            self.failed += 1
            print("FAILED: repeated set-ups gave different teachers", file=sys.stderr)
        return inputs, times

    def window(self, workload, seconds: float, before_op=None) -> list[float]:
        """Run operations until `seconds` have passed (at least one)."""
        times = []
        start = time.perf_counter()
        while True:
            if before_op is not None:
                before_op()
            took = self.attempt(f"{workload.name} operation {self.attempted}",
                                workload.run_op)
            if took is not None:
                times.append(took)
            if time.perf_counter() - start >= seconds:
                return times


def run_timed(args, modules, workloads, work: str, runner: Runner) -> dict:
    inputs, setup_times = runner.setups(workloads, args.seed, work, SETUP_REPEATS)
    workload = workloads.WORKLOADS[args.workload](inputs, args.seed,
                                                  os.path.join(work, "ops"))
    with StepClock(modules["training"]) as clock:
        op_times = runner.window(workload, args.seconds, before_op=clock.reset)
    steps = [step for op in clock.per_op for step in op]
    op_tails = [statistics.quantiles(op, n=10)[8] for op in clock.per_op if len(op) >= 2]
    if not op_times or not op_tails:
        raise BenchError("no operation completed")
    print(f"{args.workload}: {len(op_times)} operations, {len(steps)} step intervals, "
          f"{len(setup_times)} set-ups")
    for name, value, unit in workload.report():
        print(f"  {name:22s} {value:12.6g} {unit}")
    print(f"  digest {workload.digest()}")
    return {
        "setup_s": statistics.median(setup_times),
        "op_s": statistics.median(op_times),
        "step_ms_p50": statistics.median(steps) * 1e3,
        # The median over operations keeps a contention burst that hits
        # one operation from moving the tail.
        "step_ms_p90": statistics.median(op_tails) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(args, modules, workloads, work: str, runner: Runner) -> dict:
    tracer = Tracer(modules)
    tracer.install()
    try:
        inputs, _ = runner.setups(workloads, args.seed, work, 1)
    finally:
        tracer.remove()
    workload = workloads.WORKLOADS[args.workload](inputs, args.seed,
                                                  os.path.join(work, "ops"))
    plain = runner.window(workload, args.seconds / 3)
    tracer.install()
    try:
        def next_run():
            tracer.run_id += 1
        traced = runner.window(workload, args.seconds * 2 / 3, before_op=next_run)
    finally:
        tracer.remove()
    left = tracer.installed_wrappers()
    if left:
        raise BenchError(f"tracer left wrappers installed: {left}")
    if not plain or not traced:
        raise BenchError("no operation completed")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    span_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(span_path)

    summary = summarize(tracer.spans)
    op_rows = [summary.get(i, {}) for i in range(1, tracer.run_id + 1)]
    values, unsteady = perlayer.reduce(summary.get(0, {}), op_rows, workload.units_per_op,
                                       workload.layers_fitted_per_op)
    if unsteady:
        runner.failed += 1
        print(f"FAILED: counts differ between traced operations: {unsteady}",
              file=sys.stderr)
    untraced, with_trace = statistics.median(plain), statistics.median(traced)
    values[perlayer.TRACE_OVERHEAD] = (with_trace - untraced) / untraced * 100.0
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced operations, "
          f"{len(tracer.spans)} spans in {os.path.relpath(span_path, ROOT)}")
    print(f"  {'span':40s} {'setup ms':>10s} {'ms/unit':>10s} {'calls/unit':>11s}")
    setup_rows = summary.get(0, {})
    names = sorted(set(setup_rows).union(*op_rows))
    units = workload.units_per_op
    for name in names:
        per_op = [rows[name] for rows in op_rows if name in rows]
        op_ms = statistics.median(r["self_s"] for r in per_op) * 1e3 / units if per_op else 0.0
        op_calls = per_op[0]["calls"] / units if per_op else 0
        setup_ms = setup_rows[name]["self_s"] * 1e3 if name in setup_rows else 0.0
        print(f"  {name:40s} {setup_ms:10.3f} {op_ms:10.3f} {op_calls:11g}")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("distill", "explore"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import numpy as np
        import workloads
        modules = package_modules()
    except ImportError as exc:
        print(f"error: cannot import the package under {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    units = perlayer.UNITS if args.trace else E2E_UNITS
    declared = declared_units("per_layer" if args.trace else "end_to_end")
    if declared != units:
        print(f"error: metrics {units} differ from BENCHMARK.json {declared}", file=sys.stderr)
        return 1
    print("env " + json.dumps(environment(np), sort_keys=True))
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    runner = Runner()
    try:
        run = run_traced if args.trace else run_timed
        values = run(args, modules, workloads, work, runner)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name in units:
        print(f"metric {name} {values[name]!r} {units[name]}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
