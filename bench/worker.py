"""One benchmark process: pin to a CPU, import the package, build the inputs,
warm up, then repeat the workload's op cycle for the given number of seconds.

Started by run.py; prints one JSON object on its last stdout line. With
--setup-only it stops once the inputs are built and reports set-up time only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from time import perf_counter_ns

from tracer import LAYERS, Tracer

SELF_MS = (
    "cli.main",
    "serialize.load_povm",
    "serialize.load_state",
    "linalg.validate_density",
    "sweeps.find_crossings",
    "suites.run_suite",
    "bounds.majorization_vector",
    "bounds.coles_bound",
    "bounds.min_device_uncertainty",
    "bounds.min_pair_device_bound",
    "bounds.qw_b2_bound",
    "bounds.b1_bound",
    "bounds.pair_bound_report",
    "uncertainty.outcome_probs",
    "uncertainty.device_uncertainty",
    "uncertainty.shannon_entropy",
    "uncertainty.quantum_uncertainty",
    "sampling.random_pure_state",
    "sampling.random_mixed_state",
    "sampling.random_povm",
    "sampling.random_basis",
    "sampling.sampled_min",
    "povm.construct",
)
CALLS = (
    "bounds.majorization_vector",
    "povm.construct",
    "numpy.linalg.eigh",
    "numpy.linalg.eigvalsh",
    "numpy.linalg.qr",
)


def pin_to_one_cpu() -> int:
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def import_package(root: Path):
    """Import unsharp from the checkout's src/, never from site-packages."""
    src = root / "src"
    sys.path.insert(0, str(src))
    package = importlib.import_module("unsharp")
    if Path(package.__file__).resolve().parent != (src / "unsharp").resolve():
        raise ImportError(f"unsharp imported from {package.__file__}, not from {src}")
    for layer in LAYERS:
        importlib.import_module(f"unsharp.{layer}")
    return package


class Recorder:
    """Latencies and failures of the timed ops."""

    def __init__(self):
        self.latencies_ns: list[int] = []
        self.failures: list[tuple[str, str, str | None]] = []

    def run_cycle(self, ops, tracer=None) -> int:
        busy = 0
        for op in ops:
            if tracer is not None:
                tracer.begin_op(len(self.latencies_ns))
            start = perf_counter_ns()
            try:
                output = op.run()
                error = None
            except (Exception, SystemExit) as exc:
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter_ns() - start
            if tracer is not None:
                tracer.end_op()
            if error is None:
                try:
                    error = op.check(output)
                except Exception as exc:  # a malformed output breaks the check itself
                    error = f"check raised {type(exc).__name__}: {exc}"
            self.latencies_ns.append(elapsed)
            if error is not None:
                self.failures.append((op.kind, error, op.known_defect))
            busy += elapsed
        return busy


def tail(latencies_ms: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, n)."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(rec: Recorder, ops_per_cycle: int) -> dict:
    latencies_ms = [ns / 1e6 for ns in rec.latencies_ns]
    cycles = [latencies_ms[i:i + ops_per_cycle] for i in range(0, len(latencies_ms), ops_per_cycle)]
    tail_ms, tail_pct, n = tail(latencies_ms)
    return {
        "ops_per_s": n / (sum(latencies_ms) / 1e3),
        # Every cycle has the same op mix. The host's speed switches between
        # two levels for seconds at a time; a median over the whole run jumps
        # between them, while the mean of the per-cycle medians moves smoothly.
        "op_p50_ms": statistics.fmean(statistics.median(cycle) for cycle in cycles),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error_rate": len(rec.failures) / n,
        "tail_percentile": tail_pct,
        "samples": n,
    }


def per_layer(tracer, traced_ops, traced_ns: int, untraced_ns: int) -> dict:
    totals = tracer.totals()
    n = len(traced_ops)
    calls = {name: count for name, (count, _) in totals.items()}
    metrics = {f"{name}.self_ms": totals.get(name, (0, 0.0))[1] / 1e6 / n for name in SELF_MS}
    metrics.update({f"{name}.calls": calls.get(name, 0) / n for name in CALLS})
    # cli and suites expose one traced entry point each, already named above.
    for layer in [layer for layer in LAYERS if layer not in ("cli", "suites")] + ["numpy.linalg"]:
        own = sum(ns for name, (_, ns) in totals.items() if name.startswith(layer + "."))
        metrics[f"{layer}.self_ms"] = own / 1e6 / n
    row_calls = calls.get("sweeps.theta_row", 0) + calls.get("sweeps.damping_row", 0)
    mv_calls = calls.get("bounds.majorization_vector", 0)
    metrics["sweeps.row.calls"] = row_calls / n
    metrics["sweeps.row_useful_ratio"] = sum(op.grid_rows for op in traced_ops) / row_calls if row_calls else 0.0
    metrics["bounds.majorization_vector.distinct_ratio"] = tracer.distinct_bases / mv_calls if mv_calls else 0.0
    metrics["serialize.bytes_read"] = tracer.bytes_read / n
    metrics["suites.checks"] = sum(op.checks for op in traced_ops) / n
    metrics["trace.untraced_ms"] = (traced_ns - tracer.top_level_ns()) / 1e6 / n
    metrics["trace.overhead_ratio"] = traced_ns / untraced_ns - 1.0
    return metrics


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(root: Path, cpu: int, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python_threads": threading.active_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "pinned_cpu": cpu,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(root),
        "workload_seed": seed,
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cpu = pin_to_one_cpu()
    root = Path(args.root)
    u = import_package(root)
    import workloads

    workdir = root / ".bench_build" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, u, args.seed, workdir)
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        warm = Recorder()
        warm.run_cycle(ops)
        gc.collect()

        rec = Recorder()
        deadline = perf_counter_ns() + int(args.seconds * 1e9)
        cycles = untraced_ns = traced_ns = 0
        tracer = Tracer() if args.trace else None
        traced_ops = []
        while True:
            untraced_ns += rec.run_cycle(ops)
            if tracer is not None:
                # Each traced pass repeats the untraced pass just before it,
                # so the two sums give the tracing overhead on the same ops.
                tracer.install(u)
                try:
                    traced_ns += rec.run_cycle(ops, tracer)
                finally:
                    tracer.uninstall()
                traced_ops += ops
            cycles += 1
            if perf_counter_ns() >= deadline:
                break

        result = {
            "setup_s": setup_s,
            "cycles": cycles,
            "ops_per_cycle": len(ops),
            "attempted": len(rec.latencies_ns),
            "failures": rec.failures,
            "meta": metadata(root, cpu, args.seed),
        }
        if tracer is None:
            result["end_to_end"] = end_to_end(rec, len(ops))
        else:
            result["per_layer"] = per_layer(tracer, traced_ops, traced_ns, untraced_ns)
            trace_path = root / ".bench_build" / f"trace-{args.workload}-seed{args.seed}.npz"
            tracer.save(trace_path)
            result["trace_file"] = str(trace_path.relative_to(root))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
