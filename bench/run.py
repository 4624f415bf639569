"""Benchmark entry point for the unsharp package.

    python3 bench/run.py --workload pairs --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, untraced and traced

Run from the root of a checkout: the package is imported from ./src. Each
run starts fresh worker processes pinned to one CPU with one BLAS thread.
Untraced runs (--trace 0) report the end-to-end metrics of BENCHMARK.json,
traced runs (--trace 1) its per-layer metrics. The last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweeps", "verify", "pairs", "states")
SETUP_PROBES = 6  # extra set-up-only processes; set-up time is the median
TIME_LIMIT_S = 170.0

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def spawn(args, deadline: float, setup_only: bool) -> dict:
    """Run one worker process and return the JSON object on its last line."""
    t0 = time.monotonic()
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--root", str(ROOT),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--t0", repr(t0),
    ] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(
            command,
            cwd=ROOT,
            env={**os.environ, **CHILD_ENV},
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args.workload} worker exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args.workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, spec: dict, deadline: float) -> dict:
    """One run of one workload; returns the result object and prints a report."""
    declared = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    setups = []
    if not args.trace:
        setups = [spawn(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    result = spawn(args, deadline, setup_only=False)
    setups.append(result["setup_s"])

    values = dict(result.get("per_layer") or result["end_to_end"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    missing = sorted(set(declared) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")

    failures = result["failures"]
    unexpected = [f for f in failures if f[2] is None]
    mode = "traced" if args.trace else "untraced"
    print(f"== {args.workload} seed={args.seed} seconds={args.seconds:g} {mode}: "
          f"{result['attempted']} ops in {result['cycles']} cycles of {result['ops_per_cycle']}")
    for name, metric in declared.items():
        print(f"  {name:<44} {values[name]:>14.6g} {metric['unit']}")
    if not args.trace:
        e2e = result["end_to_end"]
        print(f"  {'(op_tail_ms is percentile)':<44} {e2e['tail_percentile']:>14.6g} of {e2e['samples']} ops")
        print(f"  {'(setup_s samples)':<44} {' '.join(f'{s:.4f}' for s in setups)}")
        print(f"  {'error_rate':<44} {e2e['error_rate']:>14.6g} ratio ({len(failures)}/{result['attempted']} failed)")
    else:
        print(f"  spans written to {result['trace_file']}")
    grouped = Counter((kind, defect, message.split(":")[0] if defect else message) for kind, message, defect in failures)
    for (kind, defect, message), count in sorted(grouped.items(), key=str):
        label = f"known defect (ROADMAP {defect})" if defect else "UNEXPECTED"
        print(f"  failed {count}x {kind}: {label}: {message}")
    print("  meta " + json.dumps(result["meta"], sort_keys=True))
    return {
        "correct": not unexpected,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": metric["unit"]} for name, metric in declared.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "unsharp" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'unsharp'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.workload != "all":
            summary = run_workload(args, spec, deadline)
        else:
            # Every workload, untraced then traced; prints every metric and
            # one combined line. Not bounded by the single-run time limit.
            results = {}
            for workload in WORKLOADS:
                for trace in (0, 1):
                    run_args = argparse.Namespace(**{**vars(args), "workload": workload, "trace": trace})
                    results[workload, trace] = run_workload(run_args, spec, time.monotonic() + TIME_LIMIT_S)
            summary = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {
                    f"{workload}.{name}": metric
                    for (workload, _), r in results.items()
                    for name, metric in r["metrics"].items()
                },
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
