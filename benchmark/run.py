"""Benchmark of acpoisson: one client driving the package in-process, closed loop.

    python3 benchmark/run.py --workload flow_rk4 --seed 1 --seconds 20 --trace 0

Workloads and metrics are listed in BENCHMARK.json at the repository root.
With ``--trace 0`` the run is split over WORKERS fresh processes run one after
another; each times its own set-up and then measures ``seconds / WORKERS``.
The set-up time is the median over the processes, so one slow start cannot
move it, and latencies are pooled.  With ``--trace 1`` one process measures an
untraced loop for half the time and then a fixed number of traced operations,
and the per-layer metrics are printed.

The last line of standard output is the result object; the line before it is
the run record (per-process set-up times, tail percentile, sample count,
CPU/wall ratios and the first failure notes).  The exit code is 0 when a
result was printed, whatever the checks found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKERS = 5
TIME_LIMIT_S = 170.0
# OpenBLAS starts a second thread at import on a multi-core box; a fixed hash
# seed keeps set and dict iteration order the same in every process
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class HarnessError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("PYTHONPATH", None)  # the worker puts the checkout's src/ first itself
    return env


def run_worker(args, seconds, deadline):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--trace", str(args.trace),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise HarnessError("time limit reached before all worker processes ran")
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise HarnessError(f"worker process exceeded the time limit: {err}") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise HarnessError(f"worker process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies_ms):
    """Highest listed percentile with at least ten samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            return {"percentile": p, "ms": ordered[max(0, math.ceil(p / 100.0 * n) - 1)]}
    return None


def end_to_end(workers):
    latencies = [s for w in workers for s in w["latencies_s"]]
    return {
        "setup_s": statistics.median(w["setup_s"] for w in workers),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in workers),
        "ok_frac": sum(w["attempted"] - w["failed"] for w in workers) / sum(w["attempted"] for w in workers),
    }


def main(argv=None):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        print(f"error: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 1
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if not (ROOT / "src" / "acpoisson" / "__init__.py").is_file():
            raise HarnessError(f"no acpoisson sources under {ROOT / 'src'}")
        # compile the sources once, so no timed process pays for byte-compiling
        subprocess.run(
            [sys.executable, "-c", "import acpoisson"], env={**worker_env(), "PYTHONPATH": str(ROOT / "src")},
            cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()),
        )
        n = 1 if args.trace else WORKERS
        workers = [run_worker(args, args.seconds / n, deadline) for _ in range(n)]
    except (HarnessError, OSError, ValueError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    if args.trace:
        values = workers[0]["layers"]
        wanted = spec["per_layer"]
    else:
        values = end_to_end(workers)
        wanted = spec["end_to_end"]
    latencies_ms = [1e3 * s for w in workers for s in w["latencies_s"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "processes": n,
        "samples": len(latencies_ms),
        "op_p50_ms": statistics.median(latencies_ms),
        "tail": tail(latencies_ms),
        "setup_s": [w["setup_s"] for w in workers],
        "cpu_wall_ratio": [w["cpu_wall_ratio"] for w in workers],
        "failure_notes": [note for w in workers for note in w["failure_notes"]],
    }
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
