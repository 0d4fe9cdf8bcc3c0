"""One measurement process of the acpoisson benchmark.

It times the set-up (from ``import acpoisson`` to the end of the warm-up
pass), then runs operations in a closed loop for ``--seconds``, checking
each result.  With ``--trace 1`` it follows the untimed loop with a fixed
number of traced operations and reports the per-layer metrics.  The last line
of standard output is one JSON object; ``run.py`` starts these processes and
combines them.

    python3 benchmark/worker.py --workload flow_rk4 --seed 1 --seconds 4 --trace 0
"""

import os

# pinned before numpy loads: OpenBLAS would start a second thread at import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

import numpy  # noqa: E402,F401  (loaded before the set-up clock starts)

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"
# a traced run traces a fixed number of whole operations, so per-operation
# counts repeat exactly; fresh fuzz rounds are numbered from TRACE_FIRST_OP so
# they are the same rounds in every traced run with the same seed
TRACE_FIRST_OP = 1_000_000
MAX_FAILURE_NOTES = 5


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("acpoisson")
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"acpoisson was imported from {pkg.__file__}, not from {src}")
    return pkg


class Loop:
    """Closed-loop runner: one operation at a time, each checked after it ends."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = None
        self.attempted = 0
        self.failures = []

    def fail(self, k, message):
        self.failures.append(f"op {k}: {message}")

    def checked(self, k, result):
        """Check one result; the same bytes must come back from a repeat run."""
        wl = self.workload
        try:
            got = wl.check(result)
            want = wl.check(wl.run(k)) if wl.fresh_inputs else self.reference
        except CheckFailed as err:
            self.fail(k, str(err))
            return
        except Exception as err:  # a crash in a repeat run or a malformed report
            self.fail(k, f"{type(err).__name__}: {err}")
            return
        if got != want:
            self.fail(k, "report bytes differ from " + ("a replay" if wl.fresh_inputs else "the warm-up pass"))

    def op(self, k, tracer=None):
        """Run, time and check operation k; returns its latency in seconds."""
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        t0 = perf_counter()
        try:
            result = self.workload.run(k)
        except Exception as err:
            result = None
            self.fail(k, f"{type(err).__name__}: {err}")
        finally:
            latency = perf_counter() - t0
            if tracer is not None:
                tracer.uninstall()
        if result is not None:
            self.checked(k, result)
        return latency


def measure(name, seed, seconds, trace, workdir):
    gc.collect()
    t0 = perf_counter()
    import_program()
    workload = WORKLOADS[name](seed, workdir)
    workload.setup()
    loop = Loop(workload)
    warm = {}
    for k in range(workload.warmup_ops):
        loop.attempted += 1
        try:
            warm[k] = workload.run(k)
        except Exception as err:
            loop.fail(k, f"warm-up: {type(err).__name__}: {err}")
    setup_s = perf_counter() - t0
    for k, result in warm.items():
        try:
            got = workload.check(result)
        except CheckFailed as err:
            loop.fail(k, f"warm-up: {err}")
        else:
            if loop.reference is None:
                loop.reference = got

    gc.collect()
    budget = seconds / 2 if trace else seconds
    latencies = []
    cpu0, wall0 = process_time(), perf_counter()
    k = workload.warmup_ops
    while True:
        latencies.append(loop.op(k))
        k += 1
        if perf_counter() - wall0 >= budget:
            break
    cpu_wall = (process_time() - cpu0) / (perf_counter() - wall0)

    out = {"setup_s": setup_s, "latencies_s": latencies, "cpu_wall_ratio": cpu_wall}
    if trace:
        tracer = Tracer()
        gc.collect()
        traced = [loop.op(TRACE_FIRST_OP + j, tracer) for j in range(workload.traced_ops)]
        layers = layer_metrics(tracer, len(traced))
        layers["bench.cpu_wall_ratio"] = cpu_wall
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(latencies)
        out["layers"] = layers
        tracer.write_spans(OUT_DIR / f"trace-{name}.jsonl")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["attempted"] = loop.attempted
    out["failed"] = len(loop.failures)
    out["failure_notes"] = loop.failures[:MAX_FAILURE_NOTES]
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
