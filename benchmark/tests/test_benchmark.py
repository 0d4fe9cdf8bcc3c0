"""Tests of the benchmark harness: workloads, checks, tracing and the output contract.

    python3 -m pytest benchmark/tests -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import acpoisson
from acpoisson import fuzz, triple as tr
from acpoisson.calculus import CoordVector
from tracing import Tracer
from worker import OUT_DIR, Loop
from workloads import WORKLOADS, CheckFailed

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir():
    OUT_DIR.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=OUT_DIR)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def ready(name, workdir, seed=3):
    workload = WORKLOADS[name](seed, workdir)
    workload.setup()
    loop = Loop(workload)
    loop.reference = workload.check(workload.run(0))
    return workload, loop


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmark/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


# workloads ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_a_few_operations_cleanly(name, workdir):
    _, loop = ready(name, workdir)
    for k in (1, 2):
        assert loop.op(k) > 0
    assert loop.failures == []
    assert loop.attempted == 2


def test_same_seed_gives_same_inputs(workdir):
    a, b = WORKLOADS["flow_rk4"](5, workdir), WORKLOADS["flow_rk4"](5, workdir)
    a.setup()
    b.setup()
    assert a.hamiltonian == b.hamiltonian and np.array_equal(a.p0s, b.p0s)
    c = WORKLOADS["flow_rk4"](6, workdir)
    c.setup()
    assert c.hamiltonian != a.hamiltonian


# each check rejects a wrong result ----------------------------------------------


def test_flow_check_rejects_a_wrong_hamiltonian_field(workdir, monkeypatch):
    workload, loop = ready("flow_rk4", workdir)
    honest = tr.hamiltonian_field

    def skewed(triple, F):  # X_F with one component off: not a Hamiltonian flow
        X = honest(triple, F)
        return CoordVector(X.comps[:4] + [X.comps[4] * 1.01 + 1e-3])

    monkeypatch.setattr(tr, "hamiltonian_field", skewed)
    with pytest.raises(CheckFailed, match="drift"):
        workload.check(workload.run(1))


def test_flow_check_rejects_a_truncated_trajectory(workdir):
    workload, _ = ready("flow_rk4", workdir)
    flows, batch = workload.run(1)
    flows[0][1].truncated = True
    with pytest.raises(CheckFailed, match="truncated"):
        workload.check((flows, batch))


def test_verify_check_rejects_a_non_poisson_model_expected_to_pass(workdir):
    workload, _ = ready("verify_batch", workdir)
    path = workload.rounds[3][1]  # sec5_example
    text = Path(path).read_text()
    Path(path).write_text(text.replace("expr = y1^2 - x1^2 - x2^2", "expr = y1^2 - x1^2 - x2^2 + x1*y2"))
    with pytest.raises(CheckFailed, match="sec5_example"):
        workload.check(workload.run(1))


def test_fuzz_check_rejects_a_non_poisson_triple_expected_to_pass(workdir, monkeypatch):
    workload, _ = ready("fuzz_campaign", workdir)
    honest = fuzz.random_flat_casimir_triple

    def curved(rng, *args, **kwargs):
        return fuzz.curvature_perturbed(rng, honest(rng, *args, nonvanishing=True))

    monkeypatch.setattr(fuzz, "random_flat_casimir_triple", curved)
    with pytest.raises(CheckFailed, match="flat-Casimir"):
        workload.check(workload.run(1))


def test_fuzz_check_rejects_a_perturbation_that_does_not_break_the_triple(workdir, monkeypatch):
    workload, _ = ready("fuzz_campaign", workdir)
    monkeypatch.setattr(fuzz, "curvature_perturbed", lambda rng, triple: triple)
    with pytest.raises(CheckFailed, match="perturbed"):
        workload.check(workload.run(1))


def test_loop_counts_nondeterministic_reports_and_exceptions():
    class Flaky:
        fresh_inputs = False
        calls = 0

        def run(self, k):
            if k == 3:
                raise ZeroDivisionError("boom")
            Flaky.calls += 1
            return Flaky.calls

        def check(self, result):
            return str(result).encode()

    loop = Loop(Flaky())
    loop.reference = b"1"
    for k in (1, 2, 3):
        loop.op(k)
    assert loop.attempted == 3
    assert len(loop.failures) == 2
    assert "warm-up" in loop.failures[0] and "ZeroDivisionError" in loop.failures[1]


# tracing ------------------------------------------------------------------------


def _package_state():
    state = {}
    for mod in [acpoisson] + [m for n, m in sys.modules.items() if n.startswith("acpoisson.")]:
        for attr, obj in vars(mod).items():
            state[(mod.__name__, attr)] = obj
            if isinstance(obj, type):
                for mattr, raw in vars(obj).items():
                    state[(mod.__name__, attr, mattr)] = raw
    state["rules"] = dict(acpoisson.jets.BUILTIN_JET_RULES)
    return state


def test_tracer_wraps_reexports_and_restores_everything(workdir):
    before = _package_state()
    with Tracer() as tracer:
        assert acpoisson.parse is acpoisson.expr.parse is not before[("acpoisson.expr", "parse")]
        assert acpoisson.cli.residual_block is acpoisson.reports.residual_block
        acpoisson.parse("x1 + y2")
        acpoisson.cli.residual_block("probe", [0.0], np.zeros((5, 1)), 1.0)
    assert tracer.counts["expr.parse"] == 1
    assert tracer.counts["reports.residual_block"] == 1
    assert _package_state() == before


def test_self_times_add_up_to_the_root_spans(workdir):
    workload, _ = ready("fuzz_campaign", workdir)
    with Tracer() as tracer:
        workload.run(7)
    roots = sum(t1 - t0 for _, parent, t0, t1 in tracer.spans if parent == -1)
    assert sum(tracer.self_s.values()) == pytest.approx(roots, rel=1e-6)
    assert tracer.counts["fields.nodes_built"] > 0 and tracer.counts["jets.ops"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly_across_runs(name):
    counts = []
    for _ in range(2):
        proc = run_bench("--workload", name, "--seed", "4", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"], proc.stdout
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["jets.ops"] > 0


# the output contract ------------------------------------------------------------


def test_result_line_has_the_end_to_end_metrics():
    proc = run_bench("--workload", "fuzz_campaign", "--seed", "2", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [*result["metrics"]] == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert json.loads(lines[-2])["record"]["samples"] >= 1


def test_fails_without_the_program(workdir):
    bare = Path(workdir) / "bare"
    shutil.copytree(BENCH, bare / "benchmark", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run_bench("--workload", "flow_rk4", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
