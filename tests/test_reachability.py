"""Every function in ``src/acpoisson`` is reached by a command, ``selftest`` or a demo, or is kept in KEEP.

The probe runs in a fresh interpreter: it starts a profiler (``cProfile``,
the C form of ``sys.setprofile``) before ``import acpoisson``, runs the
battery (every command on the four built-ins at small sizes, ``selftest``,
the three demos, a ``check`` of two chunks, and the inputs that reach the
error and rare paths, a chunk's error among them), and
prints the qualified name of each function of the package that was never
called.  A function is named by where ``ast`` finds it,
``module.Class.method`` or ``module.function.nested``.  See the list with

    PYTHONPATH=src python tests/test_reachability.py

A paper formula that no report runs is not a reason to keep a function: it
reaches a report, or it goes.
"""

import ast
import contextlib
import cProfile
import io
import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "acpoisson"

REFERENCE = "reference"  # tests hold reached code to it, or an acceptance criterion is about it
BENCHMARK = "benchmark"  # the benchmark runs it, or its tracer reads it from a class __dict__
TEST_HELPER = "test helper"  # tests build or inspect their objects with it
MISUSE_GUARD = "misuse guard"  # reached only when the package is used wrongly

KEEP = {
    "calculus.exterior_d_field": (REFERENCE, "the full d that test_calculus and test_differential sum the d_(p,q) pieces against"),
    "connection.ConnectionShift.zero": (TEST_HELPER, "the neutral shift test_connection builds"),
    "connection.ConnectionShift.__add__": (TEST_HELPER, "test_connection composes shifts with it"),
    "errors.NotAlmostCoupling.__init__": (REFERENCE, "raised by recover_triple, the subject of acceptance criterion 5"),
    "expr.variables_used": (REFERENCE, "the variable set test_nodes holds a node's mask to"),
    "fields.Field.value": (BENCHMARK, "benchmark/tracing.py reads it from Field.__dict__"),
    "fields.Field.gradient": (BENCHMARK, "benchmark/tracing.py reads it from Field.__dict__"),
    "fields.Field.hessian": (BENCHMARK, "benchmark/tracing.py reads it from Field.__dict__"),
    "fields.Field.__neg__": (TEST_HELPER, "test_field_algebra negates fields"),
    "fields._Node.__setattr__": (MISUSE_GUARD, "refuses to mutate an interned node"),
    "fields._Node.__repr__": (TEST_HELPER, "test_field_algebra and failure messages print fields"),
    "fields.finite_difference_check": (REFERENCE, "the finite-difference oracle of test_fields and acceptance criterion 7"),
    "flow._step": (BENCHMARK, "the batch RK4 stage of integrate_batch, the 64-point flow_rk4 operation"),
    "flow._slope": (BENCHMARK, "the batch RK4 slope of integrate_batch, the 64-point flow_rk4 operation"),
    "flow.integrate_batch": (BENCHMARK, "the 64-point flow_rk4 operation"),
    "fuzz.random_smooth_expr": (TEST_HELPER, "the expression draws of the field and tape tests"),
    "gauge.varkappa": (REFERENCE, "the coordinate route test_gauge holds varkappa_field to"),
    "gauge.varkappa_intrinsic": (REFERENCE, "the graded route test_gauge holds varkappa_field to"),
    "gauge.characteristic_compare": (REFERENCE, "the subject of acceptance criterion 6"),
    "graded.GradedElement.__neg__": (TEST_HELPER, "tests negate graded elements"),
    "graded.GradedElement.coefficient": (TEST_HELPER, "tests read one coefficient"),
    "graded.GradedElement.allclose": (TEST_HELPER, "tests compare graded elements"),
    "graded.GradedElement.__repr__": (TEST_HELPER, "failure messages print graded elements"),
    "jets.Jet.__rsub__": (BENCHMARK, "benchmark/tracing.py reads it from Jet.__dict__"),
    "jets.Jet.__rtruediv__": (BENCHMARK, "benchmark/tracing.py reads it from Jet.__dict__"),
    "lowering._same": (BENCHMARK, "the batch conversions of a lowered graph, which the 64-point flow_rk4 operation runs"),
    "strata.matrix_rank": (REFERENCE, "the SVD rank test_strata holds bivector_rank to"),
    "triple.VerticalOneForm.zero": (TEST_HELPER, "the zero vertical form the triple tests build"),
    "triple.recover_triple": (REFERENCE, "the subject of acceptance criterion 5"),
    "triple.poisson_bracket": (REFERENCE, "the split bracket test_triple holds pi_matrix to"),
    "triple.poisson_bracket_direct": (REFERENCE, "the assembled bracket test_triple holds poisson_bracket to"),
    "triple.hamiltonian_parts": (REFERENCE, "the bigraded X_F test_triple holds hamiltonian_field to"),
}

BASE = "[kappa]\nexpr = 1 + y1^2\n\n[beta]\nb1 = y1\nb2 = y2\nb3 = y3\n"
# every builtin of the expression language, and a gauge 1-form that holds a power
FUNCTIONS = (
    "[model]\nname = functions\n\n[kappa]\nexpr = 2 + cos(y1) + tanh(y2)\n\n"
    "[beta]\nb1 = pi*y1\nb2 = e*y2 + tan(0.1*y3)\nb3 = sqrt(2 + y1^2) + ln(2 + y2^2)\n\n"
    "[gauge]\nmu1 = y3^2\nmu2 = 0\nc = 0\nepsilon = 0.01\n"
)
MODEL_FILES = {
    "syntax.ini": "[kappa]\nexpr = y1 +\n",
    "unknown.ini": "[kappa]\nexpr = foo\n",
    "exponent.ini": "[kappa]\nexpr = y1^0.5\n",
    "section.ini": "[kapa]\n",
    "missing.ini": "[beta]\nb1 = 0\nb2 = 0\nb3 = 0\n",
    "interval.ini": BASE + "\n[sampling]\nbox = -1:1, -1:1\n",
    "domain.ini": BASE.replace("1 + y1^2", "1 + 1/(x1 - x1)"),
    "functions.ini": FUNCTIONS,
    "kappa0.ini": BASE + "\n[certificate]\nkappa0 = 1\n",
    "grid.ini": BASE + "\n[sampling]\ngenerator = grid\nresolution = 2\n",
    # poles at x1 = -1, in the first chunk, and at x1 = 0, which the whole sample meets first
    "poles.ini": BASE.replace("b1 = y1", "b1 = 1/x1 + 1/(x1 + 1)") + "\n[sampling]\ngenerator = grid\nresolution = 7\n",
}
P0 = "0.1,0.2,1,0,0"  # y1^2 + y2^2 + y3^2 = 1: br3's cutoff is nudged off its branch point


def battery():
    """The CLI runs, in order; each is an argv list for ``cli.main``."""
    runs = []
    for name in ("br3_unimodular", "flat_pair_flatness", "flat_so3", "sec5_example"):
        runs += [
            ["check", name, "--samples", "60"],
            ["strata", name, "--grid", "3", "--out", "strata.csv"],
            ["modular", name, "--samples", "60", "--csv", "modular.csv"],
            ["modular", name, "--samples", "60", "--certificate"],
            ["gauge", name, "--sweep", "0.01,-0.02", "--outdir", "gauge"],
            ["flow", name, "--hamiltonian", "y3", "--p0", P0, "--dt", "0.01", "--steps", "5",
             "--casimir", "y1^2 + y2^2 + y3^2", "--volume-factor", "1", "--csv", "flow.csv"],
        ]
    runs += [["selftest"], [], ["check", "flat_so3", "--samples"]]
    from acpoisson.reports import CHUNK

    runs.append(["check", "flat_so3", "--samples", str(CHUNK + 1)])  # a table of two chunks
    runs.append(["check", "poles.ini"])  # a chunk's error, raised again by the whole sample
    runs += [["check", name, "--samples", "20"] for name in MODEL_FILES]
    runs.append(["check", "grid.ini"])  # the run above gives the grid model a sample count, which it refuses
    # a flow truncated at a stage that leaves the finite range
    runs.append(["flow", "flat_so3", "--hamiltonian", "y1", "--p0", "0,0,0.3,0.4,0.5", "--dt", "1e308", "--steps", "3"])
    return runs


def probe():
    """Run the battery in this interpreter, in the current directory; return the names never called."""
    profiler = cProfile.Profile()  # sys.setprofile's hook, written in C
    profiler.enable()
    from acpoisson import cli

    for name, text in MODEL_FILES.items():
        Path(name).write_text(text)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in battery():
            try:
                cli.main(argv)
            except SystemExit:  # a usage error
                pass
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
    profiler.disable()
    codes = [entry.code for entry in profiler.getstats() if not isinstance(entry.code, str)]  # str: a builtin
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes}
    return [name for name, where in functions() if where not in reached]


def functions():
    """(qualified name, (file, first line)) of every function of the package, as ``ast`` finds it."""
    out = []

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])  # as co_firstlineno
                out.append((prefix + child.name, (path, first)))
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), os.path.realpath(path), path.stem + ".")
    return out


def test_every_unreached_function_is_kept_for_a_reason(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    unreached = proc.stdout.split()
    assert set(unreached) - set(KEEP) == set(), "reach these from a report, or delete them"
    assert set(KEEP) - set(unreached) == set(), "these are reached now: drop them from KEEP"


def test_every_keep_reason_is_one_of_the_four_kinds():
    names = [name for name, _ in functions()]
    assert len(set(names)) == len(names)  # each name picks out one function
    for name, (kind, why) in KEEP.items():
        assert name in names, name
        assert kind in (REFERENCE, BENCHMARK, TEST_HELPER, MISUSE_GUARD), name
        assert why, name


if __name__ == "__main__":
    print("\n".join(probe()))
