"""List the statements of ``src/acpoisson`` that the package's own traffic never executes.

The traffic is the reachability battery of ``tests/test_reachability.py``
(every command on the four built-ins at small sizes, ``selftest``, a
``check`` of two chunks, and the inputs that reach the error and rare paths),
the three demos, and one
operation of each benchmark workload (``benchmark/workloads.py``: set-up, one
run and its check).  A line tracer (``sys.settrace``) is installed before
``import acpoisson``, so module-level statements count too.  Run it from the
root of a checkout::

    python3 tools/reach.py

It prints, per module, each statement never executed as ``file:line  text``,
then one totals line per module and one for the package.  A statement is one
``ast`` statement node; a docstring and a ``global``/``nonlocal`` declaration,
which run no code, are not counted.  A compound statement (``if``, ``for``,
``def``, ...) counts as executed when its header line ran or any statement in
its body did.  The run works in a temporary directory and changes nothing
under ``benchmark/``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "acpoisson"
WORKLOAD_SEED = 7


def _tracer(prefix, hits):
    """A ``sys.settrace`` function recording ``(file, line)`` of every line run in files under ``prefix``."""

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return global_


def _traffic(workdir):
    """Run the battery, the demos and one operation of each workload, in ``workdir``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "benchmark")]
    from test_reachability import MODEL_FILES, battery  # the one battery, shared with the test

    from acpoisson import cli

    for name, text in MODEL_FILES.items():
        Path(workdir, name).write_text(text)
    for argv in battery():
        try:
            cli.main(argv)
        except SystemExit:  # a usage error
            pass
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    import workloads

    for cls in workloads.WORKLOADS.values():
        workload = cls(WORKLOAD_SEED, workdir)
        workload.setup()
        workload.check(workload.run(0))


def _statements(tree):
    """``(statement, first header line, last header line, children)`` for every counted statement."""
    out = []

    def walk(body):
        counted = []
        for node in body:
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
                continue  # a docstring
            blocks = [getattr(node, f, None) for f in ("body", "orelse", "finalbody")]
            blocks += [h.body for h in getattr(node, "handlers", ())]
            blocks += [c.body for c in getattr(node, "cases", ())]
            blocks = [b for b in blocks if isinstance(b, list) and b and isinstance(b[0], ast.stmt)]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            last = blocks[0][0].lineno - 1 if blocks else node.end_lineno
            entry = (node, first, max(first, last), [s for b in blocks for s in walk(b)])
            out.append(entry)
            counted.append(entry)
        return counted

    walk(tree.body)
    return out


def _unreached(path, lines_run):
    """The statements of one module never executed, and the number counted."""
    source = path.read_text(encoding="utf-8")
    statements = _statements(ast.parse(source))
    ran = {}

    def executed(entry):
        node, first, last, children = entry
        if id(node) not in ran:
            header = any(line in lines_run for line in range(first, last + 1))
            ran[id(node)] = any([header] + [executed(c) for c in children])
        return ran[id(node)]

    text = source.splitlines()
    missed = sorted((entry[0].lineno, text[entry[0].lineno - 1].strip()) for entry in statements if not executed(entry))
    return missed, len(statements)


def main():
    prefix = os.path.realpath(PACKAGE) + os.sep
    hits = set()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        sink = io.StringIO()
        sys.settrace(_tracer(prefix, hits))
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                _traffic(workdir)
        finally:
            sys.settrace(None)
            os.chdir(cwd)
    by_file = {}
    for filename, line in hits:
        by_file.setdefault(os.path.realpath(filename), set()).add(line)
    totals, missed_all, counted_all = [], 0, 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed, counted = _unreached(path, by_file.get(os.path.realpath(path), set()))
        for line, text in missed:
            print(f"{path.name}:{line}  {text[:100]}")
        totals.append(f"{path.name}: {len(missed)} of {counted} statements never run")
        missed_all += len(missed)
        counted_all += counted
    print("\n".join(["", *totals, f"total: {missed_all} of {counted_all} statements never run"]))


if __name__ == "__main__":
    main()
