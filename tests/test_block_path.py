"""Every report block takes one path: a table entry, ``reports.run_table``, ``reports.residual_block``.

The equivalence entry of a table enters its two blocks itself
(``triple.enter_equivalence``), because its ``jacobiator`` verdict reads a
per-point scaled tolerance; it is still run by ``run_table``.  These tests read
the package's source with ``ast``, so a new block built another way fails here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "acpoisson"


class _Sites(ast.NodeVisitor):
    """(module, innermost enclosing function) of each call, augmented assignment and attribute store."""

    def __init__(self, module):
        self.module, self.scope = module, ["<module>"]
        self.calls, self.stores = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        owner = f.value.attr if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Attribute) else None
        self.calls.append((name, owner, (self.module, self.scope[-1])))
        self.generic_visit(node)

    def visit_Assign(self, node):
        self._store(node.targets)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._store([node.target])
        self.generic_visit(node)

    def _store(self, targets):
        for t in targets:
            if isinstance(t, ast.Attribute):
                self.stores.append((t.attr, (self.module, self.scope[-1])))


def _sites():
    calls, stores = [], []
    for path in sorted(SRC.glob("*.py")):
        sites = _Sites(path.stem)
        sites.visit(ast.parse(path.read_text(encoding="utf-8")))
        calls += sites.calls
        stores += sites.stores
    return calls, stores


def test_only_residual_block_builds_a_check_block():
    calls, _ = _sites()
    assert {where for name, _, where in calls if name == "CheckBlock"} == {("reports", "residual_block")}


def test_only_the_runner_and_equivalence_check_call_residual_block():
    calls, _ = _sites()
    callers = {where for name, _, where in calls if name == "residual_block"}
    assert callers == {("reports", "run_table"), ("triple", "enter_equivalence")}


def test_no_report_extends_its_blocks_and_only_the_jacobiator_verdict_is_assigned():
    calls, stores = _sites()
    growers = {where for name, owner, where in calls if owner == "blocks" and name in ("append", "extend", "insert")}
    assert growers == {("reports", "add")}  # VerificationReport.add, which the runner calls
    assert not [where for attr, where in stores if attr == "blocks"]
    assert {where for attr, where in stores if attr == "passed"} == {("triple", "enter_equivalence")}
