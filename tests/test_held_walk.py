"""The group walk on a sample: the jets the sample holds are leaves of every later walk."""

import gc
import weakref

import numpy as np
import pytest

from acpoisson import calculus as ca
from acpoisson import connection as cn
from acpoisson import fields
from acpoisson import model as md
from acpoisson import strata as st
from acpoisson import triple as tr
from acpoisson.lowering import evaluate

MODELS = sorted(md.BUILTIN_MODELS)
NODE_CLASSES = (fields.Num, fields.Const, fields.Var, fields.Neg, fields.Pow, fields.BinOp, fields.Call, fields.PartialField)


def _inputs(triple):
    return [triple.kappa, *triple.beta.comps, *triple.conn.gamma[0], *triple.conn.gamma[1]]


def _closure(roots):
    """Identities of every node reachable from ``roots``, leaves included."""
    seen, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(getattr(node, name) for name in ("arg", "base", "left", "right", "parent") if hasattr(node, name))
    return seen


def _reads(triple, p):
    """Every kernel that reads fields on ``p``, as arrays."""
    conn = triple.conn
    pi = triple.pi_matrix()
    out = [jet.value for jet in evaluate(pi.values(), p, 0)]
    out += [array for jet in evaluate(pi.values(), p, 1) for array in (jet.value, jet.grad)]
    out += [*tr.jacobiator(triple, p).values(), tr.jacobiator_norm(triple, p)]
    out += [tr._lie_residual(conn, triple.p_beta_matrix(), p), cn.curvature(conn, p), tr.form_max(tr.c2_form(triple), p)]
    out.append(tr.mixed_residual(ca.coord_to_moving_bivector(triple.pi_coord(), conn), p))
    out += [c for e in ca.evaluate_elements(cn.f4_residual_forms(conn), p) for c in e.coeffs.values()]
    out += list(cn.horizontal_lift(1, conn).jets(p))
    out.append(ca.divergence(tr.hamiltonian_field(triple, fields.ExprField("y1*y2 + x1")), p, triple.beta.comps[0] + 2.0))
    return [(np.shape(a), np.asarray(a).tobytes()) for a in out]


@pytest.mark.parametrize("name", MODELS)
@pytest.mark.parametrize("shape", [(5,), (5, 1), (5, 7), (5, 10**4)])
def test_reads_through_held_jets_are_bit_identical(name, shape):
    triple = md.resolve(name).effective_triple()
    points = np.random.default_rng(shape[-1]).uniform(-0.9, 0.9, shape)
    held = st.SampleSet(points)
    tr.ic_norm(triple, held)  # holds the inputs' 1-jets and rho's values
    assert set(held._jets) >= set(_inputs(triple))
    assert _reads(triple, held) == _reads(triple, st.SampleSet(points.copy()))


def _combined(monkeypatch, run):
    """The nodes ``run`` combines, through any walk."""
    seen = []
    for cls in NODE_CLASSES:

        def spy(self, points, order, *jets, combine=cls.combine):
            seen.append(self)
            return combine(self, points, order, *jets)

        monkeypatch.setattr(cls, "combine", spy)
    run()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("name", MODELS)
def test_jacobiator_after_ic_norm_combines_no_input(name, monkeypatch):
    triple = md.resolve(name).effective_triple()
    sample = st.SampleSet(st.halton_points(50, [(-1, 1)] * 5))
    tr.ic_norm(triple, sample)
    inputs = _closure(_inputs(triple))
    combined = _combined(monkeypatch, lambda: tr.jacobiator_norm(triple, sample))
    assert combined
    # a number is a leaf that any derived field may also read directly
    within = {id(node) for node in combined if not isinstance(node, fields.Num | fields.Const)} & inputs
    if triple.kappa.nudges:
        # a cutoff below kappa: the walk combines kappa again, for its nudge count
        assert name == "br3_unimodular"
        assert id(triple.kappa) in within and within <= _closure([triple.kappa])
    else:
        assert within == set()
    # on bare points, the same walk combines the inputs
    combined = _combined(monkeypatch, lambda: tr.jacobiator_norm(triple, sample.points))
    assert {id(f) for f in _inputs(triple) if not isinstance(f, fields.Num)} <= {id(node) for node in combined}


def test_held_arrays_go_with_the_sample():
    triple = md.resolve("flat_pair_flatness").effective_triple()
    gc.collect()
    gc.disable()
    try:
        sample = st.SampleSet(st.halton_points(100, [(-1, 1)] * 5))
        tr.equivalence_check(triple, sample)
        refs = [weakref.ref(jet.value) for jet in sample._jets.values()]
        assert refs and all(ref() is not None for ref in refs)
        del sample
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_a_node_knows_whether_a_cutoff_lies_below_it():
    y1, y2 = fields.Var(2), fields.Var(3)
    for func, nudges in (("cutoff", True), ("sin", False)):
        c = fields.Call(func, y1 * y2)
        nodes = [c, fields.Neg(c), fields.Pow(c, 3), fields.BinOp("+", y2, c), fields.BinOp("*", c, y1)]
        nodes += [fields.Call("exp", c), c.partial(2), fields.BinOp("-", y1, c.partial(2)).partial(3)]
        assert [node.nudges for node in nodes] == [nudges] * len(nodes)
    assert not any(node.nudges for node in (y1, fields.Num(2.0), fields.Const("pi"), y1 * y2))
