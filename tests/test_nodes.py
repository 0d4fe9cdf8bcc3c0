"""Interned field nodes: one object per structure, from the parser to the tape."""

import gc
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acpoisson import expr as ex
from acpoisson import fields, fuzz
from acpoisson.fields import ConstField, CoordField, ExprField, is_zero

LEAVES = st.one_of(
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False).map(ex.Num),
    st.sampled_from(ex.VARIABLES).map(ex.Var),
    st.sampled_from(ex.CONSTANTS).map(ex.Const),
)


def _branches(children):
    return st.one_of(
        children.map(ex.Neg),
        st.tuples(children, st.integers(-3, 4)).map(lambda t: ex.Pow(*t)),
        st.tuples(st.sampled_from(ex.FUNCTIONS), children).map(lambda t: ex.Call(*t)),
        st.tuples(st.sampled_from("+-*/"), children, children).map(lambda t: ex.BinOp(*t)),
    )


EXPRESSIONS = st.recursive(LEAVES, _branches, max_leaves=12)


def _names(node):
    """Chart variables of an expression, by walking it (independent of the mask)."""
    if isinstance(node, ex.Var):
        return {node.name}
    children = [getattr(node, a) for a in ("arg", "base", "left", "right") if hasattr(node, a)]
    return set().union(*map(_names, children))


@settings(max_examples=200, deadline=None)
@given(EXPRESSIONS)
def test_printing_and_parsing_give_back_the_same_node(node):
    assert ex.parse(ex.to_source(node)) is node
    assert ExprField(node.source) is node


@settings(max_examples=200, deadline=None)
@given(EXPRESSIONS)
def test_variable_mask_matches_the_tree(node):
    assert ex.variables_used(node) == _names(node)
    assert node.mask == sum(1 << k for k, name in enumerate(ex.VARIABLES) if name in _names(node))


def test_equal_structure_is_one_object():
    assert ex.parse("x1*y2 + sin(y3)") is ex.parse("x1 * y2 + sin((y3))")
    assert ExprField("x1") is CoordField(0) is CoordField("x1") is ex.Var("x1")
    assert ConstField(2) is ex.Num(2.0) is ExprField("2.0")
    assert ex.Num(float("nan")) is ex.Num(float("nan"))
    assert ex.Num(-0.0) is not ex.Num(0.0)
    assert is_zero(ex.Num(-0.0)) and is_zero(ex.Num(0.0))
    # one node class per operation: a node over a partial is the same class, not expression-backed
    f, g = ExprField("x1"), ExprField("y1")
    assert ex.BinOp("+", f, g) is f + g and (f + g).expression
    assert ex.BinOp("+", f, f.partial(0)) is f + f.partial(0) and not (f + f.partial(0)).expression
    assert ex.Call("exp", f).expression and not ex.Call("exp", f.partial(0)).expression
    assert f.partial(0) is f.partial("x1")
    with pytest.raises(AttributeError):
        ex.Num(1.0).value = 2.0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_derivative_is_computed_once_and_matches_the_jets(seed):
    rng = np.random.default_rng(seed)
    source = fuzz.random_smooth_expr(rng)
    f = ExprField(source)
    p = rng.uniform(-1, 1, size=(5, 6))
    for k in range(5):
        d = f.derivative(k)
        assert ExprField(source).derivative(ex.VARIABLES[k]) is d
        a, b = d.at(p, 1), f.partial(k).at(p, 1)
        assert np.max(np.abs(a.value - b.value)) <= 1e-12 * (1.0 + np.max(np.abs(b.value)))
        assert np.max(np.abs(a.grad - b.grad)) <= 1e-12 * (1.0 + np.max(np.abs(b.grad)))


def test_dead_nodes_leave_the_intern_table():
    gc.collect()
    before = len(fields._NODES)
    f = ExprField("exp(sin(x1*y2) + 7.123456789*y3) / (2.5 + tanh(x2))")
    g = f.partial(0) * f.derivative(1) + sum(f.derivative(k) for k in range(5))
    assert g.at(np.full(5, 0.3), 0).value.shape == ()
    assert len(fields._NODES) > before
    del f, g
    gc.collect()
    assert len(fields._NODES) == before


def test_threads_building_the_same_expressions_get_the_same_nodes():
    rng = np.random.default_rng(5)
    sources = [fuzz.random_smooth_expr(rng) for _ in range(50)]
    start = threading.Barrier(4, timeout=60)

    def build(_):
        start.wait()
        return [n for s in sources for n in (ExprField(s), ExprField(s).derivative(2))]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the build of a node
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            built = list(pool.map(build, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for other in built[1:]:
        assert all(a is b for a, b in zip(built[0], other, strict=True))
    # a lost race would hand out a node that the table does not hold
    held = {id(ref()) for ref in list(fields._NODES.values())}
    assert all(id(n) in held for n in built[0])


NODE_CLASSES = (ex.Num, ex.Const, ex.Var, ex.Neg, ex.BinOp, ex.Pow, ex.Call, fields.PartialField)
STEPS = st.tuples(st.sampled_from(["+", "-", "*", "/", "neg", "scale", "sin", "partial"]), st.integers(0, 4))


def _apply(step, a, b):
    op, k = step
    if op == "partial":
        return a.partial(k) if a.budget else a
    if op == "neg":
        return -a
    if op == "scale":
        return 1.5 - a * 2.0
    if op == "sin":
        return ex.Call("sin", a)
    return {"+": a + b, "-": a - b, "*": a * b, "/": a / b}[op]


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(STEPS, min_size=1, max_size=8))
def test_one_node_class_per_operation_and_expression_means_no_partial_below(seed, steps):
    rng = np.random.default_rng(seed)
    built = [ExprField(fuzz.random_smooth_expr(rng)) for _ in range(2)]
    for step in steps:
        built.append(_apply(step, built[-1], built[step[1] % len(built)]))
    partial_below = {}

    def visit(node):
        if id(node) not in partial_below:
            assert type(node) in NODE_CLASSES
            children = [getattr(node, a) for a in ("arg", "base", "left", "right", "parent") if hasattr(node, a)]
            below = [visit(child) for child in children]
            partial_below[id(node)] = type(node) is fields.PartialField or any(below)
            assert node.expression is not partial_below[id(node)]
        return partial_below[id(node)]

    for f in built:
        visit(f)
