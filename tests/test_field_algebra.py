"""One field algebra: expression-backed arithmetic, symbolic derivatives, one zero."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from acpoisson import connection as cn
from acpoisson import fuzz
from acpoisson import model as md
from acpoisson import triple as tr
from acpoisson.errors import OrderBudgetExceeded
from acpoisson.fields import BinOp, ConstField, ExprField, PartialField, is_zero

SEEDS = hst.integers(min_value=0, max_value=2**32 - 1)


def _jets_equal(a, b):
    return (
        np.array_equal(a.value, b.value)
        and np.array_equal(a.grad, b.grad)
        and np.array_equal(a.hess, b.hess)
    )


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_expression_arithmetic_matches_evaluation_nodes(seed):
    rng = np.random.default_rng(seed)
    f = ExprField(fuzz.random_smooth_expr(rng))
    g = ExprField(fuzz.random_smooth_expr(rng))
    p = rng.uniform(-1, 1, size=(5, 7))
    for op, folded in (("+", f + g), ("-", f - g), ("*", f * g), ("/", f / g)):
        assert folded.expression
        assert _jets_equal(folded.at(p, 2), BinOp(op, f, g).at(p, 2)), op
    neg = -f
    assert neg.expression
    assert _jets_equal(neg.at(p, 2), BinOp("*", ConstField(-1.0), f).at(p, 2))


def test_mixed_operands_build_evaluation_nodes():
    f = ExprField("x1*y2")
    d = f.partial(0)
    assert isinstance(f + d, BinOp) and not (f + d).expression
    assert isinstance(2.0 * d, BinOp) and not (2.0 * d).expression
    assert isinstance(-d, BinOp) and not (-d).expression
    assert (1.0 - f).expression


@settings(max_examples=25, deadline=None)
@given(SEEDS)
def test_derivative_agrees_with_partial(seed):
    rng = np.random.default_rng(seed)
    f = ExprField(fuzz.random_smooth_expr(rng))
    p = rng.uniform(-1, 1, size=(5, 6))
    for k in range(5):
        sym, ext = f.derivative(k), f.partial(k)
        assert sym.budget == 2 and ext.budget == 1
        for order in (0, 1):
            a, b = sym.at(p, order), ext.at(p, order)
            assert np.max(np.abs(a.value - b.value)) <= 1e-12 * (1.0 + np.max(np.abs(b.value)))
            if order:
                assert np.max(np.abs(a.grad - b.grad)) <= 1e-12 * (1.0 + np.max(np.abs(b.grad)))
        assert sym.at(p, 2).hess.shape == (5, 5, 6)
        with pytest.raises(OrderBudgetExceeded):
            ext.at(p, 2)


def test_derivative_without_ast_falls_back_to_partial():
    f = ExprField("x1*y2").partial(0)
    d = f.derivative(3)
    assert isinstance(d, PartialField) and d.budget == 0
    assert d.at([0.3, 0, 0, 0, 0], 0).value == 1.0


def test_every_spelling_of_zero_is_zero():
    for z in (ExprField("0"), ExprField("0.0"), ConstField(0), ExprField("x1") * 0):
        assert is_zero(z), z
    for nz in (ExprField("x1"), ConstField(1.0), ExprField("x1").partial(0) * 0):
        assert not is_zero(nz), nz


def test_file_zero_connection_prunes_like_flat():
    loaded = md.resolve("flat_so3").effective_triple()
    flat = tr.PoissonTriple(cn.Connection.flat(), loaded.kappa, loaded.beta)
    assert len(loaded.pi_matrix()) == len(flat.pi_matrix())


def test_source_rendered_on_demand():
    f = ExprField("y1") * ExprField("y2") + 1.0
    assert f._source is None
    assert repr(f) == "ExprField('y1 * y2 + 1.0')"
