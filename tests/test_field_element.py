"""Field elements against their evaluations: the algebra commutes with ``.at``."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from acpoisson import calculus as ca
from acpoisson import fuzz
from acpoisson.calculus import FieldElement
from acpoisson.fields import ExprField
from acpoisson.graded import mono_degree

ALL_KEYS = [
    (h, v)
    for h in [(), (1,), (2,), (1, 2)]
    for v in [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
]
OPS = ("+", "-", "scale", "wedge", "project")


def _element(rng, kind, keys):
    return FieldElement(kind, {k: ExprField(fuzz.random_smooth_expr(rng)) for k in keys})


def _assert_same_bytes(a, b):
    assert a.kind == b.kind
    assert list(a.coeffs) == list(b.coeffs)
    for x, y in zip(a.coeffs.values(), b.coeffs.values()):
        x, y = np.asarray(x), np.asarray(y)
        assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes())


@st.composite
def cases(draw):
    op = draw(st.sampled_from(OPS))
    kind = draw(st.sampled_from(["form", "mv"]))
    keys_a = draw(st.lists(st.sampled_from(ALL_KEYS), max_size=4, unique=True))
    if op == "wedge":
        room = 5 - max((mono_degree(k) for k in keys_a), default=0)
        pool = [k for k in ALL_KEYS if mono_degree(k) <= room]
    else:
        pool = ALL_KEYS
    keys_b = draw(st.lists(st.sampled_from(pool), max_size=4, unique=True))
    shape = draw(st.sampled_from([(5,), (5, 1), (5, 7)]))
    seed = draw(st.integers(0, 2**32 - 1))
    factor = draw(st.floats(-3, 3, allow_nan=False).filter(lambda s: s != 0.0))
    bidegree = draw(st.tuples(st.integers(0, 2), st.integers(0, 3)))
    return op, kind, keys_a, keys_b, shape, seed, factor, bidegree


@settings(max_examples=110, deadline=None)
@given(cases())
def test_evaluation_commutes_byte_for_byte(case):
    op, kind, keys_a, keys_b, shape, seed, factor, bidegree = case
    rng = np.random.default_rng(seed)
    A, B = _element(rng, kind, keys_a), _element(rng, kind, keys_b)
    p = rng.uniform(-1.0, 1.0, size=shape)
    a, b = A.at(p), B.at(p)
    if op == "+":
        field_side, value_side = A + B, a + b
    elif op == "-":
        field_side, value_side = A - B, a - b
    elif op == "scale":
        field_side, value_side = A.scale(factor), a.scale(factor)
    elif op == "wedge":
        field_side, value_side = A.wedge(B), a.wedge(b)
    else:
        field_side, value_side = A.project(*bidegree), a.project(*bidegree)
    _assert_same_bytes(field_side.at(p), value_side)


def test_differential_of_a_top_degree_form_is_zero(rng):
    for _ in range(5):
        conn = fuzz.random_connection(rng)
        top = FieldElement.form({((1, 2), (1, 2, 3)): ExprField(fuzz.random_smooth_expr(rng))})
        assert ca.exterior_d_field(top, conn).coeffs == {}


def test_zero_fields_are_not_stored_under_new_keys():
    f = ExprField("x1*y2")
    zero_keys = FieldElement.form({((1,), ()): 0.0, ((), (2,)): "0", ((2,), ()): f})
    assert list(zero_keys.coeffs) == [((2,), ())]
    kept = zero_keys + FieldElement.form({((2,), ()): 0.0})
    assert list(kept.coeffs) == [((2,), ())]


def test_wedge_signs_reuse_the_product_node():
    # a field times 1.0 would be a new node, whose product rule loses -0.0 gradient slots
    f = ExprField("sin(x1*y2)").partial(0)
    g = ExprField("y1^2 + x2").partial(2)
    A, B = FieldElement.form({((1,), ()): f}), FieldElement.form({((), (1,)): g})
    assert A.wedge(B).coeffs[((1,), (1,))] is f * g
    assert B.wedge(A).coeffs[((1,), (1,))] is (g * f) * -1.0
